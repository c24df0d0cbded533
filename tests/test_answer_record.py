"""The standard set's answers against the committed record.

Status, cap hits and every count must match exactly; t*, the final
bracket and the per-UE SE at rtol 1e-9, since bitwise identity across
numpy versions is not known.  validate's stdout must match line for
line.  A change that moves answers on purpose reruns
scripts/answer_record.py, which prints the per-drop shifts and
rewrites the record.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import answer_record  # noqa: E402

EXACT = ("status", "cap_hit", "setup_seed", "probes", "infeasible_probes",
         "lp_calls", "lp_pivots")
CLOSE = ("t_star", "bracket", "se_mmf", "se_fpc")
RECORD = {answer_record.key(row): row for row in answer_record.read()}


@pytest.mark.parametrize("config, seed, setups", answer_record.OPTIMIZE_CASES)
def test_optimize_answers_match_record(config, seed, setups):
    rows = answer_record.optimize_rows(config, seed, setups)
    case = answer_record.key(rows[0])[:3]
    assert sum(k[:3] == case for k in RECORD) == setups
    for row in rows:
        where = answer_record.key(row)
        want = RECORD[where]
        assert row.keys() == want.keys(), where
        assert {f: row.get(f) for f in EXACT} \
            == {f: want.get(f) for f in EXACT}, where
        for field in CLOSE:
            if field in want:
                np.testing.assert_allclose(row[field], want[field], rtol=1e-9,
                                           atol=0.0, err_msg=f"{where} {field}")


@pytest.mark.parametrize("config", answer_record.VALIDATE_CASES)
def test_validate_output_matches_record(config):
    row = answer_record.validate_row(config)
    assert row == RECORD[answer_record.key(row)]
