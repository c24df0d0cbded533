"""Rerun the standard set and rewrite its committed answer record.

The standard set is `optimize` on configs/reference.cfg and
perfbench/large_array.cfg at seeds 1 and 2 (8 setups each), on
configs/small_demo.cfg (4 setups) and configs/large_network.cfg (3) at
their own seeds, and `validate` on configs/validate_small.cfg at its own
seed and sample count.  The record, tests/answer_record.json, holds one
row per line: each optimize setup's manifest record, and validate's
stdout.  A change that moves answers on purpose reruns this script and
commits the new record in the same diff.

    python scripts/answer_record.py

prints every field that moved against the committed record, drop by
drop, then one line per optimize config with its solver counts per drop
(probes, LP calls, pivots and certified steps, record -> rerun), and
writes the new record in place of the old.
"""

import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cfwpt.cli import run_optimize, run_validate
from cfwpt.config import load_config

RECORD = ROOT / "tests" / "answer_record.json"

# (config, seed or None for the config's own, setups)
OPTIMIZE_CASES = (
    ("configs/reference.cfg", 1, 8),
    ("configs/reference.cfg", 2, 8),
    ("perfbench/large_array.cfg", 1, 8),
    ("perfbench/large_array.cfg", 2, 8),
    ("configs/small_demo.cfg", None, 4),
    ("configs/large_network.cfg", None, 3),
)
VALIDATE_CASES = ("configs/validate_small.cfg",)


def optimize_rows(config, seed, setups):
    """One row per setup: its manifest record, with the case it is from."""
    cfg, prop = load_config(ROOT / config)
    seed = cfg.seed if seed is None else seed
    with tempfile.TemporaryDirectory() as out:
        records = run_optimize(cfg, prop, setups, seed, out)["records"]
    return [{"command": "optimize", "config": config, "seed": seed, **rec}
            for rec in records]


def validate_row(config):
    """validate's stdout at the config's own seed and sample count."""
    cfg, prop = load_config(ROOT / config)
    text = io.StringIO()
    run_validate(cfg, prop, cfg.mc_samples, cfg.seed, out=text)
    return {"command": "validate", "config": config, "seed": cfg.seed,
            "mc_samples": cfg.mc_samples, "stdout": text.getvalue().splitlines()}


def key(row):
    return row["command"], row["config"], row["seed"], row.get("setup_id")


def read():
    return json.loads(RECORD.read_text())


def shifts(old, new):
    """One line per row whose fields differ, naming each moved field."""
    old = {key(r): r for r in old}
    new = {key(r): r for r in new}
    lines = []
    for k in sorted(old.keys() | new.keys(), key=str):
        a, b = old.get(k), new.get(k)
        if a == b:
            continue
        where = " ".join(str(part) for part in k if part is not None)
        if a is None or b is None:
            lines.append(f"{where}: {'added' if a is None else 'removed'}")
            continue
        moved = []
        for field in sorted(a.keys() | b.keys()):
            x, y = a.get(field), b.get(field)
            if x == y:
                continue
            if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
                pairs = [(u, v) for u, v in zip(x, y) if u != v]
                text = f"{field} {len(pairs)} of {len(x)} entries"
                if all(isinstance(u, float) for pair in pairs for u in pair):
                    rel = max(abs(u - v) / max(abs(u), abs(v)) for u, v in pairs)
                    text += f", max rel {rel:.1e}"
                moved.append(text)
            else:
                moved.append(f"{field} {x} -> {y}")
        lines.append(f"{where}: " + "; ".join(moved))
    return lines


# The solver counts averaged per drop: (label, count of one manifest record).
COUNTS = (
    ("probes", lambda r: r["probes"]),
    ("LP calls", lambda r: r["lp_calls"]),
    ("pivots", lambda r: r["lp_pivots"]),
    ("certified steps", lambda r: r["probes"] - r["infeasible_probes"]),
)


def count_lines(old, new):
    """One line per optimize config: the mean of each of COUNTS over its
    drops, record -> rerun."""
    lines = []
    for config in dict.fromkeys(r["config"] for r in new
                                if r["command"] == "optimize"):
        sides = [[r for r in rows if r["command"] == "optimize"
                  and r["config"] == config] for rows in (old, new)]
        means = [f"{label} " + " -> ".join(
                     f"{sum(map(count, rows)) / len(rows):.2f}" if rows
                     else "-" for rows in sides)
                 for label, count in COUNTS]
        lines.append(f"{config}, {len(sides[1])} drops, per drop: "
                     + ", ".join(means))
    return lines


def main():
    rows = [row for case in OPTIMIZE_CASES for row in optimize_rows(*case)]
    rows += [validate_row(config) for config in VALIDATE_CASES]
    old = read() if RECORD.exists() else []
    moved = shifts(old, rows)
    print("\n".join(moved) if moved else "no field moved")
    print("\n".join(count_lines(old, rows)))
    # One row per line, so a drop that moved is one line of the diff.
    RECORD.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True)
                                         for r in rows) + "\n]\n")


if __name__ == "__main__":
    main()
