import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cfwpt

from cfwpt import channel, cli
from cfwpt.channel import MC_BATCH, draw_estimates, mean_and_stderr
from cfwpt.cli import (
    MAX_VALIDATE_SIZE,
    _small_default_config,
    main,
    run_cdf,
    run_optimize,
    run_validate,
)
from cfwpt.config import ScenarioConfig, load_config
from cfwpt.geometry import PropagationModel
from cfwpt.lp import SimplexIterationError
from cfwpt.wit import lsfd_statistics, se_sums
from cfwpt.wpt import harvested_energy, harvested_energy_oracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _demo():
    return load_config(CONFIGS / "small_demo.cfg")


def _read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_optimize_outputs(tmp_path):
    cfg, prop = _demo()
    manifest = run_optimize(cfg, prop, setups=2, seed=11, out_dir=tmp_path)

    rows = _read_rows(tmp_path / "se_per_ue.csv")
    assert len(rows) == 2 * 2 * cfg.K
    assert list(rows[0]) == ["setup_id", "ue_id", "scheme", "se_bits_per_hz"]
    assert {r["scheme"] for r in rows} == {"MMF", "FPC"}
    assert {int(r["setup_id"]) for r in rows} == {0, 1}
    for r in rows:
        assert float(r["se_bits_per_hz"]) >= 0.0
    # Per setup: the MMF block precedes FPC, UEs ascending within each.
    first = rows[: cfg.K]
    assert [r["scheme"] for r in first] == ["MMF"] * cfg.K
    assert [int(r["ue_id"]) for r in first] == list(range(cfg.K))

    mins = _read_rows(tmp_path / "min_se_per_setup.csv")
    assert len(mins) == 2 * 2
    by_key = {(int(r["setup_id"]), r["scheme"]): float(r["min_se"]) for r in mins}
    per_ue_min = min(float(r["se_bits_per_hz"]) for r in rows
                     if r["setup_id"] == "0" and r["scheme"] == "MMF")
    assert by_key[(0, "MMF")] == pytest.approx(per_ue_min, rel=1e-9)

    assert manifest["setups"] == 2 and manifest["seed"] == 11
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["records"] == manifest["records"]
    assert len(on_disk["records"]) == 2
    for rec in on_disk["records"]:
        assert rec["status"] in ("solved", "infeasible_at_zero")
        assert len(rec["se_mmf"]) == cfg.K


def test_optimize_is_deterministic(tmp_path):
    cfg, prop = _demo()
    run_optimize(cfg, prop, setups=2, seed=7, out_dir=tmp_path / "a")
    run_optimize(cfg, prop, setups=2, seed=7, out_dir=tmp_path / "b")
    for name in ("se_per_ue.csv", "min_se_per_setup.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_optimize_parallel_matches_serial(tmp_path):
    cfg, prop = _demo()
    run_optimize(cfg, prop, setups=3, seed=5, out_dir=tmp_path / "serial")
    run_optimize(cfg, prop, setups=3, seed=5, out_dir=tmp_path / "par", jobs=2)
    for name in ("se_per_ue.csv", "min_se_per_setup.csv"):
        assert (tmp_path / "serial" / name).read_bytes() \
            == (tmp_path / "par" / name).read_bytes()


def test_optimize_seed_changes_results(tmp_path):
    cfg, prop = _demo()
    run_optimize(cfg, prop, setups=1, seed=1, out_dir=tmp_path / "a")
    run_optimize(cfg, prop, setups=1, seed=2, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "se_per_ue.csv").read_bytes() \
        != (tmp_path / "b" / "se_per_ue.csv").read_bytes()


def test_cdf_pipeline(tmp_path, capsys):
    cfg, prop = _demo()
    run_optimize(cfg, prop, setups=3, seed=13, out_dir=tmp_path)
    assert run_cdf(tmp_path) == 0
    printed = capsys.readouterr().out
    assert "90%-likely" in printed and "95%-likely" in printed

    for name, count in (("cdf_se_per_ue.csv", 2 * 3 * cfg.K),
                        ("cdf_min_se.csv", 2 * 3)):
        rows = _read_rows(tmp_path / name)
        assert len(rows) == count
        for scheme in ("MMF", "FPC"):
            sub = [r for r in rows if r["scheme"] == scheme]
            vals = [float(r["value"]) for r in sub]
            cdfs = [float(r["cdf"]) for r in sub]
            assert vals == sorted(vals)
            assert cdfs[-1] == pytest.approx(1.0)
            assert all(b > a for a, b in zip(cdfs, cdfs[1:]))

    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert len(summary) == 4
    assert summary[0].startswith("per-UE SE, MMF:")


def _write_manifest(path, records):
    (path / "manifest.json").write_text(json.dumps({"records": records}))


def test_cdf_single_value(tmp_path):
    _write_manifest(tmp_path, [{
        "se_mmf": [1.5], "se_fpc": [0.5],
        "min_se_mmf": 1.5, "min_se_fpc": 0.5,
    }])
    assert run_cdf(tmp_path) == 0
    rows = _read_rows(tmp_path / "cdf_se_per_ue.csv")
    assert [(r["scheme"], r["value"], r["cdf"]) for r in rows] \
        == [("MMF", "1.5", "1"), ("FPC", "0.5", "1")]
    summary = (tmp_path / "summary.txt").read_text()
    assert "per-UE SE, MMF: 90%-likely = 1.5 bits/s/Hz" in summary


def test_cdf_quantile_rule(tmp_path):
    # 20 values 1..20: ceil(0.1*20) = 2nd smallest, ceil(0.05*20) = 1st.
    vals = [float(v) for v in range(1, 21)]
    _write_manifest(tmp_path, [{
        "se_mmf": vals, "se_fpc": vals,
        "min_se_mmf": 1.0, "min_se_fpc": 1.0,
    }])
    assert run_cdf(tmp_path) == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "per-UE SE, MMF: 90%-likely = 2 bits/s/Hz, 95%-likely = 1 bits/s/Hz" \
        in summary


def test_cdf_missing_manifest(tmp_path):
    assert run_cdf(tmp_path / "nowhere") == 2


def test_cdf_corrupt_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{ not json")
    assert run_cdf(tmp_path) == 2


def test_cdf_empty_records(tmp_path):
    _write_manifest(tmp_path, [])
    assert run_cdf(tmp_path) == 2


def test_validate_passes_on_small_instance(capsys):
    cfg = _small_default_config()
    code = run_validate(cfg, PropagationModel(), mc_samples=10_000, seed=4)
    out = capsys.readouterr().out
    assert code == 0
    assert "validation PASSED" in out
    quantity_lines = [l for l in out.splitlines() if " max|z| = " in l]
    assert len(quantity_lines) == 4


def test_validate_detects_corruption(capsys, monkeypatch):
    """A closed-form energy biased by 5% must fail the comparison."""
    monkeypatch.setattr("cfwpt.cli.harvested_energy",
                        lambda p, coef: 1.05 * harvested_energy(p, coef))
    cfg = _small_default_config()
    code = run_validate(cfg, PropagationModel(), mc_samples=10_000, seed=4)
    out = capsys.readouterr().out
    assert code == 1
    assert "validation FAILED" in out


def _biased_b(factor, at=...):
    """An lsfd_statistics whose closed-form b is scaled by factor at the
    entries `at`, for a validate to catch; the energy table is kept."""
    def biased(*args):
        se = lsfd_statistics(*args)
        b = se.b.copy()
        b[at] *= factor
        return replace(se, b=b)
    return biased


def test_validate_detects_corrupted_decoding_statistic(capsys, monkeypatch):
    """A closed-form b biased by 5% must fail the comparison, on b."""
    monkeypatch.setattr("cfwpt.cli.lsfd_statistics", _biased_b(1.05))
    cfg = _small_default_config()
    code = run_validate(cfg, PropagationModel(), mc_samples=10_000, seed=4)
    out = capsys.readouterr().out
    assert code == 1
    assert "validation FAILED" in out
    worst = {l.split()[0]: float(l.split()[3]) for l in out.splitlines()
             if " max|z| = " in l}
    assert worst["b"] > 3.0
    assert max(worst["harvested_energy"], worst["C"], worst["D"]) <= 3.0


def _spy_z_scores(monkeypatch):
    """Record (closed, mean, stderr, z) of every z-score validate takes."""
    calls = []
    z_scores = cli._z_scores

    def spy(closed, mean, stderr):
        z = z_scores(closed, mean, stderr)
        calls.append((closed, mean, stderr, z))
        return z
    monkeypatch.setattr(cli, "_z_scores", spy)
    return calls


def _validate_drop(cfg, prop, seed):
    """validate's drop and generator, at the point its Monte Carlo starts."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    stats, cache, se = cli.build_drop(cfg, prop, rng)
    return stats, cfg.rho_d / (cfg.K * cache.tr_rhat), rng


def test_validate_reports_where_the_worst_z_sits(capsys, monkeypatch):
    """Each max|z| line is followed by an indented line with the index
    of that array's worst entry; a b bias planted at one entry is found
    there.  The new line cannot be read as a max|z| line."""
    monkeypatch.setattr("cfwpt.cli.lsfd_statistics", _biased_b(1.5, (3, 1)))
    calls = _spy_z_scores(monkeypatch)
    run_validate(_small_default_config(), PropagationModel(),
                 mc_samples=2_000, seed=4)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    for i, name in enumerate(("harvested_energy", "b", "C", "D")):
        z = calls[i][3]
        at = np.unravel_index(np.argmax(z), z.shape)
        assert lines[2 * i].startswith(name + " ")
        assert lines[2 * i + 1] == f"    worst at [{', '.join(map(str, at))}]"
        assert " max|z| = " not in lines[2 * i + 1]
    assert lines[3] == "    worst at [3, 1]"


def test_validate_energy_equals_standalone_oracle(capsys, monkeypatch):
    """validate's energy estimate, standard error and z are bitwise those
    of harvested_energy_oracle on the same drop and generator."""
    cfg, prop = _small_default_config(), PropagationModel()
    samples, seed = MC_BATCH + 700, 4     # a short last batch too
    calls = _spy_z_scores(monkeypatch)
    run_validate(cfg, prop, samples, seed)
    stats, p, rng = _validate_drop(cfg, prop, seed)
    mean, err = harvested_energy_oracle(p, stats, cfg, samples, rng)
    closed, got_mean, got_err, z = calls[0]
    assert got_mean.tobytes() == mean.tobytes()
    assert got_err.tobytes() == err.tobytes()
    assert z.tobytes() == cli._z_scores(closed, mean, err).tobytes()


def test_validate_decoding_statistics_replay_one_stream(capsys, monkeypatch):
    """validate's b, C and D are se_sums over the energy oracle's stream:
    draw_estimates with each batch's energy symbols drawn after it."""
    cfg, prop = _small_default_config(), PropagationModel()
    samples, seed = MC_BATCH + 700, 4
    calls = _spy_z_scores(monkeypatch)
    run_validate(cfg, prop, samples, seed)
    stats, p, rng = _validate_drop(cfg, prop, seed)
    block = se_sums(cfg)
    sums = [(0.0, 0.0)] * 3
    for g, ghat in draw_estimates(stats, cfg, samples, rng):
        rng.uniform(size=(g.shape[0], cfg.K, cfg.L))    # energy symbols
        part = block(np.moveaxis(g, 0, -1), np.moveaxis(ghat, 0, -1).conj(),
                     rng)
        sums = [(s + a, q + b) for (s, q), (a, b) in zip(sums, part)]
    for (_, got_mean, got_err, _), (s, q) in zip(calls[1:], sums):
        mean, err = mean_and_stderr(s, q, samples)
        assert got_mean.tobytes() == mean.tobytes()
        assert got_err.tobytes() == err.tobytes()
    assert len(calls) == 4


def test_validate_draws_each_block_once(capsys, monkeypatch):
    """One pass: validate asks the channel for mc_samples realizations in
    all, not one stream per oracle."""
    sizes = []
    sample = channel.sample_realization

    def spy(stats, rng, size=None):
        sizes.append(size)
        return sample(stats, rng, size=size)
    monkeypatch.setattr(channel, "sample_realization", spy)
    run_validate(_small_default_config(), PropagationModel(),
                 mc_samples=MC_BATCH + 700, seed=4)
    assert sizes == [MC_BATCH, 700]


def test_validate_zero_efficiency_trivially_passes(capsys):
    cfg = replace(_small_default_config(), mu=0.0)
    code = run_validate(cfg, PropagationModel(), mc_samples=2_000, seed=3)
    assert code == 0
    assert "validation PASSED" in capsys.readouterr().out


def test_main_validate_builtin_instance(capsys):
    code = main(["validate", "--mc-samples", "8000", "--seed", "2"])
    assert code == 0
    assert "PASSED" in capsys.readouterr().out


def test_main_validate_rejects_large_instance(capsys):
    cfg = ScenarioConfig()
    assert cfg.L * cfg.N * cfg.K > MAX_VALIDATE_SIZE
    code = main(["validate", "--config", str(CONFIGS / "reference.cfg")])
    assert code == 2
    assert "too large" in capsys.readouterr().err


def test_main_optimize_and_cdf_round_trip(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["optimize", "--config", str(CONFIGS / "small_demo.cfg"),
                 "--setups", "1", "--seed", "4", "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert main(["cdf", "--out", str(out)]) == 0
    assert "min SE per setup, FPC" in capsys.readouterr().out


def test_main_optimize_rejects_nan_power(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text((CONFIGS / "small_demo.cfg").read_text() + "rho_p = nan\n")
    out = tmp_path / "sweep"
    code = main(["optimize", "--config", str(bad), "--setups", "1",
                 "--out", str(out)])
    assert code == 2
    assert "rho_p" in capsys.readouterr().err
    assert not (out / "se_per_ue.csv").exists()
    assert not (out / "min_se_per_setup.csv").exists()


def test_main_usage_errors(tmp_path, capsys):
    assert main([]) == 2
    assert main(["optimize", "--bogus"]) == 2
    assert main(["optimize", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    assert main(["optimize", "--config", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, option, value", [
    ("validate", "--mc-samples", "0"),
    ("validate", "--mc-samples", "-5"),
    ("validate", "--mc-samples", "1"),
    ("optimize", "--setups", "0"),
    ("optimize", "--setups", "-3"),
    ("optimize", "--seed", "-1"),
    ("validate", "--seed", "-1"),
    ("optimize", "--jobs", "0"),
])
def test_main_rejects_bad_counts(command, option, value, tmp_path, capsys):
    """A count below its floor (1, or 2 Monte Carlo samples, the fewest
    with a standard error) or a negative seed exits 2 with a message
    that names the option, before any output is written."""
    out = tmp_path / "out"
    argv = [command]
    if command == "optimize":
        argv += ["-c", str(CONFIGS / "small_demo.cfg"), "--setups", "1",
                 "-o", str(out)]
    assert main(argv + [option, value]) == 2
    assert f"argument {option}: must be >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, content, argv", [
    ("bad.cfg", b"K = \xff\xfe\n",
     ["optimize", "-c", "{path}", "--setups", "1", "-o", "{dir}/out"]),
    ("bad.cfg", b"rho_p = 0.5\nrho_p_dbm = -40\n",
     ["optimize", "-c", "{path}", "--setups", "1", "-o", "{dir}/out"]),
    ("manifest.json", b"[]", ["cdf", "-o", "{dir}"]),
    ("manifest.json", b'{"records": [{"se_fpc": [1.0], "min_se_mmf": 1.0,'
                      b' "min_se_fpc": 1.0}]}', ["cdf", "-o", "{dir}"]),
    ("manifest.json", b'{"records": [{"se_mmf": ["x"], "se_fpc": [1.0],'
                      b' "min_se_mmf": 1.0, "min_se_fpc": 1.0}]}',
     ["cdf", "-o", "{dir}"]),
], ids=["non-utf8-config", "repeated-config-key", "manifest-not-an-object",
        "record-without-se_mmf", "se-not-a-number"])
def test_main_rejects_malformed_input(name, content, argv, tmp_path, capsys):
    """Input that cannot be decoded, or that parses but has the wrong
    shape, exits 2 with a message instead of a traceback."""
    path = tmp_path / name
    path.write_bytes(content)
    assert main([arg.format(path=path, dir=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_cdf_rejects_non_finite_se(value, tmp_path, capsys):
    """A manifest that parses but holds a non-finite SE exits 2, names the
    record and writes no CDF table."""
    good = '{"setup_id": 0, "se_mmf": [1.0], "se_fpc": [1.0],' \
           ' "min_se_mmf": 1.0, "min_se_fpc": 1.0}'
    bad = f'{{"setup_id": 7, "se_mmf": [{value}, 1.0], "se_fpc": [1.0, 1.0],' \
          f' "min_se_mmf": {value}, "min_se_fpc": 1.0}}'
    (tmp_path / "manifest.json").write_text(f'{{"records": [{good}, {bad}]}}')
    assert main(["cdf", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "record 1 (setup_id 7)" in err
    assert not (tmp_path / "cdf_se_per_ue.csv").exists()


def test_manifest_records_solver_path(tmp_path):
    """Each record carries the probe counts, the LP calls and simplex
    pivots and the final bracket of its solve, and stays a pure function
    of (config, seed)."""
    cfg, prop = _demo()
    first = run_optimize(cfg, prop, setups=2, seed=5, out_dir=tmp_path / "a")
    again = run_optimize(cfg, prop, setups=2, seed=5, out_dir=tmp_path / "b")
    assert first["records"] == again["records"]
    for rec in json.loads((tmp_path / "a" / "manifest.json").read_text())[
            "records"]:
        assert rec["probes"] >= rec["infeasible_probes"] >= 0
        assert 0 <= rec["lp_calls"] <= rec["probes"]
        assert rec["lp_pivots"] >= 0
        t_min, t_max = rec["bracket"]
        if rec["status"] == "solved":
            assert t_min <= rec["t_star"] <= t_max


def test_optimize_runs_without_scipy(tmp_path):
    """A whole optimize + cdf run in a fresh interpreter imports no scipy."""
    script = (
        "import sys\n"
        "from cfwpt.cli import main\n"
        f"assert main(['optimize', '-c', {str(CONFIGS / 'small_demo.cfg')!r},"
        f" '--setups', '1', '-o', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['cdf', '-o', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(cfwpt.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_failed_setup_is_isolated(tmp_path, capsys, monkeypatch):
    """A setup whose solve raises becomes an error record: the other
    setups' rows and the manifest are still written, optimize prints one
    stderr line and exits 1, and cdf skips the record."""
    argv = ["optimize", "-c", str(CONFIGS / "small_demo.cfg"),
            "--setups", "3"]
    assert main(argv + ["-o", str(tmp_path / "clean")]) == 0
    solve, calls = cli.solve_maxmin, []

    def fail_on_setup_1(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise SimplexIterationError("no convergence in 7 pivots")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_maxmin", fail_on_setup_1)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: setup 1: SimplexIterationError: no convergence in 7 pivots"]

    clean = json.loads((tmp_path / "clean" / "manifest.json").read_text())
    records = json.loads((out / "manifest.json").read_text())["records"]
    assert records[0] == clean["records"][0]
    assert records[2] == clean["records"][2]
    assert records[1] == {
        "setup_id": 1, "setup_seed": clean["records"][1]["setup_seed"],
        "status": "error",
        "error": "SimplexIterationError: no convergence in 7 pivots"}
    for name in ("se_per_ue.csv", "min_se_per_setup.csv"):
        rows = _read_rows(tmp_path / "clean" / name)
        assert _read_rows(out / name) == [r for r in rows
                                          if r["setup_id"] != "1"]

    assert main(["cdf", "-o", str(out)]) == 0
    assert len(_read_rows(out / "cdf_min_se.csv")) == 2 * 2
