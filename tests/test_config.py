import math
from dataclasses import fields, replace

import pytest

from cfwpt.config import (
    ConfigError,
    ScenarioConfig,
    dbm_to_watt,
    load_config,
)
from cfwpt.geometry import PropagationModel


def test_defaults_reference_scenario():
    cfg = ScenarioConfig()
    assert (cfg.L, cfg.K, cfg.N) == (16, 20, 25)
    assert (cfg.tau_c, cfg.tau_p, cfg.tau_d, cfg.tau_u) == (200, 5, 25, 170)
    assert cfg.area_side == 100.0
    assert cfg.carrier_freq == 3.4
    assert math.isclose(cfg.rho_p, 1e-7)
    assert cfg.rho_d == 0.25
    assert math.isclose(cfg.sigma2, dbm_to_watt(-96.0))
    assert cfg.mu == 0.5
    assert cfg.mc_samples == 200_000


def test_dbm_conversion():
    assert math.isclose(dbm_to_watt(0.0), 1e-3)
    assert math.isclose(dbm_to_watt(30.0), 1.0)
    assert math.isclose(dbm_to_watt(-96.0), 10.0 ** (-12.6))


def test_tau_split_must_sum():
    """The pilot, energy and data phases fill the block: tau_c is their
    sum, and no setting of its own."""
    assert ScenarioConfig(tau_p=5, tau_d=25, tau_u=171).tau_c == 201
    assert "tau_c" not in {f.name for f in fields(ScenarioConfig)}


# Each case carries its id, so adding or removing a case renames no other
# case.  The ids bad0... are the names these cases have always had; a new
# case takes the offending key as its id.
@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(dict(mu=1.5), id="bad0"),
        pytest.param(dict(mu=-0.1), id="bad1"),
        pytest.param(dict(rho_d=0.0), id="bad2"),
        pytest.param(dict(sigma2=-1.0), id="bad3"),
        pytest.param(dict(L=0, tau_p=5), id="bad4"),
        pytest.param(dict(area_side=-5.0), id="bad5"),
        pytest.param(dict(mc_samples=0), id="bad6"),
        pytest.param(dict(seed=-1), id="bad7"),
        pytest.param(dict(rho_p=math.nan), id="bad8"),
        pytest.param(dict(rho_d=math.inf), id="bad9"),
        pytest.param(dict(sigma2=math.nan), id="bad10"),
        pytest.param(dict(area_side=math.nan), id="bad11"),
        pytest.param(dict(carrier_freq=-1.0), id="bad12"),
        pytest.param(dict(carrier_freq=math.inf), id="bad13"),
        pytest.param(dict(height_diff=-1.0), id="bad14"),
        pytest.param(dict(height_diff=math.nan), id="bad15"),
        pytest.param(dict(mc_samples=1), id="bad16"),
    ],
)
def test_validation_rejects(bad):
    with pytest.raises(ConfigError):
        ScenarioConfig(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(dict(shadow_std_los=-3.0), id="bad0"),
        pytest.param(dict(shadow_std_nlos=math.nan), id="bad1"),
        pytest.param(dict(pathloss_los=(16.9, math.nan, 20.0)), id="bad2"),
        pytest.param(dict(pathloss_nlos=(43.3, 11.5, math.inf)), id="bad3"),
        pytest.param(dict(pathloss_nlos=(43.3, 11.5)), id="bad4"),
    ],
)
def test_propagation_validation_rejects(bad):
    with pytest.raises(ConfigError):
        PropagationModel(**bad)


def test_with_overrides_revalidates():
    """dataclasses.replace runs __post_init__, so a copy is checked too."""
    cfg = ScenarioConfig()
    small = replace(cfg, L=2, K=3, N=2)
    assert (small.L, small.K, small.N) == (2, 3, 2)
    assert cfg.L == 16, "original must stay frozen"
    with pytest.raises(ConfigError):
        replace(cfg, mu=2.0)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# comment line\n"
        "L = 4\n"
        "K = 6            # trailing comment\n"
        "N = 3\n"
        "tau_p = 2\n"
        "tau_d = 25\n"
        "tau_u = 173\n"
        "rho_d = 0.5\n"
        "rho_p_dbm = -40\n"
        "sigma2_dbm = -96\n"
        "mu = 0.7\n"
        "\n"
        "shadow_std_los = 0\n"
        "pathloss_nlos = 40.0, 12.0, 20.0\n"
    )
    cfg, prop = load_config(path)
    assert (cfg.L, cfg.K, cfg.N, cfg.tau_p) == (4, 6, 3, 2)
    assert math.isclose(cfg.rho_p, 1e-7)
    assert math.isclose(cfg.sigma2, dbm_to_watt(-96.0))
    assert cfg.mu == 0.7
    assert prop.shadow_std_los == 0.0
    assert prop.pathloss_nlos == (40.0, 12.0, 20.0)
    assert prop.shadow_std_nlos == PropagationModel().shadow_std_nlos


def test_load_config_reads_every_field(tmp_path):
    """Every ScenarioConfig field is a config key parsed to its own type."""
    cfg = ScenarioConfig(
        L=9, K=7, N=3, area_side=250.5, height_diff=2.5, carrier_freq=2.1,
        tau_p=3, tau_d=40, tau_u=107, rho_p=2e-7, rho_d=0.125,
        sigma2=3.5e-13, mu=0.35, seed=42, mc_samples=1234)
    default = ScenarioConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in fields(cfg))
    path = tmp_path / "every.cfg"
    path.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n"
                            for f in fields(cfg)))
    got, _ = load_config(path)
    assert got == cfg
    assert all(type(getattr(got, f.name)) is type(getattr(cfg, f.name))
               for f in fields(cfg))


def test_load_config_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"K = \xff\xfe\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("rho_q = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("L = four\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


@pytest.mark.parametrize("first, again", [
    ("L = 4", "L = 9"),
    ("rho_p = 0.5", "rho_p_dbm = -40"),
    ("sigma2_dbm = -96", "sigma2 = 1e-12"),
    ("rho_d_dbm = 20", "rho_d_dbm = 24"),
    ("shadow_std_los = 2", "shadow_std_los = 3"),
])
def test_load_config_rejects_repeated_key(first, again, tmp_path):
    """A key set twice, in watts or dBm alike, is an error that names
    both lines, not a silent win for the last one."""
    path = tmp_path / "twice.cfg"
    path.write_text(f"K = 6\n{first}\n# comment\n\n{again}\n")
    with pytest.raises(ConfigError, match=r"^line 5: .* line 2$"):
        load_config(path)


def test_load_config_rejects_short_triple(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("pathloss_los = 1.0, 2.0\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_nonfinite_triple(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("pathloss_los = 16.9, nan, 20.0\n")
    with pytest.raises(ConfigError, match="pathloss_los"):
        load_config(path)


@pytest.mark.parametrize("line", ["L =", "= 4"])
def test_load_config_rejects_empty_key_or_value(line, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(f"K = 6\n# comment\n{line}\n")
    with pytest.raises(ConfigError, match="^line 3: empty key or value"):
        load_config(path)


def test_load_config_rejects_missing_equals(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_reference_config_file_matches_defaults():
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
    cfg, prop = load_config(path)
    assert cfg == ScenarioConfig()
    assert prop == PropagationModel()
