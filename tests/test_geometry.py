import dataclasses
import math

import numpy as np
import pytest

from cfwpt.config import ScenarioConfig
from cfwpt.geometry import (
    BETA_FLOOR,
    NetworkGeometry,
    PropagationModel,
    draw_link_statistics,
    inh_los_probability,
    inh_rician_factor,
    link_distance,
    place_network,
)


def test_link_distance_3_4_5():
    assert link_distance([0.0, 0.0], [3.0, 0.0], 4.0) == pytest.approx(5.0)


def test_link_distance_broadcasts():
    ap = np.zeros((2, 2))
    ue = np.array([[3.0, 0.0], [0.0, 0.0]])
    d = link_distance(ap[None, :, :], ue[:, None, :], 4.0)
    assert d.shape == (2, 2)
    assert np.allclose(d[:, 0], [5.0, 4.0])


def _pathloss_db(prop, d, los):
    """Path loss in dB that draw_link_statistics applies at distances d.

    One AP at the origin and one UE per distance on the x axis, in one
    plane; shadowing is off and the LOS state is fixed, so the total
    gain beta + |gbar|^2 / N is the path loss alone.
    """
    d = np.asarray(d, dtype=float)
    cfg = ScenarioConfig(L=1, K=d.size, N=1, tau_p=1,
                         tau_d=25, tau_u=174)
    geom = NetworkGeometry(ap_positions=np.zeros((1, 2)),
                           ue_positions=np.column_stack([d, np.zeros_like(d)]),
                           height_diff=0.0)
    fixed = dataclasses.replace(prop, shadow_std_los=0.0, shadow_std_nlos=0.0,
                                los_probability=lambda _: float(los))
    stats = draw_link_statistics(geom, fixed, cfg, np.random.default_rng(0))
    # Every LOS link has a positive K-factor, so a LOS response.
    assert np.all((stats.gbar[:, 0, 0] != 0.0) == los)
    total = stats.beta + np.sum(np.abs(stats.gbar) ** 2, axis=2) / cfg.N
    return -10.0 * np.log10(total[:, 0])


def test_pathloss_reference_point():
    # 16.9*log10(10) + 32.8 + 20*log10(3.4)
    pl = _pathloss_db(PropagationModel(), [10.0], los=True)
    assert pl[0] == pytest.approx(60.32957834, abs=1e-6)


def test_pathloss_monotone_in_distance():
    d = np.linspace(1.0, 150.0, 300)
    for los in (True, False):
        pl = _pathloss_db(PropagationModel(), d, los)
        assert np.all(np.diff(pl) > 0.0)


def test_los_probability_regions():
    assert inh_los_probability(5.0) == 1.0
    assert inh_los_probability(18.0) == 1.0
    assert inh_los_probability(27.0) == pytest.approx(math.exp(-9.0 / 27.0))
    assert inh_los_probability(37.0) == 0.5
    assert inh_los_probability(120.0) == 0.5


def test_rician_factor_decays():
    assert inh_rician_factor(0.0) == pytest.approx(10.0 ** 1.3)
    assert inh_rician_factor(100.0) == pytest.approx(10.0 ** 1.0)
    assert inh_rician_factor(10.0) > inh_rician_factor(20.0)


def test_grid_placement_16():
    cfg = ScenarioConfig()
    geom = place_network(cfg, np.random.default_rng(0))
    xs = np.unique(geom.ap_positions[:, 0])
    assert np.allclose(xs, [12.5, 37.5, 62.5, 87.5])
    assert np.allclose(np.unique(geom.ap_positions[:, 1]), xs)
    assert geom.ap_positions.shape == (16, 2)


def test_grid_placement_single_ap():
    cfg = ScenarioConfig(L=1, K=2)
    geom = place_network(cfg, np.random.default_rng(0))
    assert np.allclose(geom.ap_positions, [[50.0, 50.0]])


def test_non_square_l_falls_back_to_random():
    cfg = ScenarioConfig(L=8)
    a = place_network(cfg, np.random.default_rng(1)).ap_positions
    b = place_network(cfg, np.random.default_rng(2)).ap_positions
    assert a.shape == (8, 2)
    assert not np.allclose(a, b), "random fallback must depend on the rng"
    assert a.min() >= 0.0 and a.max() <= cfg.area_side


def test_random_placement_is_deterministic_per_seed():
    cfg = ScenarioConfig(ap_placement="random")
    a = place_network(cfg, np.random.default_rng(7))
    b = place_network(cfg, np.random.default_rng(7))
    assert np.array_equal(a.ap_positions, b.ap_positions)
    assert np.array_equal(a.ue_positions, b.ue_positions)


def _small_cfg(**kw):
    base = dict(L=4, K=6, N=3, tau_p=2, tau_d=25, tau_u=173)
    base.update(kw)
    return ScenarioConfig(**base)


def test_draw_link_statistics_shapes_and_plan():
    cfg = _small_cfg()
    geom = place_network(cfg, np.random.default_rng(3))
    stats = draw_link_statistics(geom, PropagationModel(), cfg, np.random.default_rng(4))
    assert stats.beta.shape == (6, 4)
    assert stats.gbar.shape == (6, 4, 3)
    assert stats.pilot_of.tolist() == [0, 1, 0, 1, 0, 1]
    assert np.all(stats.beta >= BETA_FLOOR)


def test_gain_split_consistency():
    """The LOS share |gbar|^2 / N over the scattered share beta is the
    Rician K-factor at the link distance on every LOS link."""
    cfg = _small_cfg()
    geom = place_network(cfg, np.random.default_rng(5))
    stats = draw_link_statistics(geom, PropagationModel(), cfg, np.random.default_rng(6))
    los_share = np.sum(np.abs(stats.gbar) ** 2, axis=2) / cfg.N
    los = los_share > 0.0
    assert los.any() and not los.all()
    d = link_distance(geom.ap_positions[None, :, :],
                      geom.ue_positions[:, None, :], geom.height_diff)
    kappa = np.vectorize(inh_rician_factor)(d)
    assert np.allclose(los_share[los] / stats.beta[los], kappa[los], rtol=1e-12)


def test_nlos_links_have_no_los_component():
    cfg = _small_cfg(L=9, K=20)
    prop = PropagationModel(los_probability=lambda d: 0.0)
    geom = place_network(cfg, np.random.default_rng(8))
    stats = draw_link_statistics(geom, prop, cfg, np.random.default_rng(9))
    assert np.all(stats.gbar == 0.0)
    assert np.all(np.isfinite(stats.beta)) and np.all(stats.beta >= BETA_FLOOR)


def test_steering_vector_unit_modulus():
    cfg = _small_cfg()
    prop = PropagationModel(los_probability=lambda d: 1.0, shadow_std_los=0.0)
    geom = place_network(cfg, np.random.default_rng(10))
    stats = draw_link_statistics(geom, prop, cfg, np.random.default_rng(11))
    mags = np.abs(stats.gbar)
    # All LOS: every antenna carries the same LOS amplitude per link.
    assert np.allclose(mags, mags[:, :, :1])


def test_total_gain_decreases_with_distance_without_shadowing():
    cfg = _small_cfg(L=1, K=8, ap_placement="random")
    prop = PropagationModel(los_probability=lambda d: 1.0,
                            shadow_std_los=0.0, shadow_std_nlos=0.0)
    rng = np.random.default_rng(12)
    geom = place_network(cfg, rng)
    stats = draw_link_statistics(geom, prop, cfg, rng)
    d = link_distance(geom.ap_positions[0], geom.ue_positions, geom.height_diff)
    order = np.argsort(d)
    total = stats.beta + np.sum(np.abs(stats.gbar) ** 2, axis=2) / cfg.N
    gains = total[:, 0][order]
    assert all(x >= y for x, y in zip(gains, gains[1:]))
