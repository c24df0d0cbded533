"""Network layout, pilot assignment and long-term propagation statistics.

Produces, per AP-UE link, the quantities every later stage consumes:
the per-antenna scattered-power coefficient beta_kl and the
phase-stripped line-of-sight response vector gbar_kl, together with
the pilot each UE sends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import ConfigError

# Floor on the scattered-power coefficient; keeps the per-link
# covariance comfortably positive definite under freak shadowing draws.
BETA_FLOOR = 1e-20


def inh_los_probability(d):
    """Line-of-sight probability for the indoor-hotspot layout."""
    if d <= 18.0:
        return 1.0
    if d < 37.0:
        return math.exp(-(d - 18.0) / 27.0)
    return 0.5


def inh_rician_factor(d):
    """Rician K-factor (linear) at distance d; applied on LOS links only."""
    return 10.0 ** (1.3 - 0.003 * d)


@dataclass(frozen=True)
class PropagationModel:
    """Distance-to-gain model: path loss, shadowing, LOS state, K-factor.

    Path-loss triples (a, b, c) mean a*log10(d_m) + b + c*log10(f_GHz)
    in dB.  Defaults are the standard indoor-hotspot values; everything
    is overridable via the config file or directly.
    """

    pathloss_los: tuple = (16.9, 32.8, 20.0)
    pathloss_nlos: tuple = (43.3, 11.5, 20.0)
    shadow_std_los: float = 3.0    # dB
    shadow_std_nlos: float = 4.0   # dB
    los_probability: Callable[[float], float] = inh_los_probability
    rician_factor: Callable[[float], float] = inh_rician_factor

    def __post_init__(self):
        for name in ("pathloss_los", "pathloss_nlos"):
            triple = getattr(self, name)
            if len(triple) != 3 or not all(math.isfinite(v) for v in triple):
                raise ConfigError(
                    f"{name} needs three finite coefficients, got {triple!r}")
        for name in ("shadow_std_los", "shadow_std_nlos"):
            std = getattr(self, name)
            if not (math.isfinite(std) and std >= 0.0):
                raise ConfigError(f"{name} = {std} must be finite and >= 0")


@dataclass(frozen=True)
class NetworkGeometry:
    ap_positions: np.ndarray   # (L, 2) in meters
    ue_positions: np.ndarray   # (K, 2)
    height_diff: float         # m, common to all links


def assign_pilots(cfg):
    """Round-robin pilot assignment: UE k uses pilot k mod tau_p."""
    return np.arange(cfg.K) % cfg.tau_p


@dataclass(frozen=True)
class ChannelStatistics:
    """Long-term statistics per (UE k, AP l) link.

    beta[k, l] is the scattered (NLOS) power per antenna, gbar[k, l] the
    deterministic LOS response before the per-block phase rotation, so
    the total link gain per antenna is beta + |gbar|^2 / N.  pilot_of[k]
    is the pilot UE k sends, from assign_pilots.
    """

    beta: np.ndarray        # (K, L) real > 0
    gbar: np.ndarray        # (K, L, N) complex
    pilot_of: np.ndarray    # (K,) int in [0, tau_p)


def place_network(cfg, rng):
    """Drop L APs and K UEs in the square.

    APs sit on a centered sqrt(L) x sqrt(L) grid when that is possible
    and requested, otherwise uniformly at random; UEs are always
    uniform i.i.d.
    """
    root = math.isqrt(cfg.L)
    if cfg.ap_placement == "grid" and root * root == cfg.L:
        pitch = cfg.area_side / root
        line = (np.arange(root) + 0.5) * pitch
        xx, yy = np.meshgrid(line, line)
        ap = np.column_stack([xx.ravel(), yy.ravel()])
    else:
        ap = rng.uniform(0.0, cfg.area_side, size=(cfg.L, 2))
    ue = rng.uniform(0.0, cfg.area_side, size=(cfg.K, 2))
    return NetworkGeometry(ap_positions=ap, ue_positions=ue,
                           height_diff=cfg.height_diff)


def link_distance(ap, ue, height_diff):
    """3-D distance between an AP and a UE separated by height_diff."""
    ap = np.asarray(ap, dtype=float)
    ue = np.asarray(ue, dtype=float)
    horiz_sq = np.sum((ap - ue) ** 2, axis=-1)
    return np.sqrt(horiz_sq + float(height_diff) ** 2)


def draw_link_statistics(geom, prop, cfg, rng):
    """Draw LOS states, shadowing and K-factors for every link.

    The total per-antenna gain 10^(-(PL+shadow)/10) is split into the
    LOS response (fraction kappa/(kappa+1), spread over a half-wavelength
    uniform linear array steered at the link azimuth) and the scattered
    part beta (fraction 1/(kappa+1)).  NLOS links have kappa = 0.
    """
    K, L, N = cfg.K, cfg.L, cfg.N
    ap = geom.ap_positions
    ue = geom.ue_positions

    # (K, L) distances and azimuths, UE-major so k indexes rows everywhere.
    dist = link_distance(ap[None, :, :], ue[:, None, :], geom.height_diff)
    azimuth = np.arctan2(ue[:, None, 1] - ap[None, :, 1],
                         ue[:, None, 0] - ap[None, :, 0])

    p_los = np.vectorize(prop.los_probability)(dist)
    los = rng.uniform(size=(K, L)) < p_los
    shadow = rng.standard_normal((K, L)) * np.where(
        los, prop.shadow_std_los, prop.shadow_std_nlos)

    a_los, b_los, c_los = prop.pathloss_los
    a_nlos, b_nlos, c_nlos = prop.pathloss_nlos
    log_d = np.log10(dist)
    log_f = math.log10(cfg.carrier_freq)
    pl_db = np.where(los,
                     a_los * log_d + b_los + c_los * log_f,
                     a_nlos * log_d + b_nlos + c_nlos * log_f)
    beta_tot = 10.0 ** (-(pl_db + shadow) / 10.0)

    kappa = np.where(los, np.vectorize(prop.rician_factor)(dist), 0.0)
    los_share = kappa / (kappa + 1.0)

    steering = np.exp(1j * math.pi * np.arange(N)[None, None, :]
                      * np.sin(azimuth)[:, :, None])
    gbar = np.sqrt(los_share * beta_tot)[:, :, None] * steering
    beta = np.maximum(beta_tot / (kappa + 1.0), BETA_FLOOR)

    return ChannelStatistics(beta=beta, gbar=gbar, pilot_of=assign_pilots(cfg))
