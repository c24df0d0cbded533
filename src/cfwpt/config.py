"""Scenario parameters and the flat key=value config file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class ConfigError(ValueError):
    """Raised on malformed config files or inconsistent parameter sets."""


def dbm_to_watt(dbm):
    return 10.0 ** ((float(dbm) - 30.0) / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """All scalar system parameters for one scenario.

    Defaults describe the reference indoor-hotspot deployment used by
    the shipped experiments: a 4x4 AP grid with 25 antennas per AP over
    a 100 m square serving 20 energy-harvesting users.  Each coherence
    block is 5 pilot, 25 downlink-energy and 170 uplink-data samples;
    the three phases fill it, so its length tau_c (200) is their sum.
    """

    L: int = 16                  # access points
    K: int = 20                  # user terminals
    N: int = 25                  # antennas per AP
    area_side: float = 100.0     # m
    height_diff: float = 4.0     # m between AP and UE planes
    carrier_freq: float = 3.4    # GHz
    tau_p: int = 5               # pilot phase
    tau_d: int = 25              # downlink energy phase
    tau_u: int = 170             # uplink data phase
    rho_p: float = 1e-7          # UE pilot power, W (-40 dBm)
    rho_d: float = 0.25          # per-AP transmit power limit, W
    sigma2: float = dbm_to_watt(-96.0)   # noise power, W
    mu: float = 0.5              # harvester efficiency, in [0, 1]
    seed: int = 1
    mc_samples: int = 200_000    # Monte Carlo draws for the oracles

    @property
    def tau_c(self):
        """Coherence block length in samples: pilot + energy + data."""
        return self.tau_p + self.tau_d + self.tau_u

    def __post_init__(self):
        if min(self.L, self.K, self.N, self.tau_p, self.tau_d, self.tau_u) < 1:
            raise ConfigError("L, K, N and all tau's must be >= 1")
        for name in ("rho_p", "rho_d", "sigma2", "carrier_freq", "area_side"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} = {value} must be finite and > 0")
        if not (math.isfinite(self.height_diff) and self.height_diff >= 0.0):
            raise ConfigError(
                f"height_diff = {self.height_diff} must be finite and >= 0")
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"mu = {self.mu} outside [0, 1]")
        if self.mc_samples < 2 or self.seed < 0:
            raise ConfigError("mc_samples must be >= 2 and seed >= 0")


# One parser per ScenarioConfig field, read off its annotation.
_PARSERS = {f.name: {"int": int, "float": float}[f.type]
            for f in fields(ScenarioConfig)}
# Convenience spellings converted to watts once, at parse time.
_DBM_KEYS = {"rho_p_dbm": "rho_p", "rho_d_dbm": "rho_d", "sigma2_dbm": "sigma2"}
# Propagation overrides (see geometry.PropagationModel).
_PROP_TRIPLE_KEYS = {"pathloss_los", "pathloss_nlos"}
_PROP_FLOAT_KEYS = {"shadow_std_los", "shadow_std_nlos"}


def _parse_lines(text):
    """Yield (lineno, key, value) from flat ``key = value`` text."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        yield lineno, key, value


def load_config(path):
    """Read a scenario + propagation model from a flat key=value file.

    Returns
    -------
    (ScenarioConfig, PropagationModel)

    Unknown and repeated keys are rejected rather than ignored so that
    typos fail loudly.  Power keys accept either watts (``rho_p``) or a
    ``_dbm`` variant converted at parse time, one key in either spelling.
    """
    from .geometry import PropagationModel

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc

    cfg_kwargs = {}
    prop_kwargs = {}
    first = {}      # line that set each key, both power spellings as one
    for lineno, key, value in _parse_lines(text):
        name = _DBM_KEYS.get(key, key)
        if first.setdefault(name, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {name!r} is already set "
                              f"on line {first[name]}")
        try:
            if key in _PARSERS:
                cfg_kwargs[key] = _PARSERS[key](value)
            elif key in _DBM_KEYS:
                cfg_kwargs[_DBM_KEYS[key]] = dbm_to_watt(float(value))
            elif key in _PROP_TRIPLE_KEYS:
                prop_kwargs[key] = tuple(float(part) for part in value.split(","))
            elif key in _PROP_FLOAT_KEYS:
                prop_kwargs[key] = float(value)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    cfg = ScenarioConfig(**cfg_kwargs)
    prop = PropagationModel(**prop_kwargs)
    return cfg, prop
