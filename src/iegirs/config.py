"""Scenario configuration: one dataclass describing a full simulation scene."""

import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields, replace
import numpy as np

# The schemes, each with its real-time reflection dims and frozen phases drawn, given (N, Q).
# The real-time rows are the Q groups of ieg and aeg, or elements 1..Q of
# uirs_q; the frozen elements are the last ones of the surface. no_irs has
# no surface.
SCHEME_DIMS = {
    "ieg": lambda n, q: (q, 0),
    "aeg": lambda n, q: (q, 0),
    "uirs_q": lambda n, q: (q, n - q),
    "random_rcv": lambda n, q: (0, n),
    "no_irs": lambda n, q: (0, 0),
}
SCENARIOS = ("obscured", "unobscured")
# the YAML layout of to_dict and from_dict: top-level key -> field, or section -> {key: field}
_LAYOUT = {"system": {"M": "M", "K": "K", "N": "N", "Q": "Q"},
           "geometry": {"bs": "bs_pos", "irs": "irs_pos", "user_center": "user_center",
                        "user_radius": "user_radius"},
           "kappas": {"bi": "kappa_bi", "iu": "kappa_iu", "bu": "kappa_bu"},
           **{key: key for key in ("power_dbm", "noise_dbm", "scenario", "weights", "trials",
                                   "seed", "schemes")}}
_POSITIONS = ("bs_pos", "irs_pos", "user_center")     # each lists 3 finite coordinates
# lower bounds of fields (a negative radius would mirror the users through the centre)
_AT_LEAST = {"user_radius": 0, "kappa_bi": 0, "kappa_iu": 0, "kappa_bu": 0, "seed": 0,
             "M": 1, "K": 1, "trials": 1}
MAX_WEIGHT = 1e100     # largest rate weight; a solve's precoder power turns NaN from about 1e200


def checked_weights(weights, k):
    """weights as a float array; ValueError unless of shape (k,) with entries in [0, MAX_WEIGHT]."""
    weights = np.array(weights, dtype=float)
    if weights.shape != (k,):
        raise ValueError(f"weights length must equal K = {k}, got shape {weights.shape}")
    if not all(0.0 <= x <= MAX_WEIGHT for x in weights.tolist()):
        raise ValueError(f"weights must be finite and nonnegative, at most {MAX_WEIGHT:g}, "
                         f"got {weights.tolist()}")
    return weights


def checked_group_count(q, n):
    """ValueError unless 1 <= q <= n: a grouping of n elements into q non-empty groups."""
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= Q <= N, got Q={q}, N={n}")


def checked_positive(value, name):
    """ValueError naming value unless it is a finite number > 0 (NaN and inf are refused)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _watts(dbm):
    """dBm as watts, inf past the float range (10.0 ** x raises OverflowError there)."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


def check_fields(obj, at_least):
    """Check a dataclass's numeric fields by annotation, then its lower bounds.

    An int field takes a whole number, stored as int; a float field a finite
    real, stored as float; bools are refused. Then each field named in
    at_least must be at least its bound. ValueError names the field. Values
    are stored by object.__setattr__, so frozen dataclasses work too.
    """
    for kind, ok, what in ((int, float.is_integer, "a whole number"),
                           (float, math.isfinite, "a finite real number")):
        for name in (f.name for f in fields(obj) if f.type is kind):
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not ok(float(value)):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            object.__setattr__(obj, name, kind(value))
    for name, low in at_least.items():
        if getattr(obj, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(obj, name)!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, array sizes, fading statistics, and run controls for a scene.

    Distances are metres, powers dBm, Rician factors linear. The direct
    BS-user link uses the NLoS path-loss model when scenario == "obscured"
    and the LoS model otherwise; BS-IRS and IRS-user links are always LoS.
    Frozen: every field is checked once, at construction.
    """

    M: int = 4                      # BS antennas
    K: int = 4                      # single-antenna users
    N: int = 1024                   # IRS elements
    Q: int = 4                      # reflection groups
    bs_pos: tuple = (0.0, 6.0, 16.0)
    irs_pos: tuple = (300.0, 0.0, 8.0)
    user_center: tuple = (300.0, 6.0, 0.0)
    user_radius: float = 2.0
    kappa_bi: float = 1.0
    kappa_iu: float = 1.0
    kappa_bu: float = 1.0
    power_dbm: float = 10.0
    noise_dbm: float = -100.0
    scenario: str = "obscured"
    weights: tuple | None = None    # per-user rate weights, default all-ones
    trials: int = 20
    seed: int = 1
    schemes: tuple = tuple(SCHEME_DIMS)

    def __post_init__(self):
        check_fields(self, _AT_LEAST)
        checked_group_count(self.Q, self.N)
        for name in ("power_dbm", "noise_dbm"):
            checked_positive(_watts(getattr(self, name)), f"{name} {getattr(self, name)!r} in watts")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.weights is None:
            object.__setattr__(self, "weights", (1.0,) * self.K)
        for name in (f.name for f in fields(self) if f.type in (tuple, tuple | None)):
            value = getattr(self, name)
            if isinstance(value, (str, Mapping)) or not isinstance(value, Iterable):
                raise ValueError(f"{name} must be a list, got {value!r}")
            value = tuple(value)
            if name != "schemes" and not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                             for v in value):
                raise ValueError(f"{name} must list real numbers, got {value!r}")
            if name in _POSITIONS and (len(value) != 3 or not all(map(math.isfinite, value))):
                raise ValueError(f"{name} must list 3 finite coordinates (x, y, z), got {value!r}")
            object.__setattr__(self, name, value if name == "schemes" else tuple(map(float, value)))
        checked_weights(self.weights, self.K)
        if not self.schemes:
            raise ValueError("schemes must list at least one scheme")
        unknown = [s for s in self.schemes if s not in SCHEME_DIMS]
        if unknown:
            raise ValueError(f"unknown schemes {unknown}; choose from {tuple(SCHEME_DIMS)}")
        repeated = [s for s in dict.fromkeys(self.schemes) if self.schemes.count(s) > 1]
        if repeated:
            raise ValueError(f"schemes {repeated} repeat; list each scheme once")

    @property
    def power_watts(self):
        return _watts(self.power_dbm)

    @property
    def noise_watts(self):
        return _watts(self.noise_dbm)

    def replace(self, **kw):
        """A checked copy with kw changed; all-ones (default) weights follow a new K."""
        if "weights" not in kw and self.weights == (1.0,) * self.K:
            kw["weights"] = None
        return replace(self, **kw)

    @classmethod
    def from_dict(cls, raw):
        """Build from a nested mapping (the YAML layout of to_dict); ValueError on unknown keys."""
        if not isinstance(raw, Mapping):
            raise ValueError(f"a config must be a mapping of keys, got {raw!r}")
        kw = {}
        for where, known, given in [("top-level", _LAYOUT, raw), *((s, keys, raw.get(s))
                                    for s, keys in _LAYOUT.items() if isinstance(keys, dict))]:
            given = {} if given is None else given      # an absent or empty section
            if not isinstance(given, Mapping):
                raise ValueError(f"config section {where} must be a mapping of keys, got {given!r}")
            unknown = [k for k in given if k not in known]
            if unknown:
                raise ValueError(f"unknown {where} keys {unknown}; known: {list(known)}")
            kw.update((field, given[key]) for key, field in known.items()
                      if isinstance(field, str) and key in given)
        return cls(**kw)

    @classmethod
    def from_yaml(cls, path):
        import yaml                     # imported here: only YAML configs need it (about 20 ms)

        with open(path) as fh:
            raw = yaml.safe_load(fh)
        return cls.from_dict({} if raw is None else raw)

    def to_dict(self):
        value = {f: list(v) if isinstance(v, tuple) else v for f, v in vars(self).items()}
        return {key: {k: value[f] for k, f in entry.items()} if isinstance(entry, dict)
                else value[entry] for key, entry in _LAYOUT.items()}
