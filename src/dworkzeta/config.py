"""Resource caps and sweep configuration.

All enumeration loops in the package are guarded by explicit caps so that a
bad parameter choice fails fast instead of running for hours.  The defaults
keep every exhaustive loop in the CI tier under minutes on one core; the
extended tier raises them for documented offline runs.
"""
from __future__ import annotations

import json
from collections import namedtuple

from .errors import ConfigError


def _known_keys(cls, raw, what: str) -> dict:
    """`raw` unchanged, or ConfigError if it is not a JSON object or names
    keys `cls` does not take."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {raw!r} is not a JSON object")
    unknown = sorted(set(raw) - set(cls._fields))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    return raw


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# the largest p-adic precision (p-digits) a user may ask for; the automatic
# one is 158 over GF(2^26), the largest field of the default caps, at n = 4
MAX_PRECISION = 1000


class Caps(namedtuple("Caps", ("field_table_max_q", "affine_enum_max",
                               "torus_enum_max", "precision_override"))):
    """The caps; immutable.  field_table_max_q: largest q of a field
    model, whose tables (built on first use; none for a character sum's
    GF(q^f)) have q entries; affine_enum_max, torus_enum_max: brute-force
    evaluation budgets; precision_override: the p-adic working precision
    (number of p-digits), 0 = auto."""

    __slots__ = ()

    def __new__(cls, field_table_max_q: int = 1 << 26,
                affine_enum_max: int = 1 << 34, torus_enum_max: int = 1 << 30,
                precision_override: int = 0):
        self = super().__new__(cls, field_table_max_q, affine_enum_max,
                               torus_enum_max, precision_override)
        for name, value in zip(cls._fields, self):
            if not _is_int(value):
                raise ConfigError(f"caps {name} {value!r} is not an integer")
        if not 0 <= precision_override <= MAX_PRECISION:
            raise ConfigError(f"caps precision_override "
                              f"{precision_override} is outside "
                              f"[0, {MAX_PRECISION}]")
        return self

    def with_tier(self, tier: str) -> "Caps":
        if tier == "extended":
            return self._replace(affine_enum_max=self.affine_enum_max << 4,
                                 torus_enum_max=self.torus_enum_max << 4)
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "Caps":
        return cls(**_known_keys(cls, raw, "caps"))


DEFAULT_CAPS = Caps()


_SWEEP_CHOICES = {"lambda_mode": ("all", "subfield", "zero", "list"),
                  "tier": ("ci", "extended")}


class SweepConfig:
    """Grid description for the `sweep` command; `cmd_sweep` sets its
    execution options on the loaded config."""

    # every key and its default; a list default is copied per config
    _fields = {
        "n_list": [2, 3],
        "prime_list": [3, 5, 7],
        "r_list": [1],
        "k_max": 2,
        "lambda_mode": "all",  # all | subfield | zero | list
        "lambda_list": [],
        "tier": "ci",  # ci | extended
        "seed": 0,
        "out_dir": "sweep_out",
        "threads": 1,
        "zeta_n_max": 2,  # recover numerators only for n <= this
        "caps": DEFAULT_CAPS,
    }

    def __init__(self, **given):
        unknown = given.keys() - self._fields.keys()
        if unknown:
            raise TypeError(f"SweepConfig() got unexpected keyword "
                            f"argument(s) {', '.join(sorted(unknown))}")
        for key, default in self._fields.items():
            value = given.get(key, default)
            setattr(self, key, value.copy() if value is default and
                    isinstance(default, list) else value)
        for key in ("n_list", "prime_list", "r_list", "lambda_list"):
            values = getattr(self, key)
            if not (isinstance(values, list) and all(map(_is_int, values))):
                raise ConfigError(f"{key} {values!r} is not a list of "
                                  f"integers")
        for key in ("k_max", "seed", "zeta_n_max", "threads"):
            if not _is_int(getattr(self, key)):
                raise ConfigError(f"{key} {getattr(self, key)!r} is not an "
                                  f"integer")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir {self.out_dir!r} is not a string")
        for key, allowed in _SWEEP_CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}; "
                                  f"expected one of {', '.join(allowed)}")
        # a lambda_list entry of -1 names lam = 0
        for key, values, lo in (("n_list", self.n_list, 2),
                                ("r_list", self.r_list, 1),
                                ("lambda_list", self.lambda_list, -1),
                                ("k_max", [self.k_max], 1),
                                ("threads", [self.threads], 1)):
            if any(v < lo for v in values):
                raise ConfigError(f"{key} {getattr(self, key)!r} has a value "
                                  f"below {lo}")

    def to_json_dict(self) -> dict:
        """Every key, the caps as a JSON object."""
        return {**{key: getattr(self, key) for key in self._fields},
                "caps": self.caps._asdict()}

    @classmethod
    def from_json(cls, path: str) -> "SweepConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable, not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        raw = _known_keys(cls, raw, "sweep config")
        return cls(**{**raw, "caps": Caps.from_dict(raw.get("caps", {}))})
