"""Resource caps and sweep configuration.

All enumeration loops in the package are guarded by explicit caps so that a
bad parameter choice fails fast instead of running for hours.  The defaults
keep every exhaustive loop in the CI tier under minutes on one core; the
extended tier raises them for documented offline runs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError


def _known_keys(cls, raw, what: str) -> dict:
    """`raw` unchanged, or ConfigError if it is not a JSON object or names
    keys `cls` does not take."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {raw!r} is not a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    return raw


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# the largest p-adic precision (p-digits) a user may ask for; the automatic
# one is 158 over GF(2^26), the largest field of the default caps, at n = 4
MAX_PRECISION = 1000


@dataclass(frozen=True)
class Caps:
    # largest q for which a full discrete-log table is built
    field_table_max_q: int = 1 << 26
    # brute-force evaluation budgets
    affine_enum_max: int = 1 << 34
    torus_enum_max: int = 1 << 30
    # override for the p-adic working precision (number of p-digits); 0 = auto
    precision_override: int = 0

    def __post_init__(self):
        for f in fields(self):
            if not _is_int(getattr(self, f.name)):
                raise ConfigError(f"caps {f.name} {getattr(self, f.name)!r} "
                                  f"is not an integer")
        if not 0 <= self.precision_override <= MAX_PRECISION:
            raise ConfigError(f"caps precision_override "
                              f"{self.precision_override} is outside "
                              f"[0, {MAX_PRECISION}]")

    def with_tier(self, tier: str) -> "Caps":
        if tier == "extended":
            return replace(self, affine_enum_max=self.affine_enum_max << 4,
                           torus_enum_max=self.torus_enum_max << 4)
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "Caps":
        return cls(**_known_keys(cls, raw, "caps"))


DEFAULT_CAPS = Caps()


_SWEEP_CHOICES = {"lambda_mode": ("all", "subfield", "zero", "list"),
                  "tier": ("ci", "extended")}


@dataclass
class SweepConfig:
    """Grid description for the `sweep` command."""

    n_list: list = field(default_factory=lambda: [2, 3])
    prime_list: list = field(default_factory=lambda: [3, 5, 7])
    r_list: list = field(default_factory=lambda: [1])
    k_max: int = 2
    lambda_mode: str = "all"  # all | subfield | zero | list
    lambda_list: list = field(default_factory=list)
    tier: str = "ci"  # ci | extended
    seed: int = 0
    out_dir: str = "sweep_out"
    threads: int = 1
    zeta_n_max: int = 2  # recover numerators only for n <= this
    caps: Caps = field(default_factory=lambda: DEFAULT_CAPS)

    def __post_init__(self):
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

    @classmethod
    def from_json(cls, path: str) -> "SweepConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable, not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        raw = _known_keys(cls, raw, "sweep config")
        return cls(**{**raw, "caps": Caps.from_dict(raw.get("caps", {}))})
