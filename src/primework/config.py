"""Run configuration.

A single frozen dataclass carries every tunable the workbench honours.
Library calls accept an optional config argument and fall back to
DEFAULT_CONFIG; the CLI layers file, environment and flag overrides on
top of the defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InvalidArgument

ENV_VAR = "WORKBENCH_CONFIG"

# Default horizon of the point searches (witnesses, conditions, probes):
# points per axis, overridden by an explicit horizon argument (the CLI's
# --horizon).  config.horizon bounds the AP progressions; the smaller of
# the two is the size of the fallback boxes of Phi, Pi and crt-analogy.
SCAN_HORIZON = 10**4


@dataclass(frozen=True)
class WorkbenchConfig:
    # generic scan horizon (arguments x, points per axis)
    horizon: int = 10**6
    # bit budget for plain (non-modular) evaluation results
    bit_budget: int = 2**24
    # trial division bound used before Pollard rho kicks in
    trial_division_bound: int = 10**6
    # Pollard rho iteration budget for one factorize() call
    rho_budget: int = 10**8
    # deterministic seed for the rho parameter sequence
    seed: int = 0
    # sieve memory cap in bytes
    sieve_memory_cap: int = 256 * 1024 * 1024
    # scan AP progressions from n >= 1 instead of n >= 0
    strict_positive_n: bool = False
    # admit x = 0 in Fermat-number scans
    x_min: int = 1

    def with_overrides(self, **kw) -> "WorkbenchConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT_CONFIG = WorkbenchConfig()

# keys accepted in config files and their parsers
_FIELDS = {
    "horizon": int,
    "bit_budget": int,
    "trial_division_bound": int,
    "rho_budget": int,
    "seed": int,
    "sieve_memory_cap": int,
    "strict_positive_n": lambda s: s.strip().lower() in ("1", "true", "yes"),
    "x_min": int,
}


def load_config_file(path: str) -> dict:
    """Parse a key=value config file.  A missing file, a line without
    '=', an unknown key or a bad value raises InvalidArgument."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InvalidArgument(f"{path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        where = f"{path}:{lineno}"
        if not eq:
            raise InvalidArgument(f"{where}: expected key=value")
        if key not in _FIELDS:
            raise InvalidArgument(f"{where}: unknown config key {key!r}")
        try:
            out[key] = _FIELDS[key](val)
        except ValueError:
            raise InvalidArgument(
                f"{where}: bad value for {key}: {val!r}") from None
    return out


def resolve_config(cli_overrides: dict | None = None,
                   config_path: str | None = None) -> WorkbenchConfig:
    """Defaults, then config file (explicit path or $WORKBENCH_CONFIG),
    then CLI flags."""
    cfg = DEFAULT_CONFIG
    path = config_path or os.environ.get(ENV_VAR)
    if path:
        cfg = cfg.with_overrides(**load_config_file(path))
    if cli_overrides:
        cfg = cfg.with_overrides(**cli_overrides)
    return cfg
