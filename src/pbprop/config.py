"""Resource caps on the exponential searches and the LP.

Each cap ``X`` is read once, at first use as ``config.X``, from the
environment variable ``PBPROP_X``. A malformed or negative value raises
``ConfigError``, which the CLI reports as ``error: ...`` with exit status 2.
"""

from __future__ import annotations

import os

from .model import InputError

DEFAULTS = {
    "ENUM_MAX_BITS": 16,  # voter/project subset searches in the axiom checkers
    "LAMINAR_MAX_BITS": 16,  # laminar recognition and certification
    "PAV_MAX_PROJECTS": 20,  # PAV bundle enumeration
    "LP_MAX_VARS": 4096,  # simplex variable count
    "LP_MAX_CONSTRAINTS": 8192,  # simplex constraint count
    "ORACLE_MAX_BITS": 8,  # brute-force oracle instance size
    "ORACLE_ALPHA_CAP": 200000,  # oracle threshold-grid size
}


class ConfigError(InputError):
    """A cap's variable holds no non-negative integer."""


def __getattr__(name):
    if name not in DEFAULTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    var = "PBPROP_" + name
    raw = os.environ.get(var)
    value = DEFAULTS[name] if raw is None else _non_negative(var, raw)
    globals()[name] = value
    return value


def _non_negative(var, raw):
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigError(f"{var} must be a non-negative integer, not {raw!r}")
    return value
