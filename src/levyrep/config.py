"""Checks shared by every block of a JSON config (model, payoff, grid,
market, sim, represent, density, hedge): unknown keys, non-numeric or
non-finite values and counts that are not positive integers raise
ParameterError."""

from __future__ import annotations

import math

from .errors import ParameterError


def config_number(key: str, value, block: str) -> float:
    """A config value of ``block`` as a finite float, else ParameterError."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{block} {key} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ParameterError(f"{block} {key} must be finite, got {value!r}")
    return out


def config_count(key: str, value, block: str) -> int:
    """A config value of ``block`` as an integer >= 1, else ParameterError."""
    out = config_number(key, value, block)
    if out < 1 or out != int(out):
        raise ParameterError(f"{block} {key} must be an integer >= 1, got {value!r}")
    return int(out)


def check_keys(block: str, spec: dict, known) -> None:
    """ParameterError naming the unknown keys of a config block and the
    known ones; a block that is not a JSON object raises it too."""
    if not isinstance(spec, dict):
        raise ParameterError(f"{block} block must be a JSON object, got {spec!r}")
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ParameterError(f"unknown {block} keys {unknown}; known: {sorted(known)}")
