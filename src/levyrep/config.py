"""Checks shared by every block of a JSON config (model, payoff, grid,
market, sim): unknown keys and non-numeric or non-finite values raise
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


def check_keys(block: str, spec: dict, known) -> None:
    """ParameterError naming the unknown keys of a config block and the
    known ones."""
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ParameterError(f"unknown {block} keys {unknown}; known: {sorted(known)}")
