"""Stabilization check for cumulative estimate series.

A trait is flagged when any of the last ``tau`` estimates differs from the
final estimate by more than ``epsilon``.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from .errors import DataRequirementError, UnrealizableConfig


def _check_window(tau: int, epsilon: float) -> None:
    """Raise ``UnrealizableConfig`` for a window no series can be judged by."""
    if tau < 1:
        raise UnrealizableConfig("tau must be >= 1")
    if not 0 < epsilon < math.inf:
        raise UnrealizableConfig(f"epsilon must be > 0 and finite, got {epsilon}")


def convergence_flag(
    values: Sequence[float], tau: int = 50, epsilon: float = 0.02
) -> dict[str, Any]:
    """Evaluate the window rule on a series of cumulative estimates.

    The window covers offsets t = 1 .. min(tau - 1, m - 1); series shorter
    than the window are examined in full.  Returns ``flagged``,
    ``first_violation_offset`` (None when no offset violates) and
    ``max_deviation``."""
    _check_window(tau, epsilon)
    values = np.asarray(values, dtype=float)
    m = len(values)
    if m == 0:
        raise DataRequirementError("cannot evaluate convergence of an empty series")
    # deviations at offsets 1, 2, ... back from the final estimate
    dev = np.abs(values[max(m - tau, 0):m - 1][::-1] - values[-1])
    violations = np.flatnonzero(dev > epsilon)
    max_dev = float(dev.max()) if len(dev) else 0.0
    return {
        "flagged": max_dev > epsilon,
        "first_violation_offset": int(violations[0]) + 1 if len(violations) else None,
        "max_deviation": max_dev,
    }
