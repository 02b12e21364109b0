"""Stabilization check for cumulative estimate series.

A trait is flagged when any of the last ``tau`` estimates differs from the
final estimate by more than ``epsilon``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import EmptySeries, UnrealizableConfig


@dataclass(frozen=True)
class ConvergenceConfig:
    tau: int = 50
    epsilon: float = 0.02

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise UnrealizableConfig("tau must be >= 1")
        if not 0 < self.epsilon < math.inf:
            raise UnrealizableConfig(f"epsilon must be > 0 and finite, got {self.epsilon}")


@dataclass(frozen=True)
class ConvergenceVerdict:
    flagged: bool
    first_violation_offset: Optional[int]
    max_deviation: float


def convergence_flag(
    values: Sequence[float], cfg: ConvergenceConfig = ConvergenceConfig()
) -> ConvergenceVerdict:
    """Evaluate the window rule on a series of cumulative estimates.

    The window covers offsets t = 1 .. min(tau - 1, m - 1); series shorter
    than the window are examined in full."""
    m = len(values)
    if m == 0:
        raise EmptySeries("cannot evaluate convergence of an empty series")
    final = values[-1]
    max_dev = 0.0
    first_offset = None
    for t in range(1, min(cfg.tau - 1, m - 1) + 1):
        dev = abs(values[m - 1 - t] - final)
        if dev > max_dev:
            max_dev = dev
        if first_offset is None and dev > cfg.epsilon:
            first_offset = t
    return ConvergenceVerdict(
        flagged=max_dev > cfg.epsilon,
        first_violation_offset=first_offset,
        max_deviation=max_dev,
    )
