"""Design-based prevalence estimators.

``included_sample`` builds, once per trait, the included respondents every
per-trait diagnostic works on.  ``vh_estimate`` is the inverse-degree-weighted
ratio estimator used throughout the toolkit.  ``ss_estimate`` is the
successive-sampling estimator (Gile 2011) used for finite-population
sensitivity analysis, with Rosen's approximation of the inclusion
probabilities: pi(d) = 1 - exp(-lam * d), where ``lam`` solves
sum_i 1/pi(d_i) = N over the included sample for an assumed population size
N.  At N = n (a census) it is the unweighted sample proportion; as N grows it
tends to the inverse-degree estimate.  It is deterministic and takes no seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import brentq

from .dataset import StudyDataset
from .errors import EmptySample, PopulationTooSmall, ZeroDegree
from .forest import RecruitmentForest

DEFAULT_DEGREE_QUESTION = "q_seen_week"


@dataclass(frozen=True)
class EstimateSeries:
    """Cumulative prevalence estimates over included respondents."""

    trait: str
    orders: tuple[int, ...]
    values: tuple[float, ...]

    @property
    def final(self) -> float:
        if not self.values:
            raise EmptySample(f"no included respondents for trait {self.trait!r}")
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.values)


def vh_estimate(members: Iterable[tuple[bool, float]]) -> float:
    """Inverse-degree-weighted proportion over (has_trait, degree) pairs."""
    num = 0.0
    den = 0.0
    n = 0
    for has_trait, degree in members:
        if degree is None or degree <= 0:
            raise ZeroDegree(f"degree {degree!r}: exclude such members before calling")
        w = 1.0 / degree
        den += w
        if has_trait:
            num += w
        n += 1
    if n == 0:
        raise EmptySample("no members")
    return num / den


@dataclass(frozen=True, eq=False)
class IncludedSample:
    """The included respondents of one trait: non-seed, trait reported, and
    degree reported and at least 1.

    Every array runs in interview order.  ``y`` is 1.0 for the trait's
    reference level and 0.0 otherwise; ``tree`` indexes ``roots``, the
    forest's roots in forest order."""

    trait: str
    roots: tuple[str, ...]
    ids: tuple[str, ...]
    orders: np.ndarray
    y: np.ndarray
    degree: np.ndarray
    tree: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def included_sample(
    ds: StudyDataset,
    forest: RecruitmentForest,
    trait: str,
    degree_question: str = DEFAULT_DEGREE_QUESTION,
) -> IncludedSample:
    """Build the included sample of ``trait`` in one pass over respondents."""
    ds.trait_spec(trait)  # raises UnknownTrait even when nobody is included
    root_index = {root: i for i, root in enumerate(forest.roots)}
    members = []
    for r in sorted(ds.respondents, key=lambda r: r.interview_order):
        if r.is_seed:
            continue
        flag = ds.indicator(r, trait)
        if flag is None:
            continue
        d = r.degree.get(degree_question)
        if d is None or d < 1:
            continue
        members.append((r.id, r.interview_order, flag, d, root_index[forest.tree_of[r.id]]))
    ids, orders, y, degree, tree = zip(*members) if members else ((),) * 5

    def frozen(values: tuple, dtype: type) -> np.ndarray:
        array = np.array(values, dtype=dtype)
        array.flags.writeable = False
        return array

    return IncludedSample(
        trait=trait,
        roots=forest.roots,
        ids=ids,
        orders=frozen(orders, int),
        y=frozen(y, float),
        degree=frozen(degree, float),
        tree=frozen(tree, int),
    )


def _series(
    trait: str, orders: np.ndarray, y: np.ndarray, degree: np.ndarray
) -> EstimateSeries:
    # cumsum adds in sequence, like the running sums of ``vh_estimate``, so
    # the last value equals the inverse-degree estimate bit for bit
    w = 1.0 / degree
    values = np.cumsum(w * y) / np.cumsum(w)
    return EstimateSeries(
        trait=trait, orders=tuple(orders.tolist()), values=tuple(values.tolist())
    )


def cumulative_estimates(sample: IncludedSample) -> EstimateSeries:
    """Prefix inverse-degree estimates over the included sample in interview
    order."""
    return _series(sample.trait, sample.orders, sample.y, sample.degree)


def per_tree_series(sample: IncludedSample) -> dict[str, EstimateSeries]:
    """Per-tree cumulative estimate series in forest root order; trees with
    no included member are omitted."""
    out = {}
    for i, root in enumerate(sample.roots):
        in_tree = sample.tree == i
        if in_tree.any():
            out[root] = _series(
                sample.trait, sample.orders[in_tree], sample.y[in_tree], sample.degree[in_tree]
            )
    return out


# ---------------------------------------------------------------------------
# successive sampling


def check_population_size(population_size: int, n: int) -> None:
    """Raise ``PopulationTooSmall`` for an SS population below the sample size."""
    if population_size < n:
        raise PopulationTooSmall(f"population size {population_size} < sample size {n}")


def ss_inclusion_weights(
    degrees: np.ndarray, population_size: int
) -> tuple[np.ndarray, bool]:
    """Per-unit successive-sampling weights 1/pi(d) under Rosen's
    approximation pi(d) = 1 - exp(-lam * d).

    ``lam`` is the root of sum_i 1/pi(d_i) = N, which is decreasing in
    ``lam``.  At lam_lo = sum(1/d)/N the sum exceeds N, since
    1/(1 - e^-x) > 1/x; at lam_hi = -log1p(-n/N)/min(d) every pi is at least
    n/N, so the sum is at most N.  The root is found in log(lam), so the
    weights keep their relative accuracy however large N is.  In the census
    (N = n) and with a single degree class the root gives equal weights N/n.

    Returns (weights aligned with ``degrees``, converged flag).
    """
    n = len(degrees)
    check_population_size(population_size, n)
    if population_size == n or degrees.min() == degrees.max():
        return np.full(n, population_size / n), True

    def weights(log_lam: float) -> np.ndarray:
        return -1.0 / np.expm1(-np.exp(log_lam) * degrees)

    lo = np.log(np.sum(1.0 / degrees) / population_size)
    hi = np.log(-np.log1p(-n / population_size) / degrees.min())
    log_lam, result = brentq(
        lambda t: weights(t).sum() / population_size - 1.0, lo, hi,
        xtol=1e-15, full_output=True,
    )
    return weights(log_lam), result.converged


def ss_estimate(sample: IncludedSample, population_size: int) -> float:
    """Successive-sampling prevalence estimate for a population of
    ``population_size``.

    Deterministic: it equals the unweighted sample proportion in the census
    limit and tends to the inverse-degree estimate as the population grows."""
    if not len(sample):
        raise EmptySample(f"no included respondents for trait {sample.trait!r}")
    weights, _ = ss_inclusion_weights(sample.degree, population_size)
    return float((weights * sample.y).sum() / weights.sum())


@dataclass(frozen=True)
class SSVHRow:
    trait: str
    scenario_population: int
    vh: float
    ss: float
    difference: float
    flagged: bool


def ss_vh_table(
    samples: Sequence[IncludedSample],
    population_sizes: Sequence[int],
    flag_threshold: float = 0.01,
) -> list[SSVHRow]:
    """Side-by-side estimator comparison, one row per sample and population
    size; rows flagged when the absolute difference exceeds the threshold.
    Empty samples give no rows."""
    rows = []
    for sample in samples:
        if not len(sample):
            continue
        vh = cumulative_estimates(sample).final
        for population_size in population_sizes:
            ss = ss_estimate(sample, population_size)
            diff = ss - vh
            rows.append(
                SSVHRow(
                    trait=sample.trait,
                    scenario_population=population_size,
                    vh=vh,
                    ss=ss,
                    difference=diff,
                    flagged=abs(diff) > flag_threshold,
                )
            )
    return rows
