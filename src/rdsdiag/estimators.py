"""Design-based prevalence estimators.

``included_sample`` builds, once per trait, the included respondents every
per-trait diagnostic works on, with their outcomes taken from
``StudyDataset.indicators``.  ``inverse_degree_estimates`` is the one
implementation of the inverse-degree-weighted (VH) ratio estimator: its
running values are the cumulative estimates, and its last value is the VH
estimate every diagnostic reports.  ``ss_estimate`` is the
successive-sampling estimator (Gile 2011) used for finite-population
sensitivity analysis, with Rosen's approximation of the inclusion
probabilities: pi(d) = 1 - exp(-lam * d), where ``lam`` solves
sum_i 1/pi(d_i) = N over the included sample for an assumed population size
N.  At N = n (a census) it is the unweighted sample proportion; as N grows it
tends to the inverse-degree estimate.  It is deterministic and takes no seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dataset import StudyDataset
from .errors import DataRequirementError, UnrealizableConfig

DEFAULT_DEGREE_QUESTION = "q_seen_week"


@dataclass(frozen=True, eq=False)
class IncludedSample:
    """The included respondents of one trait: non-seed, trait reported, and
    degree reported and at least 1.

    Every array runs in interview order, and a member's position in the
    study is ``orders - 1``.  ``y`` is 1.0 for the trait's reference level
    and 0.0 otherwise.  ``roots`` are the roots of the trees with an
    included member, sorted by id, and ``tree`` indexes them: every reader
    of a trait's trees takes this numbering."""

    trait: str
    roots: tuple[str, ...]
    orders: np.ndarray
    y: np.ndarray
    degree: np.ndarray
    tree: np.ndarray

    def __len__(self) -> int:
        return len(self.orders)

    @functools.cached_property
    def prefix_estimates(self) -> np.ndarray:
        """``inverse_degree_estimates`` of the members, read-only and
        computed once: every reader of the trait's cumulative estimates
        shares it."""
        values = inverse_degree_estimates(self.y, self.degree)
        values.flags.writeable = False
        return values


def included_sample(
    ds: StudyDataset, trait: str, degree_question: str = DEFAULT_DEGREE_QUESTION
) -> IncludedSample:
    """Build the included sample of ``trait`` in one pass over respondents."""
    tree_of = ds.forest.tree_of
    members = []
    for r, flag in zip(ds.respondents, ds.indicators(trait)):
        if r.is_seed or flag is None:
            continue
        d = r.degree.get(degree_question)
        if d is None or d < 1:
            continue
        members.append((tree_of[r.id], r.interview_order, flag, d))
    root_of, orders, y, degree = zip(*members) if members else ((),) * 4
    roots, tree = np.unique(np.array(root_of, dtype=object), return_inverse=True)

    def frozen(values, dtype: type) -> np.ndarray:
        array = np.array(values, dtype=dtype)
        array.flags.writeable = False
        return array

    return IncludedSample(
        trait=trait,
        roots=tuple(roots.tolist()),
        orders=frozen(orders, int),
        y=frozen(y, float),
        degree=frozen(degree, float),
        tree=frozen(tree, int),
    )


def inverse_degree_estimates(y: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Prefix inverse-degree estimates sum(y_i / d_i) / sum(1 / d_i) of the
    0/1 outcomes ``y`` with degrees ``degree`` (all >= 1), in the given
    order; the last value is the VH estimate."""
    # cumsum adds in sequence, so the last value equals a plain running-sum
    # loop over the same members bit for bit
    w = 1.0 / degree
    return np.cumsum(w * y) / np.cumsum(w)


def cumulative_estimates(sample: IncludedSample) -> np.ndarray:
    """Prefix inverse-degree estimates over the included sample in interview
    order, the sample's one read-only ``prefix_estimates`` array; raises
    ``DataRequirementError`` when the sample is empty."""
    if not len(sample):
        raise DataRequirementError(f"no included respondents for trait {sample.trait!r}")
    return sample.prefix_estimates


def per_tree_series(sample: IncludedSample) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-tree (orders, prefix estimates), one entry per root of the sample
    in its order."""
    in_tree = [sample.tree == i for i in range(len(sample.roots))]
    return {
        root: (sample.orders[t], inverse_degree_estimates(sample.y[t], sample.degree[t]))
        for root, t in zip(sample.roots, in_tree)
    }


# ---------------------------------------------------------------------------
# successive sampling


def _bisect(
    f: Callable[[float], float], lo: float, hi: float, xtol: float,
    f_lo: Optional[float] = None, f_hi: Optional[float] = None,
) -> float:
    """Root of ``f`` between ``lo`` < ``hi`` by bisection.  ``f(lo)`` and
    ``f(hi)`` must differ in sign unless one of them is 0, which is then
    the root; a caller that has them already passes them as ``f_lo`` and
    ``f_hi``.  Stops once the bracket is at most ``xtol`` wide or its
    midpoint equals an end (no float lies between them), and returns the
    midpoint."""
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0) == (f_hi < 0):
        raise ValueError(f"f({lo}) and f({hi}) have the same sign")
    while True:
        mid = lo + (hi - lo) / 2
        if hi - lo <= xtol or mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def _quantile(a: np.ndarray, q: float) -> float:
    """``np.quantile(a, q)`` (the linear method) of a non-empty 1-D array
    without NaN, bit for bit, from one ``np.partition``; ``q = 0.5`` gives
    ``np.median``, which takes the mean of the two middle values instead of
    interpolating.  Neither numpy function is used because their first call
    imports ``numpy.ma``, and ``np.median`` partitions at two indices."""
    n = len(a)
    v = (n - 1) * q
    k = int(v) + 1
    if k >= n:
        return float(np.max(a))
    part = np.partition(a, k)
    lo, hi = float(part[:k].max()), float(part[k])
    g = v - (k - 1)
    if q == 0.5:
        return lo if g == 0 else (lo + hi) / 2
    diff = hi - lo
    return lo + diff * g if g < 0.5 else hi - diff * (1 - g)


def check_population_size(population_size: int, n: int) -> None:
    """Raise ``UnrealizableConfig`` for an SS population below the sample size."""
    if population_size < n:
        raise UnrealizableConfig(f"population size {population_size} < sample size {n}")


def ss_inclusion_weights(
    degrees: np.ndarray, population_size: int
) -> tuple[np.ndarray, bool]:
    """Per-unit successive-sampling weights 1/pi(d) under Rosen's
    approximation pi(d) = 1 - exp(-lam * d).

    ``lam`` is the root of sum_i 1/pi(d_i) = N, which is decreasing in
    ``lam``.  At lam_lo = sum(1/d)/N the sum exceeds N, since
    1/(1 - e^-x) > 1/x; at lam_hi = -log1p(-n/N)/min(d) every pi is at least
    n/N, so the sum is at most N.  The root is found by bisection in
    log(lam), down to adjacent floats, so the weights keep their relative
    accuracy however large N is.  Once N is so large that the excess at
    lam_lo, about n/(2N), is below float resolution, the sum there no longer
    rounds above N, and the weights at lam_lo are returned: they are the
    inverse-degree weights to float precision.  In the census (N = n) and
    with a single degree class the root gives equal weights N/n.

    Returns (weights aligned with ``degrees``, converged flag); bisection
    on a valid bracket always converges, so the flag is always True.
    """
    n = len(degrees)
    check_population_size(population_size, n)
    if population_size == n or degrees.min() == degrees.max():
        return np.full(n, population_size / n), True

    def weights(log_lam: float) -> np.ndarray:
        return -1.0 / np.expm1(-np.exp(log_lam) * degrees)

    def excess(log_lam: float) -> float:
        return weights(log_lam).sum() / population_size - 1.0

    lo = np.log(np.sum(1.0 / degrees) / population_size)
    hi = np.log(-np.log1p(-n / population_size) / degrees.min())
    f_lo = excess(lo)
    if f_lo <= 0.0:
        return weights(lo), True
    return weights(_bisect(excess, lo, hi, xtol=1e-15, f_lo=f_lo)), True


def ss_estimate(sample: IncludedSample, population_size: int) -> float:
    """Successive-sampling prevalence estimate for a population of
    ``population_size``.

    Deterministic: it equals the unweighted sample proportion in the census
    limit and tends to the inverse-degree estimate as the population grows."""
    if not len(sample):
        raise DataRequirementError(f"no included respondents for trait {sample.trait!r}")
    weights, _ = ss_inclusion_weights(sample.degree, population_size)
    return float((weights * sample.y).sum() / weights.sum())
