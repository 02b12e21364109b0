"""Design-based prevalence estimators.

``included_sample`` builds, once per trait, the included respondents every
per-trait diagnostic works on.  ``vh_estimate`` is the inverse-degree-weighted
ratio estimator used throughout the toolkit.  ``ss_estimate`` is a
Monte-Carlo successive-sampling approximation used for finite-population
sensitivity analysis: it iterates between (a) scaling the sample degree
distribution into a working population of the assumed size, (b) simulating
without-replacement draws with probability proportional to degree, and (c)
re-estimating per-degree-class inclusion probabilities, until the implied
weights stabilize.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


@dataclass(frozen=True)
class SSConfig:
    population_size: int
    replications: int = 2000
    max_iterations: int = 10
    tolerance: float = 1e-4
    rng_seed: int = 0

    def validate(self, n: int) -> None:
        if self.population_size < n:
            raise PopulationTooSmall(
                f"population size {self.population_size} < sample size {n}"
            )
        if self.replications < 1:
            raise PopulationTooSmall("replications must be >= 1")


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


def _simulate_class_draws(
    masses: np.ndarray,
    class_weights: np.ndarray,
    n_draws: int,
    replications: int,
    seed_children: Sequence[np.random.SeedSequence],
) -> np.ndarray:
    """Mean per-class counts among the first ``n_draws`` units of a
    probability-proportional-to-weight without-replacement draw.

    Classes carry continuous masses; each draw removes one unit of mass from
    the selected class.  Replicate RNG streams derive from per-replicate seed
    sequences so results do not depend on execution order.
    """
    k = len(masses)
    uniforms = np.empty((replications, n_draws))
    for idx, child in enumerate(seed_children):
        uniforms[idx] = np.random.default_rng(child).random(n_draws)

    remaining = np.tile(masses, (replications, 1))
    drawn = np.zeros((replications, k))
    rows = np.arange(replications)
    for step in range(n_draws):
        probs = remaining * class_weights
        totals = probs.sum(axis=1, keepdims=True)
        cum = np.cumsum(probs, axis=1)
        u = uniforms[:, step, None] * totals
        picks = (cum < u).sum(axis=1)
        picks = np.minimum(picks, k - 1)
        take = np.minimum(1.0, remaining[rows, picks])
        remaining[rows, picks] -= take
        drawn[rows, picks] += take
    return drawn.mean(axis=0)


def _integer_population(
    counts: np.ndarray, pi: np.ndarray, population_size: int
) -> np.ndarray:
    """Scale sample class counts by 1/pi into an integer working population.

    Each class keeps at least its observed count; the remaining
    ``population_size - n`` units are split proportionally to the excess
    implied by the inclusion probabilities (largest-remainder rounding)."""
    n = int(counts.sum())
    spare = population_size - n
    if spare <= 0:
        return counts.astype(float)
    excess = counts / pi - counts
    if excess.sum() <= 0:
        shares = counts / counts.sum() * spare
    else:
        shares = excess / excess.sum() * spare
    base = np.floor(shares).astype(int)
    remainder = spare - base.sum()
    if remainder > 0:
        order = np.argsort(-(shares - base), kind="stable")
        base[order[:remainder]] += 1
    return (counts + base).astype(float)


def ss_inclusion_weights(
    degrees: np.ndarray, cfg: SSConfig
) -> tuple[np.ndarray, bool]:
    """Per-unit inclusion weights from the successive-sampling fixed point.

    Returns (weights aligned with ``degrees``, converged flag).
    """
    n = len(degrees)
    cfg.validate(n)
    classes, counts = np.unique(degrees, return_counts=True)
    k = len(classes)
    if k == 1:
        return np.ones(n), True

    pi = classes / classes.max()  # start at the with-replacement mapping
    root = np.random.SeedSequence(cfg.rng_seed)
    children = root.spawn(cfg.replications * cfg.max_iterations)
    converged = False
    for iteration in range(cfg.max_iterations):
        masses = _integer_population(counts, pi, cfg.population_size)
        mean_drawn = _simulate_class_draws(
            masses,
            classes.astype(float),
            n,
            cfg.replications,
            children[iteration * cfg.replications : (iteration + 1) * cfg.replications],
        )
        new_pi = np.clip(mean_drawn / masses, 1e-12, 1.0)
        w_old = (1.0 / pi) / (1.0 / pi).mean()
        w_new = (1.0 / new_pi) / (1.0 / new_pi).mean()
        delta = np.abs(w_new - w_old).max()
        pi = new_pi
        if delta < cfg.tolerance:
            converged = True
            break
    if not converged:
        warnings.warn(
            "successive-sampling weights did not converge; using last iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    class_index = np.searchsorted(classes, degrees)
    return (1.0 / pi)[class_index], converged


def ss_estimate(sample: IncludedSample, cfg: SSConfig) -> float:
    """Monte-Carlo successive-sampling prevalence estimate.

    Deterministic given ``cfg.rng_seed``.  Converges to the inverse-degree
    estimate as the population size grows and to the unweighted sample
    proportion in the census limit."""
    if not len(sample):
        raise EmptySample(f"no included respondents for trait {sample.trait!r}")
    weights, _ = ss_inclusion_weights(sample.degree, cfg)
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
    scenarios: Sequence[SSConfig],
    flag_threshold: float = 0.01,
) -> list[SSVHRow]:
    """Side-by-side estimator comparison; rows flagged when the absolute
    difference exceeds the threshold.  Empty samples give no rows."""
    rows = []
    for sample in samples:
        if not len(sample):
            continue
        vh = cumulative_estimates(sample).final
        for cfg in scenarios:
            ss = ss_estimate(sample, cfg)
            diff = ss - vh
            rows.append(
                SSVHRow(
                    trait=sample.trait,
                    scenario_population=cfg.population_size,
                    vh=vh,
                    ss=ss,
                    difference=diff,
                    flagged=abs(diff) > flag_threshold,
                )
            )
    return rows
