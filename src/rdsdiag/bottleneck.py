"""Per-tree dispersion diagnostic.

The statistic is the sample-size-weighted squared deviation of per-tree
estimates around the overall estimate.  Its reference distribution is built
by shuffling trait labels across included respondents while tree membership
and degrees stay attached to sample positions.

The replicates are drawn in order from one stream, ``default_rng(rng_seed)``,
started afresh for each included size: replicate r is the r-th row that
``Generator.permuted`` shuffles, so the permutations depend only on
(n, replicates, rng_seed) and traits with the same included size share them.
Row r sends the label at position j to position ``perm[j]``; the inverse of
a uniform permutation is uniform too, so the rows are used as drawn.

``wsd_permutation_tests`` groups its samples by cell array (identical cells
imply one included size) and draws each group's replicates once, streamed in
blocks through one reused buffer of permutations; every sample of the group
is evaluated on a block, through one gather of the cells the block's labels
land in, before the next is drawn.  Each group starts its size's stream
afresh, so a size's rows are the same in every group.  A block holds as
many rows as keep its largest work array (that gather, the buffer itself or
a sample's per-cell counts, 8 bytes an entry) within ``_BLOCK_BYTES``, so
memory is O(rows·n) whatever the number of replicates.

The statistic depends on the labels only through the integer counts of the
counted class in each (tree, degree) cell, and the counted class is the
smaller one: the WSD of 1 − y equals that of y, so at most n/2 labels are
followed per replicate.  At a tie it is the class whose cell counts come
first, and at equal counts the class of the first position, so y, 1 − y and
y with two labels of one cell swapped get the same bits.  A replicate's
value depends on its own counts alone, so neither the block size nor the
samples that share a block change a rank.  A replicate with the observed
cell counts gives the observed statistic bit for bit, so such a tie is
never counted below it.

``replicates`` is a cap.  A sample is looked at after r = 64, 128, 256, …
replicates below the cap, K looks in all.  With b of the r replicates below
the observed, it stops at the first look where the exact Binomial(r,
threshold) tail on the side of b/r is at most ``RISK / (2K)``.  A union bound
over the looks then caps the chance that a stopped sample's flag differs
from the flag of its exact rank at ``RISK / 2``: a uniformly bounded
resampling risk in the sense of Gandy (JASA 104, 2009).  The looks depend on
the cap alone and a stop on the sample's own counts, so no stop depends on
the block size or on which samples share a draw, and a sample that reaches
the cap gets the rank of the full draw bit for bit.  No rank exceeds a
threshold of 1, so there every sample stops at the first look.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import UnrealizableConfig
from .estimators import IncludedSample

# bytes of a block's largest work array; a row's bits do not depend on it
_BLOCK_BYTES = 512 * 1024
# the chance that a sample stopped before the cap is flagged otherwise than
# by its exact rank is at most RISK / 2
RISK = 1e-3
# replicates at the first look; each later look doubles them
_FIRST_LOOK = 64


def _looks(replicates: int) -> list[int]:
    """The replicate counts below the cap ``replicates`` at which a sample
    may stop: 64, 128, 256, …"""
    looks = []
    r = _FIRST_LOOK
    while r < replicates:
        looks.append(r)
        r *= 2
    return looks


def _binomial_tails(r: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """P(X ≤ b) and P(X ≥ b) for b = 0, …, r, where X ~ Binomial(r, p).

    The log pmf is log pmf(0) plus a cumulative sum of the log ratios
    pmf(b + 1) / pmf(b) = (r − b)·p / ((b + 1)·(1 − p)), and each tail is
    summed from its own end, so a small tail keeps its relative precision."""
    b = np.arange(r + 1)
    if 0 < p < 1:
        log_pmf = np.empty(r + 1)
        log_pmf[0] = r * math.log1p(-p)
        log_pmf[1:] = np.log((r - b[:-1]) / b[1:]) + (math.log(p) - math.log1p(-p))
        pmf = np.exp(np.cumsum(log_pmf))
    else:  # all the mass at 0 or at r
        pmf = (b == p * r).astype(float)
    return np.cumsum(pmf), np.cumsum(pmf[::-1])[::-1]


def _undecided(r: int, threshold: float, n_looks: int) -> range:
    """The counts b of r replicates below the observed at which a sample goes
    on past the look at r: those whose Binomial(r, threshold) tail on the
    side of b/r is above ``RISK / (2·n_looks)``.  The tail grows toward
    b/r = threshold, where it holds the median, so they are one range.  No
    rank exceeds a threshold of 1, so there every count is decided and the
    range is empty."""
    if threshold == 1:
        return range(0)
    at_most, at_least = _binomial_tails(r, threshold)
    tail = np.where(np.arange(r + 1) / r > threshold, at_least, at_most)
    going = np.flatnonzero(tail > RISK / (2 * n_looks))
    return range(int(going[0]), int(going[-1]) + 1)


def _permutation_blocks(n: int, replicates: int, rng_seed: int, rows: int) -> Iterator[np.ndarray]:
    """The replicates' permutations of ``range(n)`` in blocks of at most
    ``rows`` that end at each of ``_looks(replicates)``, each a ``k × n``
    view of one reused buffer that the next block overwrites.

    One generator, ``default_rng(rng_seed)``, shuffles the rows in order, so
    the blocks together equal ``permuted`` on the ``replicates × n`` tile of
    ``arange(n)``: row r depends only on (n, rng_seed, r)."""
    gen = np.random.default_rng(rng_seed)
    buffer = np.empty((min(rows, replicates), n), dtype=np.intp)
    start = 0
    for end in (*_looks(replicates), replicates):
        while start < end:
            block = buffer[:min(rows, end - start)]
            block[:] = np.arange(n)
            yield gen.permuted(block, axis=1, out=block)
            start += len(block)


def _cells(sample: IncludedSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each position's (tree, degree class) cell, each class's inverse
    degree, and the ``trees × classes`` member counts the cells index.

    Trees are numbered in the order of their first member and classes in
    increasing weight: the statistic sums over them in that order, which
    fixes its last bits, so no respondent name reaches them."""
    weights, wclass = np.unique(1.0 / sample.degree, return_inverse=True)
    first = np.unique(sample.tree, return_index=True)[1]
    shape = (len(first), len(weights))
    cell = np.argsort(np.argsort(first))[sample.tree] * shape[1] + wclass
    return cell, weights, np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)


def _wsd(
    landed: np.ndarray, labels: np.ndarray, weights: np.ndarray, all_counts: np.ndarray
) -> np.ndarray:
    """WSD of each row of ``landed``, which gives the cell each position's
    label lands in under that replicate, when the labels at positions
    ``labels`` are the counted ones; ``weights`` and ``all_counts`` are those
    of ``_cells``.

    A row's value is a function of its integer cell counts alone, so it does
    not depend on the other rows."""
    rows = len(landed)
    n_cells = all_counts.size
    cells = landed[:, labels]
    cells += np.arange(rows)[:, None] * n_cells
    counts = np.bincount(cells.ravel(), minlength=rows * n_cells)
    num = (counts.reshape(rows, *all_counts.shape) * weights).sum(axis=2)
    denom = (all_counts * weights).sum(axis=1)
    p_all = num.sum(axis=1) / denom.sum()
    return ((num / denom - p_all[:, None]) ** 2 * all_counts.sum(axis=1)).sum(axis=1)


class _Case(NamedTuple):
    """One sample's cells, counted labels and observed statistic."""

    cell: np.ndarray
    weights: np.ndarray
    all_counts: np.ndarray
    labels: np.ndarray
    observed: float


def _case(sample: IncludedSample) -> _Case | dict[str, str]:
    """The sample's case, or its skipped entry when it has fewer than two
    trees."""
    cell, weights, all_counts = _cells(sample)
    if len(all_counts) < 2:
        reason = f"trait {sample.trait!r}: need at least 2 trees with included members"
        return {"skipped": reason}
    # y is 0/1 and the WSD of 1 - y equals that of y: count the smaller class;
    # at a tie the one whose cell counts come first, at equal counts the first
    # position's, so that y, 1 - y and a swap within a cell count alike
    counted = sample.y == sample.y[0]
    mine = np.bincount(cell[counted], minlength=all_counts.size)
    if (2 * counted.sum(), *mine) > (len(counted), *(all_counts.ravel() - mine)):
        counted = ~counted
    labels = np.flatnonzero(counted)
    observed = _wsd(cell[None, :], labels, weights, all_counts)[0]
    return _Case(cell, weights, all_counts, labels, observed)


def wsd_permutation_tests(
    samples: Iterable[IncludedSample],
    replicates: int = 10_000,
    threshold: float = 0.90,
    rng_seed: int = 0,
) -> list[dict[str, Any]]:
    """Permutation reference for the weighted squared deviation of each
    sample, in order: ``observed_wsd``, ``replicates`` (the cap),
    ``replicates_used``, ``quantile_rank``, ``flagged``, ``rng_seed`` and
    ``threshold``.  A sample with fewer than two trees gets
    ``{"skipped": reason}`` in place of a result; fewer than one replicate, a
    negative seed or a threshold outside [0, 1] raises
    ``UnrealizableConfig``.

    The rank is the share of the ``replicates_used`` replicates whose WSD is
    strictly below the observed one, and flagging uses strict exceedance of
    the threshold, so ties never flag.  A sample stops at the first look
    (64, 128, 256, … replicates below the cap) where its flag is decided
    within ``RISK``, as the module docstring states; one that never stops
    uses every replicate.  Deterministic given ``rng_seed``: the samples
    with one cell array share one draw, in order, from a stream seeded by
    it, and every running sample of the group is evaluated on a block of
    them before the next block is drawn; the draw ends when every sample of
    the group has stopped.  A row depends only on (n, ``rng_seed``, r), so
    samples of one size in different groups see the same rows."""
    if replicates < 1:
        raise UnrealizableConfig(f"replicates must be at least 1, got {replicates}")
    if rng_seed < 0:
        raise UnrealizableConfig(f"rng_seed must be non-negative, got {rng_seed}")
    if not 0 <= threshold <= 1:
        raise UnrealizableConfig(f"threshold must be in [0, 1], got {threshold}")
    cases = [_case(sample) for sample in samples]
    # cell array -> indices of the cases with those cells
    groups: dict[bytes, list[int]] = {}
    for i, case in enumerate(cases):
        if isinstance(case, _Case):
            groups.setdefault(case.cell.tobytes(), []).append(i)
    looks = _looks(replicates)
    # look -> the counts below the observed at which a sample goes on
    undecided = {r: _undecided(r, threshold, len(looks)) for r in looks}
    below = [0] * len(cases)
    used = [replicates] * len(cases)
    for running in groups.values():
        first = cases[running[0]]
        # a cell array indexes every cell of its sample, so it fixes their number
        width = max(len(first.cell), first.all_counts.size)
        drawn = 0
        for block in _permutation_blocks(len(first.cell), replicates, rng_seed,
                                         max(1, _BLOCK_BYTES // (8 * width))):
            landed = first.cell[block]
            for i in running:
                case = cases[i]
                wsd = _wsd(landed, case.labels, case.weights, case.all_counts)
                below[i] += int((wsd < case.observed).sum())
            drawn += len(block)
            if drawn in undecided:
                for i in running:
                    if below[i] not in undecided[drawn]:
                        used[i] = drawn
                running = [i for i in running if used[i] > drawn]
                if not running:
                    break
    return [
        case if isinstance(case, dict) else {
            "observed_wsd": float(case.observed),
            "replicates": replicates,
            "replicates_used": used[i],
            "quantile_rank": below[i] / used[i],
            "flagged": below[i] / used[i] > threshold,
            "rng_seed": rng_seed,
            "threshold": threshold,
        }
        for i, case in enumerate(cases)
    ]
