"""Per-tree dispersion diagnostic.

The statistic is the sample-size-weighted squared deviation of per-tree
estimates around the overall estimate.  Its reference distribution is built
by shuffling trait labels across included respondents while tree membership
and degrees stay attached to sample positions.

Replicate r permutes the n included positions with a generator seeded by
child r of ``SeedSequence(rng_seed)``, so the permutations depend only on
(n, replicates, rng_seed): traits with the same included size share them.
The last such block is held as the read-only int32 matrix of their inverses,
4·R·n bytes (16 MB at R = 4000, n = 1000): row r maps each label's position
to the position it lands on.

The statistic depends on the labels only through the integer counts of the
counted class in each (tree, degree) cell, and the counted class is the
smaller one: the WSD of 1 − y equals that of y, so at most n/2 labels are
followed per replicate.  Replicates go in fixed chunks of ``_CHUNK_ROWS``,
whose work arrays take about 256·(12·m + 16·trees·degrees) bytes for m
counted labels.  A replicate with the observed cell counts gives the
observed statistic bit for bit, so such a tie is never counted below it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import TooFewTrees
from .estimators import IncludedSample

# replicates per statistic chunk; a row's bits do not depend on it
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class PermutationResult:
    observed_wsd: float
    replicates: int
    quantile_rank: float
    flagged: bool
    rng_seed: int
    threshold: float


@functools.lru_cache(maxsize=1)
def _inverse_permutations(n: int, replicates: int, rng_seed: int) -> np.ndarray:
    """Read-only ``replicates × n`` matrix whose row r is the inverse of the
    permutation of ``range(n)`` drawn from child r of
    ``SeedSequence(rng_seed)``: ``inv[r, perm[j]] = j``."""
    inv = np.empty((replicates, n), dtype=np.int32)
    positions = np.arange(n, dtype=np.int32)
    for r, child in enumerate(np.random.SeedSequence(rng_seed).spawn(replicates)):
        inv[r, np.random.default_rng(child).permutation(n)] = positions
    inv.flags.writeable = False
    return inv


def _cells(sample: IncludedSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each position's (tree, degree class) cell, each class's inverse
    degree, and the ``trees × classes`` member counts the cells index.

    Trees are numbered in sorted-root order and classes in increasing weight:
    the statistic sums over them in that order, which fixes its last bits."""
    roots, tree = np.unique(np.asarray(sample.roots)[sample.tree], return_inverse=True)
    weights, wclass = np.unique(1.0 / sample.degree, return_inverse=True)
    shape = (len(roots), len(weights))
    cell = tree * shape[1] + wclass
    return cell, weights, np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)


def _wsd_of_positions(
    positions: np.ndarray, cell: np.ndarray, weights: np.ndarray, all_counts: np.ndarray
) -> np.ndarray:
    """WSD of each row of ``positions``, the sample positions that carry the
    counted label in that replicate, with the cells of ``_cells``.

    A row's value is a function of its integer cell counts alone, so it does
    not depend on the other rows."""
    rows = len(positions)
    n_cells = all_counts.size
    cells = cell[positions]
    cells += np.arange(rows)[:, None] * n_cells
    counts = np.bincount(cells.ravel(), minlength=rows * n_cells)
    num = (counts.reshape(rows, *all_counts.shape) * weights).sum(axis=2)
    denom = (all_counts * weights).sum(axis=1)
    p_all = num.sum(axis=1) / denom.sum()
    return ((num / denom - p_all[:, None]) ** 2 * all_counts.sum(axis=1)).sum(axis=1)


def wsd_permutation_test(
    sample: IncludedSample,
    replicates: int = 10_000,
    threshold: float = 0.90,
    rng_seed: int = 0,
) -> PermutationResult:
    """Permutation reference for the weighted squared deviation.

    Flagging uses strict exceedance of the threshold quantile: ties between
    the observed statistic and replicate values never flag.  Deterministic
    given ``rng_seed``; replicate permutations derive from per-replicate
    seed streams."""
    cell, weights, all_counts = _cells(sample)
    if len(all_counts) < 2:
        raise TooFewTrees(
            f"trait {sample.trait!r}: need at least 2 trees with included members"
        )
    # y is 0/1 and the WSD of 1 - y equals that of y: count the smaller class
    positive = sample.y == 1.0
    labels = np.flatnonzero(positive if 2 * positive.sum() <= len(positive) else ~positive)
    observed = _wsd_of_positions(labels[None, :], cell, weights, all_counts)[0]

    inv = _inverse_permutations(len(cell), replicates, rng_seed)
    below = sum(
        int((_wsd_of_positions(np.take(inv[i:i + _CHUNK_ROWS], labels, axis=1),
                               cell, weights, all_counts) < observed).sum())
        for i in range(0, replicates, _CHUNK_ROWS)
    )
    quantile_rank = below / replicates
    return PermutationResult(
        observed_wsd=float(observed),
        replicates=replicates,
        quantile_rank=quantile_rank,
        flagged=quantile_rank > threshold,
        rng_seed=rng_seed,
        threshold=threshold,
    )
