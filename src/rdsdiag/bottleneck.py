"""Per-tree dispersion diagnostic.

The statistic is the sample-size-weighted squared deviation of per-tree
estimates around the overall estimate.  Its reference distribution is built
by shuffling trait labels across included respondents while tree membership
and degrees stay attached to sample positions.

Replicate r permutes the n included positions with a generator seeded by
child r of ``SeedSequence(rng_seed)``, so the permutations depend only on
(n, replicates, rng_seed): traits with the same included size share them.
The last such block is held as a read-only int32 matrix of 4·R·n bytes
(16 MB at R = 4000, n = 1000), and the statistics are computed in fixed
chunks of ``_CHUNK_ROWS`` replicates, whose work arrays take about
24·256·n bytes; no R×n float matrix is built.
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
def _permutations(n: int, replicates: int, rng_seed: int) -> np.ndarray:
    """Read-only ``replicates × n`` matrix whose row r is the permutation of
    ``range(n)`` drawn from child r of ``SeedSequence(rng_seed)``."""
    perms = np.empty((replicates, n), dtype=np.int32)
    for r, child in enumerate(np.random.SeedSequence(rng_seed).spawn(replicates)):
        perms[r] = np.random.default_rng(child).permutation(n)
    perms.flags.writeable = False
    return perms


def _wsd_from_matrix(
    y_matrix: np.ndarray, w: np.ndarray, t: np.ndarray, n_trees: int
) -> np.ndarray:
    """Vectorized WSD for one permuted label row per replicate.

    Each per-tree numerator is a ``bincount`` sum over its members in
    position order, so a row's value does not depend on the other rows."""
    rows = len(y_matrix)
    n_s = np.bincount(t, minlength=n_trees).astype(float)
    denom_s = np.bincount(t, weights=w, minlength=n_trees)
    wy = y_matrix * w[None, :]
    cells = (np.arange(rows)[:, None] * n_trees + t[None, :]).ravel()
    num_s = np.bincount(cells, weights=wy.ravel(), minlength=rows * n_trees)
    p_s = num_s.reshape(rows, n_trees) / denom_s[None, :]
    p_all = wy.sum(axis=1) / w.sum()
    return ((p_s - p_all[:, None]) ** 2 * n_s[None, :]).sum(axis=1)


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
    y = sample.y
    w = 1.0 / sample.degree
    # trees are numbered in sorted-root order: the statistic sums over tree
    # columns, so this order fixes its last bits and hence quantile-rank ties
    roots, t = np.unique(np.asarray(sample.roots)[sample.tree], return_inverse=True)
    n_trees = len(roots)
    if n_trees < 2:
        raise TooFewTrees(
            f"trait {sample.trait!r}: need at least 2 trees with included members"
        )
    observed = _wsd_from_matrix(y[None, :], w, t, n_trees)[0]

    perms = _permutations(len(y), replicates, rng_seed)
    below = sum(
        int((_wsd_from_matrix(y[perms[i:i + _CHUNK_ROWS]], w, t, n_trees) < observed).sum())
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
