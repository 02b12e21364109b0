"""Per-tree dispersion diagnostic.

The statistic is the sample-size-weighted squared deviation of per-tree
estimates around the overall estimate.  Its reference distribution is built
by shuffling trait labels across included respondents while tree membership
and degrees stay attached to sample positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewTrees
from .estimators import IncludedSample


@dataclass(frozen=True)
class PermutationResult:
    observed_wsd: float
    replicates: int
    quantile_rank: float
    flagged: bool
    rng_seed: int
    threshold: float


def _wsd_from_matrix(
    y_matrix: np.ndarray, w: np.ndarray, t: np.ndarray, n_trees: int
) -> np.ndarray:
    """Vectorized WSD for one permuted label row per replicate."""
    n_s = np.bincount(t, minlength=n_trees).astype(float)
    denom_s = np.bincount(t, weights=w, minlength=n_trees)
    denom = w.sum()
    wy = y_matrix * w[None, :]
    one_hot = np.zeros((len(t), n_trees))
    one_hot[np.arange(len(t)), t] = 1.0
    num_s = wy @ one_hot
    p_s = num_s / denom_s[None, :]
    p_all = wy.sum(axis=1) / denom
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

    children = np.random.SeedSequence(rng_seed).spawn(replicates)
    y_perm = np.empty((replicates, len(y)))
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        y_perm[i] = y[rng.permutation(len(y))]
    stats = _wsd_from_matrix(y_perm, w, t, n_trees)
    quantile_rank = float((stats < observed).sum() / replicates)
    return PermutationResult(
        observed_wsd=float(observed),
        replicates=replicates,
        quantile_rank=quantile_rank,
        flagged=quantile_rank > threshold,
        rng_seed=rng_seed,
        threshold=threshold,
    )
