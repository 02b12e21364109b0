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

``wsd_permutation_tests`` groups its samples by included size and draws each
size's replicates once, streamed in blocks through one reused buffer of
permutations; every sample of that size is evaluated on a block before the
next is drawn.  Samples with identical cells share one gather of the cells
the block's labels land in.  A block holds as many rows as keep its largest
work array (that gather, the buffer itself or a sample's per-cell counts,
8 bytes an entry) within ``_BLOCK_BYTES``, so memory is O(rows·n) whatever
the number of replicates.

The statistic depends on the labels only through the integer counts of the
counted class in each (tree, degree) cell, and the counted class is the
smaller one: the WSD of 1 − y equals that of y, so at most n/2 labels are
followed per replicate.  A replicate's value depends on its own counts
alone, so neither the block size nor the samples that share a block change
a rank.  A replicate with the observed cell counts gives the observed
statistic bit for bit, so such a tie is never counted below it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import UnrealizableConfig
from .estimators import IncludedSample

# bytes of a block's largest work array; a row's bits do not depend on it
_BLOCK_BYTES = 512 * 1024


def _permutation_blocks(n: int, replicates: int, rng_seed: int, rows: int) -> Iterator[np.ndarray]:
    """The replicates' permutations of ``range(n)`` in blocks of at most
    ``rows``, each a ``k × n`` view of one reused buffer that the next block
    overwrites.

    One generator, ``default_rng(rng_seed)``, shuffles the rows in order, so
    the blocks together equal ``permuted`` on the ``replicates × n`` tile of
    ``arange(n)``: row r depends only on (n, rng_seed, r)."""
    gen = np.random.default_rng(rng_seed)
    buffer = np.empty((min(rows, replicates), n), dtype=np.intp)
    for start in range(0, replicates, rows):
        block = buffer[:min(rows, replicates - start)]
        block[:] = np.arange(n)
        yield gen.permuted(block, axis=1, out=block)


def _cells(sample: IncludedSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each position's (tree, degree class) cell, each class's inverse
    degree, and the ``trees × classes`` member counts the cells index.

    Trees are numbered as the sample numbers them, by root id, and classes
    in increasing weight: the statistic sums over them in that order, which
    fixes its last bits."""
    weights, wclass = np.unique(1.0 / sample.degree, return_inverse=True)
    shape = (len(sample.roots), len(weights))
    cell = sample.tree * shape[1] + wclass
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
    # y is 0/1 and the WSD of 1 - y equals that of y: count the smaller class
    positive = sample.y == 1.0
    labels = np.flatnonzero(positive if 2 * positive.sum() <= len(positive) else ~positive)
    observed = _wsd(cell[None, :], labels, weights, all_counts)[0]
    return _Case(cell, weights, all_counts, labels, observed)


def wsd_permutation_tests(
    samples: Iterable[IncludedSample],
    replicates: int = 10_000,
    threshold: float = 0.90,
    rng_seed: int = 0,
) -> list[dict[str, Any]]:
    """Permutation reference for the weighted squared deviation of each
    sample, in order: ``observed_wsd``, ``replicates``, ``quantile_rank``,
    ``flagged``, ``rng_seed`` and ``threshold``.  A sample with fewer than
    two trees gets ``{"skipped": reason}`` in place of a result; fewer than
    one replicate or a negative seed raises ``UnrealizableConfig``.

    Flagging uses strict exceedance of the threshold quantile: ties between
    the observed statistic and replicate values never flag.  Deterministic
    given ``rng_seed``: each included size's replicates are drawn once, in
    order, from one stream seeded by it, and every sample of that size is
    evaluated on a block of them before the next block is drawn."""
    if replicates < 1:
        raise UnrealizableConfig(f"replicates must be at least 1, got {replicates}")
    if rng_seed < 0:
        raise UnrealizableConfig(f"rng_seed must be non-negative, got {rng_seed}")
    cases = [_case(sample) for sample in samples]
    # included size -> cell array -> indices of the cases with those cells
    groups: dict[int, dict[bytes, list[int]]] = {}
    for i, case in enumerate(cases):
        if isinstance(case, _Case):
            groups.setdefault(len(case.cell), {}).setdefault(case.cell.tobytes(), []).append(i)
    below = [0] * len(cases)
    for n, by_cells in groups.items():
        width = max(n, *(cases[i].all_counts.size for ids in by_cells.values() for i in ids))
        for block in _permutation_blocks(n, replicates, rng_seed, max(1, _BLOCK_BYTES // (8 * width))):
            for ids in by_cells.values():
                landed = cases[ids[0]].cell[block]
                for i in ids:
                    case = cases[i]
                    wsd = _wsd(landed, case.labels, case.weights, case.all_counts)
                    below[i] += int((wsd < case.observed).sum())
    return [
        case if isinstance(case, dict) else {
            "observed_wsd": float(case.observed),
            "replicates": replicates,
            "quantile_rank": below[i] / replicates,
            "flagged": below[i] / replicates > threshold,
            "rng_seed": rng_seed,
            "threshold": threshold,
        }
        for i, case in enumerate(cases)
    ]

