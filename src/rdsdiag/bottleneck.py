"""Per-tree dispersion diagnostic.

The statistic is the sample-size-weighted squared deviation of per-tree
estimates around the overall estimate.  Its reference distribution is built
by shuffling trait labels across included respondents while tree membership
and degrees stay attached to sample positions.

Replicate r permutes the n included positions with a generator seeded by
child r of ``SeedSequence(rng_seed)``, so the permutations depend only on
(n, replicates, rng_seed): traits with the same included size share them.
The child seeds are derived in one vectorised pass that equals
``SeedSequence.spawn`` and PCG64's seeding bit for bit, and one generator,
set to each child's starting state in turn, draws every row.
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


# SeedSequence's hash constants: a 4-word pool of 32-bit words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hasher(init: int, mult: int):
    """SeedSequence's running hash: each call xors in the current constant,
    steps it and multiplies by the new one, over uint32 lanes."""
    const = init

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_


def _child_states(rng_seed: int, replicates: int) -> np.ndarray:
    """``replicates × 4`` uint64 array whose row r is
    ``SeedSequence(rng_seed).spawn(replicates)[r].generate_state(4, np.uint64)``,
    with every child hashed at once, one uint32 lane each."""
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be non-negative, got {rng_seed}")
    n_words = max(1, (rng_seed.bit_length() + 31) // 32)
    words = [rng_seed >> 32 * k & _MASK32 for k in range(n_words)]
    # child r's entropy: the seed's words zero-padded to the pool, then r
    # (one word while r < 2**32, which the 4·R·n-byte matrix keeps R below)
    entropy = [np.full(replicates, w, dtype=np.uint32)
               for w in words + [0] * (_POOL - len(words))]
    entropy.append(np.arange(replicates, dtype=np.uint32))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state: 8 words cycling over the pool; uint64 k is words
    # 2k (low) and 2k + 1 (high)
    hash_state = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hash_state(pool[i % _POOL]) for i in range(8)], axis=1).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


@functools.lru_cache(maxsize=1)
def _inverse_permutations(n: int, replicates: int, rng_seed: int) -> np.ndarray:
    """Read-only ``replicates × n`` matrix whose row r is the inverse of the
    permutation of ``range(n)`` drawn from child r of
    ``SeedSequence(rng_seed)``: ``inv[r, perm[j]] = j``.

    One generator draws every row: before row r it is given the state that
    ``default_rng(child_r)`` starts from, the PCG64 seeding of
    ``_child_states`` row r as (initstate, initseq)."""
    inv = np.empty((replicates, n), dtype=np.int32)
    positions = np.arange(n, dtype=np.int32)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for r, (s_hi, s_lo, i_hi, i_lo) in enumerate(_child_states(rng_seed, replicates).tolist()):
        # PCG64 seeding: inc = 2·initseq + 1, then two LCG steps from 0
        # with initstate added between them
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        inv[r, gen.permutation(n)] = positions
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
