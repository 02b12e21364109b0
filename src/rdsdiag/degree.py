"""Degree-measurement diagnostics.

Time-window validity, test-retest reliability, sensitivity of estimates to
the degree wave, and degree-over-time trend fits.  Trend fits report only
signs and statistics; the dependence in recruitment chains makes attached
p-values meaningless, so none are produced.

The rank statistics take the usual definitions: average ranks for ties,
Spearman's rho as the Pearson correlation of those ranks, Kendall's tau-b
with both tie corrections, and the Theil-Sen slope as the median slope over
pairs with distinct x.  Kendall's tau and Theil-Sen walk the pairs in
blocks of rows and hold no n x n array: a block takes about
``_PAIR_BLOCK_BYTES`` per array of differences, so Kendall's tau takes
O(rows · n) memory.  Theil-Sen also holds a sample of about one block's
size and the slopes strictly inside a bracket around the median, about
4·m/sqrt(sample) of the m pairs.  At n = 5000 Theil-Sen peaks at 3.1 MiB
and Kendall's tau at 0.4 MiB (tracemalloc), where n x n arrays took 500
and 72 MiB.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from .dataset import StudyDataset, reach_inconsistent
from .errors import DataRequirementError
from .estimators import (
    DEFAULT_DEGREE_QUESTION,
    IncludedSample,
    _quantile,
    inverse_degree_estimates,
)
from .forest import interview_gap_days

TREND_METHODS = ("linear", "log-linear", "theil-sen", "kendall-tau", "spearman-rho")

# bytes of one block of pairwise differences; the rank statistics do not depend on it
_PAIR_BLOCK_BYTES = 512 * 1024


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: the Pearson correlation of the average ranks."""
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _pair_blocks(x: np.ndarray, y: np.ndarray):
    """The pairs with x[i] > x[j], a block of rows i at a time.  Rows go in
    the order of x, so a block's pairs lie among the columns j below its
    largest x: yield ``(x_i, y_i, x_j, y_j, above)``, the block's rows as
    columns, those columns as rows and ``above`` marking the pairs.  A block
    holds about ``_PAIR_BLOCK_BYTES`` of 8-byte differences, so memory is
    O(rows · n)."""
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    below = np.searchsorted(x, x)  # how many x lie strictly below each
    rows = max(1, _PAIR_BLOCK_BYTES // (8 * len(x)))
    for r0 in range(0, len(x), rows):
        cols = below[min(r0 + rows, len(x)) - 1]
        if cols:
            block = slice(r0, r0 + rows)
            above = np.arange(cols) < below[block, None]
            yield x[block, None], y[block, None], x[:cols], y[:cols], above


def _untied_pairs(v: np.ndarray) -> int:
    """The number of pairs (i < j) with v[i] != v[j]."""
    counts = np.unique(v, return_counts=True)[1]
    return (len(v) ** 2 - int(np.dot(counts, counts))) // 2


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b: concordant minus discordant pairs over the geometric
    mean of the pairs untied in x and the pairs untied in y.  Neither x nor
    y may be constant."""
    concordant = discordant = 0
    for _, y_i, _, y_j, above in _pair_blocks(x, y):
        concordant += np.count_nonzero((y_i > y_j) & above)
        discordant += np.count_nonzero((y_i < y_j) & above)
    tau = (concordant - discordant) / np.sqrt(_untied_pairs(x)) / np.sqrt(_untied_pairs(y))
    return float(min(1.0, max(-1.0, tau)))


def _slopes(x: np.ndarray, y: np.ndarray):
    """(y[i] - y[j]) / (x[i] - x[j]) over the pairs with x[i] > x[j], one
    block of pairs at a time."""
    for x_i, y_i, x_j, y_j, above in _pair_blocks(x, y):
        yield (y_i - y_j)[above] / (x_i - x_j)[above]


def _theil_sen(x: np.ndarray, y: np.ndarray) -> float:
    """Theil-Sen slope: the median of (y[i] - y[j]) / (x[i] - x[j]) over the
    pairs with x[i] > x[j], as ``_quantile(slopes, 0.5)`` gives it.  x may
    not be constant.

    A first pass keeps every stride-th slope, about one block's worth, and
    takes from it a bracket [a, b] around the two middle ranks.  A second
    counts the slopes below a, at a and up to b, and keeps only those
    strictly inside; ties are counted, never held.  A middle rank outside
    the bracket widens it and passes again."""
    m = _untied_pairs(x)
    ranks = ((m - 1) // 2, m // 2)
    # a sample of about one block of slopes, and of at least n
    stride = max(1, m // max(_PAIR_BLOCK_BYTES // 8, len(x)))
    sample, seen = [], 0
    for s in _slopes(x, y):
        sample.append(s[-seen % stride::stride].copy())
        seen += len(s)
    sample = np.concatenate(sample)
    sample.sort()
    # about four standard deviations of a sample quantile's position
    margin_lo = margin_hi = 2 * math.isqrt(len(sample)) + 1
    while True:
        first = ranks[0] // stride - margin_lo
        last = -(-ranks[1] // stride) + margin_hi
        a = sample[first] if first >= 0 else -np.inf
        b = sample[last] if last < len(sample) else np.inf
        below = at_a = up_to_b = 0
        inside = []
        for s in _slopes(x, y):
            below += np.count_nonzero(s < a)
            at_a += np.count_nonzero(s == a)
            up_to_b += np.count_nonzero(s <= b)
            inside.append(s[(a < s) & (s < b)])
        inside = np.concatenate(inside)
        low = ranks[0] < below
        high = ranks[1] >= up_to_b
        # (-inf, inf) is as wide as a bracket gets
        if not (low or high) or (first < 0 and last >= len(sample)):
            break
        margin_lo *= 4 if low else 1
        margin_hi *= 4 if high else 1
    ks = [r - below - at_a for r in ranks]
    inner = [k for k in ks if 0 <= k < len(inside)]
    if inner:
        inside = np.partition(inside, inner)
    lo, hi = (float(a if k < 0 else b if k >= len(inside) else inside[k]) for k in ks)
    return lo if ranks[0] == ranks[1] else (lo + hi) / 2


def time_window_stats(ds: StudyDataset) -> dict[str, Any]:
    """Three summaries of whether the one-week degree recall window fits the
    observed recruitment tempo: the mean reachable share of age-eligible
    contacts (``mean_reachable_1day``, ``mean_reachable_7day``, over
    ``n_reachability`` respondents, with ``n_excluded_inconsistent`` left
    out), the share of coupons distributed within a day and a week
    (``share_distributed_1day``, ``share_distributed_7day``) and the share
    of interview gaps within a week (``share_gap_within_7day``)."""
    frac_day: list[float] = []
    frac_week: list[float] = []
    excluded = 0
    for r in ds.respondents:
        d = r.degree
        if d.q_age is None or d.q_age < 1:
            continue
        if d.q_reach_day is None and d.q_reach_week is None:
            continue
        if reach_inconsistent(r):
            excluded += 1
            continue
        if d.q_reach_day is not None:
            frac_day.append(d.q_reach_day / d.q_age)
        if d.q_reach_week is not None:
            frac_week.append(d.q_reach_week / d.q_age)

    days = [
        c.days_to_distribute
        for r in ds.respondents
        if r.followup is not None
        for c in r.followup.coupons
        if c.days_to_distribute is not None
    ]
    gaps = [g for g in interview_gap_days(ds) if g is not None]

    def share(values: Sequence[int], limit: int) -> float:
        if not values:
            return math.nan
        return sum(1 for v in values if v <= limit) / len(values)

    return {
        "mean_reachable_1day": float(np.mean(frac_day)) if frac_day else math.nan,
        "mean_reachable_7day": float(np.mean(frac_week)) if frac_week else math.nan,
        "n_reachability": max(len(frac_day), len(frac_week)),
        "n_excluded_inconsistent": excluded,
        "share_distributed_1day": share(days, 1),
        "share_distributed_7day": share(days, 7),
        "share_gap_within_7day": share(gaps, 7),
    }


def test_retest_stats(
    ds: StudyDataset, question: str = DEFAULT_DEGREE_QUESTION
) -> dict[str, Any]:
    """Retest-minus-test difference quartiles (``q1_diff``, ``median_diff``,
    ``q3_diff``) and the Spearman rank correlation ``spearman_rho`` (average
    ranks for ties) over the ``n`` follow-up completers who answered
    ``question`` twice."""
    pairs = []
    for r in ds.respondents:
        if r.followup is None:
            continue
        test = r.degree.get(question)
        retest = r.followup.degree_retest.get(question)
        if test is None or retest is None:
            continue
        pairs.append((test, retest))
    if len(pairs) < 2:
        raise DataRequirementError(f"need >= 2 test/retest pairs for {question}")
    test = np.array([p[0] for p in pairs], dtype=float)
    retest = np.array([p[1] for p in pairs], dtype=float)
    diffs = retest - test
    # a constant column has no ranks to correlate: rho is undefined
    constant = np.all(test == test[0]) or np.all(retest == retest[0])
    rho = math.nan if constant else _spearman(test, retest)
    return {
        "question": question,
        "n": len(pairs),
        "median_diff": _quantile(diffs, 0.5),
        "q1_diff": _quantile(diffs, 0.25),
        "q3_diff": _quantile(diffs, 0.75),
        "spearman_rho": float(rho),
    }


def estimate_sensitivity(
    ds: StudyDataset,
    sample: IncludedSample,
    degree_question: str = DEFAULT_DEGREE_QUESTION,
) -> dict[str, Any]:
    """Prevalence estimates of the sample's trait using initial vs follow-up
    degree over the same respondents: the members of ``sample`` (built for
    ``degree_question``) whose follow-up retest degree is at least 1.
    Returns ``trait``, ``estimate_test``, ``estimate_retest``,
    ``abs_difference``, ``rel_difference`` (None when the test estimate is
    0) and ``n``.  Raises ``DataRequirementError`` when no member qualifies."""

    def retest(order: int) -> float:
        followup = ds.respondents[order - 1].followup
        d = None if followup is None else followup.degree_retest.get(degree_question)
        return math.nan if d is None else float(d)

    retest_degree = np.array([retest(order) for order in sample.orders.tolist()], dtype=float)
    usable = retest_degree >= 1
    if not usable.any():
        raise DataRequirementError(f"no usable test/retest members for {sample.trait!r}")
    y = sample.y[usable]
    p_test = float(inverse_degree_estimates(y, sample.degree[usable])[-1])
    p_retest = float(inverse_degree_estimates(y, retest_degree[usable])[-1])
    diff = abs(p_test - p_retest)
    return {
        "trait": sample.trait,
        "estimate_test": p_test,
        "estimate_retest": p_retest,
        "abs_difference": diff,
        "rel_difference": diff / p_test if p_test > 0 else None,
        "n": int(usable.sum()),
    }


def _sign(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def degree_trend(
    ds: StudyDataset, degree_question: str = DEFAULT_DEGREE_QUESTION
) -> list[dict[str, Any]]:
    """Trend of reported degree against interview order: one entry per
    method of ``TREND_METHODS``, in that order, each its ``method``,
    ``sign`` and ``statistic``.  The log-linear fit drops zero degrees, and
    below 3 positive ones its entry is ``{"method": "log-linear",
    "skipped": reason}``; below 3 answered degrees every fit is short and
    ``DataRequirementError`` is raised."""
    pairs = [(r.interview_order, d) for r in ds.respondents
             if (d := r.degree.get(degree_question)) is not None]
    if len(pairs) < 3:
        raise DataRequirementError("need >= 3 respondents with degree")
    x, y = np.array(pairs, dtype=float).T.copy()
    if np.all(y == y[0]):
        # constant degree: every method reports a flat trend, and the rank
        # correlations are undefined
        return [{"method": m, "sign": 0, "statistic": 0.0} for m in TREND_METHODS]
    positive = y > 0
    fits = (
        float(np.polyfit(x, y, 1)[0]),
        float(np.polyfit(x[positive], np.log(y[positive]), 1)[0]) if positive.sum() >= 3 else None,
        _theil_sen(x, y),
        _kendall_tau_b(x, y),
        _spearman(x, y),
    )
    return [
        {"method": m, "skipped": "need >= 3 positive degrees for log-linear"} if stat is None
        else {"method": m, "sign": _sign(stat), "statistic": stat}
        for m, stat in zip(TREND_METHODS, fits)
    ]
