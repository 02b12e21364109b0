"""Respondent-behavior diagnostics.

Covers reciprocation rates, the network reciprocity summary, recruitment
effectiveness, the three-level recruitment-bias summary and its exact
simple-random-sampling reference tests, non-response rates, refusal and
motivation tabulations, and the motivation-outcome odds ratio with an exact
conditional interval.  Whether a respondent has a trait is read from
``StudyDataset.indicators``.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Iterable, Mapping, Optional

import numpy as np

from .dataset import StudyDataset
from .errors import DataRequirementError
from .estimators import _bisect, _quantile


# ---------------------------------------------------------------------------
# reciprocation


def reciprocation_rate(ds: StudyDataset) -> float:
    """Percent of answered coupon-outcome reciprocation questions that were
    affirmative.  Unanswered outcomes are excluded."""
    yes = answered = 0
    for r in ds.respondents:
        if r.followup is None:
            continue
        for c in r.followup.coupons:
            if c.reciprocation_answer is None:
                continue
            answered += 1
            if c.reciprocation_answer:
                yes += 1
    if answered == 0:
        raise DataRequirementError("no answered reciprocation questions")
    return 100.0 * yes / answered


def network_reciprocity_stats(ds: StudyDataset) -> dict[str, Any]:
    """Normalized difference |receive - give| / max(receive, give) between the
    coupon-receivable and coupon-giveable weekly counts: its
    ``median_relative_difference``, ``mean_relative_difference`` and
    ``q3_relative_difference`` over ``n`` respondents.  Respondents missing
    either answer are skipped; those with both answers zero are excluded and
    counted in ``n_excluded``.  With no usable respondent left, raises
    ``DataRequirementError``."""
    values = []
    excluded = 0
    for r in ds.respondents:
        recv = r.q_recv_week
        give = r.degree.q_reach_week
        if recv is None or give is None:
            continue
        m = max(recv, give)
        if m == 0:
            excluded += 1
            continue
        values.append(abs(recv - give) / m)
    if not values:
        raise DataRequirementError(
            f"no usable reciprocity answers; {excluded} excluded with both answers zero"
        )
    arr = np.array(values)
    return {
        "median_relative_difference": _quantile(arr, 0.5),
        "mean_relative_difference": float(arr.mean()),
        "q3_relative_difference": _quantile(arr, 0.75),
        "n": len(values),
        "n_excluded": excluded,
    }


# ---------------------------------------------------------------------------
# recruitment effectiveness


def recruitment_effectiveness(ds: StudyDataset, trait: str) -> dict[str, Any]:
    """Mean recruit counts among trait-positive vs trait-negative
    respondents (``mean_recruits_positive``, ``mean_recruits_negative``,
    over ``n_positive`` and ``n_negative``), with their ``ratio``, which is
    NaN unless ``ratio_defined``."""
    pos: list[int] = []
    neg: list[int] = []
    for r, flag in zip(ds.respondents, ds.indicators(trait)):
        if flag is not None:
            (pos if flag else neg).append(len(ds.forest.recruits(r.id)))
    mean_pos = float(np.mean(pos)) if pos else math.nan
    mean_neg = float(np.mean(neg)) if neg else math.nan
    defined = bool(neg) and mean_neg > 0 and bool(pos)
    ratio = mean_pos / mean_neg if defined else math.nan
    return {
        "mean_recruits_positive": mean_pos,
        "mean_recruits_negative": mean_neg,
        "ratio": ratio,
        "ratio_defined": defined,
        "n_positive": len(pos),
        "n_negative": len(neg),
    }


# ---------------------------------------------------------------------------
# recruitment bias (three levels)


def _level(answers: Iterable[Optional[bool]]) -> tuple[int, int]:
    """(size, employed) of one level's answered employment questions."""
    answered = [a for a in answers if a is not None]
    return len(answered), sum(answered)


def _bias_eligible(ds: StudyDataset) -> list[tuple[tuple[int, int], ...]]:
    """Each recruiter with employment data on all three levels, as three
    (size, employed) pairs: age-eligible contacts, coupon recipients and
    recruits.  Unanswered recipients and recruits are left out of their
    level.  Recruiters reporting more employed contacts than contacts are
    logically inconsistent and excluded.  With no recruiter left, raises
    ``DataRequirementError``."""
    eligible = []
    for r in ds.respondents:
        fu = r.followup
        if fu is None or r.degree.q_age is None or fu.n_contacts_employed is None:
            continue
        levels = (
            (r.degree.q_age, fu.n_contacts_employed),
            _level(c.recipient_employed for c in fu.coupons),
            _level(ds.by_id(cid).employed for cid in ds.forest.recruits(r.id)),
        )
        if all(size > 0 for size, _ in levels) and levels[0][1] <= levels[0][0]:
            eligible.append(levels)
    if not eligible:
        raise DataRequirementError("no recruiters with data on all three levels")
    return eligible


def recruitment_bias_levels(ds: StudyDataset) -> dict[str, Any]:
    """Equal-recruiter-weight averages of the employed fraction among
    ``contacts``, coupon ``recipients`` and ``recruits``, over
    ``n_recruiters`` recruiters."""
    eligible = _bias_eligible(ds)
    contacts, recipients, recruits = (
        float(np.mean([employed / size for size, employed in level]))
        for level in zip(*eligible)
    )
    return {
        "contacts": contacts,
        "recipients": recipients,
        "recruits": recruits,
        "n_recruiters": len(eligible),
    }


def _summed_positive_pmf(pools: list[tuple[int, int, int, int]]) -> np.ndarray:
    """pmf over 0..sum(drawn) of the summed positive count when each pool
    (total, positive, drawn, _) is sampled without replacement: the
    convolution of the pools' hypergeometric pmfs."""
    pmf = np.ones(1)
    for total, positive, drawn, _ in pools:
        ways = math.comb(total, drawn)
        pmf = np.convolve(pmf, [
            math.comb(positive, k) * math.comb(total - positive, drawn - k) / ways
            for k in range(drawn + 1)
        ])
    return pmf


def _srs_quantile_rank(pools: list[tuple[int, int, int, int]], observed: int) -> float:
    """Exact mid-rank P(T < observed) + P(T = observed) / 2 of the summed
    positive count T under per-recruiter simple random sampling.  Mid-ranking
    ties keeps null ranks near uniform despite the discrete statistic; the
    pmf's mass may round to just above 1, so the rank is capped there."""
    pmf = _summed_positive_pmf(pools)
    support = np.arange(len(pmf))
    return min(1.0, float(pmf[support < observed].sum() + 0.5 * pmf[support == observed].sum()))


def recruitment_bias_tests(
    ds: StudyDataset, threshold: float = 0.90
) -> dict[str, dict[str, Any]]:
    """Exact SRS reference tests at three levels: ``coupon_passing``
    (recipients drawn from contacts), ``returning_coupons`` (recruits drawn
    from recipients) and ``overall`` (recruits drawn from contacts).  Each
    holds the ``observed`` positive count, its ``quantile_rank``,
    ``flagged``, ``inconsistency`` and ``n_recruiters``.

    Recruiters whose reported draw cannot come from their pool (more
    positives or more negatives than the pool holds, and so any draw larger
    than the pool) are logically inconsistent for that level: they are
    excluded from the test, and ``inconsistency`` is their share."""
    eligible = _bias_eligible(ds)

    def run(pool: int, drawn: int) -> dict[str, Any]:
        # (total, positive_available, n_drawn, positive_observed) per recruiter
        pools = [(*levels[pool], *levels[drawn]) for levels in eligible]
        consistent = [p for p in pools if p[3] <= p[1] and p[2] - p[3] <= p[0] - p[1]]
        if not consistent:
            raise DataRequirementError("no logically consistent recruiters")
        observed = sum(p[3] for p in consistent)
        rank = _srs_quantile_rank(consistent, observed)
        return {
            "observed": float(observed),
            "quantile_rank": rank,
            "flagged": rank > threshold,
            "inconsistency": (len(pools) - len(consistent)) / len(pools),
            "n_recruiters": len(consistent),
        }

    return {"coupon_passing": run(0, 1), "returning_coupons": run(1, 2), "overall": run(0, 2)}


# ---------------------------------------------------------------------------
# non-response


def nonresponse_rates(ds: StudyDataset) -> dict[str, Any]:
    """Coupon-refusal, non-return, and total non-response rates
    (``coupon_refusal``, ``non_return``, ``total_non_response``) over
    ``n_recruiters`` follow-up completers.  Recruits are counted from
    redeemed coupons, not self-report; recruiters whose redeemed count
    exceeds their reported distributed count are excluded and counted in
    ``n_impossible_excluded``."""
    total_refused = total_distributed = total_recruits = 0
    n = impossible = 0
    for r in ds.respondents:
        fu = r.followup
        if fu is None or fu.n_coupons_distributed is None or fu.n_refusals is None:
            continue
        recruits = len(ds.forest.recruits(r.id))
        if recruits > fu.n_coupons_distributed:
            impossible += 1
            continue
        total_refused += fu.n_refusals
        total_distributed += fu.n_coupons_distributed
        total_recruits += recruits
        n += 1
    if n == 0 or total_distributed + total_refused == 0 or total_distributed == 0:
        raise DataRequirementError("no usable follow-up coupon accounting")
    attempted = total_refused + total_distributed
    return {
        "coupon_refusal": total_refused / attempted,
        "non_return": 1.0 - total_recruits / total_distributed,
        "total_non_response": 1.0 - total_recruits / attempted,
        "n_recruiters": n,
        "n_impossible_excluded": impossible,
    }


# ---------------------------------------------------------------------------
# refusal / motivation tabulations


def reason_tables(ds: StudyDataset) -> dict[str, dict[str, Any]]:
    """The ``refusal`` reason and ``motivation`` tables, each its
    ``percentages`` by category, in sorted order, and their ``total``."""
    refusal_counts: dict[str, int] = {}
    for r in ds.respondents:
        if r.followup is None:
            continue
        for reason in r.followup.refusal_reasons:
            refusal_counts[reason] = refusal_counts.get(reason, 0) + 1
    motivation_counts: dict[str, int] = {}
    for r in ds.respondents:
        if r.motivation is not None:
            motivation_counts[r.motivation] = motivation_counts.get(r.motivation, 0) + 1

    def table(counts: Mapping[str, int]) -> dict[str, Any]:
        total = sum(counts.values())
        return {
            "percentages": {k: 100.0 * v / total for k, v in sorted(counts.items())},
            "total": total,
        }

    return {"refusal": table(refusal_counts), "motivation": table(motivation_counts)}


# ---------------------------------------------------------------------------
# motivation-outcome odds ratio with exact conditional interval

CI_ALPHA = 0.05  # two-sided level of the exact interval: a 95% interval


@functools.lru_cache(maxsize=None)
def _log_factorials(size: int) -> np.ndarray:
    """log k! for k = 0..size-1 from ``math.lgamma``.  Callers round the size
    up to a power of two, so a run builds only a few tables."""
    table = np.fromiter(map(math.lgamma, range(1, size + 1)), float, size)
    table.flags.writeable = False
    return table


def _log_pmf_terms(r1: int, r2: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and log binomial-product coefficients for cell (1,1) of a 2x2
    table with fixed margins."""
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    ks = np.arange(lo, hi + 1)
    log_fact = _log_factorials(1 << max(r1, r2).bit_length())
    log_coef = (
        log_fact[r1] - log_fact[ks] - log_fact[r1 - ks]
        + log_fact[r2] - log_fact[c1 - ks] - log_fact[r2 - (c1 - ks)]
    )
    return ks, log_coef


def exact_odds_ratio_interval(a: int, b: int, c: int, d: int) -> tuple[float, float]:
    """Exact conditional 95% interval for the 2x2 odds ratio.

    Endpoints invert the one-sided tail probabilities of the conditional
    distribution of the (1,1) cell given all margins, each at ``CI_ALPHA/2``.
    The upper tail P(X >= a) rises with the log odds and gives the lower
    endpoint; the lower tail P(X <= a) falls and gives the upper one.  Each
    is found by bisection in the log odds, inside a bracket that expands
    from [-1, 1] until it holds the root, down to a bracket 1e-10 wide: each
    endpoint is then within a relative 5e-11 of the exact root, far finer
    than the 6 significant digits a report prints.  When the observed cell
    sits at an edge of its support the corresponding endpoint is 0 or
    infinity (one-sided interval)."""
    ks, log_coef = _log_pmf_terms(a + b, c + d, a + c)
    if a < ks[0] or a > ks[-1]:
        raise DataRequirementError("cell count outside the support implied by margins")

    k = ks.astype(float)

    def endpoint(tail: np.ndarray) -> float:
        # sum_k weight_k * pmf_k = P(tail) - CI_ALPHA/2, up to a positive factor
        weight = np.where(tail, 1.0 - CI_ALPHA / 2, -CI_ALPHA / 2)

        def excess(log_psi: float) -> float:
            log_terms = k * log_psi + log_coef
            return float(np.dot(weight, np.exp(log_terms - np.maximum.reduce(log_terms))))

        lo, hi = -1.0, 1.0
        for _ in range(200):
            flo, fhi = excess(lo), excess(hi)
            if flo == 0.0 or fhi == 0.0 or (flo < 0) != (fhi < 0):
                break
            lo -= 4.0
            hi += 4.0
        return math.exp(_bisect(excess, lo, hi, xtol=1e-10, f_lo=flo, f_hi=fhi))

    lower = 0.0 if a == ks[0] else endpoint(ks >= a)
    upper = math.inf if a == ks[-1] else endpoint(ks <= a)
    return lower, upper


def motivation_outcome(
    ds: StudyDataset, motivation_category: str, outcome_trait: str
) -> dict[str, Any]:
    """Sample odds ratio of the outcome given the stated motivation, with the
    exact conditional 95% interval: ``motivation``, ``trait``, ``table``
    (cells a, b, c, d as a tuple), ``odds_ratio``, ``ci_low`` and
    ``ci_high``.

    Zero cells give exact 0 or infinite odds ratios with one-sided
    intervals; a zero margin is a degenerate table."""
    pairs = [
        (r.motivation == motivation_category, flag)
        for r, flag in zip(ds.respondents, ds.indicators(outcome_trait))
        if flag is not None and r.motivation is not None
    ]
    # (motivated, has the trait) for cells a, b, c, d
    a, b, c, d = map(pairs.count, ((True, True), (True, False), (False, True), (False, False)))
    if min(a + b, c + d, a + c, b + d) < 1:
        raise DataRequirementError(f"zero margin in table {(a, b, c, d)}")
    if a * d == 0 and b * c == 0:
        odds = math.nan
    elif b * c == 0:
        odds = math.inf
    else:
        odds = (a * d) / (b * c)
    ci_low, ci_high = exact_odds_ratio_interval(a, b, c, d)
    return {
        "motivation": motivation_category,
        "trait": outcome_trait,
        "table": (a, b, c, d),
        "odds_ratio": odds,
        "ci_low": ci_low,
        "ci_high": ci_high,
    }
