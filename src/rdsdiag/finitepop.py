"""With-replacement sampling indicators: the share of follow-up answerers
reporting a failed attempt to pass on a coupon, and the trend of the share
of contacts already in the study."""

from __future__ import annotations

from typing import Any

import numpy as np

from .dataset import StudyDataset
from .errors import DataRequirementError

FAILED_ATTEMPTS_THRESHOLD = 0.25  # flag when at least this share report a failed attempt


def failed_attempts_indicator(ds: StudyDataset) -> dict[str, Any]:
    """Share of follow-up answerers reporting at least one failed coupon
    attempt: ``percent_reporting``, ``flagged``, ``threshold``,
    ``n_answered`` and ``bands``, the answerers per band "0", "1-3" and
    "4+"."""
    counts = [
        r.followup.n_failed_attempts
        for r in ds.respondents
        if r.followup is not None and r.followup.n_failed_attempts is not None
    ]
    if not counts:
        raise DataRequirementError("nobody answered the failed-attempts question")
    at_least_one = sum(1 for c in counts if c >= 1)
    pct = at_least_one / len(counts)
    return {
        "percent_reporting": 100.0 * pct,
        "flagged": pct >= FAILED_ATTEMPTS_THRESHOLD,
        "threshold": FAILED_ATTEMPTS_THRESHOLD,
        "n_answered": len(counts),
        "bands": {
            "0": sum(1 for c in counts if c == 0),
            "1-3": sum(1 for c in counts if 1 <= c <= 3),
            "4+": sum(1 for c in counts if c >= 4),
        },
    }


def participants_known_trend(ds: StudyDataset) -> dict[str, Any]:
    """Least-squares ``slope`` of the proportion of contacts already in the
    study, ``Respondent.known_participants`` over age-eligible contacts,
    against interview order, over ``n`` respondents; positive slopes are
    ``flagged``.  Respondents with zero reported contacts are excluded and
    counted in ``n_excluded_zero_degree``."""
    orders, props = [], []
    excluded = 0
    for r in ds.respondents:
        known = r.known_participants
        if known is None:
            continue
        if r.degree.q_age == 0:
            excluded += 1
            continue
        orders.append(r.interview_order)
        props.append(known / r.degree.q_age)
    if len(set(orders)) < 2:
        raise DataRequirementError("need >= 2 distinct orders with proportions")
    slope = float(np.polyfit(np.array(orders, dtype=float), np.array(props), 1)[0])
    return {
        "slope": slope,
        "flagged": slope > 1e-12,  # tolerance absorbs least-squares rounding noise
        "n": len(orders),
        "n_excluded_zero_degree": excluded,
    }
