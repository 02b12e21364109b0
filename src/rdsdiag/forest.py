"""Recruitment forest reconstruction.

The coupon links define a forest rooted at the seeds.  The tree of each
respondent groups the included sample into trees for the estimators and the
bottleneck test (``estimators.IncludedSample``); the waves and links draw the
chains figure and the edge table and summarise the study's shape.

A ``StudyDataset`` lists every recruiter before their recruits, so one pass
in interview order builds the forest; ``StudyDataset.forest`` builds it once
per study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # dataset imports this module for StudyDataset.forest
    from .dataset import StudyDataset


@dataclass(frozen=True)
class RecruitmentForest:
    roots: tuple[str, ...]
    parent: dict[str, str]
    children: dict[str, tuple[str, ...]]
    wave: dict[str, int]
    tree_of: dict[str, str]

    def recruits(self, rid: str) -> tuple[str, ...]:
        return self.children.get(rid, ())


def build_forest(ds: StudyDataset) -> RecruitmentForest:
    """Attach every non-seed respondent to the issuer of their coupon, one
    wave below them and in their tree; children are in interview order."""
    issuer_of = {c: r.id for r in ds.respondents for c in r.coupons_out}
    parent: dict[str, str] = {}
    children: dict[str, list[str]] = {r.id: [] for r in ds.respondents}
    wave: dict[str, int] = {}
    tree_of: dict[str, str] = {}
    roots = []
    for r in ds.respondents:
        if r.coupon_in is None:
            roots.append(r.id)
            wave[r.id] = 0
            tree_of[r.id] = r.id
            continue
        issuer = issuer_of[r.coupon_in]
        parent[r.id] = issuer
        children[issuer].append(r.id)
        wave[r.id] = wave[issuer] + 1
        tree_of[r.id] = tree_of[issuer]

    return RecruitmentForest(
        roots=tuple(roots),
        parent=parent,
        children={k: tuple(v) for k, v in children.items()},
        wave=wave,
        tree_of=tree_of,
    )


def edge_rows(ds: StudyDataset) -> list[tuple[str, str, int, str]]:
    """One (child, parent, wave, tree root) row per recruitment link, by wave
    and then child id."""
    forest = ds.forest
    return [
        (child, forest.parent[child], forest.wave[child], forest.tree_of[child])
        for child in sorted(forest.parent, key=lambda c: (forest.wave[c], c))
    ]


def interview_gap_days(ds: StudyDataset) -> list[Optional[int]]:
    """Whole-day gaps between each recruit's interview and their recruiter's;
    None when either date is missing."""
    gaps: list[Optional[int]] = []
    for r in ds.respondents:
        if r.is_seed:
            continue
        recruiter = ds.by_id(ds.forest.parent[r.id])
        if r.interview_date is None or recruiter.interview_date is None:
            gaps.append(None)
        else:
            gaps.append((r.interview_date - recruiter.interview_date).days)
    return gaps
