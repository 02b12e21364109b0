"""Recruitment forest reconstruction.

The coupon links define a forest rooted at the seeds.  The tree of each
respondent groups the included sample into trees for the estimators and the
bottleneck test (``estimators.IncludedSample``); the waves and links draw the
chains figure and the edge table and summarise the study's shape.  Tree sizes
are recorded too, but no diagnostic reads them.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .dataset import StudyDataset
from .errors import CycleDetected, DanglingCoupon


@dataclass(frozen=True)
class RecruitmentForest:
    roots: tuple[str, ...]
    parent: dict[str, str]
    children: dict[str, tuple[str, ...]]
    wave: dict[str, int]
    tree_of: dict[str, str]
    tree_size: dict[str, int]

    def recruits(self, rid: str) -> tuple[str, ...]:
        return self.children.get(rid, ())


def build_forest(ds: StudyDataset) -> RecruitmentForest:
    """Attach every non-seed respondent to the issuer of their coupon and
    derive waves by breadth-first traversal from the seeds."""
    issuer_of: dict[str, str] = {}
    for r in ds.respondents:
        for c in r.coupons_out:
            issuer_of[c] = r.id

    parent: dict[str, str] = {}
    children: dict[str, list[str]] = {r.id: [] for r in ds.respondents}
    roots = []
    for r in ds.respondents:  # already ordered by interview_order
        if r.coupon_in is None:
            roots.append(r.id)
            continue
        issuer = issuer_of.get(r.coupon_in)
        if issuer is None:
            raise DanglingCoupon(f"coupon {r.coupon_in!r} of {r.id} issued by nobody")
        parent[r.id] = issuer
        children[issuer].append(r.id)

    wave: dict[str, int] = {}
    tree_of: dict[str, str] = {}
    queue: deque[str] = deque()
    for root in roots:
        wave[root] = 0
        tree_of[root] = root
        queue.append(root)
    while queue:
        rid = queue.popleft()
        for child in children[rid]:
            wave[child] = wave[rid] + 1
            tree_of[child] = tree_of[rid]
            queue.append(child)

    if len(wave) != ds.n:
        unreached = [r.id for r in ds.respondents if r.id not in wave]
        raise CycleDetected(f"recruitment links contain a cycle: {unreached[:5]}")

    tree_size = {root: 0 for root in roots}
    for rid, root in tree_of.items():
        if rid != root:
            tree_size[root] += 1

    return RecruitmentForest(
        roots=tuple(roots),
        parent=parent,
        children={k: tuple(v) for k, v in children.items()},
        wave=wave,
        tree_of=tree_of,
        tree_size=tree_size,
    )


def export_edges(forest: RecruitmentForest, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["child_id", "parent_id", "wave", "tree_root"])
        for child in sorted(forest.parent, key=lambda c: (forest.wave[c], c)):
            writer.writerow(
                [child, forest.parent[child], forest.wave[child], forest.tree_of[child]]
            )


def interview_gap_days(
    ds: StudyDataset, forest: RecruitmentForest
) -> list[Optional[int]]:
    """Whole-day gaps between each recruit's interview and their recruiter's;
    None when either date is missing."""
    gaps: list[Optional[int]] = []
    for r in ds.respondents:
        if r.is_seed:
            continue
        recruiter = ds.by_id(forest.parent[r.id])
        if r.interview_date is None or recruiter.interview_date is None:
            gaps.append(None)
        else:
            gaps.append((r.interview_date - recruiter.interview_date).days)
    return gaps
