"""Synthetic network generator and RDS process simulator.

The simulator is the verification oracle for the statistical diagnostics:
it produces fully populated StudyDatasets (including synthetic follow-up
answers) from a block-structured population graph whose true prevalences
are known.  Recruit selection is uniform among eligible neighbors, with a
trait-dependent recruit-rate knob to break that assumption deliberately.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .dataset import (
    CouponOutcome,
    DegreeReport,
    FollowUpRecord,
    Respondent,
    StudyDataset,
    TraitSpec,
)
from .errors import DataRequirementError, UnrealizableConfig

REFUSAL_REASON_CATEGORIES = (
    "Too busy",
    "Fear being identified",
    "Not interested",
    "Fear test results",
    "Other",
)
DEFAULT_REFUSAL_PROBS = (0.15, 0.3, 0.25, 0.2, 0.1)

MOTIVATION_CATEGORIES = (
    "For HIV test",
    "Incentive",
    "Recruiter",
    "Study interest",
    "Other",
)
MOTIVATION_PROBS = (0.7, 0.1, 0.08, 0.1, 0.02)
INTERVIEWS_PER_DAY = 10

# bytes of the one float64 buffer each block pair's uniforms are drawn through;
# the edges are walked as many rows at a time as it holds values, and do not depend on it
_DRAW_BYTES = 1024 * 1024


@dataclass(frozen=True)
class TraitRule:
    """How a node trait is assigned: aligned with a block, independent
    Bernoulli, or the top fraction of nodes by degree."""

    kind: str  # "block" | "bernoulli" | "top_degree"
    block: int = 0
    p: float = 0.5
    fraction: float = 0.3


@dataclass(frozen=True)
class NetworkConfig:
    block_sizes: tuple[int, ...]
    within_block_edge_prob: float
    between_block_edge_prob: float
    traits: Mapping[str, TraitRule] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return sum(self.block_sizes)


@dataclass(frozen=True)
class SyntheticNetwork:
    blocks: np.ndarray  # block index per node
    offsets: np.ndarray  # node v's neighbours are targets[offsets[v]:offsets[v + 1]]
    targets: np.ndarray  # ascending within each node
    degrees: np.ndarray
    node_traits: dict[str, np.ndarray]  # boolean arrays
    n_connect_edges: int  # edges added to enforce connectivity

    @property
    def node_count(self) -> int:
        return len(self.blocks)


def _check_trait_rule(name: str, rule: TraitRule, n_blocks: int) -> None:
    """Reject a rule whose block, ``p`` or ``fraction`` is out of range,
    naming the rule's scenario key."""
    if rule.kind == "block":
        if not 0 <= rule.block < n_blocks:
            raise UnrealizableConfig(
                f"trait.{name}: block must lie in 0..{n_blocks - 1}, got {rule.block}"
            )
    elif rule.kind in ("bernoulli", "top_degree"):
        field_name = "p" if rule.kind == "bernoulli" else "fraction"
        value = getattr(rule, field_name)
        if not 0.0 <= value <= 1.0:
            raise UnrealizableConfig(
                f"trait.{name}: {field_name} must lie in [0, 1], got {value}"
            )
    else:
        raise UnrealizableConfig(f"unknown trait rule kind {rule.kind!r}")


def generate_network(cfg: NetworkConfig, rng_seed: int = 0) -> SyntheticNetwork:
    """Block-structured random graph; connectivity is enforced by linking
    stray components to the largest one (added edges are counted)."""
    for p in (cfg.within_block_edge_prob, cfg.between_block_edge_prob):
        if not 0.0 <= p <= 1.0:
            raise UnrealizableConfig(f"edge probability {p} outside [0, 1]")
    if any(b < 0 for b in cfg.block_sizes):
        raise UnrealizableConfig(f"block sizes must be >= 0, got {cfg.block_sizes}")
    n = cfg.node_count
    if n < 2:
        raise UnrealizableConfig("need at least 2 nodes")
    for name, rule in cfg.traits.items():
        _check_trait_rule(name, rule, len(cfg.block_sizes))
    sizes = np.array(cfg.block_sizes)
    expected_degree = (
        cfg.within_block_edge_prob * (sizes.max() - 1)
        + cfg.between_block_edge_prob * (n - sizes.max())
    )
    if expected_degree < 1.0:
        raise UnrealizableConfig("expected degree below 1; graph would shatter")

    rng = np.random.default_rng(rng_seed)
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    pairs = []  # (bi, bj, p, cells) of each pair with edges to draw
    mean = 0.0  # expected edge count
    for bi in range(len(sizes)):
        for bj in range(bi, len(sizes)):
            p = cfg.within_block_edge_prob if bi == bj else cfg.between_block_edge_prob
            cells = int(sizes[bi]) * int(sizes[bj])
            if p > 0.0:
                pairs.append((bi, bj, p, cells))
                mean += p * cells / (2 if bi == bj else 1)
    # one (u, v) row per edge, with room for the expected count and four
    # standard deviations more; grown if the edges outrun it
    edges = np.empty((int(mean + 4 * math.sqrt(mean)) + 1, 2), dtype=np.int64)
    m = 0
    buf = np.empty(max(1, _DRAW_BYTES // 8))
    for bi, bj, p, cells in pairs:
        nj = int(sizes[bj])
        # Generator.random fills its output in sequence, so flat chunks draw
        # the same bits as one ni x nj matrix, even where a chunk ends mid-row
        for offset in range(0, cells, len(buf)):
            chunk = rng.random(out=buf[:min(len(buf), cells - offset)])
            u, v = np.divmod(np.flatnonzero(chunk < p) + offset, nj)
            if bi == bj:
                upper = v > u
                u, v = u[upper], v[upper]
            edges = _reserve(edges, m + len(u))
            edges[m:m + len(u), 0] = u + starts[bi]
            edges[m:m + len(u), 1] = v + starts[bj]
            m += len(u)

    # link each stray component, in the order of its smallest node, to the largest
    component = _components(n, edges[:m])
    counts = np.bincount(component)
    members = np.split(np.argsort(component, kind="stable"), np.cumsum(counts)[:-1])
    main = int(counts.argmax())
    links = np.array(
        [(rng.choice(c), rng.choice(members[main])) for i, c in enumerate(members) if i != main],
        dtype=int,
    ).reshape(-1, 2)
    edges = _reserve(edges, m + len(links))
    edges[m:m + len(links)] = links
    m += len(links)
    # each (u, v) row becomes its two ends' src * n + dst keys in place; sorted,
    # they run by node, then neighbour, and % n leaves the neighbours
    for rows in _edge_chunks(edges[:m]):
        rows[...] = rows * n + rows[:, ::-1]
    targets = edges[:m].reshape(-1)
    targets.sort()
    offsets = np.searchsorted(targets, np.arange(n + 1) * n)
    degrees = np.diff(offsets)
    targets %= n

    traits: dict[str, np.ndarray] = {}
    for name, rule in cfg.traits.items():
        if rule.kind == "block":
            traits[name] = blocks == rule.block
        elif rule.kind == "bernoulli":
            traits[name] = rng.random(n) < rule.p
        else:
            k = int(round(rule.fraction * n))
            order = np.lexsort((np.arange(n), -degrees))
            mask = np.zeros(n, dtype=bool)
            mask[order[:k]] = True
            traits[name] = mask

    return SyntheticNetwork(
        blocks=blocks,
        offsets=offsets,
        targets=targets,
        degrees=degrees,
        node_traits=traits,
        n_connect_edges=len(links),
    )


def _reserve(edges: np.ndarray, rows: int) -> np.ndarray:
    """``edges``, or a copy with room for at least ``rows`` rows."""
    if rows <= len(edges):
        return edges
    grown = np.empty((max(rows, 2 * len(edges)), 2), dtype=edges.dtype)
    grown[:len(edges)] = edges
    return grown


def _edge_chunks(edges: np.ndarray):
    """Views of consecutive rows of ``edges``, as many per view as the draw
    buffer holds values."""
    step = max(1, _DRAW_BYTES // 8)
    for start in range(0, len(edges), step):
        yield edges[start:start + step]


def _components(n: int, edges: np.ndarray) -> np.ndarray:
    """Component of each node, numbered in the order of the components'
    smallest nodes: labels fall across edges and to their labels' labels
    until nothing moves, leaving each node its component's smallest node."""
    label = np.arange(n)
    while True:
        lower = label.copy()
        for rows in _edge_chunks(edges):
            u, v = rows[:, 0], rows[:, 1]
            low = np.minimum(label[u], label[v])
            np.minimum.at(lower, u, low)
            np.minimum.at(lower, v, low)
        lower = lower[lower]
        if np.array_equal(lower, label):
            return np.unique(label, return_inverse=True)[1]
        label = lower


def true_prevalence(net: SyntheticNetwork, trait: str) -> float:
    if trait not in net.node_traits:
        raise DataRequirementError(f"network has no trait {trait!r}")
    return float(net.node_traits[trait].mean())


@dataclass(frozen=True)
class SimConfig:
    target_n: int
    seed_count: int = 6
    coupon_allotment: int = 3
    replacement_mode: str = "without"  # "with" | "without"
    recruit_probs: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)
    differential_trait: Optional[str] = None
    recruit_probs_if_trait: Optional[tuple[float, ...]] = None
    refusal_prob: float = 0.05
    nonreturn_prob: float = 0.1
    seed_block: Optional[int] = None
    followup_prob: float = 0.43
    retest_sd: float = 0.0
    recip_prob: float = 0.88
    trait_missing_prob: float = 0.0
    employment_trait: Optional[str] = "employed"
    site_label: str = "sim"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.rng_seed < 0:
            raise UnrealizableConfig(f"seed must be >= 0, got {self.rng_seed}")

    def validate(self, net: SyntheticNetwork) -> None:
        if self.replacement_mode not in ("with", "without"):
            raise UnrealizableConfig(f"bad replacement_mode {self.replacement_mode!r}")
        if self.target_n < 1 or self.seed_count < 1:
            raise UnrealizableConfig("target_n and seed_count must be >= 1")
        if self.seed_count > net.node_count:
            raise UnrealizableConfig("more seeds than nodes")
        if self.replacement_mode == "without" and self.target_n > net.node_count:
            raise UnrealizableConfig("target_n exceeds population in without mode")
        for name in ("recruit_probs", "recruit_probs_if_trait"):
            probs = getattr(self, name)
            if probs is None:
                continue
            if len(probs) != self.coupon_allotment + 1:
                raise UnrealizableConfig(f"{name} must cover 0..allotment")
            # a NaN or infinite entry, or a sum beyond float range, fails 0 < sum < inf
            if any(p < 0 for p in probs) or not 0 < sum(probs) < math.inf:
                raise UnrealizableConfig(f"{name} must be >= 0 with a positive sum, all finite")
        if self.differential_trait not in (None, *net.node_traits):
            raise UnrealizableConfig(f"network has no trait {self.differential_trait!r}")
        for name in (
            "refusal_prob", "nonreturn_prob", "followup_prob", "recip_prob", "trait_missing_prob"
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise UnrealizableConfig(f"{name} must lie in [0, 1]")
        if not self.retest_sd >= 0.0:
            raise UnrealizableConfig(f"retest_sd must be >= 0, got {self.retest_sd}")
        if not math.isfinite(self.retest_sd):
            raise UnrealizableConfig(f"retest_sd must be finite, got {self.retest_sd}")
        last = int(net.blocks.max())
        if self.seed_block is not None and not 0 <= self.seed_block <= last:
            raise UnrealizableConfig(f"seed_block must lie in 0..{last}, got {self.seed_block}")


@dataclass(frozen=True)
class SimulationResult:
    dataset: StudyDataset
    node_of: dict[str, int]
    extinct: bool
    true_prevalences: dict[str, float]


def simulate_rds(net: SyntheticNetwork, cfg: SimConfig) -> SimulationResult:
    """Run the coupon-based recruitment process on a synthetic network.

    Every respondent record carries a full degree report, trait answers and
    (for a random subset) a follow-up record, so that all diagnostics can be
    exercised on the output.  Deterministic given ``cfg.rng_seed``."""
    cfg.validate(net)
    rng = np.random.default_rng(cfg.rng_seed)
    without = cfg.replacement_mode == "without"
    employed_arr = (
        net.node_traits.get(cfg.employment_trait) if cfg.employment_trait else None
    )

    pool = np.arange(net.node_count)
    if cfg.seed_block is not None:
        pool = pool[net.blocks == cfg.seed_block]
        if len(pool) < cfg.seed_count:
            raise UnrealizableConfig("seed block smaller than seed count")
    seeds = rng.choice(pool, size=cfg.seed_count, replace=False)

    queue: deque[tuple[int, Optional[str]]] = deque((int(s), None) for s in seeds)
    committed = np.zeros(net.node_count, dtype=bool)  # has a coupon or participated
    committed[seeds] = True
    interviewed = np.zeros(net.node_count, dtype=bool)
    respondents: list[Respondent] = []
    node_of: dict[str, int] = {}
    coupon_counter = 0
    start_date = date(2008, 3, 1)

    while queue and len(respondents) < cfg.target_n:
        node, coupon_in = queue.popleft()
        order = len(respondents) + 1
        rid = f"R{order:04d}"
        node_of[rid] = node
        nbrs = net.targets[net.offsets[node]:net.offsets[node + 1]]
        degree = int(net.degrees[node])

        known = int(np.count_nonzero(interviewed[nbrs]))
        if coupon_in is not None:
            known = max(known - 1, 0)  # recruiter does not count
        interviewed[node] = True

        probs = cfg.recruit_probs
        if (
            cfg.differential_trait is not None
            and cfg.recruit_probs_if_trait is not None
            and bool(net.node_traits[cfg.differential_trait][node])
        ):
            probs = cfg.recruit_probs_if_trait
        k = int(rng.choice(cfg.coupon_allotment + 1, p=np.array(probs) / sum(probs)))

        failed = refused = 0
        distributed: list[tuple[str, int]] = []
        for nbr in rng.permutation(nbrs):
            if len(distributed) == k:
                break
            nbr = int(nbr)
            if without:
                if interviewed[nbr]:
                    failed += 1
                    continue
                if committed[nbr]:
                    continue  # pending coupon holder; not a failed attempt
            if rng.random() < cfg.refusal_prob:
                refused += 1
                continue
            coupon_counter += 1
            cid = f"C{coupon_counter:05d}"
            distributed.append((cid, nbr))
            if without:
                committed[nbr] = True
            if rng.random() >= cfg.nonreturn_prob:
                queue.append((nbr, cid))

        traits: dict[str, Optional[str]] = {}
        for name, values in net.node_traits.items():
            if cfg.trait_missing_prob > 0 and rng.random() < cfg.trait_missing_prob:
                traits[name] = None
            else:
                traits[name] = "yes" if values[node] else "no"

        reach_week = int(rng.binomial(degree, 0.92))
        reach_day = int(rng.binomial(reach_week, 0.65))
        degree_report = DegreeReport(
            q_know=degree,
            q_province=degree,
            q_age=degree,
            q_seen_week=degree,
            q_reach_day=reach_day,
            q_reach_week=reach_week,
        )

        followup = None
        if rng.random() < cfg.followup_prob:
            followup = _synthesize_followup(
                rng, cfg, nbrs, degree, known, failed, refused, distributed, employed_arr
            )

        respondents.append(
            Respondent(
                id=rid,
                coupon_in=coupon_in,
                coupons_out=frozenset(cid for cid, _ in distributed),
                interview_order=order,
                interview_date=start_date
                + timedelta(days=(order - 1) // INTERVIEWS_PER_DAY),
                degree=degree_report,
                traits=traits,
                motivation=str(
                    rng.choice(
                        MOTIVATION_CATEGORIES,
                        p=np.array(MOTIVATION_PROBS) / sum(MOTIVATION_PROBS),
                    )
                ),
                employed=bool(employed_arr[node]) if employed_arr is not None else None,
                q_recv_week=int(rng.binomial(degree, 0.9)),
                followup=followup,
            )
        )

    extinct = len(respondents) < cfg.target_n
    specs = tuple(TraitSpec(name, "yes") for name in sorted(net.node_traits))
    ds = StudyDataset(
        site_label=cfg.site_label,
        respondents=tuple(respondents),
        trait_specs=specs,
        coupon_allotment=cfg.coupon_allotment,
    )
    prevalences = {name: true_prevalence(net, name) for name in net.node_traits}
    return SimulationResult(
        dataset=ds, node_of=node_of, extinct=extinct, true_prevalences=prevalences
    )


_DAYS_PROBS = np.array([0.5, 0.2, 0.1, 0.07, 0.05, 0.03, 0.02, 0.03])


def _synthesize_followup(
    rng: np.random.Generator,
    cfg: SimConfig,
    nbrs: np.ndarray,
    degree: int,
    known: int,
    failed: int,
    refused: int,
    distributed: list[tuple[str, int]],
    employed_arr: Optional[np.ndarray],
) -> FollowUpRecord:
    if cfg.retest_sd > 0:
        with np.errstate(over="ignore"):
            scaled = degree * float(np.exp(rng.normal(0.0, cfg.retest_sd)))
        if not math.isfinite(scaled):
            raise UnrealizableConfig(
                f"retest_sd {cfg.retest_sd} drew a retest degree beyond float range"
            )
        seen = max(1, int(round(scaled)))
    else:
        seen = degree
    base = max(seen, degree)
    retest = DegreeReport(q_know=base, q_province=base, q_age=base, q_seen_week=seen)

    reasons = tuple(
        str(c)
        for c in rng.choice(
            REFUSAL_REASON_CATEGORIES,
            size=min(refused, 5),
            p=np.array(DEFAULT_REFUSAL_PROBS) / sum(DEFAULT_REFUSAL_PROBS),
        )
    )
    coupons = []
    for cid, recipient in distributed:
        coupons.append(
            CouponOutcome(
                coupon_id=cid,
                days_to_distribute=int(rng.choice(len(_DAYS_PROBS), p=_DAYS_PROBS)),
                reciprocation_answer=bool(rng.random() < cfg.recip_prob),
                recipient_employed=(
                    bool(employed_arr[recipient]) if employed_arr is not None else None
                ),
            )
        )
    n_contacts_employed = (
        int(employed_arr[nbrs].sum()) if employed_arr is not None else None
    )
    return FollowUpRecord(
        degree_retest=retest,
        n_failed_attempts=failed,
        n_known_participants=known,
        coupons=tuple(coupons),
        n_coupons_distributed=len(distributed),
        n_refusals=refused,
        refusal_reasons=reasons,
        n_contacts_employed=n_contacts_employed,
    )
