import dataclasses
import hashlib
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_respondent
from rdsdiag.errors import DanglingCoupon, DataRequirementError, NonContiguousOrder
from rdsdiag.estimators import included_sample
from rdsdiag.forest import RecruitmentForest, build_forest
from rdsdiag.report import PipelineConfig, run_pipeline
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds


def chain_of_three():
    return make_dataset(
        [
            make_respondent("S", 1, coupons_out=["C1"], degree=2, traits={"hiv": "no"}),
            make_respondent("A", 2, coupon_in="C1", coupons_out=["C2"], degree=2,
                            traits={"hiv": "yes"}),
            make_respondent("B", 3, coupon_in="C2", coupons_out=["C3"], degree=2,
                            traits={"hiv": "no"}),
            make_respondent("C", 4, coupon_in="C3", degree=2, traits={"hiv": "yes"}),
        ]
    )


def test_chain_waves_and_tree_size():
    forest = build_forest(chain_of_three())
    assert forest.roots == ("S",)
    assert [forest.wave[x] for x in "SABC"] == [0, 1, 2, 3]
    assert Counter(forest.tree_of.values()) == {"S": 4}  # the root and 3 recruits
    assert forest.tree_of["C"] == "S"


def test_two_seed_fixture_tree_sizes():
    ds = make_dataset(
        [
            make_respondent("A", 1, coupons_out=["A1", "A2"], degree=1,
                            traits={"hiv": "yes"}),
            make_respondent("B", 2, degree=1, traits={"hiv": "no"}),
            make_respondent("r1", 3, coupon_in="A1", coupons_out=["A3"], degree=1,
                            traits={"hiv": "yes"}),
            make_respondent("r2", 4, coupon_in="A2", degree=1, traits={"hiv": "no"}),
            make_respondent("r3", 5, coupon_in="A3", degree=1, traits={"hiv": "no"}),
        ]
    )
    forest = build_forest(ds)
    assert Counter(forest.tree_of.values()) == {"A": 4, "B": 1}  # roots included
    assert forest.parent["r3"] == "r1"
    assert forest.wave["r3"] == 2


def test_all_seeds():
    ds = make_dataset(
        [make_respondent(f"S{i}", i, degree=1, traits={"hiv": "yes"}) for i in (1, 2, 3)]
    )
    forest = build_forest(ds)
    assert set(forest.roots) == {"S1", "S2", "S3"}
    assert all(w == 0 for w in forest.wave.values())
    assert all(forest.tree_of[root] == root for root in forest.roots)


def test_children_ordered_by_interview_order():
    ds = make_dataset(
        [
            make_respondent("S", 1, coupons_out=["C1", "C2", "C3"], degree=1,
                            traits={"hiv": "no"}),
            make_respondent("late", 4, coupon_in="C3", degree=1, traits={"hiv": "no"}),
            make_respondent("early", 2, coupon_in="C1", degree=1, traits={"hiv": "no"}),
            make_respondent("mid", 3, coupon_in="C2", degree=1, traits={"hiv": "no"}),
        ][:1]
        + [
            make_respondent("early", 2, coupon_in="C1", degree=1, traits={"hiv": "no"}),
            make_respondent("mid", 3, coupon_in="C2", degree=1, traits={"hiv": "no"}),
            make_respondent("late", 4, coupon_in="C3", degree=1, traits={"hiv": "no"}),
        ]
    )
    forest = build_forest(ds)
    assert forest.children["S"] == ("early", "mid", "late")


def test_dangling_and_cycle_raise():
    # a StudyDataset checks its links when it is built, so build_forest never
    # sees a dangling coupon or a cycle
    with pytest.raises(DanglingCoupon):
        make_dataset([make_respondent("X", 1, coupon_in="C9", degree=1, traits={"hiv": "no"})])
    # a cycle has a recruiter interviewed no earlier than their recruit
    with pytest.raises(NonContiguousOrder):
        make_dataset(
            [
                make_respondent("A", 1, coupon_in="CB", coupons_out=["CA"], degree=1,
                                traits={"hiv": "no"}),
                make_respondent("B", 2, coupon_in="CA", coupons_out=["CB"], degree=1,
                                traits={"hiv": "no"}),
            ]
        )


def bfs_forest(ds):
    """Breadth-first reference for ``build_forest``: attach each recruit to
    the issuer of their coupon, then derive waves and trees from the seeds."""
    issuer_of = {c: r.id for r in ds.respondents for c in r.coupons_out}
    parent, children, roots = {}, {r.id: [] for r in ds.respondents}, []
    for r in ds.respondents:
        if r.coupon_in is None:
            roots.append(r.id)
        else:
            parent[r.id] = issuer_of[r.coupon_in]
            children[parent[r.id]].append(r.id)
    wave = {root: 0 for root in roots}
    tree_of = {root: root for root in roots}
    queue = deque(roots)
    while queue:
        rid = queue.popleft()
        for child in children[rid]:
            wave[child] = wave[rid] + 1
            tree_of[child] = tree_of[rid]
            queue.append(child)
    assert len(wave) == ds.n
    return RecruitmentForest(
        roots=tuple(roots),
        parent=parent,
        children={k: tuple(v) for k, v in children.items()},
        wave=wave,
        tree_of=tree_of,
    )


@st.composite
def forests(draw):
    """A valid study: a bush of random shape, or a chain up to 299 waves
    deep.  Each recruit holds a coupon of an earlier respondent."""
    n = draw(st.integers(1, 300))
    chain = draw(st.booleans())
    rows = []
    for i in range(n):
        issuer = None
        if i and (chain or draw(st.booleans())):
            issuer = i - 1 if chain else draw(st.integers(0, i - 1))
        rows.append((i, issuer))
    return make_dataset(
        [
            make_respondent(
                f"R{i}", i + 1,
                coupon_in=None if issuer is None else f"C{i}",
                coupons_out=[f"C{j}" for j, q in rows if q == i],
            )
            for i, issuer in rows
        ]
    )


@settings(max_examples=60, deadline=None)
@given(ds=forests())
def test_forward_pass_matches_bfs(ds):
    assert build_forest(ds) == bfs_forest(ds)


def test_forward_pass_matches_bfs_on_a_deep_chain():
    n = 3000
    ds = make_dataset(
        [
            make_respondent(f"R{i}", i + 1, coupon_in=f"C{i}" if i else None,
                            coupons_out=[f"C{i + 1}"] if i + 1 < n else [])
            for i in range(n)
        ]
    )
    forest = build_forest(ds)
    assert forest == bfs_forest(ds)
    assert forest.wave[f"R{n - 1}"] == n - 1


def test_per_tree_subsets_exclusions():
    ds = make_dataset(
        [
            make_respondent("S", 1, coupons_out=["C1", "C2", "C3"], degree=3,
                            traits={"hiv": "no"}),
            make_respondent("a", 2, coupon_in="C1", degree=2, traits={"hiv": "yes"}),
            make_respondent("b", 3, coupon_in="C2", degree=2, traits={}),
            make_respondent("c", 4, coupon_in="C3", degree=2, traits={"hiv": "no"}),
        ]
    )
    sample = included_sample(ds, "hiv")
    assert len(sample) == 2  # seed excluded, missing-trait member excluded
    assert sample.orders.tolist() == [2, 4]  # a and c
    assert [sample.roots[t] for t in sample.tree] == ["S", "S"]
    with pytest.raises(DataRequirementError,
                       match="trait 'nope' is not defined for this dataset"):
        included_sample(ds, "nope")


def test_included_sum_bound_and_equality():
    ds = chain_of_three()
    total = len(included_sample(ds, "hiv"))
    seeds = sum(r.is_seed for r in ds.respondents)
    assert total == ds.n - seeds  # no missing data -> equality


def test_wave_matches_path_length_oracle():
    net = generate_network(
        NetworkConfig((30,), 0.2, 0.0, {"hiv": TraitRule("bernoulli", p=0.5)}), 3
    )
    ds = simulate_rds(net, SimConfig(target_n=25, seed_count=3, rng_seed=4)).dataset
    forest = build_forest(ds)
    for r in ds.respondents:
        length = 0
        cursor = r.id
        while cursor in forest.parent:
            cursor = forest.parent[cursor]
            length += 1
        assert forest.wave[r.id] == length
        assert forest.tree_of[r.id] == cursor


def test_export_edges(tmp_path):
    bundle = run_pipeline(chain_of_three(), PipelineConfig(sections=()), tmp_path)
    data = (tmp_path / "edges.csv").read_bytes()
    assert data == b"child_id,parent_id,wave,tree_root\nA,S,1,S\nB,A,2,S\nC,B,3,S\n"
    assert bundle.manifest["edges.csv"] == hashlib.sha256(data).hexdigest()


def test_study_builds_its_forest_once():
    ds = chain_of_three()
    assert ds.forest is ds.forest
    assert ds.forest == build_forest(ds)


def test_copy_of_a_study_has_its_own_forest():
    ds = chain_of_three()
    assert ds.forest.roots == ("S",)
    # B's coupon from A goes unredeemed; B starts a second tree
    rows = tuple(
        dataclasses.replace(r, coupon_in=None) if r.id == "B" else r for r in ds.respondents
    )
    copy = dataclasses.replace(ds, respondents=rows)
    assert copy.forest.roots == ("S", "B")
    sample = included_sample(copy, "hiv")
    assert sample.roots == ("B", "S")  # by id, not in forest order
    members = [copy.respondents[order - 1].id for order in sample.orders]
    assert [(rid, sample.roots[t]) for rid, t in zip(members, sample.tree)] == [
        ("A", "S"), ("C", "B")
    ]


def test_report_builds_the_forest_once(tmp_path, monkeypatch):
    built = []

    def counted(ds):
        built.append(ds)
        return build_forest(ds)

    monkeypatch.setattr("rdsdiag.forest.build_forest", counted)
    ds = chain_of_three()
    run_pipeline(ds, PipelineConfig(replicates=20), tmp_path)
    assert len(built) == 1 and built[0] is ds
