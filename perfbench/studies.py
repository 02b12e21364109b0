"""Seeded study generation for the benchmark workloads.

Each workload is a simulated RDS study (``rdsdiag.sim``) written as the three
CSV files ``rdsdiag report`` reads, plus the report flags the workload runs
with.  The same workload and seed always give byte-identical CSVs.

Why these three workloads:

- ``ss-sensitivity``: the two SS scenarios of the project roadmap's
  baseline study, on 150 respondents.  Successive-sampling (SS) weights
  dominate the run, and both traits share one inclusion set, so a cache of
  SS weights per degree multiset would hit.  The larger population is 133
  times the sample, so an SS rewrite whose cost grows with the population
  size instead of the sample size shows here.
- ``many-traits``: a study of 1000 respondents with twelve traits and no SS
  scenario.  SS is bypassed, so an SS change must show no effect here; the
  permutation test (4000 replicates), the per-trait re-derivation of
  included samples, SVG rendering and output volume dominate instead.
- ``small-study``: a small study with missing trait answers, so each trait
  has its own inclusion set, and a near-census SS scenario.  Fixed per-call
  costs (import, exact intervals, RNG set-up) are a large share of the run.

The studies are smaller than the roadmap's so that one timed run holds
several reports: on a shared 2-CPU host one report's time varies by up to a
quarter from the next one's, so only a median over several is steady.
``BENCHMARK.json`` lists the first two workloads, each run for 50 s; the
time allowed for all runs has no room for a third at that length, and
``small-study`` exercises no layer the other two miss.  It stays here for
``summary.py`` and the tests.

Ingest, validation and forest building are each under 1% of every
workload, so no workload can show an ingest gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from rdsdiag.dataset import save_dataset
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    network: NetworkConfig
    target_n: int
    seed_count: int
    trait_missing_prob: float
    population_sizes: tuple[int, ...]
    # permutation replicates of the bottleneck test; None keeps the default
    replicates: Optional[int] = None


_TWO_TRAITS = {
    "hiv": TraitRule(kind="block", block=0),
    "employed": TraitRule(kind="bernoulli", p=0.6),
}

_TWELVE_TRAITS = {
    "employed": TraitRule(kind="bernoulli", p=0.6),
    "hiv": TraitRule(kind="block", block=0),
    "block1": TraitRule(kind="block", block=1),
    "high_degree": TraitRule(kind="top_degree", fraction=0.3),
    "top_decile": TraitRule(kind="top_degree", fraction=0.1),
    **{
        f"b{int(p * 100):02d}": TraitRule(kind="bernoulli", p=p)
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.8)
    },
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ss-sensitivity",
            why="SS weights at N=5000 and 20000 dominate (n=150); both traits share one inclusion set, so a cache of SS weights would hit",
            network=NetworkConfig(
                block_sizes=(1500, 1500),
                within_block_edge_prob=0.008,
                between_block_edge_prob=0.001,
                traits=_TWO_TRAITS,
            ),
            target_n=150,
            seed_count=6,
            trait_missing_prob=0.0,
            population_sizes=(5000, 20000),
        ),
        Workload(
            name="many-traits",
            why="no SS scenario, so an SS change must not move it; permutation test, per-trait re-derivation, SVG and output volume dominate (n=1000, 12 traits)",
            network=NetworkConfig(
                block_sizes=(3000, 3000),
                within_block_edge_prob=0.004,
                between_block_edge_prob=0.0005,
                traits=_TWELVE_TRAITS,
            ),
            target_n=1000,
            seed_count=10,
            trait_missing_prob=0.0,
            population_sizes=(),
            replicates=4000,
        ),
        Workload(
            name="small-study",
            why="n=150 with 10% missing answers, so each trait has its own inclusion set; N/n=133 punishes SS cost that grows with N; fixed costs weigh",
            network=NetworkConfig(
                block_sizes=(400, 400),
                within_block_edge_prob=0.03,
                between_block_edge_prob=0.002,
                traits=_TWO_TRAITS,
            ),
            target_n=150,
            seed_count=6,
            trait_missing_prob=0.1,
            population_sizes=(300, 20000),
        ),
    )
}


@dataclass(frozen=True)
class Study:
    respondents: Path
    traits: Path
    followup: Path
    n: int
    extinct: bool
    trait_names: tuple[str, ...]


def generate_study(workload: Workload, seed: int, out_dir: Path) -> Study:
    """Simulate the workload's study for ``seed`` and write its CSVs."""
    net = generate_network(workload.network, rng_seed=seed)
    result = simulate_rds(
        net,
        SimConfig(
            target_n=workload.target_n,
            seed_count=workload.seed_count,
            trait_missing_prob=workload.trait_missing_prob,
            site_label=workload.name,
            rng_seed=seed,
        ),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    study = Study(
        respondents=out_dir / "respondents.csv",
        traits=out_dir / "traits.csv",
        followup=out_dir / "followup.csv",
        n=result.dataset.n,
        extinct=result.extinct,
        trait_names=tuple(s.name for s in result.dataset.trait_specs),
    )
    save_dataset(result.dataset, study.respondents, study.traits, study.followup)
    return study


def report_args(workload: Workload, study: Study, seed: int, out_dir: Path) -> list[str]:
    """The ``rdsdiag report`` arguments for one run of the workload."""
    args = [
        "report",
        "--respondents", str(study.respondents),
        "--traits", str(study.traits),
        "--followup", str(study.followup),
        "--out-dir", str(out_dir),
        "--seed", str(seed),
    ]
    for size in workload.population_sizes:
        args += ["--population-size", str(size)]
    if workload.replicates is not None:
        args += ["--replicates", str(workload.replicates)]
    return args
