"""End-to-end diagnostic pipeline: runs every enabled analysis, writes the
SVG figures and CSV tables, and assembles a hashed JSON bundle.

All output is deterministic: floats are rounded to 6 significant digits
before serialization, JSON keys are sorted, and every random step derives
from the configured seed.  Diagnostic flags are results, not errors — the
pipeline exits cleanly when a dataset simply lacks the data for a section,
recording the reason in the bundle instead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from . import behavior, bottleneck, convergence, degree, estimators, finitepop
from .dataset import (
    IngestOptions,
    StudyDataset,
    ValidationReport,
    load_dataset,
    validate_dataset,
)
from .errors import DataRequirementError
from .forest import RecruitmentForest, build_forest, export_edges
from .svg import render_plot

SCHEMA_VERSION = "1.0"

ALL_SECTIONS = (
    "estimate",
    "converge",
    "bottleneck",
    "behavior",
    "degree",
    "finitepop",
)


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: Path
    respondents_file: Optional[Path] = None
    traits_file: Optional[Path] = None
    followup_file: Optional[Path] = None
    dataset: Optional[StudyDataset] = None  # bypasses file loading
    traits: Optional[tuple[str, ...]] = None  # None = all defined traits
    degree_question: str = estimators.DEFAULT_DEGREE_QUESTION
    tau: int = 50
    epsilon: float = 0.02
    replicates: int = 10_000
    threshold: float = 0.90
    population_sizes: tuple[int, ...] = ()
    ss_replications: int = 2000
    rng_seed: int = 0
    strict: bool = True
    sections: tuple[str, ...] = ALL_SECTIONS


@dataclass
class ReportBundle:
    dataset_summary: dict[str, Any]
    sections: dict[str, Any]
    manifest: dict[str, str] = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "dataset": self.dataset_summary,
            "sections": self.sections,
            "manifest": self.manifest,
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _num(x: Optional[float]) -> Any:
    """JSON-safe numeric: 6 significant digits, NaN -> None, inf -> string."""
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.6g}")


class _Writer:
    """Single point of file output; records content hashes for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.manifest: dict[str, str] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        (self.out_dir / name).write_bytes(data)
        self.manifest[name] = hashlib.sha256(data).hexdigest()

    def write_csv(self, name: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        self.write_text(name, "\n".join(lines) + "\n")


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def run_pipeline(cfg: PipelineConfig) -> ReportBundle:
    """Execute all enabled diagnostics and write the output tree.

    Raises ingest/config errors; data-requirement shortfalls inside a
    section are recorded per-section instead of aborting the run."""
    if cfg.dataset is not None:
        ds = cfg.dataset
        report = validate_dataset(ds)
    else:
        if cfg.respondents_file is None or cfg.traits_file is None:
            raise DataRequirementError("pipeline needs input files or a dataset")
        ds = load_dataset(
            cfg.respondents_file,
            cfg.traits_file,
            cfg.followup_file,
            IngestOptions(strict=cfg.strict),
        )
        report = validate_dataset(ds)
    ds = report.dataset
    forest = build_forest(ds)
    traits = cfg.traits if cfg.traits is not None else tuple(s.name for s in ds.trait_specs)

    writer = _Writer(Path(cfg.out_dir))
    bundle = ReportBundle(
        dataset_summary=_dataset_summary(ds, forest, report), sections={}
    )

    export_edges(forest, writer.out_dir / "edges.csv")
    writer.manifest["edges.csv"] = hashlib.sha256(
        (writer.out_dir / "edges.csv").read_bytes()
    ).hexdigest()
    _render_chains_figure(writer, ds, forest, traits)

    # each trait's included sample is built once and shared by the sections;
    # an unknown trait raises on every lookup, so each section records it
    sample_of = functools.cache(
        functools.partial(
            estimators.included_sample, ds, forest, degree_question=cfg.degree_question
        )
    )
    runners = {
        "estimate": lambda: _section_estimate(writer, traits, cfg, sample_of),
        "converge": lambda: _section_converge(writer, traits, cfg, sample_of),
        "bottleneck": lambda: _section_bottleneck(writer, traits, cfg, sample_of),
        "behavior": lambda: _section_behavior(writer, ds, forest, traits, cfg),
        "degree": lambda: _section_degree(writer, ds, forest, traits, cfg),
        "finitepop": lambda: _section_finitepop(ds, forest),
    }
    flag_rows: list[tuple[str, Optional[bool], Optional[bool]]] = []
    for name in cfg.sections:
        runner = runners.get(name)
        if runner is None:
            continue
        try:
            bundle.sections[name] = runner()
        except DataRequirementError as exc:
            bundle.sections[name] = {"skipped": str(exc)}

    # flag grid over per-trait verdicts from the convergence and bottleneck
    # sections (cells are None when a section was skipped for that trait)
    conv = bundle.sections.get("converge", {})
    bott = bundle.sections.get("bottleneck", {})
    for trait in traits:
        c = _lookup_flag(conv, trait, "flagged")
        b = _lookup_flag(bott, trait, "flagged")
        flag_rows.append((trait, c, b))
    if flag_rows and ("converge" in cfg.sections or "bottleneck" in cfg.sections):
        grid_svg = render_plot(
            "flag-grid",
            {
                "title": f"Flags: {ds.site_label}",
                "row_labels": [r[0] for r in flag_rows],
                "col_labels": ["convergence", "bottleneck"],
                "cells": [[r[1], r[2]] for r in flag_rows],
            },
        )
        writer.write_text("flag_grid.svg", grid_svg)
        writer.write_csv(
            "flag_grid.csv",
            ["trait", "convergence_flag", "bottleneck_flag"],
            flag_rows,
        )

    bundle.manifest = dict(sorted(writer.manifest.items()))
    writer.write_text("bundle.json", bundle.to_json())
    # the bundle's own hash is not part of its manifest; re-serialize is
    # unnecessary since manifest was frozen before writing bundle.json
    return bundle


def _lookup_flag(section: dict[str, Any], trait: str, key: str) -> Optional[bool]:
    per_trait = section.get("per_trait") if isinstance(section, dict) else None
    if not isinstance(per_trait, dict):
        return None
    entry = per_trait.get(trait)
    if not isinstance(entry, dict):
        return None
    value = entry.get(key)
    return value if isinstance(value, bool) else None


def _dataset_summary(
    ds: StudyDataset, forest: RecruitmentForest, report: ValidationReport
) -> dict[str, Any]:
    waves = [forest.wave[r.id] for r in ds.respondents]
    return {
        "site": ds.site_label,
        "n": ds.n,
        "n_seeds": len(ds.seeds()),
        "n_trees": len(forest.roots),
        "max_wave": max(waves) if waves else 0,
        "target_sample_size": ds.target_sample_size,
        "coupon_allotment": ds.coupon_allotment,
        "traits": [s.name for s in ds.trait_specs],
        "validation": {
            "funnel_violations": report.funnel_violations,
            "truncations_applied": report.truncations_applied,
            "inconsistent_reach": report.inconsistent_reach,
            "missing_traits": dict(sorted(report.missing_traits.items())),
            "n_warnings": len(report.warnings),
        },
    }


def _safe_name(trait: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in trait)


def _render_chains_figure(
    writer: _Writer, ds: StudyDataset, forest: RecruitmentForest, traits: Sequence[str]
) -> None:
    trait = traits[0] if traits else None
    data = {
        "title": f"Recruitment chains: {ds.site_label}",
        "roots": list(forest.roots),
        "children": {k: list(v) for k, v in forest.children.items()},
        "wave": forest.wave,
        "trait": {
            r.id: (ds.indicator(r, trait) if trait else None) for r in ds.respondents
        },
    }
    writer.write_text("chains.svg", render_plot("chains", data))


def _section_estimate(writer, traits, cfg: PipelineConfig, sample_of) -> dict[str, Any]:
    per_trait: dict[str, Any] = {}
    csv_rows = []
    for trait in traits:
        entry: dict[str, Any] = {}
        try:
            series = estimators.cumulative_estimates(sample_of(trait))
            entry["vh"] = _num(series.final)
            entry["n_included"] = len(series)
        except DataRequirementError as exc:
            per_trait[trait] = {"skipped": str(exc)}
            continue
        if cfg.population_sizes:
            scenarios = [
                estimators.SSConfig(
                    population_size=n,
                    replications=cfg.ss_replications,
                    rng_seed=cfg.rng_seed,
                )
                for n in cfg.population_sizes
            ]
            rows = estimators.ss_vh_table([sample_of(trait)], scenarios)
            entry["ss"] = [
                {
                    "population_size": row.scenario_population,
                    "ss": _num(row.ss),
                    "difference": _num(row.difference),
                    "flagged": row.flagged,
                }
                for row in rows
            ]
            for row in rows:
                csv_rows.append(
                    (trait, row.scenario_population, _num(row.vh), _num(row.ss),
                     _num(row.difference), row.flagged)
                )
        else:
            csv_rows.append((trait, None, entry["vh"], None, None, None))
        per_trait[trait] = entry
    writer.write_csv(
        "estimates.csv",
        ["trait", "population_size", "vh", "ss", "difference", "flagged"],
        csv_rows,
    )
    return {"degree_question": cfg.degree_question, "per_trait": per_trait}


def _section_converge(writer, traits, cfg: PipelineConfig, sample_of) -> dict[str, Any]:
    ccfg = convergence.ConvergenceConfig(tau=cfg.tau, epsilon=cfg.epsilon)
    verdicts = convergence.convergence_batch([sample_of(t) for t in traits], ccfg)
    per_trait: dict[str, Any] = {}
    csv_rows = []
    for v in verdicts:
        if not v.evaluable or v.verdict is None:
            per_trait[v.trait] = {"evaluable": False}
            csv_rows.append((v.trait, False, None, None, None))
            continue
        per_trait[v.trait] = {
            "evaluable": True,
            "flagged": v.verdict.flagged,
            "first_violation_offset": v.verdict.first_violation_offset,
            "max_deviation": _num(v.verdict.max_deviation),
        }
        csv_rows.append(
            (v.trait, True, v.verdict.flagged, v.verdict.first_violation_offset,
             _num(v.verdict.max_deviation))
        )
        sample = sample_of(v.trait)
        series = estimators.cumulative_estimates(sample)
        svg = render_plot(
            "convergence",
            {
                "title": f"Convergence: {v.trait}",
                "orders": list(series.orders),
                "values": list(series.values),
                "indicators": list(zip(series.orders, (sample.y == 1.0).tolist())),
            },
        )
        writer.write_text(f"convergence_{_safe_name(v.trait)}.svg", svg)
    writer.write_csv(
        "convergence_flags.csv",
        ["trait", "evaluable", "flagged", "first_violation_offset", "max_deviation"],
        csv_rows,
    )
    return {"tau": cfg.tau, "epsilon": _num(cfg.epsilon), "per_trait": per_trait}


def _section_bottleneck(writer, traits, cfg: PipelineConfig, sample_of) -> dict[str, Any]:
    per_trait: dict[str, Any] = {}
    csv_rows = []
    for trait in traits:
        try:
            sample = sample_of(trait)
            result = bottleneck.wsd_permutation_test(
                sample,
                replicates=cfg.replicates,
                threshold=cfg.threshold,
                rng_seed=cfg.rng_seed,
            )
        except DataRequirementError as exc:
            per_trait[trait] = {"skipped": str(exc)}
            csv_rows.append((trait, None, None, None))
            continue
        per_trait[trait] = {
            "observed_wsd": _num(result.observed),
            "quantile_rank": _num(result.quantile_rank),
            "flagged": result.flagged,
            "replicates": result.replicates,
            "threshold": _num(result.threshold),
            "rng_seed": result.rng_seed,
        }
        csv_rows.append(
            (trait, _num(result.observed), _num(result.quantile_rank), result.flagged)
        )
        series = estimators.per_tree_series(sample)
        svg = render_plot(
            "bottleneck",
            {
                "title": f"Bottleneck: {trait}",
                "series": {
                    root: (list(s.orders), list(s.values)) for root, s in series.items()
                },
                "composition": {root: len(s) for root, s in series.items()},
            },
        )
        writer.write_text(f"bottleneck_{_safe_name(trait)}.svg", svg)
        points = bottleneck.all_points_data(sample)
        svg = render_plot(
            "all-points",
            {
                "title": f"All points: {trait}",
                "rows": [(p.tree, p.included_index, p.has_trait) for p in points],
            },
        )
        writer.write_text(f"allpoints_{_safe_name(trait)}.svg", svg)
    writer.write_csv(
        "bottleneck.csv", ["trait", "observed_wsd", "quantile_rank", "flagged"], csv_rows
    )
    return {"threshold": _num(cfg.threshold), "per_trait": per_trait}


def _section_behavior(writer, ds, forest, traits, cfg: PipelineConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}

    def attempt(key: str, fn) -> None:
        try:
            out[key] = fn()
        except DataRequirementError as exc:
            out[key] = {"skipped": str(exc)}

    attempt("reciprocation_rate", lambda: _num(behavior.reciprocation_rate(ds)))

    def reciprocity() -> dict[str, Any]:
        s = behavior.network_reciprocity_stats(ds)
        return {
            "median_relative_difference": _num(s.median),
            "mean_relative_difference": _num(s.mean),
            "q3_relative_difference": _num(s.q3),
            "n": len(s.values),
            "n_excluded": s.n_excluded,
        }

    attempt("network_reciprocity", reciprocity)

    effect_rows = []
    out["effectiveness"] = {}
    for trait in traits:
        try:
            e = behavior.recruitment_effectiveness(ds, forest, trait)
        except DataRequirementError as exc:
            out["effectiveness"][trait] = {"skipped": str(exc)}
            continue
        out["effectiveness"][trait] = {
            "mean_recruits_positive": _num(e.mean_recruits_positive),
            "mean_recruits_negative": _num(e.mean_recruits_negative),
            "ratio": _num(e.ratio),
            "ratio_defined": e.ratio_defined,
            "n_positive": e.n_positive,
            "n_negative": e.n_negative,
        }
        effect_rows.append((trait, e))
    if effect_rows:
        trait, e = effect_rows[0]
        svg = render_plot(
            "effectiveness",
            {
                "title": f"Mean recruits by {trait}",
                "labels": [f"{trait}+", f"{trait}-"],
                "values": [
                    0.0 if math.isnan(e.mean_recruits_positive) else e.mean_recruits_positive,
                    0.0 if math.isnan(e.mean_recruits_negative) else e.mean_recruits_negative,
                ],
            },
        )
        writer.write_text("effectiveness.svg", svg)

    def bias() -> dict[str, Any]:
        levels = behavior.recruitment_bias_levels(ds, forest)
        tests = behavior.recruitment_bias_tests(
            ds, forest, replicates=cfg.replicates, threshold=cfg.threshold,
            rng_seed=cfg.rng_seed,
        )
        svg = render_plot(
            "bias",
            {
                "title": "Attribute share by level",
                "labels": ["contacts", "recipients", "recruits"],
                "values": [
                    100.0 * levels.contacts_level,
                    100.0 * levels.recipients_level,
                    100.0 * levels.recruits_level,
                ],
            },
        )
        writer.write_text("bias.svg", svg)
        return {
            "levels": {
                "contacts": _num(levels.contacts_level),
                "recipients": _num(levels.recipients_level),
                "recruits": _num(levels.recruits_level),
                "n_recruiters": levels.n_recruiters,
            },
            "tests": {
                name: {
                    "observed": _num(t.observed),
                    "quantile_rank": _num(t.quantile_rank),
                    "flagged": t.flagged,
                    "inconsistency": _num(tests.inconsistency[name]),
                    "n_recruiters": tests.n_recruiters[name],
                }
                for name, t in (
                    ("coupon_passing", tests.coupon_passing),
                    ("returning_coupons", tests.returning_coupons),
                    ("overall", tests.overall),
                )
            },
        }

    attempt("recruitment_bias", bias)

    def nonresponse() -> dict[str, Any]:
        rates = behavior.nonresponse_rates(ds, forest)
        return {
            "coupon_refusal": _num(rates.coupon_refusal),
            "non_return": _num(rates.non_return),
            "total_non_response": _num(rates.total_non_response),
            "n_recruiters": rates.n_recruiters,
            "n_impossible_excluded": rates.n_impossible_excluded,
        }

    attempt("nonresponse", nonresponse)

    def reasons() -> dict[str, Any]:
        refusal, motivation = behavior.reason_tables(ds)
        return {
            "refusal": {
                "percentages": {k: _num(v) for k, v in sorted(refusal.percentages.items())},
                "total": refusal.total,
            },
            "motivation": {
                "percentages": {k: _num(v) for k, v in sorted(motivation.percentages.items())},
                "total": motivation.total,
            },
        }

    attempt("reasons", reasons)

    def motivation_outcomes() -> list[dict[str, Any]]:
        categories = sorted(
            {r.motivation for r in ds.respondents if r.motivation is not None}
        )
        rows = []
        plot_rows = []
        for trait in traits:
            for category in categories:
                try:
                    mo = behavior.motivation_outcome(ds, category, trait)
                except DataRequirementError:
                    continue
                rows.append(
                    {
                        "motivation": category,
                        "trait": trait,
                        "table": list(mo.table),
                        "odds_ratio": _num(mo.odds_ratio),
                        "ci_low": _num(mo.interval[0]),
                        "ci_high": _num(mo.interval[1]),
                    }
                )
                plot_rows.append(
                    (f"{category} / {trait}", mo.odds_ratio, *mo.interval)
                )
        if plot_rows:
            svg = render_plot(
                "motivation-outcome",
                {"title": "Motivation vs outcome", "rows": plot_rows},
            )
            writer.write_text("motivation_outcome.svg", svg)
        return rows

    attempt("motivation_outcome", motivation_outcomes)
    return out


def _section_degree(writer, ds, forest, traits, cfg: PipelineConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}

    def windows() -> dict[str, Any]:
        tw = degree.time_window_stats(ds, forest)
        return {
            "mean_reachable_1day": _num(tw.mean_reachable_1day),
            "mean_reachable_7day": _num(tw.mean_reachable_7day),
            "share_distributed_1day": _num(tw.share_distributed_1day),
            "share_distributed_7day": _num(tw.share_distributed_7day),
            "share_gap_within_7day": _num(tw.share_gap_within_7day),
            "n_reachability": tw.n_reachability,
            "n_excluded_inconsistent": tw.n_excluded_inconsistent,
        }

    def retest() -> dict[str, Any]:
        rt = degree.test_retest_stats(ds, cfg.degree_question)
        return {
            "question": rt.question,
            "n": rt.n,
            "median_diff": _num(rt.median_diff),
            "q1_diff": _num(rt.q1_diff),
            "q3_diff": _num(rt.q3_diff),
            "spearman_rho": _num(rt.spearman_rho),
        }

    def sensitivity() -> list[dict[str, Any]]:
        rows = degree.estimate_sensitivity(ds, forest, traits, cfg.degree_question)
        estimated = [r for r in rows if isinstance(r, degree.SensitivityRow)]
        svg = render_plot(
            "sensitivity-pairs",
            {
                "title": "Estimate sensitivity to degree wave",
                "rows": [(r.trait, r.estimate_test, r.estimate_retest) for r in estimated],
            },
        )
        writer.write_text("sensitivity_pairs.svg", svg)
        return [
            {"trait": r.trait, "skipped": r.reason}
            if isinstance(r, degree.SkippedTrait)
            else {
                "trait": r.trait,
                "estimate_test": _num(r.estimate_test),
                "estimate_retest": _num(r.estimate_retest),
                "abs_difference": _num(r.abs_difference),
                "rel_difference": _num(r.rel_difference),
                "n": r.n,
            }
            for r in rows
        ]

    def trend() -> list[dict[str, Any]]:
        return [
            {"method": v.method, "sign": v.sign, "statistic": _num(v.statistic)}
            for v in degree.degree_trend(ds, degree_question=cfg.degree_question)
        ]

    for key, fn in (
        ("time_windows", windows),
        ("test_retest", retest),
        ("sensitivity", sensitivity),
        ("trend", trend),
    ):
        try:
            out[key] = fn()
        except DataRequirementError as exc:
            out[key] = {"skipped": str(exc)}
    return out


def _section_finitepop(ds, forest) -> dict[str, Any]:
    out: dict[str, Any] = {}
    summary = finitepop.indicator_summary(ds, forest)
    out["summary"] = {
        "attainment_failed": summary.attainment_failed,
        "failed_attempts_flag": summary.failed_attempts_flag,
        "participants_known_trend_flag": summary.participants_known_trend_flag,
    }
    try:
        fa = finitepop.failed_attempts_indicator(ds)
        out["failed_attempts"] = {
            "percent_reporting": _num(fa.percent_reporting),
            "flagged": fa.flagged,
            "threshold": _num(fa.threshold),
            "n_answered": fa.n_answered,
            "bands": {"0": fa.band_0, "1-3": fa.band_1_3, "4+": fa.band_4_plus},
        }
    except DataRequirementError as exc:
        out["failed_attempts"] = {"skipped": str(exc)}
    try:
        tr = finitepop.participants_known_trend(ds)
        out["participants_known"] = {
            "slope": _num(tr.slope),
            "flagged": tr.flagged,
            "n": len(tr.orders),
            "n_excluded_zero_degree": tr.n_excluded_zero_degree,
        }
    except DataRequirementError as exc:
        out["participants_known"] = {"skipped": str(exc)}
    return out
