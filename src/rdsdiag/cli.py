"""Command-line interface.

One subcommand per diagnostic family plus `ingest`, `simulate` and the
all-in-one `report`.  Every command prints a JSON document to stdout;
commands that produce figures also write them under ``--out-dir``.  Errors
exit with a stable code per family: 2 ingest, 3 configuration, 4 missing
data, 5 other toolkit errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .dataset import IngestOptions, load_dataset, save_dataset, validate_dataset
from .errors import RdsError, UnrealizableConfig
from .forest import build_forest
from .report import ALL_SECTIONS, PipelineConfig, dataset_summary, run_pipeline
from .sim import (
    NetworkConfig,
    SimConfig,
    TraitRule,
    generate_network,
    simulate_rds,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdsdiag",
        description="Diagnostics for respondent-driven sampling studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def dataset_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--respondents", required=True, type=Path)
        p.add_argument("--traits", required=True, type=Path)
        p.add_argument("--followup", type=Path, default=None)
        strictness = p.add_mutually_exclusive_group()
        strictness.add_argument("--strict", dest="strict", action="store_true",
                                default=True)
        strictness.add_argument("--lenient", dest="strict", action="store_false")
        p.add_argument("--degree-question", default="q_seen_week")
        p.add_argument("--trait", action="append", default=None,
                       help="restrict analysis to this trait (repeatable)")
        p.add_argument("--config", type=Path, default=None,
                       help="key=value file whose entries override flags")

    def analysis_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out-dir", type=Path, default=Path("rdsdiag-out"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tau", type=int, default=50)
        p.add_argument("--epsilon", type=float, default=0.02)
        p.add_argument("--replicates", type=int, default=10_000)
        p.add_argument("--threshold", type=float, default=0.90)
        p.add_argument("--population-size", action="append", type=int,
                       default=None, help="SS scenario population (repeatable)")

    for name, help_text in (
        ("ingest", "load, validate and summarize the input files"),
        ("estimate", "inverse-degree and successive-sampling estimates"),
        ("converge", "cumulative-estimate convergence verdicts"),
        ("bottleneck", "per-tree dispersion permutation tests"),
        ("behavior", "respondent behavior diagnostics"),
        ("degree", "degree measurement diagnostics"),
        ("finitepop", "with-replacement indicator summary"),
        ("report", "run every diagnostic and write the full bundle"),
    ):
        p = sub.add_parser(name, help=help_text)
        dataset_flags(p)
        if name != "ingest":
            analysis_flags(p)

    p = sub.add_parser("simulate", help="generate a synthetic study dataset")
    p.add_argument("--scenario", required=True, type=Path,
                   help="key=value scenario description")
    p.add_argument("--out-dir", required=True, type=Path)
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario rng_seed")
    p.add_argument("--config", type=Path, default=None)
    return parser


def _items(parse: Callable[[str], Any]) -> Callable[[str], list[Any]]:
    return lambda raw: [parse(v.strip()) for v in raw.split(",")]


def _yes_no(raw: str) -> bool:
    if raw.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(raw)
    return raw.lower() in ("1", "true", "yes")


# config key -> parser; the parsed value replaces the flag's, and a key not
# listed here keeps its text
_CONFIG_KEYS = {
    "population_size": _items(int),
    "trait": _items(str),
    "seed": int,
    "tau": int,
    "replicates": int,
    "epsilon": float,
    "threshold": float,
    "strict": _yes_no,
    "respondents": Path,
    "traits": Path,
    "followup": Path,
    "out_dir": Path,
    "scenario": Path,
}


def _apply_config_file(args: argparse.Namespace) -> None:
    """Key=value config entries override the parsed flags.  An unknown key or
    a value that does not parse raises ``UnrealizableConfig``."""
    path = getattr(args, "config", None)
    if path is None:
        return
    for key, raw in _read_kv(path).items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "config"):
            raise UnrealizableConfig(f"unknown config key {key!r}")
        try:
            setattr(args, dest, _CONFIG_KEYS.get(dest, str)(raw))
        except ValueError:
            raise UnrealizableConfig(f"config key {key!r}: cannot parse {raw!r}") from None


def _read_kv(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UnrealizableConfig(f"bad config line {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _pipeline_config(args: argparse.Namespace, sections: Sequence[str]) -> PipelineConfig:
    return PipelineConfig(
        out_dir=args.out_dir,
        respondents_file=args.respondents,
        traits_file=args.traits,
        followup_file=args.followup,
        traits=tuple(args.trait) if args.trait else None,
        degree_question=args.degree_question,
        tau=args.tau,
        epsilon=args.epsilon,
        replicates=args.replicates,
        threshold=args.threshold,
        population_sizes=tuple(args.population_size or ()),
        rng_seed=args.seed,
        strict=args.strict,
        sections=tuple(sections),
    )


def _emit(payload: Any) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _cmd_ingest(args: argparse.Namespace) -> int:
    ds = load_dataset(
        args.respondents, args.traits, args.followup, IngestOptions(strict=args.strict)
    )
    report = validate_dataset(ds)
    summary = dataset_summary(report.dataset, build_forest(report.dataset), report)
    validation = summary.pop("validation")
    _emit({**summary, **validation, "warnings": report.warnings})
    return 0


_SECTION_COMMANDS = {
    "estimate": ("estimate",),
    "converge": ("converge",),
    "bottleneck": ("bottleneck",),
    "behavior": ("behavior",),
    "degree": ("degree",),
    "finitepop": ("finitepop",),
    "report": ALL_SECTIONS,
}


def _cmd_sections(args: argparse.Namespace) -> int:
    sections = _SECTION_COMMANDS[args.command]
    bundle = run_pipeline(_pipeline_config(args, sections))
    if args.command == "report":
        _emit(
            {
                "out_dir": str(args.out_dir),
                "dataset": bundle.dataset_summary,
                "files": sorted(bundle.manifest),
            }
        )
    else:
        _emit(bundle.sections.get(sections[0], {}))
    return 0


def _parse_trait_rule(raw: str) -> TraitRule:
    kind, _, value = raw.partition(":")
    if kind == "block":
        return TraitRule(kind="block", block=int(value or 0))
    if kind == "bernoulli":
        return TraitRule(kind="bernoulli", p=float(value or 0.5))
    if kind == "top_degree":
        return TraitRule(kind="top_degree", fraction=float(value or 0.3))
    raise UnrealizableConfig(f"unknown trait rule {raw!r}")


def _probs(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


# scenario key -> (SimConfig field, parser); an absent key keeps the field's default
_SIM_KEYS = {
    "target_n": ("target_n", int),
    "seed_count": ("seed_count", int),
    "allotment": ("coupon_allotment", int),
    "mode": ("replacement_mode", str),
    "recruit_probs": ("recruit_probs", _probs),
    "differential_trait": ("differential_trait", str),
    "recruit_probs_if_trait": ("recruit_probs_if_trait", _probs),
    "refusal_prob": ("refusal_prob", float),
    "nonreturn_prob": ("nonreturn_prob", float),
    "seed_block": ("seed_block", int),
    "followup_prob": ("followup_prob", float),
    "retest_sd": ("retest_sd", float),
    "recip_prob": ("recip_prob", float),
    "trait_missing_prob": ("trait_missing_prob", float),
    "employment_trait": ("employment_trait", lambda raw: raw or None),
    "site": ("site_label", str),
    "rng_seed": ("rng_seed", int),
}


# network key -> (NetworkConfig field, parser)
_NET_KEYS = {
    "blocks": ("block_sizes", lambda raw: tuple(int(b) for b in raw.split(","))),
    "within_p": ("within_block_edge_prob", float),
    "between_p": ("between_block_edge_prob", float),
}


def load_scenario(path: Path) -> tuple[NetworkConfig, SimConfig]:
    """Parse a key=value scenario file into network and process configs.  An
    unknown key or a value that does not parse raises ``UnrealizableConfig``."""
    traits: dict[str, TraitRule] = {}
    net_fields: dict[str, Any] = {
        "within_block_edge_prob": 0.05, "between_block_edge_prob": 0.01, "traits": traits
    }
    sim_fields: dict[str, Any] = {}
    for key, value in _read_kv(path).items():
        if key.startswith("trait."):
            fields, name, parse = traits, key[len("trait."):], _parse_trait_rule
        elif key in _NET_KEYS:
            fields, (name, parse) = net_fields, _NET_KEYS[key]
        elif key in _SIM_KEYS:
            fields, (name, parse) = sim_fields, _SIM_KEYS[key]
        else:
            raise UnrealizableConfig(f"unknown scenario key {key!r}")
        try:
            fields[name] = parse(value)
        except ValueError:
            raise UnrealizableConfig(f"scenario key {key!r}: cannot parse {value!r}") from None
    if "block_sizes" not in net_fields or "target_n" not in sim_fields:
        raise UnrealizableConfig("scenario needs at least blocks= and target_n=")
    return NetworkConfig(**net_fields), SimConfig(**sim_fields)


def _cmd_simulate(args: argparse.Namespace) -> int:
    net_cfg, sim_cfg = load_scenario(args.scenario)
    if args.seed is not None:
        sim_cfg = dataclasses.replace(sim_cfg, rng_seed=args.seed)
    net = generate_network(net_cfg, rng_seed=sim_cfg.rng_seed)
    result = simulate_rds(net, sim_cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(
        result.dataset,
        out / "respondents.csv",
        out / "traits.csv",
        out / "followup.csv",
    )
    _emit(
        {
            "out_dir": str(out),
            "n": result.dataset.n,
            "extinct": result.extinct,
            "true_prevalences": {
                k: float(f"{v:.6g}") for k, v in sorted(result.true_prevalences.items())
            },
            "n_connect_edges": net.n_connect_edges,
        }
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_sections(args)
    except RdsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
