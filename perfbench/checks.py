"""Output checks for one ``rdsdiag report`` run.

The checks read only the study CSVs and the report's output directory.  The
inverse-degree (VH) estimate is recomputed here from the CSVs, independently
of the package, and compared to the bundle at its 6 significant digits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Iterator


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite JSON constant {name}")


def load_bundle(out_dir: Path) -> tuple[bytes, dict[str, Any]]:
    """The raw bytes and parsed content of ``bundle.json``; NaN and
    Infinity are rejected."""
    raw = (out_dir / "bundle.json").read_bytes()
    return raw, json.loads(raw, parse_constant=_reject_constant)


def vh_by_trait(respondents_csv: Path, traits_csv: Path) -> dict[str, float]:
    """Inverse-degree-weighted prevalence per trait over non-seed
    respondents with the trait answered and a positive week degree."""
    with open(traits_csv, newline="") as fh:
        reference = {row["name"]: row["reference_level"] for row in csv.DictReader(fh)}
    num = dict.fromkeys(reference, 0.0)
    den = dict.fromkeys(reference, 0.0)
    with open(respondents_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            degree = row["deg_week"].strip()
            if not row["coupon_in"].strip() or not degree or int(degree) < 1:
                continue
            for trait, level in reference.items():
                answer = row[f"trait:{trait}"].strip()
                if answer:
                    den[trait] += 1.0 / int(degree)
                    if answer == level:
                        num[trait] += 1.0 / int(degree)
    return {t: num[t] / den[t] for t in reference if den[t] > 0}


def same_6_digits(reported: float, exact: float) -> bool:
    """``reported`` is ``exact`` rounded to 6 significant digits (half an
    ulp of the 6th digit, plus float slack for summation order)."""
    if exact == 0:
        return reported == 0
    half_unit = 0.5 * 10 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(reported - exact) <= half_unit * (1 + 1e-9)


def _walk(node: Any, path: str = "") -> Iterator[tuple[str, Any]]:
    if isinstance(node, dict):
        for key, value in node.items():
            yield f"{path}/{key}", value
            yield from _walk(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _walk(value, f"{path}/{i}")


def check_report(
    exit_code: int,
    out_dir: Path,
    respondents_csv: Path,
    traits_csv: Path,
    traits: tuple[str, ...],
    population_sizes: tuple[int, ...],
) -> tuple[list[str], bytes]:
    """Problems found in one report's outputs (empty when correct), and the
    bundle bytes for the determinism check."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], b""
    try:
        raw, bundle = load_bundle(out_dir)
    except (OSError, ValueError) as exc:
        return [f"bundle.json unreadable: {exc}"], b""

    problems = []
    for name, digest in bundle["manifest"].items():
        path = out_dir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest sha256 mismatch: {name}")

    sections = bundle["sections"]
    problems += [f"skipped: {path}" for path, _ in _walk(sections) if path.endswith("/skipped")]
    for section in ("estimate", "converge", "bottleneck"):
        missing = set(traits) - set(sections.get(section, {}).get("per_trait", {}))
        if missing:
            problems.append(f"{section}: no entry for traits {sorted(missing)}")

    estimates = sections.get("estimate", {}).get("per_trait", {})
    for trait, exact in vh_by_trait(respondents_csv, traits_csv).items():
        reported = estimates.get(trait, {}).get("vh")
        if not isinstance(reported, float) or not same_6_digits(reported, exact):
            problems.append(f"vh of {trait}: bundle {reported}, recomputed {exact:.6g}")
        rows = estimates.get(trait, {}).get("ss", [])
        if sorted(row["population_size"] for row in rows) != sorted(population_sizes):
            problems.append(f"ss scenarios of {trait}: {rows}")
        for row in rows:
            if not isinstance(row["ss"], float) or not 0.0 <= row["ss"] <= 1.0:
                problems.append(f"ss of {trait} at N={row['population_size']}: {row['ss']}")
            if population_sizes and row["population_size"] == max(population_sizes) and row["flagged"]:
                problems.append(f"ss of {trait} flagged at the largest N")

    for path, value in _walk(sections):
        if path.endswith("/quantile_rank") and not (
            isinstance(value, float) and 0.0 <= value <= 1.0
        ):
            problems.append(f"{path} = {value}")
    return problems, raw
