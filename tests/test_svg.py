import math
import xml.etree.ElementTree as ET

import pytest

from rdsdiag import svg
from rdsdiag.errors import EmptyData

# one figure per family, keyed by the figure it draws in a report
FIGURES = {
    "chains": (svg.chains, {
        "title": "Chains",
        "roots": ["S"],
        "children": {"S": ["a", "b"], "a": ["c"]},
        "wave": {"S": 0, "a": 1, "b": 1, "c": 2},
        "trait": {"S": True, "a": False, "b": None, "c": True},
    }),
    "convergence": (svg.convergence, {
        "title": "Convergence",
        "orders": [1, 2, 3, 4],
        "values": [1.0, 0.5, 0.4, 0.45],
        "indicators": [(1, True), (2, False), (3, False), (4, True)],
    }),
    "bottleneck": (svg.bottleneck, {
        "title": "Bottleneck",
        "series": {"S1": ([1, 3], [1.0, 0.5]), "S2": ([2, 4], [0.0, 0.25])},
        "composition": {"S1": 2, "S2": 2},
    }),
    "all-points": (svg.all_points, {
        "title": "All points",
        "rows": [("S1", True), ("S2", False), ("S1", False)],
    }),
    "flag-grid": (svg.flag_grid, {
        "title": "Flags",
        "row_labels": ["hiv", "employed"],
        "col_labels": ["convergence", "bottleneck"],
        "cells": [[True, False], [None, False]],
    }),
    "effectiveness": (svg.bars, {
        "title": "Effectiveness", "labels": ["positive", "negative"], "values": [0.5, 2.0],
    }),
    "bias": (svg.bars, {
        "title": "Bias", "labels": ["contacts", "recipients", "recruits"],
        "values": [0.4, 0.6, 0.7],
    }),
    "motivation-outcome": (svg.motivation_outcome, {
        "title": "Odds ratios",
        "rows": [("Incentive", 2.0, 0.8, 5.0), ("Other", math.inf, 1.2, math.inf)],
    }),
    "sensitivity-pairs": (svg.sensitivity_pairs, {
        "title": "Sensitivity", "rows": [("hiv", 0.4, 0.45), ("employed", 0.7, 0.6)],
    }),
}


def _draw(kind):
    figure, kwargs = FIGURES[kind]
    return figure(**kwargs)


@pytest.mark.parametrize("kind", FIGURES)
def test_empty_data(kind):
    figure, kwargs = FIGURES[kind]
    empty = {k: v if k == "title" else type(v)() for k, v in kwargs.items()}
    with pytest.raises(EmptyData):
        figure(**empty)


@pytest.mark.parametrize("kind", FIGURES)
def test_all_kinds_well_formed_xml(kind):
    root = ET.fromstring(_draw(kind))
    assert root.tag.endswith("svg")
    assert len(root) > 1


@pytest.mark.parametrize("kind", FIGURES)
def test_byte_determinism(kind):
    assert _draw(kind).encode() == _draw(kind).encode()


def test_chains_element_counts():
    root = ET.fromstring(_draw("chains"))
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    lines = root.findall(f"{ns}line")
    assert len(circles) == 4  # one marker per respondent
    assert len(lines) == 3  # one edge per recruitment
    # seed drawn larger than recruits
    radii = sorted(float(c.get("r")) for c in circles)
    assert radii[-1] > radii[0]


def test_chains_trait_colors():
    root = ET.fromstring(_draw("chains"))
    ns = "{http://www.w3.org/2000/svg}"
    fills = [c.get("fill") for c in root.findall(f"{ns}circle")]
    assert "#c43c39" in fills  # positive
    assert "#4472a8" in fills  # negative
    assert "#bbbbbb" in fills  # missing


def test_convergence_reference_line_at_final():
    root = ET.fromstring(
        svg.convergence(title="c", orders=[1, 2, 3], values=[0.7, 0.7, 0.7], indicators=[])
    )
    ns = "{http://www.w3.org/2000/svg}"
    white = [l for l in root.findall(f"{ns}line") if l.get("stroke") == "#ffffff"]
    assert len(white) == 1
    series = root.findall(f"{ns}polyline")[0]
    ys = {p.split(",")[1] for p in series.get("points").split()}
    assert ys == {white[0].get("y1")}  # constant series sits on the reference


def test_flag_grid_cell_colors():
    root = ET.fromstring(_draw("flag-grid"))
    ns = "{http://www.w3.org/2000/svg}"
    fills = [r.get("fill") for r in root.findall(f"{ns}rect")]
    assert fills.count("#c43c39") == 1  # one flagged cell
    assert fills.count("#f2f2f2") == 2  # two clear cells
    assert fills.count("#bbbbbb") == 1  # one not-evaluable cell


def test_motivation_outcome_unbounded_dashed():
    root = ET.fromstring(_draw("motivation-outcome"))
    ns = "{http://www.w3.org/2000/svg}"
    interval_lines = [
        l for l in root.findall(f"{ns}line") if l.get("stroke") == "#1f6fb2"
    ]
    assert len(interval_lines) == 2
    dashes = [l.get("stroke-dasharray") for l in interval_lines]
    assert dashes.count("3 3") == 1  # only the unbounded interval is dashed


def test_six_significant_digit_floats():
    figure = svg.convergence(title="c", orders=[1, 2], values=[1 / 3, 2 / 3], indicators=[])
    for token in figure.split():
        frag = token.split("=")[-1].strip('"')
        for piece in frag.replace(",", " ").split():
            if piece.replace(".", "").replace("-", "").isdigit() and "." in piece:
                assert len(piece.replace("-", "").replace(".", "").lstrip("0")) <= 6


def _chain(depth):
    """One seed heading a single chain of ``depth`` waves below it."""
    ids = [f"n{i}" for i in range(depth + 1)]
    return {
        "roots": ids[:1],
        "children": {parent: (child,) for parent, child in zip(ids, ids[1:])},
        "wave": {rid: i for i, rid in enumerate(ids)},
    }


def test_chains_deep_chain():
    root = ET.fromstring(svg.chains(title="deep", trait={}, **_chain(3000)))
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    assert len(circles) == 3001
    assert len(root.findall(f"{ns}line")) == 3000
    # one leaf: every node sits over its only slot
    assert {c.get("cx") for c in circles} == {circles[0].get("cx")}


def test_chains_leaves_left_to_right_parents_centered():
    root = ET.fromstring(svg.chains(
        title="t", roots=["S", "T"],
        children={"S": ("a", "b"), "a": ("c", "d", "e")},
        wave={"S": 0, "T": 0, "a": 1, "b": 1, "c": 2, "d": 2, "e": 2}, trait={},
    ))
    ns = "{http://www.w3.org/2000/svg}"
    # circles are drawn in id order: S T a b c d e
    x = dict(zip("STabcde", (float(c.get("cx")) for c in root.findall(f"{ns}circle"))))
    assert x["c"] < x["d"] < x["e"] < x["b"] < x["T"]
    assert x["a"] == pytest.approx(x["d"])
    assert x["S"] == pytest.approx((x["a"] + x["b"]) / 2)
