"""Deterministic SVG rendering for the diagnostic figure families.

Every renderer is a pure function of its data dictionary and the fixed
style, and emits byte-identical markup across runs: element order is fixed
and all numbers pass through a 6-significant-digit formatter.  No plotting library
is involved, so golden-file tests can diff output directly.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence

from .errors import EmptyData, UnknownKind

PLOT_KINDS = (
    "chains",
    "convergence",
    "bottleneck",
    "all-points",
    "flag-grid",
    "effectiveness",
    "bias",
    "motivation-outcome",
    "sensitivity-pairs",
)

_STYLE = {
    "width": 640,
    "height": 420,
    "margin": 48.0,
    "background": "#ffffff",
    "axis_color": "#333333",
    "series_color": "#1f6fb2",
    "reference_color": "#ffffff",
    "flag_color": "#c43c39",
    "ok_color": "#f2f2f2",
    "na_color": "#bbbbbb",
    "positive_color": "#c43c39",
    "negative_color": "#4472a8",
    "font": "monospace",
    "font_size": 11,
}

_TREE_PALETTE = (
    "#1f6fb2",
    "#c43c39",
    "#3f8f4f",
    "#8a5fa8",
    "#c08a2d",
    "#4db3b3",
    "#8c564b",
    "#6b6b6b",
)


def _f(x: float) -> str:
    """Fixed numeric formatting: 6 significant digits, no negative zero."""
    if x == 0:
        x = 0.0
    return f"{float(x):.6g}"


class _Canvas:
    """Accumulates SVG elements in insertion order."""

    def __init__(self, width: float, height: float, background: str):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
            f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">',
            f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" '
            f'fill="{background}"/>',
        ]

    def line(self, x1, y1, x2, y2, color, width=1.0, dash: Optional[str] = None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{color}" stroke-width="{_f(width)}"{dash_attr}/>'
        )

    def rect(self, x, y, w, h, fill, stroke: Optional[str] = None):
        stroke_attr = f' stroke="{stroke}"' if stroke else ""
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}"{stroke_attr}/>'
        )

    def circle(self, cx, cy, r, fill, stroke: Optional[str] = None):
        stroke_attr = f' stroke="{stroke}"' if stroke else ""
        self.parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" '
            f'fill="{fill}"{stroke_attr}/>'
        )

    def polyline(self, points: Sequence[tuple[float, float]], color, width=1.5):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_f(width)}"/>'
        )

    def text(self, x, y, s, style: Mapping[str, Any], anchor="start", size=None):
        size = size if size is not None else style["font_size"]
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="{style["font"]}" '
            f'font-size="{_f(size)}" fill="{style["axis_color"]}" '
            f'text-anchor="{anchor}">{_escape(s)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Scale:
    """Affine data-to-pixel map; degenerate spans get a centered band."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float):
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)


def render_plot(kind: str, data: Mapping[str, Any]) -> str:
    """Render one figure family to a standalone SVG string."""
    if kind not in PLOT_KINDS:
        raise UnknownKind(f"unknown plot kind {kind!r}")
    renderer = {
        "chains": _render_chains,
        "convergence": _render_convergence,
        "bottleneck": _render_bottleneck,
        "all-points": _render_all_points,
        "flag-grid": _render_flag_grid,
        "effectiveness": _render_bars,
        "bias": _render_bars,
        "motivation-outcome": _render_motivation_outcome,
        "sensitivity-pairs": _render_sensitivity_pairs,
    }[kind]
    return renderer(data, _STYLE)


# -- chains ------------------------------------------------------------------


def _render_chains(data: Mapping[str, Any], st: Mapping[str, Any]) -> str:
    """Recruitment forest: roots on top, one column slot per leaf, parents
    centered over their children.  Colored by trait value when given."""
    roots: Sequence[str] = data.get("roots", ())
    children: Mapping[str, Sequence[str]] = data.get("children", {})
    wave: Mapping[str, int] = data.get("wave", {})
    trait: Mapping[str, Optional[bool]] = data.get("trait", {})
    if not roots:
        raise EmptyData("chains plot needs at least one root")

    xs: dict[str, float] = {}
    next_slot = [0.0]

    def place(node: str) -> float:
        kids = children.get(node, ())
        if not kids:
            x = next_slot[0]
            next_slot[0] += 1.0
        else:
            x = sum(place(k) for k in kids) / len(kids)
        xs[node] = x
        return x

    for root in roots:
        place(root)
        next_slot[0] += 0.8  # gap between trees

    max_wave = max(wave.values()) if wave else 0
    m = st["margin"]
    canvas = _Canvas(st["width"], st["height"], st["background"])
    sx = _Scale(-0.5, max(next_slot[0] - 0.8, 0.5), m, st["width"] - m)
    sy = _Scale(-0.5, max_wave + 0.5, m, st["height"] - m)

    for node, kids in sorted(children.items()):
        for kid in kids:
            canvas.line(
                sx(xs[node]), sy(wave.get(node, 0)),
                sx(xs[kid]), sy(wave.get(kid, 0)),
                st["axis_color"], 0.8,
            )
    for node in sorted(xs):
        val = trait.get(node)
        if val is None:
            fill = st["na_color"]
        else:
            fill = st["positive_color"] if val else st["negative_color"]
        r = 5.0 if node in roots else 3.0
        canvas.circle(sx(xs[node]), sy(wave.get(node, 0)), r, fill, st["axis_color"])
    canvas.text(m, m / 2, data.get("title", "Recruitment chains"), st)
    return canvas.render()


# -- convergence -------------------------------------------------------------


def _render_convergence(data: Mapping[str, Any], st: Mapping[str, Any]) -> str:
    """Cumulative estimate with final-estimate reference line and trait rugs
    along the header (positives) and footer (negatives)."""
    orders: Sequence[int] = data.get("orders", ())
    values: Sequence[float] = data.get("values", ())
    if not orders or not values:
        raise EmptyData("convergence plot needs a nonempty series")
    indicators: Sequence[tuple[int, bool]] = data.get("indicators", ())
    final = float(values[-1])

    m = st["margin"]
    rug = 14.0
    canvas = _Canvas(st["width"], st["height"], st["background"])
    sx = _Scale(min(orders), max(orders), m, st["width"] - m)
    sy = _Scale(0.0, 1.0, st["height"] - m - rug, m + rug)

    # plot frame and the shaded band the white reference line sits on
    canvas.rect(m, m + rug, st["width"] - 2 * m, st["height"] - 2 * (m + rug),
                "#d9e4ee", st["axis_color"])
    canvas.line(m, sy(final), st["width"] - m, sy(final), st["reference_color"], 2.0)
    canvas.polyline([(sx(o), sy(v)) for o, v in zip(orders, values)],
                    st["series_color"])

    for order, flag in indicators:
        if flag:
            canvas.line(sx(order), m, sx(order), m + rug - 2, st["positive_color"], 1.0)
        else:
            canvas.line(sx(order), st["height"] - m - rug + 2, sx(order),
                        st["height"] - m, st["negative_color"], 1.0)

    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        canvas.text(m - 6, sy(tick) + 4, _f(tick), st, anchor="end")
    canvas.text(m, m / 2, data.get("title", "Convergence"), st)
    canvas.text(st["width"] - m, m / 2, f"final={_f(final)}", st, anchor="end")
    return canvas.render()


# -- bottleneck --------------------------------------------------------------


def _render_bottleneck(data: Mapping[str, Any], st: Mapping[str, Any]) -> str:
    """Per-tree cumulative estimates with a seed-composition panel on the
    left and per-tree final estimates ticked on the right axis."""
    series: Mapping[str, tuple[Sequence[int], Sequence[float]]] = data.get("series", {})
    if not series:
        raise EmptyData("bottleneck plot needs at least one tree series")
    composition: Mapping[str, int] = data.get("composition", {})

    m = st["margin"]
    panel_w = 70.0
    x0 = m + panel_w + 12.0
    canvas = _Canvas(st["width"], st["height"], st["background"])

    all_orders = [o for orders, _ in series.values() for o in orders]
    sx = _Scale(min(all_orders), max(all_orders), x0, st["width"] - m)
    sy = _Scale(0.0, 1.0, st["height"] - m, m)
    canvas.rect(x0, m, st["width"] - m - x0, st["height"] - 2 * m, "none",
                st["axis_color"])

    roots = sorted(series)
    total = sum(composition.get(r, 0) for r in roots)
    y_cursor = m
    panel_h = st["height"] - 2 * m
    for i, root in enumerate(roots):
        color = _TREE_PALETTE[i % len(_TREE_PALETTE)]
        share = (composition.get(root, 0) / total) if total else 1.0 / len(roots)
        h = share * panel_h
        canvas.rect(m, y_cursor, panel_w, h, color, st["axis_color"])
        if h >= st["font_size"] + 2:
            canvas.text(m + 4, y_cursor + h / 2 + 4,
                        f"{root}:{composition.get(root, 0)}", st, size=9)
        y_cursor += h
        orders, values = series[root]
        canvas.polyline([(sx(o), sy(v)) for o, v in zip(orders, values)], color)
        if values:
            final = float(values[-1])
            canvas.line(st["width"] - m, sy(final), st["width"] - m + 8, sy(final),
                        color, 2.0)
            canvas.text(st["width"] - m + 10, sy(final) + 4, _f(final), st, size=9)
    for tick in (0.0, 0.5, 1.0):
        canvas.text(x0 - 6, sy(tick) + 4, _f(tick), st, anchor="end")
    canvas.text(m, m / 2, data.get("title", "Bottleneck"), st)
    return canvas.render()


# -- all points --------------------------------------------------------------


def _render_all_points(data: Mapping[str, Any], st: Mapping[str, Any]) -> str:
    """Trait values by tree row and within-tree sample order: filled markers
    for trait-positive respondents, open markers otherwise."""
    rows: Sequence[tuple[str, bool]] = data.get("rows", ())
    if not rows:
        raise EmptyData("all-points plot needs rows")
    trees = sorted({r[0] for r in rows})
    tree_index = {t: i for i, t in enumerate(trees)}
    per_tree_pos: dict[str, int] = {t: 0 for t in trees}

    m = st["margin"]
    canvas = _Canvas(st["width"], st["height"], st["background"])
    max_len = max(
        sum(1 for r in rows if r[0] == t) for t in trees
    )
    sx = _Scale(0.5, max(max_len, 2) + 0.5, m + 40, st["width"] - m)
    sy = _Scale(-0.5, len(trees) - 0.5, m, st["height"] - m)

    for t in trees:
        y = sy(tree_index[t])
        canvas.text(m, y + 4, t, st, size=9)
        canvas.line(m + 36, y, st["width"] - m, y, "#dddddd", 0.5)
    for tree, has_trait in rows:
        per_tree_pos[tree] += 1
        x = sx(per_tree_pos[tree])
        y = sy(tree_index[tree])
        if has_trait:
            canvas.circle(x, y, 3.0, st["positive_color"])
        else:
            canvas.circle(x, y, 3.0, st["background"], st["negative_color"])
    canvas.text(m, m / 2, data.get("title", "All points"), st)
    return canvas.render()


# -- flag grid ---------------------------------------------------------------


def _render_flag_grid(data: Mapping[str, Any], st: Mapping[str, Any]) -> str:
    """Matrix of verdicts: red = flagged, light = clear, grey = not
    evaluable."""
    row_labels: Sequence[str] = data.get("row_labels", ())
    col_labels: Sequence[str] = data.get("col_labels", ())
    cells: Sequence[Sequence[Optional[bool]]] = data.get("cells", ())
    if not row_labels or not col_labels:
        raise EmptyData("flag-grid needs row and column labels")

    m = st["margin"]
    label_w = 110.0
    grid_x0, grid_y0 = m + label_w, m + 24.0
    cell_w = (st["width"] - grid_x0 - m) / len(col_labels)
    cell_h = (st["height"] - grid_y0 - m) / len(row_labels)
    canvas = _Canvas(st["width"], st["height"], st["background"])

    for j, col in enumerate(col_labels):
        canvas.text(grid_x0 + (j + 0.5) * cell_w, grid_y0 - 8, col, st,
                    anchor="middle", size=9)
    for i, row in enumerate(row_labels):
        canvas.text(m, grid_y0 + (i + 0.5) * cell_h + 4, row, st, size=9)
        for j in range(len(col_labels)):
            value = cells[i][j]
            if value is None:
                fill = st["na_color"]
            elif value:
                fill = st["flag_color"]
            else:
                fill = st["ok_color"]
            canvas.rect(grid_x0 + j * cell_w, grid_y0 + i * cell_h,
                        cell_w, cell_h, fill, st["axis_color"])
    canvas.text(m, m / 2, data.get("title", "Diagnostic flags"), st)
    return canvas.render()


# -- bar charts (effectiveness, bias) ----------------------------------------


def _render_bars(data: Mapping[str, Any], st: Mapping[str, Any]) -> str:
    labels: Sequence[str] = data.get("labels", ())
    values: Sequence[float] = data.get("values", ())
    if not labels or not values:
        raise EmptyData("bar chart needs labels and values")
    vmax = max(max(values), 1e-9)

    m = st["margin"]
    canvas = _Canvas(st["width"], st["height"], st["background"])
    sy = _Scale(0.0, vmax * 1.1, st["height"] - m, m + 20)
    slot = (st["width"] - 2 * m) / len(labels)
    for i, (label, value) in enumerate(zip(labels, values)):
        x = m + i * slot + 0.15 * slot
        y = sy(value)
        canvas.rect(x, y, 0.7 * slot, (st["height"] - m) - y,
                    st["series_color"], st["axis_color"])
        canvas.text(x + 0.35 * slot, y - 5, _f(value), st, anchor="middle", size=9)
        canvas.text(m + (i + 0.5) * slot, st["height"] - m + 14, label, st,
                    anchor="middle", size=9)
    canvas.line(m, st["height"] - m, st["width"] - m, st["height"] - m,
                st["axis_color"])
    canvas.text(m, m / 2, data.get("title", "Bars"), st)
    return canvas.render()


# -- motivation-outcome ------------------------------------------------------


def _render_motivation_outcome(data: Mapping[str, Any], st: Mapping[str, Any]) -> str:
    """Odds ratios with exact intervals on a log axis; unbounded endpoints
    are clipped to the axis and drawn dashed."""
    rows: Sequence[tuple[str, float, float, float]] = data.get("rows", ())
    if not rows:
        raise EmptyData("motivation-outcome plot needs rows")

    lo_bound, hi_bound = 1e-2, 1e2

    def clip_log(v: float) -> float:
        if v <= 0 or math.isnan(v):
            return math.log10(lo_bound)
        if math.isinf(v):
            return math.log10(hi_bound)
        return math.log10(min(max(v, lo_bound), hi_bound))

    m = st["margin"]
    label_w = 130.0
    canvas = _Canvas(st["width"], st["height"], st["background"])
    sx = _Scale(math.log10(lo_bound), math.log10(hi_bound),
                m + label_w, st["width"] - m)
    sy = _Scale(-0.5, len(rows) - 0.5, m + 16, st["height"] - m)

    canvas.line(sx(0.0), m + 10, sx(0.0), st["height"] - m, st["axis_color"],
                1.0, dash="4 3")
    for tick in (-2.0, -1.0, 0.0, 1.0, 2.0):
        canvas.text(sx(tick), st["height"] - m + 14, _f(10 ** tick), st,
                    anchor="middle", size=9)
    for i, (label, or_value, lo, hi) in enumerate(rows):
        y = sy(i)
        canvas.text(m, y + 4, label, st, size=9)
        unbounded = math.isinf(hi) or lo <= 0
        canvas.line(sx(clip_log(lo)), y, sx(clip_log(hi)), y,
                    st["series_color"], 1.5, dash="3 3" if unbounded else None)
        if not math.isnan(or_value):
            canvas.circle(sx(clip_log(or_value)), y, 3.5, st["series_color"])
    canvas.text(m, m / 2, data.get("title", "Odds ratios"), st)
    return canvas.render()


# -- sensitivity pairs -------------------------------------------------------


def _render_sensitivity_pairs(data: Mapping[str, Any], st: Mapping[str, Any]) -> str:
    """Dumbbells linking the initial-degree and retest-degree estimates for
    each trait."""
    rows: Sequence[tuple[str, float, float]] = data.get("rows", ())
    if not rows:
        raise EmptyData("sensitivity-pairs plot needs rows")

    m = st["margin"]
    label_w = 110.0
    canvas = _Canvas(st["width"], st["height"], st["background"])
    sx = _Scale(0.0, 1.0, m + label_w, st["width"] - m)
    sy = _Scale(-0.5, len(rows) - 0.5, m + 16, st["height"] - m)

    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        canvas.line(sx(tick), m + 10, sx(tick), st["height"] - m, "#eeeeee", 0.5)
        canvas.text(sx(tick), st["height"] - m + 14, _f(tick), st,
                    anchor="middle", size=9)
    for i, (trait, est_test, est_retest) in enumerate(rows):
        y = sy(i)
        canvas.text(m, y + 4, trait, st, size=9)
        canvas.line(sx(est_test), y, sx(est_retest), y, st["axis_color"], 1.0)
        canvas.circle(sx(est_test), y, 3.5, st["series_color"])
        canvas.circle(sx(est_retest), y, 3.5, st["positive_color"])
    canvas.text(m, m / 2, data.get("title", "Estimate sensitivity"), st)
    return canvas.render()
