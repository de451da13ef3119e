"""Summary tables and minimal hand-emitted SVG figures."""

from __future__ import annotations

import html
from pathlib import Path

import numpy as np

from .policies import RETENTION_VARIANTS
from .store import csv_text

W, H = 640, 400
MARGIN = 60
PLOT_W, PLOT_H = W - 2 * MARGIN, H - 2 * MARGIN

# each statistics file, in the order the stats stage builds them: the key of its
# list and the fields (JSON kinds, see store.json_is) the renderers read per entry
STATS_FILES = {
    "comparisons.json": ("comparisons", dict(name_a=str, name_b=str, budget=str, delta=float,
                                             ci_low=float, ci_high=float, p_sign=float)),
    "matchups.json": ("matchups", {}),
    "bins.json": ("bins", dict(budget=str, variant=str, bin=str, mean_success=float)),
    "frontier.json": ("frontier", dict(variant_name=str, budget=str, success=float,
                                       size_bytes=float, non_dominated=bool)),
    "correlations.json": ("run_points", dict(success=float, visual_embedding_divergence=float)),
}
# the correlation divergence_scatter_svg prints: a number, or null when undefined
RHO = "spearman_success_vs_visual_embedding_divergence"


class Svg:
    """A W x H figure that opens with its frame: the axes, title and axis labels."""

    def __init__(self, comment: str, title: str, xlabel: str, ylabel: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
            f'viewBox="0 0 {W} {H}">',
            f"<!-- {comment} -->",
            f'<rect width="{W}" height="{H}" fill="white"/>',
        ]
        self.line(MARGIN, H - MARGIN, W - MARGIN, H - MARGIN)
        self.line(MARGIN, MARGIN, MARGIN, H - MARGIN)
        self.text(W / 2, 20, title, size=14, anchor="middle")
        self.text(W / 2, H - 15, xlabel, anchor="middle")
        self.text(15, H / 2, ylabel, anchor="middle")

    def line(self, x1, y1, x2, y2, color="black", width=1):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def circle(self, x, y, r=4, color="steelblue"):
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}"/>')

    def rect(self, x, y, w, h, color="steelblue"):
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" fill="{color}"/>'
        )

    def star(self, x, y):
        pts = []
        for i in range(10):
            rr = 7 if i % 2 == 0 else 7 * 0.4
            ang = -np.pi / 2 + i * np.pi / 5
            pts.append(f"{x + rr * np.cos(ang):.2f},{y + rr * np.sin(ang):.2f}")
        self.parts.append(
            f'<polygon class="star" points="{" ".join(pts)}" fill="goldenrod" stroke="black"/>'
        )

    def text(self, x, y, s, size=11, anchor="start"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}">{html.escape(s, quote=False)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _scale(vals, lo_px, hi_px):
    vmin, vmax = min(vals), max(vals)
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def f(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return f


def _success_by(frontier: dict) -> dict[tuple[str, str], float]:
    """Success per (variant, budget); frontier.json has a point for every evaluated pair."""
    return {(p["variant_name"], p["budget"]): p["success"] for p in frontier["frontier"]}


def main_table_csv(frontier: dict) -> str:
    success = _success_by(frontier)
    budgets = sorted({b for _, b in success})
    variants = sorted({v for v, _ in success})
    size_mb = {p["variant_name"]: p["size_bytes"] / 2**20 for p in frontier["frontier"]}
    rows = [[v] + [f"{success[(v, b)]:.4f}" if (v, b) in success else "" for b in budgets]
            + [f"{size_mb[v]:.4f}"] for v in variants]
    return csv_text([["variant"] + [f"success_{b}" for b in budgets] + ["size_mb"], *rows])


def frontier_svg(frontier: dict, comment: str) -> str:
    svg = Svg(comment, "Planning success vs model size", "model size (MB)", "success")
    pts = frontier["frontier"]
    sizes = [p["size_bytes"] / 2**20 for p in pts]
    fx = _scale(sizes, MARGIN + 10, W - MARGIN - 10)
    fy = _scale([0.0, 1.0], H - MARGIN - 5, MARGIN + 5)
    colors = {}
    for p in pts:
        b = p["budget"]
        colors.setdefault(b, ["steelblue", "firebrick", "seagreen"][len(colors) % 3])
        x, y = fx(p["size_bytes"] / 2**20), fy(p["success"])
        if p["non_dominated"]:
            svg.star(x, y)
        else:
            svg.circle(x, y, color=colors[b])
        svg.text(x + 6, y - 6, f'{p["variant_name"]}/{b}', size=8)
    return svg.render()


def forest_svg(comparisons: dict, comment: str) -> str:
    svg = Svg(comment, "Paired success deltas (95% bootstrap CI)", "delta", "")
    comps = comparisons["comparisons"]
    los = [c["ci_low"] for c in comps] or [-1]
    his = [c["ci_high"] for c in comps] or [1]
    fx = _scale([min(los + [0]), max(his + [0])], MARGIN + 10, W - MARGIN - 10)
    svg.line(fx(0), MARGIN, fx(0), H - MARGIN, color="gray")
    n = max(len(comps), 1)
    for i, c in enumerate(comps):
        y = MARGIN + (i + 0.5) / n * PLOT_H
        svg.line(fx(c["ci_low"]), y, fx(c["ci_high"]), y, color="black", width=2)
        svg.circle(fx(c["delta"]), y, r=4, color="firebrick")
        label = (
            f'{c["budget"]}: {c["name_a"]} - {c["name_b"]} '
            f'{c["delta"]:+.3f} [{c["ci_low"]:.3f}, {c["ci_high"]:.3f}] p={c["p_sign"]:.3f}'
        )
        svg.text(MARGIN + 4, y - 7, label, size=9)
    return svg.render()


def retention_curve_svg(frontier: dict, comment: str) -> str:
    """Success vs encoder retention, each point read under its RETENTION_VARIANTS name."""
    svg = Svg(comment, "Encoder retention sweep (predictor INT4)", "encoder kept at baseline (%)",
              "success")
    success = _success_by(frontier)
    budgets = sorted({b for _, b in success})
    fx = _scale([0, 100], MARGIN + 10, W - MARGIN - 10)
    fy = _scale([0.0, 1.0], H - MARGIN - 5, MARGIN + 5)
    for bi, budget in enumerate(budgets):
        color = ["steelblue", "firebrick", "seagreen"][bi % 3]
        pts = [
            (pct, success[(name, budget)])
            for pct, name in RETENTION_VARIANTS.items()
            if (name, budget) in success
        ]
        for (p0, s0), (p1, s1) in zip(pts, pts[1:]):
            svg.line(fx(p0), fy(s0), fx(p1), fy(s1), color=color, width=2)
        for pct, s in pts:
            svg.circle(fx(pct), fy(s), color=color)
            svg.text(fx(pct) + 5, fy(s) - 5, f"{s:.2f}", size=9)
        svg.text(W - MARGIN - 80, MARGIN + 15 + 14 * bi, budget, size=11)
    return svg.render()


def difficulty_svg(bins: dict, comment: str) -> str:
    svg = Svg(comment, "Success by goal-distance bin (uniform vs mixed INT4)", "bin", "success")
    rows = [
        b for b in bins["bins"] if b["variant"] in ("uniform_int4", "mixed_int4")
    ]
    if not rows:
        rows = bins["bins"]
    keys = sorted({(b["budget"], b["bin"]) for b in rows})
    variants = sorted({b["variant"] for b in rows})
    fy = _scale([0.0, 1.0], H - MARGIN, MARGIN + 5)
    group_w = PLOT_W / max(len(keys), 1)
    bar_w = group_w / (len(variants) + 1)
    colors = ["steelblue", "firebrick", "seagreen", "goldenrod"]
    for gi, key in enumerate(keys):
        x0 = MARGIN + gi * group_w
        for vi, v in enumerate(variants):
            match = [b for b in rows if (b["budget"], b["bin"]) == key and b["variant"] == v]
            if not match:
                continue
            s = match[0]["mean_success"]
            svg.rect(x0 + vi * bar_w, fy(s), bar_w * 0.9, (H - MARGIN) - fy(s),
                     color=colors[vi % 4])
        svg.text(x0 + group_w / 2, H - MARGIN + 14, f"{key[0]}:{key[1]}", size=9,
                 anchor="middle")
    for vi, v in enumerate(variants):
        svg.text(W - MARGIN - 120, MARGIN + 15 + 13 * vi, v, size=10)
        svg.rect(W - MARGIN - 135, MARGIN + 7 + 13 * vi, 10, 10, color=colors[vi % 4])
    return svg.render()


def divergence_scatter_svg(correlations: dict, comment: str) -> str:
    rho = correlations.get(RHO)
    rho_txt = f"rho={rho:.3f}" if rho is not None else "rho undefined"
    svg = Svg(comment, f"Run-level success vs visual-embedding divergence ({rho_txt})",
              "visual-embedding divergence", "success")
    pts = correlations["run_points"]
    if pts:
        xs = [p["visual_embedding_divergence"] for p in pts]
        fx = _scale(xs, MARGIN + 10, W - MARGIN - 10)
        fy = _scale([0.0, 1.0], H - MARGIN - 5, MARGIN + 5)
        for p in pts:
            svg.circle(fx(p["visual_embedding_divergence"]), fy(p["success"]), r=3)
    return svg.render()


def emit_report(artifacts: dict, out: Path, config_hash: str) -> None:
    """Write main_table.csv and the figures from the statistics payloads `artifacts`,
    each figure commented with `config_hash`; every output is rendered before the
    first is written."""
    comment = f"config_hash: {config_hash}"
    frontier = artifacts["frontier.json"]
    outputs = {
        "main_table.csv": main_table_csv(frontier),
        "frontier.svg": frontier_svg(frontier, comment),
        "forest.svg": forest_svg(artifacts["comparisons.json"], comment),
        "retention_curve.svg": retention_curve_svg(frontier, comment),
        "difficulty.svg": difficulty_svg(artifacts["bins.json"], comment),
        "divergence_scatter.svg": divergence_scatter_svg(artifacts["correlations.json"], comment),
    }
    for name, text in outputs.items():
        (out / name).write_text(text, encoding="utf-8")
