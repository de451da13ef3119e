"""Paired statistics over episode records, read from one paired table (`paired_cells`).

Conventions, fixed here because the source material leaves them open:
two-sided sign test = doubled smaller exact binomial tail, capped at 1;
bootstrap CIs are percentile intervals over resampled paired units;
quantile bin edges break distance ties by (seed, episode_id) so bins keep
stable, near-equal sizes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ValidationError
from .planner import EpisodeRecord

N_RESAMPLES = 4000
CI_LEVEL = 0.95


@dataclass
class PairedComparison:
    name_a: str
    name_b: str
    budget: str
    n_pairs: int
    delta: float
    ci_low: float
    ci_high: float
    p_sign: float
    n_nontied: int


@dataclass
class MatchupCounts:
    a_only_wins: int
    b_only_wins: int
    both_win: int
    both_fail: int


@dataclass
class ParetoPoint:
    variant_name: str
    success: float
    size_bytes: int
    non_dominated: bool


def paired_delta_ci(pairs: list[tuple[float, float]], gen: np.random.Generator):
    """Mean paired difference with a CI_LEVEL percentile bootstrap CI.

    Resampling draws whole (a, b) pairs with replacement, never the two
    sides independently.  The resamples are drawn in blocks of about 2**18
    indices, so memory stays bounded at any n; each block's draws and means
    are those of the same rows of one (N_RESAMPLES, n) draw.  Returns
    (delta, ci_low, ci_high).
    """
    if not pairs:
        raise ValidationError("paired_delta_ci needs at least one pair")
    arr = np.asarray(pairs, dtype=np.float64)
    diffs = arr[:, 0] - arr[:, 1]
    delta = float(diffs.mean())
    n = len(diffs)
    block = max(1, 2**18 // n)
    boot = np.empty(N_RESAMPLES)
    for lo in range(0, N_RESAMPLES, block):
        idx = gen.integers(0, n, size=(min(block, N_RESAMPLES - lo), n), dtype=np.int32)
        boot[lo : lo + len(idx)] = diffs[idx].mean(axis=1)
    alpha = (1.0 - CI_LEVEL) / 2.0
    ci_low, ci_high = np.quantile(boot, [alpha, 1.0 - alpha]).tolist()
    return delta, ci_low, ci_high


def sign_test(pairs: list[tuple[float, float]]) -> tuple[float, int]:
    """Exact two-sided sign test on non-tied pairs; returns (p, n_nontied)."""
    wins = sum(1 for a, b in pairs if a > b)
    losses = sum(1 for a, b in pairs if a < b)
    m = wins + losses
    if m == 0:
        return 1.0, 0
    # by symmetry the smaller tail is the lower one at min(wins, losses); int / int cannot overflow
    tail = sum(comb(m, i) for i in range(min(wins, losses) + 1)) / 2**m
    return min(1.0, 2.0 * tail), m


def _average_ranks(x: np.ndarray) -> np.ndarray:
    # a tie group's 1-based ranks run cumsum - counts + 1 .. cumsum; its average is their midpoint
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 3:
        raise ValidationError("spearman needs two equal-length vectors of length >= 3")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValidationError("spearman undefined for a constant vector")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.dot(rx, ry) / np.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


def paired_cells(records: list[EpisodeRecord]) -> dict[tuple[str, str], list[EpisodeRecord]]:
    """Records per (variant, budget) in key order, each cell sorted by (seed, episode_id).

    ValidationError unless there are records, each budget's cells hold the same
    paired units, each unit once, and every variant has a cell under every budget.
    """
    if not records:
        raise ValidationError("no episode records to pair")
    cells: dict[tuple[str, str], list[EpisodeRecord]] = {}
    for r in records:
        cells.setdefault((r.variant_name, r.budget_name), []).append(r)
    variants = sorted({v for v, _ in cells})
    for budget in sorted({b for _, b in cells}):
        units = None
        for variant in variants:
            cell = cells.get((variant, budget))
            if cell is None:
                raise ValidationError(f"variant {variant!r} has no records under budget {budget!r}")
            cell.sort(key=lambda r: (r.seed, r.episode_id))
            keys = [(r.seed, r.episode_id) for r in cell]
            if len(set(keys)) != len(keys):
                raise ValidationError(f"duplicate paired unit in ({variant!r}, {budget!r})")
            if units is None:
                units = keys
            elif keys != units:
                raise ValidationError(f"paired units of ({variant!r}, {budget!r}) differ "
                                      f"from those of ({variants[0]!r}, {budget!r})")
    return dict(sorted(cells.items()))


def compare_records(
    cell_a: list[EpisodeRecord], cell_b: list[EpisodeRecord], gen: np.random.Generator
) -> PairedComparison:
    """Success of cell_a's variant minus cell_b's, over two cells of one budget."""
    pairs = [(float(a.success), float(b.success)) for a, b in zip(cell_a, cell_b, strict=True)]
    delta, lo, hi = paired_delta_ci(pairs, gen)
    p, m = sign_test(pairs)
    a, b = cell_a[0], cell_b[0]
    return PairedComparison(a.variant_name, b.variant_name, a.budget_name, len(pairs),
                            delta, lo, hi, p, m)


def matchup_counts(cell_a: list[EpisodeRecord], cell_b: list[EpisodeRecord]) -> MatchupCounts:
    """2x2 success counts over paired records (cells, or cells concatenated budget by budget)."""
    pairs = zip(cell_a, cell_b, strict=True)
    counts = Counter((bool(a.success), bool(b.success)) for a, b in pairs)
    return MatchupCounts(
        counts[True, False], counts[False, True], counts[True, True], counts[False, False]
    )


def difficulty_bins(cell: list[EpisodeRecord]) -> list[tuple[str, int, float]]:
    """Success means in quantile bins of initial goal distance: thirds from 30
    paired units up, else halves.

    Bin edges come from the paired episode pool, which is identical across
    a budget's cells, so bins line up for paired reading.
    """
    n = len(cell)
    labels = ["low", "mid", "high"] if n >= 30 else ["lower", "upper"]
    if n < len(labels):
        raise ValidationError("fewer records than bins")
    recs = sorted(cell, key=lambda r: (r.initial_goal_distance, r.seed, r.episode_id))
    out = []
    for i, label in enumerate(labels):
        chunk = recs[(i * n) // len(labels) : ((i + 1) * n) // len(labels)]
        out.append((label, len(chunk), float(np.mean([r.success for r in chunk]))))
    return out


def pareto_frontier(points: list[tuple[str, float, int]]) -> list[ParetoPoint]:
    """Non-dominated set under (maximize success, minimize size).

    p dominates q iff success_p >= success_q and size_p <= size_q with at
    least one strict; exact duplicates never dominate each other.
    """
    if not points:
        raise ValidationError("pareto_frontier needs at least one point")
    out = []
    for name, suc, size in points:
        dominated = any(
            s2 >= suc and z2 <= size and (s2 > suc or z2 < size)
            for _, s2, z2 in points
        )
        out.append(ParetoPoint(name, float(suc), int(size), not dominated))
    return out
