import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantplan import (
    ValidationError,
    difficulty_bins,
    matchup_counts,
    paired_cells,
    paired_delta_ci,
    pareto_frontier,
    sign_test,
    spearman,
)
from quantplan.planner import EpisodeRecord
from quantplan.stats import N_RESAMPLES


def rec(variant, budget, seed, ep, success, dist=0.5):
    return EpisodeRecord(variant, budget, seed, ep, success, dist, 1, 1, 0.0, 0.0)


# ---- sign test --------------------------------------------------------------


def sign_test_oracle(m, k):
    """Exhaustive enumeration over all 2^m equally likely win/loss patterns."""
    le = sum(1 for bits in itertools.product([0, 1], repeat=m) if sum(bits) <= k)
    ge = sum(1 for bits in itertools.product([0, 1], repeat=m) if sum(bits) >= k)
    return min(1.0, 2.0 * min(le, ge) / 2**m)


def test_sign_test_worked_examples():
    pairs = [(1, 0)] * 4 + [(0, 1)] * 1  # m=5, k=4
    assert sign_test(pairs) == (0.375, 5)
    pairs = [(1, 0)] * 5 + [(0, 1)] * 1  # m=6, k=5
    assert sign_test(pairs) == (2 * 7 / 64, 6)


def test_sign_test_ties():
    assert sign_test([(1, 1), (0, 0)]) == (1.0, 0)
    assert sign_test([]) == (1.0, 0)
    p, m = sign_test([(1, 0), (0, 1), (0.5, 0.5)])
    assert m == 2 and p == 1.0


def test_sign_test_matches_enumeration_oracle():
    for m in range(1, 13):
        for k in range(m + 1):
            pairs = [(1, 0)] * k + [(0, 1)] * (m - k)
            p, nt = sign_test(pairs)
            assert nt == m
            assert p == pytest.approx(sign_test_oracle(m, k), abs=1e-15)


def test_sign_test_past_the_float_range_of_two_to_the_m():
    # 2.0**m overflows from m = 1024 on; the tail is the exact quotient, rounded once
    p, m = sign_test([(1, 0)] * 540 + [(0, 1)] * 660)
    assert m == 1200
    assert p == float(2 * Fraction(sum(comb(1200, i) for i in range(541)), 2**1200))
    assert sign_test([(1, 0)] * 1100) == (0.0, 1100)  # 2**-1099 is below the smallest float


# ---- paired delta / bootstrap ------------------------------------------------


def test_paired_delta_reference_row():
    a = [1.0] * 8 + [0.0] * 22  # mean 0.267 over 30 units
    b = [1.0] * 2 + [0.0] * 28  # mean 0.067
    delta, lo, hi = paired_delta_ci(list(zip(a, b)), gen=np.random.default_rng(0))
    assert delta == 0.2
    assert lo <= delta <= hi


def test_paired_delta_degenerate():
    pairs = [(1.0, 1.0), (0.0, 0.0)] * 5
    delta, lo, hi = paired_delta_ci(pairs, gen=np.random.default_rng(0))
    assert (delta, lo, hi) == (0.0, 0.0, 0.0)


def test_paired_delta_deterministic_given_rng():
    pairs = [(1, 0), (0, 0), (1, 1), (0, 1), (1, 0)]
    r1 = paired_delta_ci(pairs, gen=np.random.default_rng(7))
    r2 = paired_delta_ci(pairs, gen=np.random.default_rng(7))
    assert r1 == r2


def test_bootstrap_width_shrinks_with_duplication(rng):
    pairs = [(float(a), float(b)) for a, b in rng.integers(0, 2, (25, 2))]
    _, lo1, hi1 = paired_delta_ci(pairs, gen=np.random.default_rng(1))
    _, lo4, hi4 = paired_delta_ci(pairs * 4, gen=np.random.default_rng(1))
    assert (hi4 - lo4) == pytest.approx(0.5 * (hi1 - lo1), rel=0.25)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
@pytest.mark.parametrize("n", [1, 90, 1000])
def test_bootstrap_blocks_equal_one_draw(rng, monkeypatch, bit_generator, n):
    # the resamples are drawn max(1, 2**18 // n) rows at a time: n = 1 takes one block,
    # and n = 90 and 1000 end in a short block (2912 and 262 rows do not divide 4000);
    # the means and the generator's end state must be those of one (4000, n) draw
    pairs = [tuple(p) for p in rng.uniform(0, 1, (n, 2))]
    diffs = np.subtract(*np.transpose(pairs))
    one_draw = np.random.Generator(bit_generator(5))
    expected = diffs[one_draw.integers(0, n, size=(N_RESAMPLES, n))].mean(axis=1)
    boots, quantile = [], np.quantile
    monkeypatch.setattr(np, "quantile", lambda a, q: boots.append(a.copy()) or quantile(a, q))
    gen = np.random.Generator(bit_generator(5))
    paired_delta_ci(pairs, gen)
    assert len(boots) == 1 and boots[0].tobytes() == expected.tobytes()
    np.testing.assert_equal(gen.bit_generator.state, one_draw.bit_generator.state)


def test_paired_delta_empty():
    with pytest.raises(ValidationError):
        paired_delta_ci([], np.random.default_rng(0))


# ---- spearman ----------------------------------------------------------------


def spearman_oracle(x, y):
    """Brute-force: sort-based average ranks, direct Pearson."""

    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return np.array(r)

    rx, ry = ranks(list(x)), ranks(list(y))
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def test_spearman_monotone():
    x = [1.0, 2.0, 5.0, 9.0]
    assert spearman(x, [2.0, 3.0, 8.0, 20.0]) == 1.0
    assert spearman(x, [-1.0, -2.0, -3.0, -4.0]) == -1.0


def test_spearman_ties_example():
    assert spearman([1, 2, 2, 4], [10, 20, 20, 40]) == 1.0


def test_spearman_constant_error():
    with pytest.raises(ValidationError):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValidationError):
        spearman([1, 2], [1, 2])


def test_spearman_matches_oracle(rng):
    for _ in range(300):
        n = rng.integers(3, 30)
        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 6, n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert spearman(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)


def test_compute_stats_spearman_none_only_when_undefined(monkeypatch):
    from quantplan import pipeline
    from quantplan.config import ExperimentConfig

    records = [rec(v, "bA", 0, ep, 0) for v in ("a", "b", "c") for ep in range(3)]
    sizes = {"a": 100, "b": 100, "c": 100}
    correlations = pipeline.compute_stats(records, sizes, ExperimentConfig())["correlations.json"]
    assert correlations["spearman_success_vs_mean_state_distance"] is None
    assert correlations["spearman_success_vs_visual_embedding_divergence"] is None

    def broken(x, y):
        raise RuntimeError("bug inside spearman")

    monkeypatch.setattr(pipeline, "spearman", broken)
    with pytest.raises(RuntimeError, match="bug inside spearman"):
        pipeline.compute_stats(records, sizes, ExperimentConfig())


# ---- difficulty bins ----------------------------------------------------------


def test_tertile_bins():
    records = [rec("v", "bA", s, e, (s + e) % 2, dist=0.1 + 0.01 * (10 * s + e))
               for s in range(3) for e in range(10)]
    bins = difficulty_bins(records)
    assert [b[0] for b in bins] == ["low", "mid", "high"]
    assert [b[1] for b in bins] == [10, 10, 10]


def test_half_bins_and_tied_distances():
    records = [rec("v", "bB", s, e, 1, dist=0.5) for s in range(2) for e in range(10)]
    bins = difficulty_bins(records)
    assert [b[0] for b in bins] == ["lower", "upper"]
    assert [b[1] for b in bins] == [10, 10]
    assert all(b[2] == 1.0 for b in bins)


def test_bins_validation():
    with pytest.raises(ValidationError, match="fewer records than bins"):
        difficulty_bins([rec("v", "bA", 0, 0, 1)])
    # 29 paired units still take halves, 30 take thirds
    assert len(difficulty_bins([rec("v", "bA", 0, i, 1) for i in range(29)])) == 2
    assert len(difficulty_bins([rec("v", "bA", 0, i, 1) for i in range(30)])) == 3


# ---- paired table and matchups --------------------------------------------------


def test_paired_cells_sorted_by_unit():
    records = [rec(v, b, s, e, 1) for b in ("bB", "bA") for v in ("y", "x")
               for s, e in ((1, 0), (0, 1), (0, 0))]
    cells = paired_cells(records)
    assert list(cells) == [("x", "bA"), ("x", "bB"), ("y", "bA"), ("y", "bB")]
    for cell in cells.values():
        assert [(r.seed, r.episode_id) for r in cell] == [(0, 0), (0, 1), (1, 0)]


def test_paired_cells_rejects_unpaired_records():
    table = [rec(v, b, 0, e, 1) for v in ("a", "b") for b in ("bA", "bB") for e in range(3)]
    assert len(paired_cells(table)) == 4
    cases = {
        "no episode records": [],
        "duplicate paired unit in \\('b', 'bA'\\)": table + [rec("b", "bA", 0, 1, 0)],
        "paired units of \\('b', 'bB'\\) differ": [
            r for r in table if (r.variant_name, r.budget_name, r.episode_id) != ("b", "bB", 2)
        ],
        "variant 'c' has no records under budget 'bB'": table + [
            rec("c", "bA", 0, e, 1) for e in range(3)
        ],
    }
    for message, records in cases.items():
        with pytest.raises(ValidationError, match=message):
            paired_cells(records)


def test_matchup_2x2():
    a = [rec("a", "bA", 0, i, s) for i, s in enumerate([1, 0, 1, 0])]
    b = [rec("b", "bA", 0, i, s) for i, s in enumerate([1, 1, 0, 0])]
    m = matchup_counts(a, b)
    assert (m.a_only_wins, m.b_only_wins, m.both_win, m.both_fail) == (1, 1, 1, 1)


# ---- pareto ---------------------------------------------------------------------

MB = 2**20
REFERENCE_FRONTIER_ROWS = [
    ("fp16", 0.533, int(204.99 * MB)),
    ("uniform_int6", 0.533, int(77.92 * MB)),
    ("mixed_int6", 0.533, int(143.58 * MB)),
    ("uniform_int4", 0.067, int(68.12 * MB)),
    ("mixed_int4", 0.267, int(138.84 * MB)),
    ("uniform_int3", 0.0, int(63.23 * MB)),
    ("mixed_int3", 0.0, int(136.47 * MB)),
]


def test_pareto_reference_rows():
    out = pareto_frontier(REFERENCE_FRONTIER_ROWS)
    frontier = {p.variant_name for p in out if p.non_dominated}
    assert frontier == {"uniform_int3", "uniform_int4", "uniform_int6"}


def test_pareto_trivia():
    assert pareto_frontier([("only", 0.1, 10)])[0].non_dominated
    twins = pareto_frontier([("a", 0.5, 10), ("b", 0.5, 10)])
    assert all(p.non_dominated for p in twins)
    with pytest.raises(ValidationError):
        pareto_frontier([])


def pareto_oracle(points):
    flags = []
    for i, (_, si, zi) in enumerate(points):
        dominated = False
        for j, (_, sj, zj) in enumerate(points):
            if i == j:
                continue
            if sj >= si and zj <= zi and (sj > si or zj < zi):
                dominated = True
        flags.append(not dominated)
    return flags


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.integers(1, 100)), min_size=1, max_size=20))
def test_pareto_matches_oracle(raw):
    points = [(f"v{i}", s, z) for i, (s, z) in enumerate(raw)]
    out = pareto_frontier(points)
    assert [p.non_dominated for p in out] == pareto_oracle(points)
