"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from quantplan import (
    apply_policy,
    fake_quantize_tensor,
    model_size_bytes,
    paired_delta_ci,
    pareto_frontier,
    policy_for_name,
    quantize_tensor,
    sign_test,
    spearman,
)
from quantplan.config import ExperimentConfig, config_from_dict
from quantplan.nn import init_world_model, loss_and_grads
from quantplan.pipeline import compute_stats, run_stage
from quantplan.planner import CEMConfig, PlannerBudget, run_paired_eval

from test_stats import REFERENCE_FRONTIER_ROWS, spearman_oracle, sign_test_oracle, pareto_oracle


def report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


# ---------------------------------------------------------------------------
# full default-config sweep, shared by criteria 5 and 7


@pytest.fixture(scope="module")
def full_sweep(dataset, trained_model, env_cfg):
    cfg = ExperimentConfig()
    variants = {n: apply_policy(trained_model, policy_for_name(n, trained_model))
                for n in cfg.variants}
    records = run_paired_eval(
        variants.items(),
        trained_model,
        cfg.budgets,
        env_cfg,
        cfg.cem,
        episodes_per_run=cfg.episodes_per_run,
        master_seed=cfg.master_seed,
    )
    return cfg, records


def success_of(records, variant, budget=None):
    recs = [
        r
        for r in records
        if r.variant_name == variant and (budget is None or r.budget_name == budget)
    ]
    return float(np.mean([r.success for r in recs]))


def test_criterion_1_quantizer_exactness(rng):
    t0 = time.time()
    q = quantize_tensor(np.array([[1.0, -2.0, 0.5]]), 4)
    assert q.scales[0] == 2 / 7 and q.codes.tolist() == [[4, -7, 2]]
    for _ in range(1000):
        b = int(rng.integers(2, 9))
        W = rng.uniform(-5, 5, (int(rng.integers(1, 10)), int(rng.integers(1, 12)))).astype(
            np.float32
        )
        qt = quantize_tensor(W, b)
        w1 = fake_quantize_tensor(W, b)
        assert np.all(np.abs(W.astype(np.float64) - w1) <= qt.scales[:, None] / 2 + 1e-9)
        assert np.all(np.abs(qt.codes) <= 2 ** (b - 1) - 1)
        assert w1.tobytes() == fake_quantize_tensor(w1, b).tobytes()
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, f"quantizer exactness, {elapsed:.2f}s")


def test_criterion_2_statistics_oracles(rng):
    t0 = time.time()
    for m in range(1, 13):
        for k in range(m + 1):
            pairs = [(1, 0)] * k + [(0, 1)] * (m - k)
            p, nt = sign_test(pairs)
            assert nt == m and p == pytest.approx(sign_test_oracle(m, k), abs=1e-15)
    for _ in range(1000):
        n = int(rng.integers(3, 25))
        x = rng.integers(0, 5, n).astype(float)
        y = rng.integers(0, 5, n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert spearman(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)
    for _ in range(500):
        n = int(rng.integers(1, 15))
        pts = [
            (f"v{i}", float(rng.uniform(0, 1)), int(rng.integers(1, 50))) for i in range(n)
        ]
        assert [p.non_dominated for p in pareto_frontier(pts)] == pareto_oracle(pts)
    frontier = {p.variant_name for p in pareto_frontier(REFERENCE_FRONTIER_ROWS) if p.non_dominated}
    assert frontier == {"uniform_int3", "uniform_int4", "uniform_int6"}
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"statistics oracles, {elapsed:.2f}s")


def test_criterion_3_paired_delta_reproduction():
    a = [1.0] * 8 + [0.0] * 22  # mean 0.267
    b = [1.0] * 2 + [0.0] * 28  # mean 0.067
    pairs = list(zip(a, b))
    delta, lo, hi = paired_delta_ci(pairs, gen=np.random.default_rng(0))
    assert delta == 0.2  # reference row: +0.200 exactly
    assert lo <= delta <= hi
    again = paired_delta_ci(pairs, gen=np.random.default_rng(0))
    assert again == (delta, lo, hi)
    report(3, "paired-delta reproduction")


def test_criterion_4_gradient_correctness(rng):
    t0 = time.time()
    wm = init_world_model(obs_dim=8, seed=3, latent_dim=4, encoder_depth=2, predictor_depth=2)
    obs = rng.uniform(0, 1, (6, 8))
    act = rng.uniform(-0.1, 0.1, (6, 2))
    nobs = rng.uniform(0, 1, (6, 8))
    state = rng.uniform(0, 1, (6, 2))
    _, grads = loss_and_grads(wm, obs, act, nobs, state, 1.0, 1.0)
    analytic = np.concatenate([g.reshape(-1) for g in grads])
    theta = wm.theta.copy()
    h = 1e-6
    for i in rng.choice(theta.size, size=100, replace=False):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        wm.theta[...] = tp
        lp, _ = loss_and_grads(wm, obs, act, nobs, state, 1.0, 1.0)
        wm.theta[...] = tm
        lm, _ = loss_and_grads(wm, obs, act, nobs, state, 1.0, 1.0)
        wm.theta[...] = theta
        fd = (lp - lm) / (2 * h)
        assert abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-8) < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(4, f"gradient correctness, {elapsed:.2f}s")


def test_criterion_5_pairing_protocol(full_sweep, trained_model, env_cfg):
    cfg, records = full_sweep
    units = {}
    for r in records:
        units.setdefault(r.variant_name, []).append(
            (r.budget_name, r.seed, r.episode_id, r.initial_goal_distance)
        )
    reference = sorted(units[cfg.variants[0]])
    for v in cfg.variants[1:]:
        assert sorted(units[v]) == reference
    # identical weights under two names -> identical records
    fp = policy_for_name("fp16", trained_model)
    rs = run_paired_eval(
        {"fp16": apply_policy(trained_model, fp),
         "fp16_twin": apply_policy(trained_model, fp)}.items(),
        trained_model,
        {"bA": PlannerBudget(9, 2, 2, (0,))},
        env_cfg,
        CEMConfig(),
        episodes_per_run=5,
    )
    a = [r for r in rs if r.variant_name == "fp16"]
    b = [r for r in rs if r.variant_name == "fp16_twin"]
    for ra, rb in zip(a, b):
        assert (
            ra.success,
            ra.steps_executed,
            ra.plan_rounds,
            ra.mean_state_distance,
            ra.visual_embedding_divergence,
        ) == (
            rb.success,
            rb.steps_executed,
            rb.plan_rounds,
            rb.mean_state_distance,
            rb.visual_embedding_divergence,
        )
    report(5, "pairing protocol")


def test_criterion_6_end_to_end_determinism(tmp_path):
    data = {
        "dataset": {"n_traj": 30, "traj_len": 6, "seed": 0},
        "train": {"epochs": 5},
        "budgets": {"bA": {"goal_h": 5, "opt_steps": 2, "max_iter": 2, "seeds": [0]}},
        "cem": {"population": 16},
        "episodes_per_run": 3,
        "variants": ["fp16", "uniform_int4", "mixed_int4"],
    }
    outputs = []
    for name in ("run1", "run2"):
        cfg = config_from_dict(dict(data))
        cfg.output_dir = str(tmp_path / name)
        run_stage(cfg, "all")
        outputs.append(Path(cfg.output_dir))
    a, b = outputs
    assert (a / "episodes.csv").read_bytes() == (b / "episodes.csv").read_bytes()
    for stats_file in (
        "comparisons.json",
        "matchups.json",
        "bins.json",
        "frontier.json",
        "correlations.json",
    ):
        assert (a / stats_file).read_bytes() == (b / stats_file).read_bytes()
    report(6, "end-to-end determinism")


def test_criterion_7_regime_pattern(full_sweep, trained_model, env_cfg):
    cfg, records = full_sweep
    assert len(records) == 650

    # (a) 8-bit stays close to FP16, pooled per budget
    for budget in cfg.budgets:
        gap = abs(
            success_of(records, "uniform_int8", budget) - success_of(records, "fp16", budget)
        )
        assert gap <= 0.10, f"{budget}: |u8 - fp16| = {gap}"

    # (b) low-bit collapse at some b* in {3, 2}
    fp_success = success_of(records, "fp16")
    assert fp_success > 0, "fp16 never succeeds; toy config is broken"
    collapse_records = {3: [r for r in records if r.variant_name == "uniform_int3"]}
    b_star = None
    if np.mean([r.success for r in collapse_records[3]]) <= 0.25 * fp_success:
        b_star = 3
    else:
        u2 = policy_for_name("uniform_int2", trained_model)
        rs2 = run_paired_eval(
            {"uniform_int2": apply_policy(trained_model, u2)}.items(),
            trained_model,
            cfg.budgets,
            env_cfg,
            cfg.cem,
            episodes_per_run=cfg.episodes_per_run,
            master_seed=cfg.master_seed,
        )
        collapse_records[2] = rs2
        if np.mean([r.success for r in rs2]) <= 0.25 * fp_success:
            b_star = 2
    assert b_star is not None, "no collapse bitwidth found in {3, 2}"

    # (c) divergence: zero at fp16, strictly increasing from 8 bits down to b*
    def pooled_divergence(variant, recs=None):
        recs = recs if recs is not None else [r for r in records if r.variant_name == variant]
        return float(np.mean([r.visual_embedding_divergence for r in recs]))

    assert all(
        r.visual_embedding_divergence == 0.0 for r in records if r.variant_name == "fp16"
    )
    ladder = [pooled_divergence(f"uniform_int{b}") for b in (8, 6, 4)]
    ladder.append(pooled_divergence(None, collapse_records[3]))
    if b_star == 2:
        ladder.append(pooled_divergence(None, collapse_records[2]))
    assert all(a < b for a, b in zip(ladder, ladder[1:])), ladder

    sizes = {n: model_size_bytes(trained_model, policy_for_name(n, trained_model))
             for n in cfg.variants}
    stats = compute_stats(records, sizes, cfg)
    rho = stats["correlations.json"]["spearman_success_vs_visual_embedding_divergence"]
    assert rho is not None and rho < 0
    report(7, f"regime pattern (collapse at b*={b_star}, rho={rho:.3f})")


def test_criterion_8_size_ordering(trained_model):
    size = lambda n: model_size_bytes(trained_model, policy_for_name(n, trained_model))
    assert size("uniform_int3") < size("uniform_int4") < size("uniform_int6") < size("fp16")
    for b in (3, 4, 6, 8):
        assert size(f"uniform_int{b}") < size(f"mixed_int{b}")
    assert size("uniform_int4") < size("enc6_pred4") < size("mixed_int4")
    assert size("uniform_int4") < size("enc8_pred4") < size("mixed_int4")
    report(8, "size-ordering fidelity")
