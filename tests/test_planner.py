import copy
import re
from dataclasses import fields

import numpy as np
import pytest

from quantplan import (
    CEMConfig,
    PlannerBudget,
    ValidationError,
    VariantModel,
    apply_policy,
    policy_for_name,
    render,
    sample_episode_specs,
)
from quantplan import rng as qrng
from quantplan.env import EpisodeSpec
from quantplan.nn import Stack, WorldModel, init_world_model
from quantplan.planner import (
    EPISODES_CSV_HEADER,
    _norm,
    EpisodeRecord,
    episodes_to_csv,
    plan_actions,
    read_episodes_csv,
    run_episode,
    run_episodes,
    run_paired_eval,
    write_episodes_csv,
)

BA = PlannerBudget(9, 2, 2, (0,))
BB = PlannerBudget(12, 3, 3, (0,))


@pytest.fixture(scope="module")
def prepared(trained_model):
    return {
        n: apply_policy(trained_model, policy_for_name(n), n)
        for n in ("fp16", "uniform_int8", "uniform_int3")
    }


def test_plan_deterministic(trained_model, env_cfg):
    obs = render(np.array([0.2, 0.5]), env_cfg)
    goal = render(np.array([0.8, 0.5]), env_cfg)
    (p1,), _ = plan_actions(trained_model, obs[None], goal[None], BA, CEMConfig(), [qrng.stream(0, "t")], 0.125)
    (p2,), _ = plan_actions(trained_model, obs[None], goal[None], BA, CEMConfig(), [qrng.stream(0, "t")], 0.125)
    np.testing.assert_array_equal(p1, p2)
    assert p1.shape == (9, 2)
    assert np.all(np.abs(p1) <= 0.125)


def test_elite_costs_non_increasing(trained_model, env_cfg):
    obs = render(np.array([0.2, 0.5]), env_cfg)
    goal = render(np.array([0.8, 0.5]), env_cfg)
    for k in range(10):
        _, info = plan_actions(
            trained_model, obs[None], goal[None], PlannerBudget(6, 5, 1, (0,)), CEMConfig(), [qrng.stream(0, "e", k)], 0.125
        )
        costs = info["elite_costs"][0]
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert info["final_mean_cost"] <= info["initial_mean_cost"]


def test_identity_predictor_zero_cost(env_cfg):
    wm = init_world_model(obs_dim=256)
    W = np.zeros((16, 18))
    W[:, :16] = np.eye(16)
    wm.predictor = Stack([(W, np.zeros(16))])
    obs = render(np.array([0.3, 0.3]), env_cfg)
    _, info = plan_actions(wm, obs[None], obs[None], BA, CEMConfig(), [qrng.stream(0, "i")], 0.125)
    assert info["final_mean_cost"] == pytest.approx(0.0, abs=1e-12)
    assert info["final_mean_cost"] <= info["initial_mean_cost"]


def test_immediate_success(prepared, trained_model, env_cfg):
    spec = EpisodeSpec(0, 0, (0.48, 0.5), (0.52, 0.5), 0.04)
    r = run_episodes(prepared["fp16"], trained_model, [spec], BA, "bA", CEMConfig(), env_cfg)[0]
    assert r.success == 1 and r.steps_executed == 0
    assert r.mean_state_distance == 0.0 and r.visual_embedding_divergence == 0.0


def test_step_caps(prepared, trained_model, env_cfg):
    spec = sample_episode_specs(0, 1, env_cfg)[0]
    for budget, name, cap in ((BA, "bA", 18), (BB, "bB", 36)):
        r = run_episodes(prepared["uniform_int3"], trained_model, [spec], budget, name, CEMConfig(), env_cfg)[0]
        assert r.steps_executed <= cap
    assert BA.goal_h * BA.max_iter == 18
    assert BB.goal_h * BB.max_iter == 36


def test_fp16_divergence_exactly_zero(prepared, trained_model, env_cfg):
    for spec in sample_episode_specs(1, 3, env_cfg):
        r = run_episodes(prepared["fp16"], trained_model, [spec], BA, "bA", CEMConfig(), env_cfg)[0]
        assert r.visual_embedding_divergence == 0.0


def test_paired_eval_counts_and_pairing(prepared, trained_model, env_cfg):
    rs = run_paired_eval(
        [prepared["fp16"], prepared["uniform_int8"]],
        trained_model,
        {"bA": PlannerBudget(9, 2, 2, (0, 1)), "bB": BB},
        env_cfg,
        CEMConfig(),
        episodes_per_run=3,
    )
    assert len(rs.records) == 2 * (2 + 1) * 3
    units = {}
    for r in rs.records:
        units.setdefault(r.variant_name, set()).add(
            (r.budget_name, r.seed, r.episode_id, r.initial_goal_distance)
        )
    assert units["fp16"] == units["uniform_int8"]


def test_same_weights_two_names_identical_records(prepared, trained_model, env_cfg):
    fp16 = prepared["fp16"]
    twin = VariantModel("fp16_twin", fp16.wm, fp16.size_bytes)
    rs = run_paired_eval(
        [prepared["fp16"], twin],
        trained_model,
        {"bA": BA},
        env_cfg,
        CEMConfig(),
        episodes_per_run=4,
    )
    a = [r for r in rs.records if r.variant_name == "fp16"]
    b = [r for r in rs.records if r.variant_name == "fp16_twin"]
    for ra, rb in zip(a, b):
        assert (ra.seed, ra.episode_id) == (rb.seed, rb.episode_id)
        for f in ("success", "steps_executed", "runtime_seconds",
                  "mean_state_distance", "visual_embedding_divergence"):
            assert getattr(ra, f) == getattr(rb, f)


def test_other_variants_leave_records_unchanged(prepared, trained_model, env_cfg):
    def uniform_int8_csv(names):
        rs = run_paired_eval(
            [prepared[n] for n in names], trained_model, {"bA": BA}, env_cfg,
            CEMConfig(), episodes_per_run=3,
        )
        return episodes_to_csv([r for r in rs.records if r.variant_name == "uniform_int8"])

    alone = uniform_int8_csv(["uniform_int8"])
    assert alone.count("\n") == 4
    assert alone == uniform_int8_csv(["fp16", "uniform_int8", "uniform_int3"])


def test_duplicate_variant_names_rejected(prepared, trained_model, env_cfg):
    with pytest.raises(ValidationError, match="duplicate"):
        run_paired_eval(
            [prepared["fp16"], prepared["fp16"]],
            trained_model,
            {"bA": BA},
            env_cfg,
            CEMConfig(),
        )
    with pytest.raises(ValidationError):
        run_paired_eval([], trained_model, {"bA": BA}, env_cfg, CEMConfig())


def test_csv_round_trip(prepared, trained_model, env_cfg, tmp_path):
    rs = run_paired_eval(
        [prepared["fp16"]], trained_model, {"bA": BA}, env_cfg, CEMConfig(),
        episodes_per_run=2,
    )
    path = tmp_path / "episodes.csv"
    write_episodes_csv(rs.records, path)
    text = path.read_text()
    assert text.splitlines()[0] == EPISODES_CSV_HEADER
    back = read_episodes_csv(path)
    assert back == rs.records
    assert len(EPISODES_CSV_HEADER.split(",")) == len(fields(EpisodeRecord))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda cols: cols[:9], "line 3: expected 11 columns, got 9"),
        (lambda cols: cols[:4] + ["yes"] + cols[5:], "line 3: invalid literal for int"),
    ],
    ids=["truncated_row", "non_numeric_success"],
)
def test_csv_bad_row_names_file_and_line(tmp_path, corrupt, message):
    records = [EpisodeRecord("fp16", "bA", 0, i, 1, 0.5, 4, 1e-3, 0.02, 0.0, 1000) for i in range(2)]
    lines = episodes_to_csv(records).splitlines()
    lines[2] = ",".join(corrupt(lines[2].split(",")))
    path = tmp_path / "episodes.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))} {message}"):
        read_episodes_csv(path)


def test_rerun_bit_identical(prepared, trained_model, env_cfg):
    def once():
        rs = run_paired_eval(
            [prepared["uniform_int8"]], trained_model, {"bA": BA}, env_cfg,
            CEMConfig(), episodes_per_run=3,
        )
        return episodes_to_csv(rs.records)

    assert once() == once()


def test_budget_validation():
    with pytest.raises(ValidationError):
        PlannerBudget(0, 1, 1, (0,))
    for seeds in ((), (0, 1, 0)):
        with pytest.raises(ValidationError, match="non-empty and distinct"):
            PlannerBudget(1, 1, 1, seeds)
    with pytest.raises(ValidationError):
        CEMConfig(population=2)
    with pytest.raises(ValidationError):
        CEMConfig(elite_fraction=0.9)


@pytest.mark.parametrize("variant", ["fp16", "uniform_int3"])
@pytest.mark.parametrize("budget", [BA, BB], ids=["bA", "bB"])
def test_batch_shape_independence(prepared, trained_model, env_cfg, variant, budget):
    at_goal = EpisodeSpec(2, 99, (0.48, 0.5), (0.52, 0.5), 0.04)
    specs = sample_episode_specs(2, 4, env_cfg) + [at_goal]
    args = (prepared[variant], trained_model)
    rest = (budget, "b", CEMConfig(), env_cfg)
    batched = run_episodes(*args, specs, *rest)
    assert episodes_to_csv(batched) == episodes_to_csv([run_episode(*args, s, *rest) for s in specs])
    # the rows leave the lockstep group at different steps
    assert len({r.steps_executed for r in batched}) > 1


def test_runtime_seconds_follows_cost_model(prepared, trained_model, env_cfg):
    budget, cem = PlannerBudget(9, 2, 1, (0,)), CEMConfig()
    at_goal = EpisodeSpec(0, 99, (0.48, 0.5), (0.52, 0.5), 0.04)
    specs = [at_goal] + sample_episode_specs(0, 4, env_cfg)
    records = run_episodes(prepared["uniform_int3"], trained_model, specs, budget, "b", cem, env_cfg)
    enc, pred, probe = (
        sum(2 * W.size for W, _ in stack.layers)
        for stack in (trained_model.encoder, trained_model.predictor, trained_model.probe)
    )
    # max_iter 1: one plan per episode not at its goal, whose 2 encodes and
    # (2 + opt_steps * pop) rollouts of goal_h predicts are charged with the
    # encode that executes it; each step adds 2 encodes, a predict and a probe
    per_plan = 2 * enc + (2 + 2 * cem.population) * 9 * pred + enc
    per_step = 2 * enc + pred + probe
    assert records[0].runtime_seconds == 0.0
    for r in records[1:]:
        assert r.steps_executed > 0
        assert r.runtime_seconds == (per_plan + r.steps_executed * per_step) / 1e9


def test_planning_failure_is_recorded_per_variant(prepared, trained_model, env_cfg):
    wm = copy.deepcopy(prepared["fp16"].wm)
    wm.predictor.layers[1][0][0, 0] = np.inf
    broken = VariantModel("broken", wm, prepared["fp16"].size_bytes)
    at_goal = EpisodeSpec(0, 99, (0.48, 0.5), (0.52, 0.5), 0.04)
    specs = [at_goal] + sample_episode_specs(0, 3, env_cfg)
    with np.errstate(invalid="ignore", over="ignore"):
        records = run_episodes(broken, trained_model, specs, BA, "bA", CEMConfig(), env_cfg)
    assert [r.success for r in records] == [1, 0, 0, 0]
    assert all(r.steps_executed == 0 and r.runtime_seconds == 0.0 for r in records)

    def uniform_int8_csv(variants):
        with np.errstate(invalid="ignore", over="ignore"):
            rs = run_paired_eval(variants, trained_model, {"bA": BA, "bB": BB}, env_cfg,
                                 CEMConfig(), episodes_per_run=3)
        return episodes_to_csv([r for r in rs.records if r.variant_name == "uniform_int8"])

    healthy = prepared["uniform_int8"]
    assert uniform_int8_csv([broken, healthy]) == uniform_int8_csv([healthy])


def test_plan_failure_leaves_other_rows_unchanged(trained_model, env_cfg):
    obs = render(np.array([[0.2, 0.5], [0.3, 0.2]]), env_cfg)
    goal = render(np.array([[0.8, 0.5], [0.7, 0.9]]), env_cfg)
    goal[1] = np.nan  # row 1's costs are NaN from the first population on

    def plan(rows):
        gens = [qrng.stream(0, "f", i) for i in rows]
        return plan_actions(trained_model, obs[rows], goal[rows], BA, CEMConfig(), gens, 0.125)

    plans, info = plan([0, 1])
    assert info["failed"].tolist() == [False, True]
    assert np.isnan(plans[1]).all() and np.isnan(info["final_mean_cost"][1])
    alone, alone_info = plan([0])
    np.testing.assert_array_equal(plans[:1], alone)
    np.testing.assert_array_equal(info["elite_costs"][:1], alone_info["elite_costs"])


def test_row_norm_equals_one_row_norm(rng):
    # the success test and both distances must round as np.linalg.norm of one row does
    for width in (2, 16):
        d = rng.standard_normal((300, width))
        assert _norm(d).tolist() == [float(np.linalg.norm(row)) for row in d]
