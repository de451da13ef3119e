import copy
import os
import re
import sys
import threading
import warnings
import weakref
from dataclasses import fields

import numpy as np
import pytest

from quantplan import (
    CEMConfig,
    PlannerBudget,
    ValidationError,
    apply_policy,
    policy_for_name,
    render,
    sample_episode_specs,
)
from quantplan import planner
from quantplan import rng as qrng
from quantplan.env import EpisodeSpec, observations, pixel, step
from quantplan.nn import Stack, WorldModel, study_dims
from quantplan.planner import (
    EPISODES_CSV_HEADER,
    _norm,
    EpisodeRecord,
    episodes_to_csv,
    plan_actions,
    plan_noise,
    prepare_variants,
    read_episodes_csv,
    run_episode,
    run_episodes,
    run_paired_eval,
    write_episodes_csv,
)

BA = PlannerBudget(9, 2, 2, (0,))
BB = PlannerBudget(12, 3, 3, (0,))


def round_noise(budget, *streams):
    """One planning round's noise block: row i the next draws of streams[i]."""
    shape = (budget.opt_steps, CEMConfig().population, budget.goal_h, 2)
    return np.stack([g.standard_normal(shape) for g in streams])


def eval_variants(models, fp_wm, env_cfg):
    """The dict `models` of name -> model as `run_episodes` takes its variants."""
    return prepare_variants(models.items(), fp_wm, env_cfg)


def latents_of(wm, obs):
    """`wm`'s latent per row of the observations `obs` (n, obs_dim)."""
    return wm.encode(obs[:, None, :])[:, 0]


@pytest.fixture(scope="module")
def prepared(trained_model):
    return {
        n: apply_policy(trained_model, policy_for_name(n, trained_model))
        for n in ("fp16", "uniform_int8", "uniform_int3")
    }


@pytest.mark.parametrize("variant", ["fp16", "uniform_int3"])
def test_eval_reads_the_training_table_rows(prepared, trained_model, env_cfg, monkeypatch,
                                            variant):
    # the eval's latents are rows of one 2-D encode of the observation table, the
    # encode the full-dataset loss and the probe fit read
    reached = []

    def recording_step(state, action, cfg):
        reached.append(step(state, action, cfg))
        return reached[-1]

    monkeypatch.setattr(planner, "step", recording_step)
    wm = prepared[variant]
    records = run_episodes(eval_variants({variant: wm}, trained_model, env_cfg), trained_model,
                           sample_episode_specs(0, 4, env_cfg), PlannerBudget(1, 1, 1, (0,)), "b",
                           CEMConfig(), env_cfg)
    assert [r.steps_executed for r in records] == [1] * 4
    (s,) = reached  # the one step of every episode at once
    obs, p = observations(env_cfg), pixel(s, env_cfg)
    divergence = _norm(wm.encode(obs)[p] - trained_model.encode(obs)[p])
    assert [r.visual_embedding_divergence for r in records] == divergence.tolist()


def test_state_probe_decodes_each_plan_once(prepared, trained_model, env_cfg, monkeypatch):
    # the step loop reads the probe's positions of a plan's latents, decoded once per plan
    calls = []
    decode = WorldModel.probe_decode

    def counting_decode(self, latent):
        calls.append(latent.shape)
        return decode(self, latent)

    monkeypatch.setattr(WorldModel, "probe_decode", counting_decode)
    records = run_episodes(eval_variants(prepared, trained_model, env_cfg), trained_model,
                           sample_episode_specs(0, 6, env_cfg), BB, "bB", CEMConfig(), env_cfg)
    assert max(r.steps_executed for r in records) > BB.goal_h
    assert 0 < len(calls) <= len(prepared) * BB.max_iter


def test_plan_deterministic(trained_model, env_cfg):
    obs = render(np.array([0.2, 0.5]), env_cfg)
    goal = render(np.array([0.8, 0.5]), env_cfg)
    (p1,), _, _ = plan_actions(trained_model.predictor, latents_of(trained_model, obs[None]),
                               latents_of(trained_model, goal[None]), CEMConfig(),
                               round_noise(BA, qrng.stream(0, "t")), np.arange(1), 0.125)
    (p2,), _, _ = plan_actions(trained_model.predictor, latents_of(trained_model, obs[None]),
                               latents_of(trained_model, goal[None]), CEMConfig(),
                               round_noise(BA, qrng.stream(0, "t")), np.arange(1), 0.125)
    np.testing.assert_array_equal(p1, p2)
    assert p1.shape == (9, 2)
    assert np.all(np.abs(p1) <= 0.125)


def test_elite_costs_non_increasing(trained_model, env_cfg):
    obs = render(np.array([0.2, 0.5]), env_cfg)
    goal = render(np.array([0.8, 0.5]), env_cfg)
    budget = PlannerBudget(6, 5, 1, (0,))
    for k in range(10):
        _, _, info = plan_actions(
            trained_model.predictor, latents_of(trained_model, obs[None]),
            latents_of(trained_model, goal[None]), CEMConfig(),
            round_noise(budget, qrng.stream(0, "e", k)), np.arange(1), 0.125
        )
        costs = info["elite_costs"][0]
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert info["final_mean_cost"] <= info["initial_mean_cost"]


def test_identity_predictor_zero_cost(trained_model, env_cfg):
    # plan_actions reads only the predictor's forward, so a bare Stack plans: its one
    # [W.T; b] block copies the latent and drops the action and the bias
    block = np.zeros((19, 16), np.float32)
    block[:16] = np.eye(16)
    identity = Stack([block])
    z = latents_of(trained_model, render(np.array([0.3, 0.3]), env_cfg)[None])
    _, _, info = plan_actions(identity, z, z, CEMConfig(),
                              round_noise(BA, qrng.stream(0, "i")), np.arange(1), 0.125)
    assert info["final_mean_cost"] == pytest.approx(0.0, abs=1e-12)
    assert info["final_mean_cost"] <= info["initial_mean_cost"]


def test_immediate_success(prepared, trained_model, env_cfg):
    spec = EpisodeSpec(0, 0, (0.48, 0.5), (0.52, 0.5), 0.04)
    r = run_episodes(eval_variants({"fp16": prepared["fp16"]}, trained_model, env_cfg),
                     trained_model, [spec], BA, "bA", CEMConfig(), env_cfg)[0]
    assert r.success == 1 and r.steps_executed == 0
    assert r.mean_state_distance == 0.0 and r.visual_embedding_divergence == 0.0


def test_step_caps(prepared, trained_model, env_cfg):
    spec = sample_episode_specs(0, 1, env_cfg)[0]
    for budget, name, cap in ((BA, "bA", 18), (BB, "bB", 36)):
        r = run_episodes(eval_variants({"uniform_int3": prepared["uniform_int3"]}, trained_model,
                                       env_cfg), trained_model, [spec], budget, name, CEMConfig(),
                         env_cfg)[0]
        assert r.steps_executed <= cap
    assert BA.goal_h * BA.max_iter == 18
    assert BB.goal_h * BB.max_iter == 36


def test_fp16_divergence_exactly_zero(prepared, trained_model, env_cfg):
    for spec in sample_episode_specs(1, 3, env_cfg):
        r = run_episodes(eval_variants({"fp16": prepared["fp16"]}, trained_model, env_cfg),
                         trained_model, [spec], BA, "bA", CEMConfig(), env_cfg)[0]
        assert r.visual_embedding_divergence == 0.0


def test_paired_eval_counts_and_pairing(prepared, trained_model, env_cfg):
    rs = run_paired_eval(
        {n: prepared[n] for n in ("fp16", "uniform_int8")}.items(),
        trained_model,
        {"bA": PlannerBudget(9, 2, 2, (0, 1)), "bB": BB},
        env_cfg,
        CEMConfig(),
        episodes_per_run=3,
    )
    assert len(rs) == 2 * (2 + 1) * 3
    units = {}
    for r in rs:
        units.setdefault(r.variant_name, set()).add(
            (r.budget_name, r.seed, r.episode_id, r.initial_goal_distance)
        )
    assert units["fp16"] == units["uniform_int8"]


def test_same_weights_two_names_identical_records(prepared, trained_model, env_cfg):
    rs = run_paired_eval(
        {"fp16": prepared["fp16"], "fp16_twin": prepared["fp16"]}.items(),
        trained_model,
        {"bA": BA},
        env_cfg,
        CEMConfig(),
        episodes_per_run=4,
    )
    a = [r for r in rs if r.variant_name == "fp16"]
    b = [r for r in rs if r.variant_name == "fp16_twin"]
    for ra, rb in zip(a, b):
        assert (ra.seed, ra.episode_id) == (rb.seed, rb.episode_id)
        for f in ("success", "steps_executed", "plan_rounds",
                  "mean_state_distance", "visual_embedding_divergence"):
            assert getattr(ra, f) == getattr(rb, f)


def test_eval_never_reads_a_variants_probe(prepared, trained_model, env_cfg):
    # every variant's latents are decoded with the fp probe, so a NaN probe changes no record
    blind = copy.deepcopy(prepared["uniform_int8"])
    for W, b in blind.probe.layers:
        W[...] = np.nan
        b[...] = np.nan

    def records_csv(wm):
        rs = run_paired_eval({"uniform_int8": wm}.items(), trained_model, {"bA": BA, "bB": BB},
                             env_cfg, CEMConfig(), episodes_per_run=3)
        return episodes_to_csv(rs)

    assert records_csv(blind) == records_csv(prepared["uniform_int8"])


def steps_in_round(record, rnd, goal_h):
    """Steps `record`'s episode executed in planning round `rnd` (1-based): every plan
    but the last runs all goal_h steps (test_plan_rounds_counts_the_plans_run)."""
    if rnd < record.plan_rounds:
        return goal_h
    if rnd == record.plan_rounds:
        return record.steps_executed - (rnd - 1) * goal_h
    return 0


def test_other_variants_leave_records_unchanged(prepared, trained_model, env_cfg):
    # each round steps every variant's rows together, every seed of a budget in them
    budgets = {"bA": PlannerBudget(9, 2, 2, (0, 1)), "bB": BB}

    def records(names):
        return run_paired_eval({n: prepared[n] for n in names}.items(), trained_model, budgets,
                               env_cfg, CEMConfig(), episodes_per_run=3)

    together = records(list(prepared))
    for name in prepared:
        alone = episodes_to_csv(records([name]))
        assert alone.count("\n") == 1 + (2 + 1) * 3
        assert alone == episodes_to_csv([r for r in together if r.variant_name == name])

    def overtaken(a, b):
        # a reaches the goal mid-plan, and b, another variant's row, steps on in that round
        h, r = budgets[a.budget_name].goal_h, a.plan_rounds
        t = steps_in_round(a, r, h)
        return (a.success and r and t < h and b.budget_name == a.budget_name
                and b.variant_name != a.variant_name and steps_in_round(b, r, h) > t)

    # so the rows leave one round's step loop at different steps
    assert any(overtaken(a, b) for a in together for b in together)


def test_step_calls_do_not_scale_with_variants(prepared, trained_model, env_cfg, monkeypatch):
    # a round's plans execute in one goal_h-step loop over every variant's rows
    rows = []

    def counting_step(state, action, cfg):
        rows.append(len(state))
        return step(state, action, cfg)

    monkeypatch.setattr(planner, "step", counting_step)
    specs = sample_episode_specs(0, 6, env_cfg)
    calls = {}
    for names in (["uniform_int3"], list(prepared)):
        rows.clear()
        run_episodes(eval_variants({n: prepared[n] for n in names}, trained_model, env_cfg),
                     trained_model, specs, BB, "bB", CEMConfig(), env_cfg)
        calls[len(names)] = len(rows)
        assert rows[0] == len(names) * len(specs)  # round 1's first step: every row at once
    assert calls[1] == calls[3] <= BB.max_iter * BB.goal_h


def test_grouping_seeds_is_invisible(prepared, trained_model, env_cfg):
    # a budget's seeds share each variant's lockstep group and each round's noise
    # block; seed 0's records do not depend on which other seeds share them, or in
    # which order
    def seed0_csv(seeds):
        budgets = {"bA": PlannerBudget(9, 2, 2, seeds), "bB": PlannerBudget(12, 3, 3, seeds)}
        rs = run_paired_eval({n: prepared[n] for n in ("fp16", "uniform_int3")}.items(),
                             trained_model, budgets, env_cfg, CEMConfig(), episodes_per_run=3)
        return episodes_to_csv([r for r in rs if r.seed == 0])

    alone = seed0_csv((0,))
    assert alone.count("\n") == 1 + 2 * 2 * 3
    assert seed0_csv((0, 1)) == alone
    assert seed0_csv((1, 0)) == alone


def test_records_are_prefix_stable(prepared, trained_model, env_cfg):
    # an episode's record does not depend on how many episodes its run has: specs and
    # plan noise are keyed by (seed, episode), so a longer run extends a shorter one
    def records(episodes):
        budgets = {"bA": PlannerBudget(9, 2, 2, (0, 1)), "bB": BB}
        return run_paired_eval({n: prepared[n] for n in ("fp16", "uniform_int3")}.items(),
                               trained_model, budgets, env_cfg, CEMConfig(),
                               episodes_per_run=episodes)

    def key(r):
        return r.variant_name, r.budget_name, r.seed, r.episode_id

    short, long = records(3), {key(r): r for r in records(6)}
    assert len(short) == 2 * (2 + 1) * 3 and len(long) == 2 * (2 + 1) * 6
    assert episodes_to_csv(short) == episodes_to_csv([long[key(r)] for r in short])


@pytest.mark.parametrize("names", [["fp16"], ["fp16", "uniform_int8", "uniform_int3"]],
                         ids=["1_variant", "3_variants"])
def test_plan_noise_drawn_once_per_episode(prepared, trained_model, env_cfg, monkeypatch, names):
    opened = []
    stream = qrng.stream

    class Counted:
        """A "plan" stream that counts its draws."""

        def __init__(self, g):
            self.g, self.draws = g, 0

        def standard_normal(self, *args, **kwargs):
            self.draws += 1
            return self.g.standard_normal(*args, **kwargs)

    def counting_stream(master_seed, *tags):
        if tags[0] != "plan":
            return stream(master_seed, *tags)
        opened.append(Counted(stream(master_seed, *tags)))
        return opened[-1]

    monkeypatch.setattr(qrng, "stream", counting_stream)
    budgets = {"bA": PlannerBudget(9, 2, 2, (0, 1)), "bB": BB}
    run_paired_eval({n: prepared[n] for n in names}.items(), trained_model, budgets, env_cfg,
                    CEMConfig(), episodes_per_run=3)
    # each stream is opened once per budget (budgets run in name order) ...
    assert len(opened) == (2 + 1) * 3
    for streams, budget in ((opened[:6], budgets["bA"]), (opened[6:], BB)):
        # ... and each round is drawn once, for every spec and variant at once
        draws = {g.draws for g in streams}
        assert len(draws) == 1 and 1 <= draws.pop() <= budget.max_iter


def test_plan_noise_is_each_streams_sequential_draws(env_cfg):
    budget, cem = PlannerBudget(5, 2, 3, (4,)), CEMConfig()
    specs = sample_episode_specs(4, 3, env_cfg, master_seed=7)
    blocks, rounds = [], []
    for noise in plan_noise(specs, budget, cem, master_seed=7):
        blocks.append(noise)
        rounds.append(noise.copy())
    assert len(rounds) == budget.max_iter
    assert all(block is blocks[0] for block in blocks)  # one buffer, refilled each round
    assert blocks[0].shape == (3, budget.opt_steps, cem.population, budget.goal_h, 2)
    for i, spec in enumerate(specs):
        g = qrng.stream(7, "plan", spec.seed, spec.episode_id)
        # round r of spec i is draws r * opt_steps ... (r + 1) * opt_steps - 1 of its stream
        for r in range(budget.max_iter):
            for k in range(budget.opt_steps):
                np.testing.assert_array_equal(rounds[r][i, k],
                                              g.standard_normal((cem.population, 5, 2)))


def test_no_variants_rejected(trained_model, env_cfg):
    with pytest.raises(ValidationError, match="no variants"):
        run_paired_eval([], trained_model, {"bA": BA}, env_cfg, CEMConfig())


@pytest.mark.parametrize("bad, message", [
    (lambda wm: {"fp16": wm}, r"a variant must be a \(name, WorldModel\) pair, got 'fp16'"),
    (lambda wm: [("fp16", wm), ("fp16", wm)], "variant 'fp16' is given twice"),
    (lambda wm: [("fp16", wm.predictor)], r"a variant must be a \(name, WorldModel\) pair"),
    (lambda wm: [(16, wm)], r"a variant must be a \(name, WorldModel\) pair, got \(16, "),
    (lambda wm: [("fp16", wm, "extra")], r"a variant must be a \(name, WorldModel\) pair"),
], ids=["dict_of_names", "repeated_name", "not_a_model", "name_not_str", "triple"])
def test_bad_variant_pairs_rejected_before_any_episode(prepared, trained_model, env_cfg,
                                                       monkeypatch, bad, message):
    def no_plan(*args):
        raise AssertionError("planned before the variants were checked")

    monkeypatch.setattr(planner, "plan_actions", no_plan)
    with pytest.raises(ValidationError, match=message):
        run_paired_eval(bad(prepared["fp16"]), trained_model, {"bA": BA}, env_cfg, CEMConfig())


def test_no_variant_model_is_alive_while_the_rounds_plan(trained_model, env_cfg, monkeypatch):
    # run_paired_eval keeps a variant as its tables and predictor copy: once it has read
    # a generator's pairs, no model it yielded, nor its theta, is referenced, so a
    # generator that builds one model at a time never holds them all
    names = ("fp16", "uniform_int8", "uniform_int3")
    refs = []

    def pairs():
        for name in names:
            wm = apply_policy(trained_model, policy_for_name(name, trained_model))
            refs.extend([weakref.ref(wm), weakref.ref(wm.theta)])
            yield name, wm

    plan = planner.plan_actions
    planned = []

    def checking_plan(*args):
        if not planned:
            assert len(refs) == 2 * len(names)
            assert [ref() for ref in refs] == [None] * len(refs)
        planned.append(True)
        return plan(*args)

    monkeypatch.setattr(planner, "plan_actions", checking_plan)
    budgets = {"bA": BA, "bB": BB}
    rs = run_paired_eval(pairs(), trained_model, budgets, env_cfg, CEMConfig(), episodes_per_run=3)
    monkeypatch.undo()
    assert planned
    models = [(n, apply_policy(trained_model, policy_for_name(n, trained_model))) for n in names]
    listed = run_paired_eval(models, trained_model, budgets, env_cfg, CEMConfig(),
                             episodes_per_run=3)
    assert episodes_to_csv(rs) == episodes_to_csv(listed)


def test_csv_round_trip(prepared, trained_model, env_cfg, tmp_path):
    rs = run_paired_eval(
        {"fp16": prepared["fp16"]}.items(), trained_model, {"bA": BA}, env_cfg, CEMConfig(),
        episodes_per_run=2,
    )
    path = tmp_path / "episodes.csv"
    write_episodes_csv(rs, path)
    text = path.read_text()
    assert text.splitlines()[0] == EPISODES_CSV_HEADER
    back = read_episodes_csv(path)
    assert back == rs
    assert len(EPISODES_CSV_HEADER.split(",")) == len(fields(EpisodeRecord))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda cols: cols[:9], "line 3: expected 10 columns, got 9"),
        (lambda cols: cols[:4] + ["yes"] + cols[5:], "line 3: invalid literal for int"),
        (lambda cols: cols[:4] + ["7"] + cols[5:], "line 3: success must be 0 or 1, got 7"),
        (lambda cols: cols[:6] + ["-5"] + cols[7:], "line 3: steps_executed must be >= 0, got -5"),
        (lambda cols: cols[:7] + ["-1"] + cols[8:], "line 3: plan_rounds must be >= 0, got -1"),
        (lambda cols: cols[:8] + ["nan"] + cols[9:],
         "line 3: mean_state_distance must be finite, got nan"),
        (lambda cols: cols[:9] + ["inf"],
         "line 3: visual_embedding_divergence must be finite, got inf"),
        (lambda cols: ["x" * 200_000] + cols[1:], "line 3: field larger than field limit"),
    ],
    ids=["truncated_row", "non_numeric_success", "success_not_0_or_1", "negative_steps",
         "negative_plan_rounds", "nan_state_distance", "inf_embedding_divergence",
         "field_over_csv_limit"],
)
def test_csv_bad_row_names_file_and_line(tmp_path, corrupt, message):
    records = [EpisodeRecord("fp16", "bA", 0, i, 1, 0.5, 4, 1, 0.02, 0.0) for i in range(2)]
    lines = episodes_to_csv(records).splitlines()
    lines[2] = ",".join(corrupt(lines[2].split(",")))
    path = tmp_path / "episodes.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))} {message}"):
        read_episodes_csv(path)


def test_csv_not_utf8_names_file(tmp_path):
    records = [EpisodeRecord("fp16", "bA", 0, i, 1, 0.5, 4, 1, 0.02, 0.0) for i in range(2)]
    path = tmp_path / "episodes.csv"
    path.write_bytes(episodes_to_csv(records).replace("bA", "b\xe9").encode("latin-1"))
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: .*not UTF-8"):
        read_episodes_csv(path)


def test_rerun_bit_identical(prepared, trained_model, env_cfg):
    def once():
        rs = run_paired_eval(
            {"uniform_int8": prepared["uniform_int8"]}.items(), trained_model, {"bA": BA},
            env_cfg, CEMConfig(), episodes_per_run=3,
        )
        return episodes_to_csv(rs)

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
    for init_std in (0.0, -1.0):
        with pytest.raises(ValidationError, match="init_std must be > 0"):
            CEMConfig(init_std=init_std)
    with pytest.raises(ValidationError, match="std_floor must be >= 0"):
        CEMConfig(std_floor=-0.5)


@pytest.mark.parametrize("variant", ["fp16", "uniform_int3"])
@pytest.mark.parametrize("budget", [BA, BB], ids=["bA", "bB"])
def test_batch_shape_independence(prepared, trained_model, env_cfg, variant, budget):
    at_goal = EpisodeSpec(2, 99, (0.48, 0.5), (0.52, 0.5), 0.04)
    specs = sample_episode_specs(2, 4, env_cfg) + [at_goal]
    args = (variant, prepared[variant], trained_model)
    rest = (budget, "b", CEMConfig(), env_cfg)
    batched = run_episodes(eval_variants({variant: prepared[variant]}, trained_model, env_cfg),
                           trained_model, specs, *rest)
    assert episodes_to_csv(batched) == episodes_to_csv([run_episode(*args, s, *rest) for s in specs])
    # the rows leave the lockstep group at different steps
    assert len({r.steps_executed for r in batched}) > 1


def test_plan_rounds_counts_the_plans_run(prepared, trained_model, env_cfg):
    at_goal = EpisodeSpec(0, 99, (0.48, 0.5), (0.52, 0.5), 0.04)
    specs = [at_goal] + sample_episode_specs(0, 6, env_cfg)
    args = (eval_variants({"uniform_int3": prepared["uniform_int3"]}, trained_model, env_cfg),
            trained_model, specs)
    once = run_episodes(*args, PlannerBudget(9, 2, 1, (0,)), "b", CEMConfig(), env_cfg)
    assert [r.plan_rounds for r in once] == [0] + [1] * 6
    records = run_episodes(*args, BB, "bB", CEMConfig(), env_cfg)
    assert records[0].plan_rounds == 0
    # every plan but the last runs all goal_h steps; a miss runs max_iter plans
    for r in records[1:]:
        assert (r.plan_rounds - 1) * BB.goal_h < r.steps_executed <= r.plan_rounds * BB.goal_h
    missed = [r for r in records if not r.success]
    assert missed and all(r.plan_rounds == BB.max_iter for r in missed)


def test_planning_failure_is_recorded_per_variant(prepared, trained_model, env_cfg):
    broken = copy.deepcopy(prepared["fp16"])
    broken.predictor.layers[1][0][0, 0] = np.inf
    at_goal = EpisodeSpec(0, 99, (0.48, 0.5), (0.52, 0.5), 0.04)
    specs = [at_goal] + sample_episode_specs(0, 3, env_cfg)
    with np.errstate(invalid="ignore", over="ignore"):
        records = run_episodes(eval_variants({"broken": broken}, trained_model, env_cfg),
                               trained_model, specs, BA, "bA", CEMConfig(), env_cfg)
    assert [r.success for r in records] == [1, 0, 0, 0]
    assert all(r.steps_executed == 0 and r.plan_rounds == 0 for r in records)

    def uniform_int8_csv(variants):
        with np.errstate(invalid="ignore", over="ignore"):
            rs = run_paired_eval(variants.items(), trained_model, {"bA": BA, "bB": BB}, env_cfg,
                                 CEMConfig(), episodes_per_run=3)
        return episodes_to_csv([r for r in rs if r.variant_name == "uniform_int8"])

    healthy = {"uniform_int8": prepared["uniform_int8"]}
    assert uniform_int8_csv({"broken": broken, **healthy}) == uniform_int8_csv(healthy)


def test_failing_variant_among_healthy_ones_changes_no_record(prepared, trained_model, env_cfg):
    # a variant whose every plan fails between two healthy ones: its rows never
    # reach the step loop, and theirs step as when each plays alone
    broken = copy.deepcopy(prepared["fp16"])
    broken.predictor.layers[1][0][0, 0] = np.inf

    def records(variants):
        with np.errstate(invalid="ignore", over="ignore"):
            return run_paired_eval(variants.items(), trained_model, {"bA": BA, "bB": BB},
                                   env_cfg, CEMConfig(), episodes_per_run=3)

    def csv_of(rs, name):
        return episodes_to_csv([r for r in rs if r.variant_name == name])

    healthy = ("uniform_int8", "uniform_int3")
    mixed = records({healthy[0]: prepared[healthy[0]], "broken": broken,
                     healthy[1]: prepared[healthy[1]]})
    assert all(r.plan_rounds == 0 for r in mixed if r.variant_name == "broken")
    for name in healthy:
        assert csv_of(mixed, name) == csv_of(records({name: prepared[name]}), name)


def split_plans(monkeypatch, cpus, rows=2):
    """Let plans of `rows` or more rows split, on `cpus` CPUs; returns the list of the
    threads each `plan_actions` call ran in, filled as the eval plans."""
    threads = []
    plan = planner.plan_actions

    def recording_plan(*args):
        threads.append(threading.current_thread())
        return plan(*args)

    monkeypatch.setattr(planner, "SPLIT_ROWS", rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(planner, "plan_actions", recording_plan)
    return threads


@pytest.mark.parametrize("parts", [2, 3])
def test_split_plans_keep_every_record(prepared, trained_model, env_cfg, monkeypatch, parts):
    # a plan split by rows across threads plays every record as the whole plan does,
    # under both budgets and with a failing variant among healthy ones; 3 parts run
    # more threads than the test machine may have cores
    broken = copy.deepcopy(prepared["fp16"])
    broken.predictor.layers[1][0][0, 0] = np.inf
    variants = {"uniform_int8": prepared["uniform_int8"], "broken": broken,
                "uniform_int3": prepared["uniform_int3"]}
    monkeypatch.setattr(planner, "SPLIT_PARTS", parts)

    def records(cpus):
        threads = split_plans(monkeypatch, cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                rs = run_paired_eval(variants.items(), trained_model, {"bA": BA, "bB": BB},
                                     env_cfg, CEMConfig(), episodes_per_run=5)
        finally:
            sys.setswitchinterval(interval)
        return rs, {t is threading.main_thread() for t in threads}

    split, split_threads = records(parts)
    whole, whole_threads = records(1)
    assert split_threads == {True, False} and whole_threads == {True}
    assert split == whole
    assert episodes_to_csv(split) == episodes_to_csv(whole)
    assert any(r.plan_rounds == 0 for r in split if r.variant_name == "broken")


def test_split_plan_worker_keeps_the_callers_errstate(prepared, trained_model, env_cfg,
                                                      monkeypatch):
    # every weight of the output layer inf: its matmuls meet inf * 0, which warns
    # "invalid value" unless the caller's errstate holds in the worker too
    broken = copy.deepcopy(prepared["fp16"])
    broken.predictor.blocks[-1][...] = np.inf
    threads = split_plans(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(invalid="ignore", over="ignore"):
            records = run_episodes(eval_variants({"broken": broken}, trained_model, env_cfg),
                                   trained_model, sample_episode_specs(0, 4, env_cfg), BA, "bA",
                                   CEMConfig(), env_cfg)
    assert [str(w.message) for w in caught] == []
    assert any(t is not threading.main_thread() for t in threads)
    assert all(r.plan_rounds == 0 for r in records)


def test_split_plan_worker_error_is_raised_and_threads_joined(prepared, trained_model, env_cfg,
                                                              monkeypatch):
    start = threading.active_count()
    threads = split_plans(monkeypatch, 2)
    args = (eval_variants({"fp16": prepared["fp16"]}, trained_model, env_cfg), trained_model,
            sample_episode_specs(0, 4, env_cfg), BA, "bA", CEMConfig(), env_cfg)
    run_episodes(*args)
    assert any(t is not threading.main_thread() for t in threads)
    assert threading.active_count() == start
    plan = planner.plan_actions

    def failing_in_the_worker(*plan_args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker part failed")
        return plan(*plan_args)

    monkeypatch.setattr(planner, "plan_actions", failing_in_the_worker)
    with pytest.raises(RuntimeError, match="worker part failed"):
        run_episodes(*args)
    assert threading.active_count() == start


def test_one_cpu_starts_no_thread(prepared, trained_model, env_cfg, monkeypatch):
    started, start = [], threading.Thread.start

    def recording_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    threads = split_plans(monkeypatch, 1)
    run_episodes(eval_variants({"fp16": prepared["fp16"]}, trained_model, env_cfg), trained_model,
                 sample_episode_specs(0, 4, env_cfg), BA, "bA", CEMConfig(), env_cfg)
    assert threads and started == []
    assert planner.plan_parts() == 1


def test_plan_failure_leaves_other_rows_unchanged(trained_model, env_cfg):
    obs = render(np.array([[0.2, 0.5], [0.3, 0.2]]), env_cfg)
    goal = render(np.array([[0.8, 0.5], [0.7, 0.9]]), env_cfg)
    goal[1] = np.nan  # row 1's costs are NaN from the first population on

    noise = round_noise(BA, qrng.stream(0, "f", 0), qrng.stream(0, "f", 1))

    def plan(rows):
        return plan_actions(trained_model.predictor, latents_of(trained_model, obs[rows]),
                            latents_of(trained_model, goal[rows]), CEMConfig(), noise,
                            np.array(rows), 0.125)

    plans, _, info = plan([0, 1])
    assert info["failed"].tolist() == [False, True]
    assert np.isnan(plans[1]).all() and np.isnan(info["final_mean_cost"][1])
    alone, _, alone_info = plan([0])
    np.testing.assert_array_equal(plans[:1], alone)
    np.testing.assert_array_equal(info["elite_costs"][:1], alone_info["elite_costs"])


def test_plan_latents_equal_chained_predict_next(trained_model, env_cfg):
    # the executed plan's latents come from the rollout that scored it, bit-equal to
    # the predict_next chain over that plan which the execution loop would otherwise run
    obs = render(np.array([[0.2, 0.5], [0.3, 0.2], [0.6, 0.8]]), env_cfg)
    goal = render(np.array([[0.8, 0.5], [0.7, 0.9], [0.1, 0.1]]), env_cfg)
    goal[1] = np.nan  # row 1 fails
    z0 = latents_of(trained_model, obs)
    noise = round_noise(BB, *[qrng.stream(0, "l", i) for i in range(3)])
    plans, latents, info = plan_actions(trained_model.predictor, z0,
                                        latents_of(trained_model, goal), CEMConfig(), noise,
                                        np.arange(3), 0.125)
    assert info["failed"].tolist() == [False, True, False]
    assert latents.shape == (3, BB.goal_h, 16) and latents.dtype == np.float32
    # a failed row leaves the episode group before execution: nothing reads its latents
    ok = ~info["failed"]
    z = z0[ok, None]
    for t in range(BB.goal_h):
        z = trained_model.predict_next(z, plans[ok, None, t])
        np.testing.assert_array_equal(latents[ok, t], z[:, 0])


def test_plan_sizes_come_from_the_noise_block(trained_model, env_cfg):
    # opt_steps 4, population 8 and goal_h 5: sizes no test budget has
    noise = qrng.stream(0, "s").standard_normal((4, 4, 8, 5, 2))
    live = np.array([0, 2, 3])
    obs = render(np.array([[0.2, 0.5], [0.3, 0.2], [0.6, 0.8]]), env_cfg)
    goal = render(np.array([[0.8, 0.5], [0.7, 0.9], [0.1, 0.1]]), env_cfg)
    plans, latents, info = plan_actions(trained_model.predictor, latents_of(trained_model, obs),
                                        latents_of(trained_model, goal), CEMConfig(population=8),
                                        noise, live, 0.125)
    assert plans.shape == (3, 5, 2) and np.all(np.abs(plans) <= 0.125)
    assert latents.shape == (3, 5, 16)
    assert info["elite_costs"].shape == (3, 4) and np.isfinite(info["elite_costs"]).all()


def random_predictor(depth, rng):
    """The float32 predictor Stack of a study model with `depth` predictor layers and
    random parameters, laid out in theta as a trained model's are."""
    wm = WorldModel(study_dims(4, predictor_depth=depth))
    wm.theta[...] = 0.3 * rng.standard_normal(wm.theta.size)
    return wm.predictor


def unfolded_forward(stack, x):
    """Stack.forward's arithmetic before the bias fold: per layer fl(fl(x @ W.T) + b)."""
    last = len(stack.layers) - 1
    for i, (W, b) in enumerate(stack.layers):
        x = x @ W.T
        x += b
        if i < last:
            np.tanh(x, out=x)
    return x


@pytest.mark.parametrize("bad", [None, np.inf, np.nan], ids=["finite", "inf", "nan"])
@pytest.mark.parametrize("n", [1, 2, 90])
@pytest.mark.parametrize("m", [64, 1], ids=["population", "row"])
@pytest.mark.parametrize("depth", [1, 2, 3], ids=["1-layer", "trained-2-layer", "3-layer"])
def test_folded_step_equals_stack_forward(trained_model, env_cfg, rng, depth, m, n, bad):
    # the rollout's step, Stack.forward on the blocks with the latent written back into
    # its input buffer, must round as the unfolded layers, NaN for NaN: a BLAS core that
    # does not sum each output over k in order fails here
    stack = trained_model.predictor if depth == 2 else random_predictor(depth, rng)
    table = trained_model.encode(observations(env_cfg))
    x = np.empty((n, m, 18), np.float32)
    x[..., :16] = table[rng.integers(len(table), size=(n, m))]
    x[..., 16:] = rng.uniform(-0.125, 0.125, (n, m, 2))
    if bad is not None:
        x[-1, -1, 0] = bad  # one row's latent
    buf = np.concatenate([x, np.ones((n, m, 1), np.float32)], axis=-1)
    # the workspaces start as NaN: the step writes every column before reading it
    hidden = [np.full(h.shape, np.nan, np.float32) for h in stack.workspaces((n, m))]
    with np.errstate(invalid="ignore"):
        stack.forward(buf, hidden, out=buf[..., :16])
        expected = unfolded_forward(stack, x)
    np.testing.assert_array_equal(buf[..., :16], expected)
    np.testing.assert_array_equal(buf[..., 16:], np.concatenate(
        [x[..., 16:], np.ones((n, m, 1), np.float32)], axis=-1))


def test_row_norm_equals_one_row_norm(rng):
    # the success test and both distances must round as np.linalg.norm of one row does
    for width in (2, 16):
        d = rng.standard_normal((300, width))
        assert _norm(d).tolist() == [float(np.linalg.norm(row)) for row in d]
