import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantplan import ValidationError
from quantplan.cli import main
from quantplan.config import ExperimentConfig, config_from_dict, load_config
from quantplan.errors import StageError
from quantplan.pipeline import run_stage
from quantplan.planner import EpisodeRecord, read_episodes_csv, write_episodes_csv
from quantplan.report import main_table_csv
from quantplan.store import TensorRecord, load_model, persist_model

TINY = {
    "dataset": {"n_traj": 40, "traj_len": 8, "seed": 0},
    "train": {"epochs": 8},
    "budgets": {
        "bA": {"goal_h": 5, "opt_steps": 2, "max_iter": 2, "seeds": [0]},
        "bB": {"goal_h": 6, "opt_steps": 2, "max_iter": 2, "seeds": [0]},
    },
    "cem": {"population": 16},
    "episodes_per_run": 3,
    "variants": ["fp16", "uniform_int8", "uniform_int4", "mixed_int4", "uniform_int3",
                 "mixed_int3", "enc6_pred4", "enc4_pred8"],
    "master_seed": 0,
}


REPORT_OUTPUTS = ("main_table.csv", "frontier.svg", "forest.svg", "retention_curve.svg",
                  "difficulty.svg", "divergence_scatter.svg")


def tiny_cfg(tmp_path, name="out"):
    cfg = config_from_dict(dict(TINY))
    cfg.output_dir = str(tmp_path / name)
    return cfg


def write_tiny_config(tmp_path, name="cfg.json"):
    data = dict(TINY)
    data["output_dir"] = str(tmp_path / "out")
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.budgets["bA"].goal_h == 9
    assert cfg.budgets["bA"].seeds == (0, 1, 2)
    assert cfg.budgets["bB"].goal_h == 12
    assert cfg.budgets["bB"].seeds == (0, 1)
    assert cfg.episodes_per_run == 10
    assert len(cfg.variants) == 13


def test_config_hash_stable_and_sensitive():
    a, b = ExperimentConfig(), ExperimentConfig()
    assert a.config_hash() == b.config_hash()
    b.master_seed = 1
    assert a.config_hash() != b.config_hash()


def test_config_identity_pinned():
    assert ExperimentConfig().config_hash() == "b08df3023e67cb76"
    assert config_from_dict({}).config_hash() == "b08df3023e67cb76"
    scaled = config_from_dict({"variants": "all", "episodes_per_run": 30})
    assert scaled.config_hash() == "48fe11f5a19281c1"


BUDGET = {"goal_h": 2, "opt_steps": 1, "max_iter": 1, "seeds": [0]}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"master_seed": "abc"}, "master_seed: expected int"),
        ({"train": {"epochs": True}}, "train.epochs: expected int"),
        ({"budgets": {"bA": {**BUDGET, "goal_h": 2.5}}}, "budgets.bA.goal_h: expected int"),
        ({"budgets": {"bA": {**BUDGET, "seeds": "01"}}}, "budgets.bA.seeds: expected a list"),
        ({"budgets": {"bA": {**BUDGET, "seeds": [0, 0]}}}, "budgets.bA: seeds must be"),
        ({"budgets": {"bA": {**BUDGET, "seeds": [0.0]}}}, r"budgets.bA.seeds\[0\]: expected int"),
        ({"train": {"learning_rate": float("nan")}}, "train.learning_rate: expected float"),
        ({"output_dir": 5}, "output_dir: expected str"),
        ({"episodes_per_run": "10"}, "episodes_per_run: expected int"),
        ({"budgets": {}}, "at least one budget"),
        ({"budgets": []}, "budgets: expected an object"),
        ({"budgets": {"bA": 5}}, "budgets.bA: expected an object"),
        ({"env": None}, "env: expected an object"),
        ({"variants": ["fp16", "uniform_int8", "fp16"]}, "variants: duplicate"),
        ({"budgets": {"bA": BUDGET}, "episodes_per_run": 1}, "budgets.bA: .*episodes_per_run"),
        ({"env": {"image_side": 0}}, "env: image_side must be >= 1"),
        ({"env": {"image_side": -2}}, "env: image_side must be >= 1"),
        ({"env": {"gap_half_width": -0.1}}, "env: .*gap_half_width >= 0"),
        ({"variants": []}, "variants must name at least one variant"),
        ({"cem": {"init_std": -1.0}}, "cem: init_std must be > 0"),
        ({"cem": {"init_std": 0.0}}, "cem: init_std must be > 0"),
        ({"cem": {"std_floor": -0.5}}, "cem: std_floor must be >= 0"),
        ({"train": {"learning_rate": 10**400}}, "train.learning_rate: expected float"),
        ({"budgets": {"bA": BUDGET, "pooled": BUDGET}}, "budgets: 'pooled' is reserved"),
        ({"master_seed": 2**127}, "master_seed: .* does not fit the 128-bit"),
        ({"dataset": {"seed": -(2**127) - 1}}, "dataset.seed: -1.* does not fit"),
        ({"train": {"seed": 2**127}}, "train.seed: .* does not fit"),
        ({"budgets": {"bA": {**BUDGET, "seeds": [0, 2**127]}}},
         "budgets.bA.seeds: .* does not fit"),
        ({"budgets": {"bA": BUDGET, "\ud800": BUDGET}}, r"budgets: name '\\ud800' is not valid"),
        ({"output_dir": "out\ud800"}, r"output_dir: 'out\\ud800' is not valid"),
        ({"budgets": {"bA": BUDGET, "b\x00A": BUDGET}},
         r"budgets: name 'b\\x00A' is not valid text: '\\x00' is not printable"),
        ({"budgets": {"bA": BUDGET, "b\uffffA": BUDGET}}, r"budgets: name 'b\\uffffA' is not valid"),
        ({"output_dir": "out\x00x"}, r"output_dir: 'out\\x00x' is not valid"),
        ({"output_dir": ""}, "output_dir must not be empty"),
        ({"env": {"image_side": 129}}, "env: image_side must be <= 128, got 129"),
        ({"cem": {"population": 10**9}, "budgets": {"bA": {**BUDGET, "goal_h": 10**6}}},
         r"budgets.bA: the round noise block .* = \(10, 1, 1000000000, 1000000, 2\)"),
        ({"cem": {"population": 10**9}}, r"budgets.bA: .*cem.population.* more than 1 GiB"),
        ({"dataset": {"n_traj": 10**12}},
         r"dataset: the probe fit's design matrix .* more than 1 GiB as float64"),
        ({"episodes_per_run": 10**12}, r"budgets.bA: .*episodes_per_run.* more than 1 GiB"),
        ({"budgets": {"bA": {**BUDGET, "max_iter": 10**9}}},
         r"budgets.bA: the step distances .* = \(2, 13, 10, 2000000000\)"),
        ({"cem": {"population": 2**22}, "episodes_per_run": 2,
          "budgets": {"bA": {"goal_h": 1, "opt_steps": 1, "max_iter": 1, "seeds": [0]}}},
         r"budgets.bA: the rollout's hidden workspace .* = \(2, 4194304, 65\) "
         "takes more than 1 GiB as float32"),
        ({"dataset": {"n_traj": 60000, "traj_len": 10}, "train": {"batch_size": 2**40}},
         r"train: the step workspace .* = \(1200000, 257\) takes more than 1 GiB as float32"),
        ({"env": {"image_side": 64}, "dataset": {"n_traj": 30000, "traj_len": 10},
          "train": {"batch_size": 1}},
         r"train: the epoch plan's column ranks .* = \(300000, 4097\) "
         "takes more than 1 GiB as int16"),
    ],
)
def test_config_rejects_bad_values(data, message):
    with pytest.raises(ValidationError, match=message):
        config_from_dict(data)


def test_config_size_bound_is_inclusive():
    # the largest array a dataset sizes is the probe fit's (n, 16 + 1) float64 design
    # matrix: 7,895,160 transitions fit in 1 GiB, one more does not.
    # (2**25, 2, 2) float64 states take exactly 1 GiB, but 2**25 transitions do not fit
    limit = (1 << 30) // (8 * 17)
    for n_traj, traj_len in ((limit, 1), (limit // 16, 16)):
        config_from_dict({"dataset": {"n_traj": n_traj, "traj_len": traj_len}})
    for n_traj in (limit + 1, 2**25):
        with pytest.raises(ValidationError, match=r"design matrix .* more than 1 GiB "
                                                  "as float64"):
            config_from_dict({"dataset": {"n_traj": n_traj, "traj_len": 1}})
    # the eval's (2, 13 variants, 10 specs, max_iter x 2) float64 step distances:
    # 258,111 rounds fit in 1 GiB, one more does not
    config_from_dict({"budgets": {"bA": {**BUDGET, "max_iter": 258_111}}})
    with pytest.raises(ValidationError, match=r"the step distances .* = \(2, 13, 10, 516224\) "
                                              "takes more than 1 GiB as float64"):
        config_from_dict({"budgets": {"bA": {**BUDGET, "max_iter": 258_112}}})


def test_eval_object_bound_is_inclusive():
    def load(n, budgets, variants, **extra):
        one = {"goal_h": 1, "opt_steps": 1, "max_iter": 1, "seeds": [0]}
        return config_from_dict({"variants": variants, "budgets": dict.fromkeys(budgets, one),
                                 "episodes_per_run": n, **extra})

    # a budget's specs and plan streams, 420 + 609 B each: 1,043,480 fit in 1 GiB, so
    # the later check of the rollout's (specs, 64, 65) float32 workspace rejects them
    with pytest.raises(ValidationError, match=r"budgets.b: the rollout's hidden workspace"):
        load(1_043_480, "b", ["fp16"])
    with pytest.raises(ValidationError, match=r"budgets.b: the episode specs and their plan "
                       r"streams .* = 1043481 takes more than 1 GiB at 1029 B each"):
        load(1_043_481, "b", ["fp16"])
    # every budget's records and CSV rows, 280 + 503 B each: 16 variants x 2 budgets x
    # 42,853 episodes fit in 1 GiB; one more episode does not, though one budget would
    load(42_853, "bc", "all")
    load(42_854, "b", "all")
    with pytest.raises(ValidationError, match=r"the eval's records and their episodes.csv "
                       r"rows .* = 1371328 takes more than 1 GiB at 783 B each"):
        load(42_854, "bc", "all")
    # 4,194,304 paired units: 1 GiB of step distances and 256 MiB of noise, which fit
    with pytest.raises(ValidationError, match="budgets.b: the episode specs"):
        load(4_194_304, "b", "all", cem={"population": 4})


@pytest.mark.parametrize(
    "bad",
    [
        {"variants": ["fp16", "fp16"]},
        {"budgets": {"bA": BUDGET}, "episodes_per_run": 1},
        {"variants": []},
        {"budgets": {"bA": {**BUDGET, "seeds": [0, 2**127]}}},
        {"budgets": {"bA": BUDGET, "\ud800": BUDGET}},
        {"output_dir": "out\ud800"},
        {"budgets": {"bA": BUDGET, "b\x00A": BUDGET}},
        {"output_dir": "out\x00x"},
        *({"budgets": {"bA": BUDGET, f"b{c}A": BUDGET}} for c in "\r\n\t\u2028"),
        # eval would allocate bA's (3, 2, 10**9, 5, 2) float64 noise block per round (447 GiB)
        {"cem": {"population": 10**9}},
    ],
    ids=["duplicate_variants", "single_paired_unit", "no_variants",
         "budget_seed_out_of_range", "budget_name_not_utf8", "output_dir_not_utf8",
         "budget_name_nul", "output_dir_nul", "budget_name_cr", "budget_name_lf",
         "budget_name_tab", "budget_name_u2028", "noise_block_over_1_gib"],
)
def test_bad_config_fails_before_any_artifact(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    # a case's own output_dir cannot name a directory, so none of that name can appear
    cfg_path.write_text(json.dumps({**TINY, "output_dir": str(tmp_path / "out"), **bad}))
    assert main(["all", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_oversized_image_side_fails_before_gen_data(tmp_path, capsys):
    # its observation table would be 3000**4 float32 values (295 TiB), which train
    # would try to allocate; the config check refuses it before any stage runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY, "env": {"image_side": 3000},
                                    "output_dir": str(tmp_path / "out")}))
    assert main(["all", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: config field env: image_side must be <= 128, got 3000\n", err
    assert not (tmp_path / "out" / "dataset").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"episodes_per_run": 10, "episodes_per_run": 3, '
         '"train": {"epochs": 5}, "train": {"batch_size": 8}}', "episodes_per_run"),
        ('{"train": {"epochs": 5, "epochs": 6}}', "epochs"),
    ],
    ids=["top_level", "nested"],
)
def test_repeated_config_key_fails_before_any_artifact(tmp_path, capsys, text, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["all", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"repeated key {key!r}" in err, err
    assert not (tmp_path / "out").exists()


def test_config_validation_field_paths():
    with pytest.raises(ValidationError, match="env"):
        config_from_dict({"env": {"wall_x": 2.0}})
    with pytest.raises(ValidationError, match="variants"):
        config_from_dict({"variants": ["nonsense"]})
    with pytest.raises(ValidationError, match="budgets.bA"):
        config_from_dict({"budgets": {"bA": {"goal_h": 0, "opt_steps": 1, "max_iter": 1, "seeds": [0]}}})
    with pytest.raises(ValidationError, match="unknown field"):
        config_from_dict({"bogus": 1})


def test_variants_keywords():
    assert len(config_from_dict({"variants": "core"}).variants) == 13
    assert len(config_from_dict({"variants": "all"}).variants) == 16


def test_load_config_errors(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    for text, message in (
        (b"{not json", "not valid JSON"),
        (b'{"master_seed": 1, "output_dir": "\xff"}', "not UTF-8"),
        (b"[" * 100_000, "not valid JSON"),  # nested past the decoder's recursion limit
        (b'{"master_seed": ' + b"1" * 5000 + b"}", "not valid JSON"),  # past int digit limit
        (b"[]", "not a JSON object"),
    ):
        bad.write_bytes(text)
        with pytest.raises(ValidationError, match=f"{re.escape(str(bad))}.*{message}"):
            load_config(bad)


def test_stats_rejects_variant_missing_from_sizes(tmp_path):
    from quantplan.pipeline import STATS_FILES

    def cfg_with(variants):
        return config_from_dict({**TINY, "train": {"epochs": 2}, "variants": variants,
                                 "output_dir": str(tmp_path / "out")})

    for stage in ("gen-data", "train", "variants"):
        run_stage(cfg_with(["fp16", "uniform_int8"]), stage)
    run_stage(cfg_with(["fp16"]), "variants")  # sizes.json now lacks uniform_int8
    run_stage(cfg_with(["fp16", "uniform_int8"]), "eval")
    with pytest.raises(StageError, match="'uniform_int8' is missing from .*sizes.json; "
                                         "run the 'variants' stage first"):
        run_stage(cfg_with(["fp16", "uniform_int8"]), "stats")
    assert not any((tmp_path / "out" / name).exists() for name in STATS_FILES)


def test_eval_quantizes_the_model_it_loads(tmp_path):
    def cfg_with(epochs, name):
        return config_from_dict({**TINY, "train": {"epochs": epochs},
                                 "variants": ["fp16", "uniform_int4"],
                                 "output_dir": str(tmp_path / name)})

    for stage in ("gen-data", "train", "variants"):
        run_stage(cfg_with(2, "out"), stage)
    run_stage(cfg_with(3, "out"), "train")  # a new model/; the variants stage is not rerun
    run_stage(cfg_with(3, "out"), "eval")
    for stage in ("gen-data", "train", "variants", "eval"):
        run_stage(cfg_with(3, "fresh"), stage)
    episodes = (tmp_path / "out" / "episodes.csv").read_bytes()
    fp16 = [r for r in read_episodes_csv(tmp_path / "out" / "episodes.csv")
            if r.variant_name == "fp16"]
    assert fp16 and all(r.visual_embedding_divergence == 0.0 for r in fp16)
    assert episodes == (tmp_path / "fresh" / "episodes.csv").read_bytes()


@pytest.mark.parametrize(
    "name", ["b\rA", "b\nA", "b\r\nA", "b\x85A", "b\u2028A", "b\u2029A", "b\tA"]
)
def test_config_rejects_line_breaking_names(name):
    # str.splitlines() breaks a line at each of these but tab, which CSV and SVG text mangle
    message = f"is not valid text: {re.escape(repr(name[1]))} is not printable"
    with pytest.raises(ValidationError, match=f"budgets: name {re.escape(repr(name))} {message}"):
        config_from_dict({"budgets": {name: BUDGET}})
    with pytest.raises(ValidationError, match=f"output_dir: {re.escape(repr(name))} {message}"):
        config_from_dict({"output_dir": name})


@settings(max_examples=200, deadline=None)
@given(name=st.text(min_size=1, max_size=6))
@example(name='b,"A')
def test_accepted_budget_names_read_back_from_csv_files(tmp_path_factory, name):
    try:
        config_from_dict({"budgets": {name: BUDGET}})
    except ValidationError:
        return
    records = [EpisodeRecord("fp16", name, 0, i, 1, 0.5, 4, 1, 0.02, 0.0) for i in range(2)]
    path = tmp_path_factory.mktemp("csv") / "episodes.csv"
    write_episodes_csv(records, path)
    assert read_episodes_csv(path) == records
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + len(records)
    point = {"variant_name": "fp16", "budget": name, "success": 0.5, "size_bytes": 1000}
    table = main_table_csv({"frontier": [point]})
    assert len(table.splitlines()) == 2
    assert next(csv.reader(io.StringIO(table, newline=""))) == ["variant", f"success_{name}",
                                                                  "size_mb"]


def test_report_is_utf8_under_an_ascii_locale(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import quantplan

    budget = {"goal_h": 3, "opt_steps": 1, "max_iter": 1, "seeds": [0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        **TINY, "dataset": {"n_traj": 20, "traj_len": 6}, "train": {"epochs": 2},
        "budgets": {"caf\xe9": budget, "bB": budget}, "episodes_per_run": 2,
        "variants": ["uniform_int4", "mixed_int4"], "output_dir": str(tmp_path / "out"),
    }))
    src = str(Path(quantplan.__file__).parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-m", "quantplan.cli", "all", "--config", str(cfg_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    for name in REPORT_OUTPUTS:
        text = (tmp_path / "out" / name).read_bytes().decode("utf-8")
        # the scatter plots unlabelled run points
        assert ("caf\xe9" in text) == (name != "divergence_scatter.svg"), name


def test_memory_error_prints_one_error_line(monkeypatch, capsys):
    # a stage's failed allocation is reported like any other failure; no real
    # allocation is attempted, whether the OS would refuse one depends on the machine
    def refuse(cfg, stage):
        raise MemoryError("Unable to allocate 589. TiB for an array")

    monkeypatch.setattr("quantplan.cli.run_stage", refuse)
    assert main(["train"]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 589. TiB for an array\n"


def test_train_names_tensor_missing_from_dataset(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    dataset = tmp_path / "out" / "dataset"
    m = load_model(dataset)
    m.tensors = [t for t in m.tensors if t.name != "dataset.next_pixel"]
    persist_model(m, dataset)
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "'dataset.next_pixel'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model").exists()


def _edit_tensor(name, change):
    def edit(m):
        t = m.tensor(f"dataset.{name}")
        t.data = np.asarray(change(t.data), dtype=np.float32)
    return edit


def _set_row(a, i, value):
    a = a.copy()
    a[i] = value
    return a


BAD_DATASETS = {
    "state_one_row_short": (_edit_tensor("state", lambda a: a[:-1]), "'dataset.state'"),
    "pixel_one_row_long": (_edit_tensor("pixel", lambda a: np.append(a, 0)), "'dataset.action'"),
    "action_width_1": (_edit_tensor("action", lambda a: a[:, :1]), "'dataset.action'"),
    "state_width_3": (_edit_tensor("state", lambda a: np.hstack([a, a[:, :1]])), "'dataset.state'"),
    "pixel_not_integral": (_edit_tensor("pixel", lambda a: _set_row(a, 3, 7.5)), "'dataset.pixel'"),
    "pixel_nan": (_edit_tensor("pixel", lambda a: _set_row(a, 3, np.nan)), "'dataset.pixel'"),
    "next_pixel_negative": (
        _edit_tensor("next_pixel", lambda a: _set_row(a, 0, -1)), "'dataset.next_pixel'"),
    "next_pixel_past_table": (
        _edit_tensor("next_pixel", lambda a: _set_row(a, 5, 256)), "'dataset.next_pixel'"),
    "other_env": (lambda m: m.extras["env"].update(wall_x=0.4), "env"),
    "no_env": (lambda m: m.extras.pop("env"), "env"),
}


@pytest.mark.parametrize("stage, output", [("variants", "sizes.json"), ("eval", "episodes.csv")])
def test_checkpoint_with_a_fifth_encoder_layer_fails_before_any_output(tmp_path, capsys, stage,
                                                                      output):
    cfg_path = write_tiny_config(tmp_path)
    for prior in ("gen-data", "train"):
        assert main([prior, "--config", str(cfg_path)]) == 0
    model = tmp_path / "out" / "model"
    m = load_model(model)
    m.tensors += [TensorRecord("encoder.4.weight", np.eye(16)),
                  TensorRecord("encoder.4.bias", np.zeros(16))]
    persist_model(m, model)
    assert main([stage, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown tensor 'encoder.4.weight'" in err, err
    assert not (tmp_path / "out" / output).exists()


@pytest.mark.parametrize("fault", BAD_DATASETS)
def test_bad_dataset_fails_train_before_any_model(tmp_path, capsys, fault):
    edit, named = BAD_DATASETS[fault]
    cfg_path = write_tiny_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    dataset = tmp_path / "out" / "dataset"
    m = load_model(dataset)
    edit(m)
    persist_model(m, dataset)
    assert main(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert not (tmp_path / "out" / "model").exists()


def test_stage_ordering_errors(tmp_path):
    cfg = tiny_cfg(tmp_path)
    for stage, message in (
        ("train", "gen-data"), ("stats", "eval"), ("report", "stats"), ("fit", "unknown stage")
    ):
        with pytest.raises(StageError, match=message):
            run_stage(cfg, stage)
        # a failed stage leaves no side effect, not even an empty output directory
        assert not (tmp_path / "out").exists(), stage


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = tiny_cfg(tmp)
    run_stage(cfg, "all")
    return cfg


def test_pipeline_artifacts(pipeline_out):
    from pathlib import Path

    out = Path(pipeline_out.output_dir)
    for name in (
        "dataset/manifest.json", "model/manifest.json", "sizes.json", "episodes.csv",
        "comparisons.json", "matchups.json", "bins.json", "frontier.json",
        "correlations.json", "main_table.csv", "frontier.svg", "forest.svg",
        "retention_curve.svg", "difficulty.svg", "divergence_scatter.svg", "run_meta.json",
    ):
        assert (out / name).exists(), name
    lines = (out / "episodes.csv").read_text().splitlines()
    n_expected = len(TINY["variants"]) * 2 * 1 * TINY["episodes_per_run"]
    assert len(lines) == 1 + n_expected
    assert not (out / "variants").exists()  # eval builds each variant from model/


def test_malformed_stage_json_names_file_and_stage(pipeline_out, tmp_path):
    import dataclasses
    import shutil
    from pathlib import Path

    from quantplan.pipeline import STATS_FILES

    # what each stage writes, which its failure must leave absent
    written = {"stats": (*STATS_FILES, *REPORT_OUTPUTS), "report": REPORT_OUTPUTS}

    def broken_copy(name, text, outputs):
        out = tmp_path / name.replace(".", "_")
        shutil.copytree(pipeline_out.output_dir, out)
        for artifact in outputs:
            (out / artifact).unlink()
        (out / name).write_text(text)
        return dataclasses.replace(pipeline_out, output_dir=str(out)), out

    def edited(name, key, edit):
        payload = json.loads((Path(pipeline_out.output_dir) / name).read_text())
        edit(payload[key][-1])
        return json.dumps(payload)

    sizes = json.loads((Path(pipeline_out.output_dir) / "sizes.json").read_text())
    no_size = json.loads(json.dumps(sizes))
    del no_size["sizes"]["fp16"]["size_bytes"]
    correlations = json.loads((Path(pipeline_out.output_dir) / "correlations.json").read_text())
    rho = "spearman_success_vs_visual_embedding_divergence"
    cases = [
        ("sizes.json", json.dumps({"config_hash": sizes["config_hash"]}), "stats",
         r"sizes.json has no JSON dict 'sizes'; rerun the 'variants' stage"),
        ("sizes.json", json.dumps(no_size), "stats",
         r"size_bytes of variant 'fp16' is missing from .*sizes.json; run the 'variants' stage"),
        ("sizes.json", "{not json", "stats", r"sizes.json .*rerun the 'variants' stage"),
        ("frontier.json", "{not json", "report", r"frontier.json .*rerun the 'stats' stage"),
        ("bins.json", "[]", "report", r"bins.json .*rerun the 'stats' stage"),
        # entries the report would fail on after writing its first outputs
        ("bins.json", edited("bins.json", "bins", lambda e: e.pop("variant")), "report",
         r"bins.json has a 'bins' entry without the 'variant' .*rerun the 'stats' stage"),
        ("frontier.json", edited("frontier.json", "frontier", lambda e: e.pop("success")),
         "report", r"frontier.json has a 'frontier' entry without the 'success' .*'stats' stage"),
        ("frontier.json", edited("frontier.json", "frontier", lambda e: e.update(size_bytes="1")),
         "report", r"frontier.json has a 'frontier' entry without the 'size_bytes' "),
        ("frontier.json", json.dumps({"frontier": [1]}), "report",
         r"frontier.json has a 'frontier' entry without the 'variant_name' "),
        ("frontier.json", json.dumps({"frontier": []}), "report",
         r"frontier.json has an empty 'frontier' list; rerun the 'stats' stage"),
        ("correlations.json", json.dumps({**correlations, rho: "0.5"}), "report",
         rf"correlations.json has a '{rho}' that is neither a number nor null; rerun the 'stats'"),
        # JSON true and NaN are not numbers: main_table.csv would print 1.0000 and nan
        ("frontier.json", edited("frontier.json", "frontier", lambda e: e.update(success=True)),
         "report", r"frontier.json has a 'frontier' entry without the 'success' "),
        ("frontier.json", edited("frontier.json", "frontier",
                                 lambda e: e.update(success=float("nan"))),
         "report", r"frontier.json has a 'frontier' entry without the 'success' "),
        ("correlations.json", json.dumps({**correlations, rho: True}), "report",
         rf"correlations.json has a '{rho}' that is neither a number nor null"),
        ("correlations.json", json.dumps({**correlations, rho: float("nan")}), "report",
         rf"correlations.json has a '{rho}' that is neither a number nor null"),
    ]
    for name, text, stage, message in cases:
        cfg, out = broken_copy(name, text, written[stage])
        with pytest.raises(StageError, match=message):
            run_stage(cfg, stage)
        assert not any((out / artifact).exists() for artifact in written[stage])
        shutil.rmtree(out)


def test_stats_rejects_unpaired_episodes(pipeline_out, tmp_path):
    import dataclasses
    import shutil
    from pathlib import Path

    from quantplan.pipeline import STATS_FILES

    lines = (Path(pipeline_out.output_dir) / "episodes.csv").read_text().splitlines(True)
    fp16 = [i for i, line in enumerate(lines) if line.startswith("fp16,")]
    cases = {
        "dropped": (lines[: fp16[1]] + lines[fp16[1] + 1 :], "'fp16', 'bA'"),
        "duplicated": (lines + [lines[fp16[1]]], "'fp16', 'bA'"),
        "empty": (lines[:1], "no episode records"),
    }
    for case, (kept, message) in cases.items():
        out = tmp_path / case
        shutil.copytree(pipeline_out.output_dir, out)
        for name in STATS_FILES:
            (out / name).unlink()
        (out / "episodes.csv").write_text("".join(kept))
        with pytest.raises(ValidationError, match=message):
            run_stage(dataclasses.replace(pipeline_out, output_dir=str(out)), "stats")
        assert not any((out / name).exists() for name in STATS_FILES)


def test_artifacts_record_config_hash(pipeline_out):
    from pathlib import Path

    out = Path(pipeline_out.output_dir)
    h = pipeline_out.config_hash()
    for name in ("sizes.json", "comparisons.json", "run_meta.json"):
        assert json.loads((out / name).read_text())["config_hash"] == h
    assert h in (out / "frontier.svg").read_text()


def test_report_takes_the_config_hash_alone(pipeline_out, tmp_path):
    from pathlib import Path

    from quantplan.report import STATS_FILES, emit_report

    out = Path(pipeline_out.output_dir)
    artifacts = {name: json.loads((out / name).read_text()) for name in STATS_FILES}
    emit_report(artifacts, tmp_path, "0123abcd")
    for name in REPORT_OUTPUTS:
        if name.endswith(".svg"):
            assert "<!-- config_hash: 0123abcd -->" in (tmp_path / name).read_text(), name


def test_frontier_sizes_are_sizes_json(pipeline_out):
    from pathlib import Path

    out = Path(pipeline_out.output_dir)
    sizes = json.loads((out / "sizes.json").read_text())["sizes"]
    frontier = json.loads((out / "frontier.json").read_text())["frontier"]
    assert len(frontier) == len(TINY["variants"]) * len(TINY["budgets"])
    for point in frontier:
        assert point["size_bytes"] == sizes[point["variant_name"]]["size_bytes"]


def test_frontier_star_count(pipeline_out):
    from pathlib import Path

    out = Path(pipeline_out.output_dir)
    frontier = json.loads((out / "frontier.json").read_text())["frontier"]
    n_stars = (out / "frontier.svg").read_text().count('class="star"')
    assert n_stars == sum(1 for p in frontier if p["non_dominated"])


def test_forest_whiskers_match_comparisons(pipeline_out):
    from pathlib import Path

    out = Path(pipeline_out.output_dir)
    comps = json.loads((out / "comparisons.json").read_text())["comparisons"]
    svg = (out / "forest.svg").read_text()
    labels = re.findall(r">([^<]*\[[^<]*\][^<]*)</text>", svg)
    assert len(labels) == len(comps)
    for c, label in zip(comps, labels):
        m = re.search(r"([+-]\d+\.\d{3}) \[(-?\d+\.\d{3}), (-?\d+\.\d{3})\]", label)
        assert m, label
        assert float(m.group(2)) == round(c["ci_low"], 3)
        assert float(m.group(3)) == round(c["ci_high"], 3)


def test_report_svgs_parse_with_markup_in_budget_name(tmp_path):
    from xml.dom import minidom

    budget = {"goal_h": 3, "opt_steps": 1, "max_iter": 1, "seeds": [0]}
    cfg = config_from_dict({
        **TINY, "dataset": {"n_traj": 20, "traj_len": 6}, "train": {"epochs": 2},
        "budgets": {"b&<A>": budget, "bB": budget}, "episodes_per_run": 2,
        "variants": ["uniform_int4", "mixed_int4"], "output_dir": str(tmp_path / "out"),
    })
    run_stage(cfg, "all")
    svgs = sorted((tmp_path / "out").glob("*.svg"))
    assert len(svgs) == 5
    for svg in svgs:
        minidom.parse(str(svg))
    assert ">b&amp;&lt;A&gt;</text>" in (tmp_path / "out" / "retention_curve.svg").read_text()


def test_main_table_rows(pipeline_out):
    from pathlib import Path

    out = Path(pipeline_out.output_dir)
    lines = (out / "main_table.csv").read_text().splitlines()
    assert lines[0].startswith("variant,success_bA,success_bB")
    assert len(lines) == 1 + len(TINY["variants"])


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    assert main(["all", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "episodes.csv").exists()


def test_cli_output_override(tmp_path):
    cfg_path = write_tiny_config(tmp_path)
    alt = tmp_path / "alt"
    assert main(["gen-data", "--config", str(cfg_path), "--output", str(alt)]) == 0
    assert (alt / "dataset" / "manifest.json").exists()


def test_cli_output_override_is_checked(tmp_path, capsys):
    # --output passes the same output_dir check as a config file's output_dir
    assert main(["gen-data", "--output", str(tmp_path / "a\x01b")]) == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_empty_output_override_is_checked(tmp_path, monkeypatch, capsys):
    # an empty --output is an override like any other, and fails the output_dir check
    cfg_path = write_tiny_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["gen-data", "--config", str(cfg_path), "--output", ""]) == 1
    assert "output_dir must not be empty" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_errors(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    assert main(["stats", "--config", str(cfg_path), "--output", str(tmp_path / "empty")]) == 1
    err = capsys.readouterr().err
    assert "eval" in err
    assert main([]) == 2
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 1
    latin1 = '{"output_dir": "%s", "variants": "caf\xe9"}' % (tmp_path / "out")
    (tmp_path / "latin1.json").write_bytes(latin1.encode("latin-1"))
    assert main(["all", "--config", str(tmp_path / "latin1.json")]) == 1
    assert "error:" in capsys.readouterr().err and not (tmp_path / "out").exists()


def test_cli_reports_a_diverged_training_run(tmp_path, capsys):
    # the run's one batch has a finite loss; its final full-dataset loss is not
    data = {"train": {"epochs": 1, "learning_rate": 1e30}, "dataset": {"n_traj": 5},
            "variants": ["fp16"], "output_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["all", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite final training loss"), err
    assert not (tmp_path / "out" / "model").exists()


def test_cli_reports_a_diverged_training_run_in_one_line(tmp_path, capsys):
    # no errstate here: main keeps the run's overflows from printing numpy warnings,
    # which this suite's filterwarnings would turn into errors
    data = {"train": {"epochs": 1, "learning_rate": 1e30}, "dataset": {"n_traj": 5},
            "variants": ["fp16"], "output_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["all", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite final training loss") and err.count("\n") == 1, err


def test_default_stages_train_the_conftest_model(tmp_path, trained_model):
    # the acceptance criteria evaluate the conftest model, from an in-memory float64
    # dataset; the default run trains on its float32 dataset/ reload, to the same bytes
    cfg = ExperimentConfig(output_dir=str(tmp_path / "out"))
    run_stage(cfg, "gen-data")
    run_stage(cfg, "train")
    persist_model(trained_model.to_model(), tmp_path / "conftest")
    weights = [(tmp_path / d / "weights.bin").read_bytes() for d in ("out/model", "conftest")]
    assert weights[0] == weights[1]


def test_cli_reports_an_unwritable_output_dir(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["gen-data", "--output", str(tmp_path / "file" / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: failed to persist model"), err
