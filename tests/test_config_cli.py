import json
import re

import pytest

from quantplan import ValidationError
from quantplan.cli import main
from quantplan.config import ExperimentConfig, config_from_dict, load_config
from quantplan.errors import StageError
from quantplan.pipeline import run_stage

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
    ],
)
def test_config_rejects_bad_values(data, message):
    with pytest.raises(ValidationError, match=message):
        config_from_dict(data)


def test_duplicate_variants_fail_before_any_artifact(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY, "variants": ["fp16", "fp16"],
                                    "output_dir": str(tmp_path / "out")}))
    assert main(["all", "--config", str(cfg_path)]) == 1
    assert not (tmp_path / "out").exists()


def test_single_paired_unit_fails_before_any_artifact(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY, "budgets": {"bA": BUDGET}, "episodes_per_run": 1,
                                    "output_dir": str(tmp_path / "out")}))
    assert main(["all", "--config", str(cfg_path)]) == 1
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
    bad.write_text("{not json")
    with pytest.raises(ValidationError, match="JSON"):
        load_config(bad)


def test_eval_rejects_variant_missing_from_sizes(tmp_path):
    def cfg_with(variants):
        return config_from_dict({**TINY, "train": {"epochs": 2}, "variants": variants,
                                 "output_dir": str(tmp_path / "out")})

    for stage in ("gen-data", "train", "variants"):
        run_stage(cfg_with(["fp16", "uniform_int8"]), stage)
    run_stage(cfg_with(["fp16"]), "variants")  # leaves variants/uniform_int8 behind
    with pytest.raises(StageError, match="'uniform_int8' is missing from .*sizes.json; "
                                         "run the 'variants' stage first"):
        run_stage(cfg_with(["fp16", "uniform_int8"]), "eval")
    assert not (tmp_path / "out" / "episodes.csv").exists()


def test_stage_ordering_errors(tmp_path):
    cfg = tiny_cfg(tmp_path)
    with pytest.raises(StageError, match="gen-data"):
        run_stage(cfg, "train")
    with pytest.raises(StageError, match="eval"):
        run_stage(cfg, "stats")
    with pytest.raises(StageError, match="stats"):
        run_stage(cfg, "report")
    with pytest.raises(StageError, match="unknown stage"):
        run_stage(cfg, "fit")


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
    for v in TINY["variants"]:
        assert (out / "variants" / v / "weights.bin").exists()


def test_malformed_stage_json_names_file_and_stage(pipeline_out, tmp_path):
    import dataclasses
    import shutil
    from pathlib import Path

    def broken_copy(name, text):
        out = tmp_path / name.replace(".", "_")
        shutil.copytree(pipeline_out.output_dir, out)
        for artifact in ("episodes.csv", "main_table.csv"):
            (out / artifact).unlink()
        (out / name).write_text(text)
        return dataclasses.replace(pipeline_out, output_dir=str(out)), out

    sizes = json.loads((Path(pipeline_out.output_dir) / "sizes.json").read_text())
    no_size = json.loads(json.dumps(sizes))
    del no_size["sizes"]["fp16"]["size_bytes"]
    cases = [
        ("sizes.json", json.dumps({"config_hash": sizes["config_hash"]}), "eval",
         r"sizes.json has no JSON dict 'sizes'; rerun the 'variants' stage"),
        ("sizes.json", json.dumps(no_size), "eval",
         r"size_bytes of variant 'fp16' is missing from .*sizes.json; run the 'variants' stage"),
        ("sizes.json", "{not json", "eval", r"sizes.json .*rerun the 'variants' stage"),
        ("frontier.json", "{not json", "report", r"frontier.json .*rerun the 'stats' stage"),
        ("bins.json", "[]", "report", r"bins.json .*rerun the 'stats' stage"),
    ]
    for name, text, stage, message in cases:
        cfg, out = broken_copy(name, text)
        with pytest.raises(StageError, match=message):
            run_stage(cfg, stage)
        assert not (out / "episodes.csv").exists() and not (out / "main_table.csv").exists()
        shutil.rmtree(out)


def test_artifacts_record_config_hash(pipeline_out):
    from pathlib import Path

    out = Path(pipeline_out.output_dir)
    h = pipeline_out.config_hash()
    for name in ("sizes.json", "comparisons.json", "run_meta.json"):
        assert json.loads((out / name).read_text())["config_hash"] == h
    assert h in (out / "frontier.svg").read_text()


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


def test_cli_errors(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path)
    assert main(["stats", "--config", str(cfg_path), "--output", str(tmp_path / "empty")]) == 1
    err = capsys.readouterr().err
    assert "eval" in err
    assert main([]) == 2
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 1
