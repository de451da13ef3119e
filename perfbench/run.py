"""quantplan benchmark.

    python3 perfbench/run.py --workload {study,eval-wide,train-long}
                             [--seed N] [--seconds S] [--trace 0|1]

One process, closed loop: each timed run starts when the previous one has
ended. Timed runs repeat, each in a fresh output directory under
.perfbench_run/, until the next one would end after --seconds. Between them
the workload is set up again in fresh interpreters (the median of those
setups gives setup_s). Timed runs and setups run under a HostClock
(hostref.py), and wall_s and setup_s are medians of its nominal seconds:
seconds at a fixed host speed. With --trace 1 one more run follows, with
every quantplan layer wrapped by the tracer; it repeats the setup stages
in-process so that they are traced too.

Prints an environment header, a table of every metric with its unit and
sample count, and as the last line a JSON object with the metrics that
BENCHMARK.json lists for the mode: end-to-end with --trace 0, per-layer with
--trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread (never more than nproc): the matrices are small, and a second
# thread adds run-to-run noise on a shared machine. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import checks
import envinfo
from hostref import HostClock, nominal_seconds
from tracer import TARGETS, Tracer, instrument
from workloads import (
    ROOT,
    SRC,
    STAGES,
    WORK_DIR,
    WORKLOADS,
    Workload,
    adam_steps,
    config_dict,
    load_quantplan,
    make_config,
)

DEFAULT_SEED = 0
MIN_RUNS = 2
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 15
SETUP_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent
COUNT_UNITS = {"rows": "count", "computed_flops": "flop", "bytes": "B"}


@dataclass
class Run:
    wall_s: float = 0.0  # raw seconds, probes left out
    nominal_s: float = 0.0
    probe_s: float = 0.0  # median pass of the planner probe
    stage_s: dict[str, float] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    error: str | None = None


def setup_once(workload: Workload, seed: int, out: Path) -> Run:
    """Run the setup stages into `out` in a fresh interpreter, timed from outside."""
    out.mkdir()
    cmd = [sys.executable, str(HERE / "setup_child.py"),
           json.dumps(config_dict(workload, seed, out)), ",".join(workload.setup)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"perfbench: setup of {workload.name} failed:\n{done.stderr}")
    child = json.loads(done.stdout.splitlines()[-1])
    # interpreter start, the numpy import and exit ran outside the child's clock;
    # they are scaled by its first probe, taken right after them
    unclocked_s = elapsed - child["probe_total_s"] - child["raw_s"]
    first = child["first_probe_s"]
    nominal_s = child["nominal_s"] + nominal_seconds([("planner", unclocked_s, first, first)])
    hashes = {
        rel: checks.sha256(out / rel)
        for rel in ("dataset/weights.bin", "model/weights.bin")
        if (out / rel).is_file()
    }
    return Run(wall_s=elapsed - child["probe_total_s"], nominal_s=nominal_s,
               stage_s=child["stage_s"], hashes=hashes)


def more_setups(setups: list[Run], share: float) -> bool:
    """Whether to set up again, `share` of the timed window being spent.

    Setup repeats are spread over the window instead of run back to back,
    because the host's speed drifts over seconds: in total at least
    SETUP_MIN_REPEATS repeats and SETUP_MIN_S seconds, at most SETUP_MAX_REPEATS.
    """
    spent = sum(r.wall_s for r in setups)
    if len(setups) >= SETUP_MAX_REPEATS:
        return False
    if share >= 1.0:
        return len(setups) < SETUP_MIN_REPEATS or spent < SETUP_MIN_S
    return spent < share * SETUP_MIN_S


def run_once(workload: Workload, seed: int, out: Path, tracer, base: Path | None,
             clock: HostClock | None = None) -> Run:
    """One run in the fresh directory `out`.

    It starts from a copy of `base`, or, when `base` is None, runs the setup
    stages itself first. Stage boundaries are always recorded as spans. With a
    `clock`, the stages run under it, and the tracer should read `clock.now`.
    """
    from quantplan.pipeline import run_stage

    run = Run()
    phases = [("run", workload.timed)]
    try:
        if base is None:
            out.mkdir()
            phases.insert(0, ("setup", workload.setup))
        else:
            shutil.copytree(base, out)
        cfg = make_config(workload, seed, out)
        with clock or nullcontext():
            for phase, stages in phases:
                with tracer.span(phase):
                    for stage in stages:
                        if clock is not None:
                            clock.stage(stage)
                        with tracer.span(f"pipeline.stage.{stage}"):
                            run_stage(cfg, stage)
        run.hashes, run.values = checks.check_run(out, cfg, workload.timed)
    except Exception:  # a failed run is counted and reported, and the loop goes on
        run.error = traceback.format_exc()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    summary = tracer.summary()
    run.wall_s = summary.get("run", {}).get("s", 0.0)
    if clock is not None and clock.stretches:
        run.nominal_s = clock.nominal_s
        run.probe_s = statistics.median(b for kind, _, b, _ in clock.stretches if kind == "planner")
    run.stage_s = {
        s: summary[f"pipeline.stage.{s}"]["s"]
        for s in STAGES
        if f"pipeline.stage.{s}" in summary
    }
    return run


def measure(workload: Workload, seed: int, seconds: float, workdir: Path):
    """Setup repeats and closed-loop timed runs; returns (setups, runs).

    The first setup's directory is the input of every timed run. Timed runs
    repeat, at least MIN_RUNS times, until the next one would end after
    `seconds` of timed work; setup repeats are interleaved between them.
    """
    base = workdir / "setup-0"
    setups = [setup_once(workload, seed, base)]
    runs: list[Run] = []
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        clock = HostClock()
        runs.append(run_once(workload, seed, workdir / f"run-{len(runs)}",
                             Tracer(clock=clock.now), base, clock))
        spent += time.perf_counter() - t0
        typical = statistics.median(r.wall_s for r in runs)
        last = len(runs) >= MIN_RUNS and spent + typical > seconds
        while more_setups(setups, 1.0 if last else min(1.0, spent / seconds)):
            out = workdir / f"setup-{len(setups)}"
            setups.append(setup_once(workload, seed, out))
            shutil.rmtree(out)
        if last:
            return setups, runs


def mark_hash_mismatches(runs: list[Run]) -> None:
    """Runs of one invocation must write byte-identical outputs."""
    ok = [r for r in runs if r.error is None]
    for r in ok[1:]:
        if r.hashes != ok[0].hashes:
            r.error = f"output sha256 {r.hashes} differs from the first run's {ok[0].hashes}"


def _median(values) -> tuple[float, int]:
    values = list(values)
    return (statistics.median(values), len(values)) if values else (None, 0)


def end_to_end(workload: Workload, cfg, setups: list[Run], runs: list[Run],
               peak_rss_mb: float) -> dict:
    """{name: (value, samples, unit)} for the end-to-end metrics of the untraced runs."""
    ok = [r for r in runs if r.error is None]
    all_runs = setups + runs
    failed = sum(r.error is not None for r in all_runs)
    m = {
        "setup_s": (*_median(r.nominal_s for r in setups), "s"),
        "wall_s": (*_median(r.nominal_s for r in ok), "s"),
        "setup_raw_s": (*_median(r.wall_s for r in setups), "s"),
        "wall_raw_s": (*_median(r.wall_s for r in ok), "s"),
        "host.probe_s": (*_median(r.probe_s for r in ok), "s"),
        "peak_rss_mb": (peak_rss_mb, 1, "MB"),
        "error_rate": (failed / len(all_runs), len(all_runs), "ratio"),
    }
    if "eval" in workload.timed:
        m["episodes_per_s"] = (
            *_median(r.values["n_records"] / r.stage_s["eval"] for r in ok), "1/s")
    if "train" in workload.timed:
        steps = adam_steps(cfg)
        m["train_steps_per_s"] = (*_median(steps / r.stage_s["train"] for r in ok), "1/s")
    for name in ("mean_success", "final_train_loss"):
        if ok and name in ok[0].values:
            m[name] = (ok[0].values[name], len(ok), "ratio" if name == "mean_success" else "loss")
    for stage in STAGES:
        source = setups if stage in workload.setup else ok
        value, n = _median(r.stage_s[stage] for r in source if stage in r.stage_s)
        m[f"pipeline.stage.{stage}.s"] = (value or 0.0, n, "s")
    return m


def per_layer(tracer, absent: list[str], traced: Run, untraced_wall_s: float) -> dict:
    """{name: (value, samples, unit)} for every traced layer; absent targets are left out."""
    summary = tracer.summary()
    m = {}
    for t in TARGETS:
        if t.name in absent:
            continue
        s = summary.get(t.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        counts = tracer.counters.get(t.name, {})
        m[f"{t.name}.calls"] = (s["calls"], 1, "count")
        m[f"{t.name}.s"] = (s["s"], 1, "s")
        m[f"{t.name}.self_s"] = (s["self_s"], 1, "s")
        for key in t.counts:
            m[f"{t.name}.{key}"] = (counts.get(key, 0), 1, COUNT_UNITS[key])
        if "rows" in t.counts:
            rows_per_call = counts.get("rows", 0) / s["calls"] if s["calls"] else 0.0
            m[f"{t.name}.rows_per_call"] = (rows_per_call, 1, "rows/call")
    m["trace.overhead_s"] = (traced.wall_s - untraced_wall_s, 1, "s")
    return m


def bench(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return every metric plus the run bookkeeping."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        setups, runs = measure(workload, seed, seconds, workdir)
        mark_hash_mismatches(setups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = traced = None
        if trace:
            tracer = Tracer()
            with instrument(tracer) as absent:
                traced = run_once(workload, seed, workdir / "traced", tracer, None)
            runs_checked = runs + [traced]
        else:
            absent, runs_checked = [], runs
        mark_hash_mismatches(runs_checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cfg = make_config(workload, seed, workdir)
    metrics = end_to_end(workload, cfg, setups, runs, peak_rss_mb)
    if trace:
        metrics.update(per_layer(tracer, absent, traced, metrics["wall_raw_s"][0] or 0.0))
    attempted = setups + runs_checked
    return {
        "metrics": metrics,
        "absent": absent,
        "attempted": len(attempted),
        "failed": sum(r.error is not None for r in attempted),
        "errors": [r.error for r in attempted if r.error is not None],
        "hashes": next((r.hashes for r in runs_checked if r.error is None), {}),
        "run_walls_s": [r.wall_s for r in runs],
        "setup_walls_s": [r.wall_s for r in setups],
        "tracer": tracer,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(out: dict, trace: bool) -> dict:
    """The final JSON line: the metrics BENCHMARK.json declares for this mode."""
    metrics, missing = {}, []
    declared = declared_metrics(trace)
    for d in declared:
        value, _, unit = out["metrics"].get(d["name"], (None, 0, None))
        if value is not None:
            metrics[d["name"]] = {"value": value, "unit": unit}
        elif not any(d["name"].startswith(name + ".") for name in out["absent"]):
            missing.append(d["name"])
    for name in missing:
        print(f"# missing metric: {name}", file=sys.stderr)
    correct = out["failed"] == 0 and not missing
    return {"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}


def print_report(header: dict, out: dict) -> None:
    for key, value in header.items():
        print(f"# {key}: {value}")
    for name, digest in sorted(out["hashes"].items()):
        print(f"# sha256 {name}: {digest}")
    for name in out["absent"]:
        print(f"# absent: {name} (no longer in quantplan)")
    for error in out["errors"]:
        print(f"# failed run:\n{error}", file=sys.stderr)
    print(f"{'metric':44} {'value':>18} {'unit':>10} {'n':>3}")
    for name, (value, n, unit) in sorted(out["metrics"].items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:44} {shown:>18} {unit:>10} {n:>3}")


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed, used as master_seed (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=_positive, default=30.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_quantplan()
    workload = WORKLOADS[args.workload]
    header = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **envinfo.collect(ROOT, SRC, BLAS_THREADS)}
    out = bench(workload, args.seed, args.seconds, bool(args.trace))
    header["timed_runs_s"] = [round(w, 4) for w in out["run_walls_s"]]
    header["setups_s"] = [round(w, 4) for w in out["setup_walls_s"]]
    print_report(header, out)
    result = result_line(out, bool(args.trace))

    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "env": header,
        "metrics": {n: {"value": v, "samples": k, "unit": u}
                    for n, (v, k, u) in out["metrics"].items()},
        "hashes": out["hashes"], "absent": out["absent"], "errors": out["errors"],
        "result": result,
    }, indent=1) + "\n")
    if out["tracer"] is not None:
        out["tracer"].write(results_dir / f"{stem}-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
