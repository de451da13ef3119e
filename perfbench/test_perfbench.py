"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

Kept out of the repository's tier-1 suite, which collects tests/ only.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
from hostref import PROBES, HostClock, nominal_seconds
from tracer import TARGETS, Target, Tracer, instrument
from workloads import ROOT, STAGES, Workload, load_quantplan

load_quantplan()

TINY = Workload(
    "tiny",  # 2 variants, 1 seed, 2 episodes, 2 epochs
    {
        "variants": ["mixed_int4", "uniform_int4"],
        "budgets": {"bA": {"goal_h": 9, "opt_steps": 2, "max_iter": 2, "seeds": [0]}},
        "episodes_per_run": 2,
        "train": {"epochs": 2},
        "dataset": {"n_traj": 20},
    },
    ("gen-data",),
    STAGES[1:],
)


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 5] and c [6, 9]; b holds c [2, 4]
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("c"):
            pass
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert summary["b"] == {"calls": 1, "s": 4.0, "self_s": 2.0}
    assert summary["c"] == {"calls": 2, "s": 5.0, "self_s": 5.0}
    assert list(tracer.parent) == [-1, 0, 1, 0]


def test_nominal_seconds_scales_each_stretch_by_its_own_probes():
    # planner probes 2x and 1x nominal around 1 s, trainer probes 1x around 2 s
    p, t = PROBES["planner"][1], PROBES["trainer"][1]
    stretches = [("planner", 1.0, 2 * p, p), ("trainer", 2.0, t, t)]
    assert nominal_seconds(stretches) == pytest.approx(1.0 / 1.5 + 2.0)


def test_host_clock_leaves_probes_out_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    w0 = time.perf_counter()
    with HostClock(tick_s=0.01) as clock:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        clock.stage("train")
    wall = time.perf_counter() - w0
    kinds = [kind for kind, _, _, _ in clock.stretches]
    assert kinds[0] == "planner" and kinds[-1] == "trainer" and len(kinds) > 3
    assert clock.raw_s + clock.probe_total_s == pytest.approx(wall, abs=0.002)
    assert clock.raw_s < 0.1 < wall  # the probes inside the 0.1 s loop are left out
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_instrument_rebinds_import_sites_and_restores():
    import quantplan.env as env
    import quantplan.planner as planner
    from quantplan.nn import WorldModel

    render, encode = env.render, WorldModel.encode
    missing = Target("planner.no_such_function", "quantplan.planner", "no_such_function")
    tracer = Tracer()
    with instrument(tracer, TARGETS + (missing,)) as absent:
        assert absent == ["planner.no_such_function"]
        assert planner.render is env.render is not render
        assert planner.render.__wrapped__ is render
        assert WorldModel.encode is not encode
    assert planner.render is env.render is render
    assert WorldModel.encode is encode


EXACT_UNITS = ("count", "flop", "B", "rows/call", "ratio", "loss")


def test_every_declared_metric_prints_with_its_unit(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = run.bench(TINY, seed=0, seconds=1, trace=True)
    assert out["failed"] == 0, out["errors"]
    again = run.bench(TINY, seed=0, seconds=1, trace=True)
    assert again["hashes"] == out["hashes"]
    for name, (value, _, unit) in out["metrics"].items():
        if unit in EXACT_UNITS and name != "peak_rss_mb":
            assert again["metrics"][name][0] == value, name
    run.print_report({"workload": TINY.name}, out)
    table = capsys.readouterr().out
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.result_line(out, trace)
        assert result["correct"]
        for d in spec[kind]:
            assert result["metrics"][d["name"]]["unit"] == d["unit"], d["name"]
            assert any(line.split()[0] == d["name"] and line.split()[2] == d["unit"]
                       for line in table.splitlines() if line.strip()), d["name"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
