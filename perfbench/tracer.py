"""In-memory span tracer that wraps quantplan's public functions from outside.

A span is (name, start, end, parent). Spans are appended to flat arrays while
the traced run executes and summarised (or written out) once it ends. A span's
self time is its duration minus the time covered by its direct children; spans
are properly nested in one thread, so direct children never overlap.

`instrument` swaps each target for a timing wrapper at every place quantplan
looks it up: the defining module, every `quantplan.*` module that imported the
name, or the class for a method. It restores the originals on exit. A target
that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counters: dict[str, dict[str, int]] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(i)
        self.start[i] = self.clock()  # read last, so the bookkeeping stays outside the span
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(i)

    def count(self, name: str, **amounts: int) -> None:
        c = self.counters.setdefault(name, {})
        for key, n in amounts.items():
            c[key] = c.get(key, 0) + n

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        """`fn` recording one span per call; `counter(args)` returns amounts to add."""
        nid = self._id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.count(name, **counter(args))
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds `s` and `self_s`."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        covered = np.zeros_like(dur)
        child = sp["parent"] >= 0
        np.add.at(covered, sp["parent"][child], dur[child])
        self_dur = dur - covered
        calls = np.bincount(sp["name_id"], minlength=len(self.names))
        total = np.bincount(sp["name_id"], weights=dur, minlength=len(self.names))
        own = np.bincount(sp["name_id"], weights=self_dur, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


@dataclass(frozen=True)
class Target:
    """A function `attr` of `module` (or `Class.method`) traced as span `name`."""

    name: str
    module: str
    attr: str
    counter: Callable | None = None
    counts: tuple[str, ...] = ()  # keys `counter` returns, reported as 0 when never called


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _forward(flops_of: Callable) -> Callable:
    # args[0] is the WorldModel (self, or the first argument of loss_and_grads)
    # and args[1] the batch; FLOPs are computed as rows x Stack.flops(), not measured
    def counter(args):
        rows = _rows(args[1])
        return {"rows": rows, "computed_flops": rows * flops_of(args[0])}

    return counter


FORWARD = ("rows", "computed_flops")

TARGETS = (
    Target("planner.run_paired_eval", "quantplan.planner", "run_paired_eval"),
    Target("planner.run_episode", "quantplan.planner", "run_episode"),
    Target("planner.plan_actions", "quantplan.planner", "plan_actions"),
    Target("nn.encode", "quantplan.nn", "WorldModel.encode",
           _forward(lambda wm: wm.flops_per_encode()), FORWARD),
    Target("nn.predict_next", "quantplan.nn", "WorldModel.predict_next",
           _forward(lambda wm: wm.flops_per_predict()), FORWARD),
    Target("nn.probe_decode", "quantplan.nn", "WorldModel.probe_decode",
           _forward(lambda wm: wm.probe.flops()), FORWARD),
    Target("nn.train_world_model", "quantplan.nn", "train_world_model"),
    Target("nn.loss_and_grads", "quantplan.nn", "loss_and_grads",
           _forward(lambda wm: 2 * wm.flops_per_encode() + wm.flops_per_predict()
                    + wm.probe.flops()), FORWARD),
    Target("nn.fit_state_probe", "quantplan.nn", "fit_state_probe"),
    Target("env.gen_dataset", "quantplan.env", "gen_dataset"),
    Target("env.sample_episode_specs", "quantplan.env", "sample_episode_specs"),
    Target("env.render", "quantplan.env", "render"),
    Target("env.step", "quantplan.env", "step"),
    Target("quant.fake_quantize_tensor", "quantplan.quant", "fake_quantize_tensor"),
    Target("policies.apply_policy", "quantplan.policies", "apply_policy"),
    Target("store.persist_model", "quantplan.store", "persist_model",
           lambda args: {"bytes": sum(t.data.nbytes for t in args[0].tensors)}, ("bytes",)),
    Target("store.load_model", "quantplan.store", "load_model"),
    Target("stats.paired_delta_ci", "quantplan.stats", "paired_delta_ci"),
    Target("pipeline.compute_stats", "quantplan.pipeline", "compute_stats"),
    Target("report.emit_report", "quantplan.report", "emit_report"),
)


@contextmanager
def instrument(tracer: Tracer, targets=TARGETS):
    """Wrap every target where it is looked up; yields the names found absent."""
    restore: list[tuple[object, str, object]] = []
    absent: list[str] = []
    try:
        for t in targets:
            try:
                module = importlib.import_module(t.module)
            except ModuleNotFoundError:
                module = None
            owner_name, _, attr = t.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                absent.append(t.name)
                continue
            wrapped = tracer.wrap(t.name, original, t.counter)
            if owner_name:
                sites = [(owner, attr)]
            else:
                sites = [
                    (m, key)
                    for mod_name, m in list(sys.modules.items())
                    if mod_name == "quantplan" or mod_name.startswith("quantplan.")
                    for key, value in list(vars(m).items())
                    if value is original
                ]
            for obj, key in sites:
                restore.append((obj, key, original))
                setattr(obj, key, wrapped)
        yield absent
    finally:
        for obj, key, original in reversed(restore):
            setattr(obj, key, original)
