"""A clock that reads seconds at a fixed nominal host speed.

On a shared machine the same code runs at speeds up to 1.75x apart, and each
speed holds for seconds: another tenant's load on the same physical core slows
every instruction, so CPU time moves with wall time. `HostClock` cancels most
of that. While it runs, a SIGALRM every TICK_S interrupts the timed code between
two bytecodes and times one pass of a fixed numpy probe. Each stretch of timed
code between two probes is scaled by the probe's nominal time / the mean of
those two probes, and the probes themselves are left out of every reading.

How much a slow spell slows code depends on what the code does, so there are
two probes, and each stage is timed against the one it resembles:

- `planner`: 1-row matmuls with tanh, the per-call overhead that dominates
  the planner, the env and the pipeline's bookkeeping. In a slow spell it
  slowed 1.72x where quantplan's eval stage slowed 1.67x.
- `trainer`: forward, backward and Adam moments of a 256-64-64-64-16 MLP on
  64-row batches, the shape of the world-model trainer. It slowed 1.47x where
  the train stage slowed 1.45x (the planner probe would overcorrect it by 18%).

The probes never call quantplan, so a change to quantplan leaves them alone.
"""

from __future__ import annotations

import signal
import time

import numpy as np

TICK_S = 0.2

_gen = np.random.default_rng(0)
_W1 = _gen.standard_normal((64, 18))
_W2 = _gen.standard_normal((16, 64))
_X = _gen.standard_normal((64, 18))
_A = np.array([0.1, 0.2])
_BATCH = _gen.standard_normal((64, 256))
_MLP = [0.1 * _gen.standard_normal(shape) for shape in ((64, 256), (64, 64), (64, 64), (16, 64))]
_MOMENTS = [(np.zeros_like(W), np.zeros_like(W)) for W in _MLP]


def _planner_pass() -> None:
    z = np.zeros(16)
    for _ in range(450):
        z = np.tanh(np.tanh(np.concatenate([z, _A]) @ _W1.T) @ _W2.T)
    for _ in range(90):
        h = np.tanh(_X @ _W1.T)
        h.T @ _X
        h @ _W1


def _trainer_pass() -> None:
    for _ in range(6):
        acts = [_BATCH]
        for W in _MLP[:-1]:
            acts.append(np.tanh(acts[-1] @ W.T))
        g = acts[-1] @ _MLP[-1].T
        for i in range(len(_MLP) - 1, -1, -1):
            grad = g.T @ acts[i]
            g = g @ _MLP[i]
            if i:
                g = g * (1 - acts[i] * acts[i])
            m, v = _MOMENTS[i]
            m *= 0.9
            m += 0.1 * grad
            v *= 0.999
            v += 0.001 * grad * grad
            1e-3 * m / (np.sqrt(v) + 1e-8)


# probe kind -> (one pass, its seconds in the fast state of the 2-core Xeon VM
# the benchmark was tuned on); nominal seconds are seconds at that speed
PROBES = {"planner": (_planner_pass, 0.0035), "trainer": (_trainer_pass, 0.0024)}
STAGE_PROBES = {"train": "trainer"}  # every other stage is timed against "planner"


def probe_s(kind: str) -> float:
    """Seconds of one pass of the `kind` probe."""
    t0 = time.perf_counter()
    PROBES[kind][0]()
    return time.perf_counter() - t0


def nominal_seconds(stretches: list[tuple[str, float, float, float]]) -> float:
    """Sum over (kind, seconds, probe before, probe after) of the seconds,
    each scaled by the kind's nominal probe time / the mean of its two probes."""
    return sum(s * 2 * PROBES[kind][1] / (a + b) for kind, s, a, b in stretches)


class HostClock:
    """Context manager timing its block in raw and in nominal seconds.

    `now()` is perf_counter minus the probe time so far, so a tracer can use it
    as its clock. `stage(name)` times the code that follows against the probe
    that pipeline stage resembles. Only the main thread may enter it.
    """

    def __init__(self, tick_s: float = TICK_S):
        self.tick_s = tick_s
        self.stretches: list[tuple[str, float, float, float]] = []
        self.probe_total_s = 0.0
        self.kind = "planner"
        self._before = 0.0
        self._mark = 0.0
        self._old = None
        self._active = False
        self._busy = False  # a tick that lands inside stage() is skipped

    def now(self) -> float:
        return time.perf_counter() - self.probe_total_s

    def _probe(self, kind: str) -> float:
        t0 = time.perf_counter()
        seconds = probe_s(kind)
        self._mark = time.perf_counter()
        self.probe_total_s += self._mark - t0
        return seconds

    def _cut(self, next_kind: str | None) -> None:
        """End the current stretch with a probe, and start one of `next_kind`."""
        seconds = time.perf_counter() - self._mark
        after = self._probe(self.kind)
        self.stretches.append((self.kind, seconds, self._before, after))
        if next_kind is not None:
            self._before = after if next_kind == self.kind else self._probe(next_kind)
            self.kind = next_kind

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._cut(self.kind)
        if self._active:  # re-armed after the probe
            signal.setitimer(signal.ITIMER_REAL, self.tick_s)

    def stage(self, name: str) -> None:
        kind = STAGE_PROBES.get(name, "planner")
        if kind == self.kind:
            return
        self._busy = True
        try:
            self._cut(kind)
        finally:
            self._busy = False

    def __enter__(self) -> "HostClock":
        self._before = self._probe(self.kind)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._cut(None)

    @property
    def first_probe_s(self) -> float:
        return self.stretches[0][2]

    @property
    def raw_s(self) -> float:
        return sum(s for _, s, _, _ in self.stretches)

    @property
    def nominal_s(self) -> float:
        return nominal_seconds(self.stretches)
