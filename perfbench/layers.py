"""Per-layer spans timed from outside the program, with output checks.

The tracer replaces the names that ``moldsched.sim`` and ``moldsched.cli``
import from the other layers with wrappers that record one span per call.
No source file of the program changes, and the untraced sweeps run the
original functions because the wrappers are removed after each traced
sweep.

After a span closes, its result is checked.  The time the checks take is
subtracted from every span still open, so validation stays outside the
timed region of every layer.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

Cell = Tuple[int, str]

# (layer span name, module whose global name is wrapped, that name)
WRAPPED = (
    ("sched.part_schedule", "moldsched.sim", "part_schedule"),
    ("partition.partition_external", "moldsched.sim", "partition_external"),
    ("partition.assign_task_lists", "moldsched.sim", "assign_task_lists"),
    ("partition.redistribution_cost", "moldsched.sim", "redistribution_cost"),
    ("sim.internal_makespan_no_redist", "moldsched.sim", "internal_makespan_no_redist"),
    ("sim.external_phase_time", "moldsched.sim", "external_phase_time"),
    ("sim.run_strategy", "moldsched.cli", "run_strategy"),
)
ROOT = "cli.sweep"
# exact counts summed from layer results; zero when the layer is not called
COUNTERS = (
    "sched.part_schedule.iterations",
    "partition.redistribution_cost.edges",
    "partition.redistribution_cost.messages",
)


class TracerError(RuntimeError):
    """The program no longer has a name the tracer wraps, or a layer went silent."""


class CheckFailed(Exception):
    """A layer returned a result that breaks one of its invariants."""


@dataclass
class Span:
    name: str
    parent: Optional[int]
    cell: Optional[Cell]
    start: float
    end: float = 0.0
    duration: float = 0.0  # end - start, less the validation time inside it
    children: float = 0.0  # summed duration of direct child spans

    @property
    def self_time(self) -> float:
        return self.duration - self.children


def _finite(*values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CheckFailed(f"non-finite value {v!r}")


def _check_idle(idle: float) -> None:
    _finite(idle)
    if not 0.0 <= idle <= 1.0:
        raise CheckFailed(f"idle_fraction {idle!r} outside [0, 1]")


def _check_part_schedule(args, kwargs, result) -> Dict[str, int]:
    from moldsched import check_schedule

    tasks, procs = args[0], args[1]
    try:
        check_schedule(result.schedule, tasks, procs)
    except Exception as exc:  # every failure of the checker is a failed cell
        raise CheckFailed(f"check_schedule: {exc}") from exc
    if result.c_max != result.schedule.makespan():
        raise CheckFailed(f"c_max {result.c_max} != schedule makespan")
    return {"iterations": result.iterations_taken}


def _check_partition(args, kwargs, result) -> Dict[str, int]:
    objects, procs = args[0], args[1]
    owned = result.owned
    if owned.shape != (procs, len(objects)):
        raise CheckFailed(f"partition shape {owned.shape} for P={procs}, N={len(objects)}")
    sums = owned.sum(axis=0)
    for obj in objects:
        if int(sums[obj.id]) != obj.edges:
            raise CheckFailed(f"object {obj.id}: column sum {int(sums[obj.id])} != {obj.edges} edges")
    return {}


def _check_redistribution(args, kwargs, result) -> Dict[str, int]:
    edges, messages, seconds = result
    procs = args[2].n_procs
    _finite(seconds)
    if edges < 0 or not 0 <= messages <= procs * (procs - 1):
        raise CheckFailed(f"redistribution edges={edges} messages={messages} at P={procs}")
    return {"edges": edges, "messages": messages}


def _check_no_redist(args, kwargs, result) -> Dict[str, int]:
    makespan, idle = result
    _finite(makespan)
    _check_idle(idle)
    return {}


def _check_external(args, kwargs, result) -> Dict[str, int]:
    _finite(result)
    return {}


def _check_run(args, kwargs, result) -> Dict[str, int]:
    r = result.report
    _finite(r.t_gen, r.t_matvec_avg, r.t_iter_avg, r.internal_makespan, r.comm[2],
            result.c_max_norm)
    _check_idle(r.idle_fraction)
    if not 0 <= r.comm[1] <= r.p * (r.p - 1):
        raise CheckFailed(f"{r.comm[1]} messages at P={r.p}")
    return {}


CHECKS: Dict[str, Callable] = {
    "sched.part_schedule": _check_part_schedule,
    "partition.partition_external": _check_partition,
    "partition.assign_task_lists": lambda args, kwargs, result: {},
    "partition.redistribution_cost": _check_redistribution,
    "sim.internal_makespan_no_redist": _check_no_redist,
    "sim.external_phase_time": _check_external,
    "sim.run_strategy": _check_run,
}


@dataclass
class Tracer:
    """Spans of one traced sweep, kept in memory until the run ends."""

    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    failures: Dict[Cell, List[str]] = field(default_factory=dict)
    _stack: List[int] = field(default_factory=list)
    _paused: float = 0.0

    def call(self, name: str, fn: Callable, args=(), kwargs=None, check=None):
        """Run fn inside a span named `name`; check its result once the span closes."""
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        if name == "sim.run_strategy":
            cell = (int(args[2]), args[1].value)
        else:
            cell = self.spans[parent].cell if parent is not None else None
        index = len(self.spans)
        span = Span(name, parent, cell, 0.0)
        self.spans.append(span)
        self._stack.append(index)
        paused = self._paused
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        span.duration = span.end - span.start - (self._paused - paused)
        if parent is not None:
            self.spans[parent].children += span.duration

        if check is not None:
            started = time.perf_counter()
            try:
                for key, value in check(args, kwargs, result).items():
                    counter = f"{name}.{key}"
                    self.counters[counter] = self.counters.get(counter, 0) + value
            except CheckFailed as exc:
                self.failures.setdefault(cell, []).append(f"{name}: {exc}")
            self._paused += time.perf_counter() - started
        return result

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        originals = []
        try:
            for name, module_name, attr in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise TracerError(
                        f"{module_name}.{attr} is gone, so layer {name} cannot be traced; "
                        "update perfbench/layers.py to the program's new call structure"
                    )
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrapper(name, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        check = CHECKS[name]

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, check)

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> Dict[str, float]:
        """Per-layer calls, self seconds and longest call, plus the counters."""
        out: Dict[str, float] = {c: self.counters.get(c, 0) for c in COUNTERS}
        for name in [ROOT] + [w[0] for w in WRAPPED]:
            mine = [s for s in self.spans if s.name == name]
            out[f"{name}.calls"] = len(mine)
            out[f"{name}.self_s"] = sum(s.self_time for s in mine)
            out[f"{name}.max_s"] = max((s.duration for s in mine), default=0.0)
        root = [s for s in self.spans if s.name == ROOT]
        out["sweep_s"] = root[0].duration if root else 0.0
        return out

    def to_records(self, sweep: int) -> List[dict]:
        return [
            {"sweep": sweep, "index": i, "name": s.name, "parent": s.parent,
             "cell": list(s.cell) if s.cell else None, "start": s.start, "end": s.end,
             "duration_s": s.duration, "self_s": s.self_time}
            for i, s in enumerate(self.spans)
        ]


def expect_calls(summary: Dict[str, float], uses_scheduler: bool, uses_no_redist: bool) -> None:
    """Fail loudly when a layer that must run was not seen, or one that must not was."""
    must = {
        "sim.run_strategy": True,
        "partition.partition_external": True,
        "sim.external_phase_time": True,
        "sched.part_schedule": uses_scheduler,
        "partition.assign_task_lists": uses_scheduler,
        "partition.redistribution_cost": uses_scheduler,
        "sim.internal_makespan_no_redist": uses_no_redist,
    }
    for name, expected in must.items():
        calls = summary[f"{name}.calls"]
        if expected and calls == 0:
            raise TracerError(f"layer {name} recorded no calls; the wrapped name is no longer used")
        if not expected and calls != 0:
            raise TracerError(f"layer {name} recorded {calls} calls on a workload that must not call it")
