"""Domain types shared by the scheduler, partitioner and simulator.

All types are immutable value objects: construct once, share freely.
Task durations are exact rationals (workload / processor count), never
rounded floats, so that the schedulers' equality tests are reliable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, groupby
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class SchedulingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTaskError(SchedulingError):
    """A task violates its preconditions (e.g. zero processor count)."""


class InfeasibleParallelSetError(SchedulingError):
    """Parallel tasks request more processors than exist (sum of P_i > P)."""


class UndefinedBoundError(SchedulingError):
    """A worst-case ratio bound is not defined for the given P."""


class InstanceTooLargeError(SchedulingError):
    """An exhaustive-search oracle was asked for an instance beyond its guards."""


class InvalidScenarioError(SchedulingError):
    """Scenario parameters or a scenario file are malformed."""


class ShapeError(SchedulingError):
    """Mismatched process, row or object counts between a schedule, a partition and a scenario."""


class InvariantViolationError(SchedulingError):
    """A schedule failed validation against the schedule invariants."""


@dataclass(frozen=True)
class Object:
    """A conductor surface reduced to its mesh-edge count."""

    id: int
    edges: int


@dataclass(frozen=True)
class TaskSpec:
    """One internal-problem task: a workload plus its processor count P_i.

    ``workload`` is in work units (edges squared for scenario-derived
    tasks).  ``procs`` is a fixed P_i, read by ``sched.lpt_schedule``,
    ``task_duration`` and ``sim.dense_task_time``; ``sched.part_schedule``
    chooses its own P_i, starting every task at 1, and only rejects procs
    < 1.  The task id is the id of the referenced object.
    """

    object_id: int
    workload: int
    procs: int = 1


def estimate_workload(edges: int) -> int:
    """Work units for an object with the given edge count (edges squared)."""
    if edges < 0:
        raise InvalidTaskError(f"edges must be >= 0, got {edges}")
    return edges * edges


def plain_sum(values: Iterable):
    """Sum of values added left to right, from the integer 0.

    Builtin ``sum`` compensates float rounding from Python 3.12, so it
    would make the program's output depend on the interpreter; this is
    the uncompensated sum that every supported Python gives.
    """
    total = 0
    for v in values:
        total += v
    return total


def task_duration(task: TaskSpec) -> Fraction:
    """Estimated execution time W_i / P_i, exact."""
    if task.procs < 1:
        raise InvalidTaskError(f"task {task.object_id}: procs must be >= 1, got {task.procs}")
    return Fraction(task.workload, task.procs)


def tasks_from_objects(objects: Sequence[Object]) -> Tuple[TaskSpec, ...]:
    """One sequential task per object, workload = edges squared."""
    return tuple(TaskSpec(o.id, estimate_workload(o.edges), 1) for o in objects)


class _PerTuple:
    """Facts of one sequence of objects or tasks that no processor count changes.

    ``of(items)`` returns them.  Each fact is a cached property, computed
    when first read, and shared by every caller: read it, never change
    it.  The one exception is ``TaskOrders.step_logs``, which the
    scheduler grows: a log gains steps at its end when a larger P needs
    them, but never rewrites a step it has logged, so every reader of a
    step sees the same one.  The facts of the last tuple each subclass
    was asked about are kept, with a strong reference to that tuple (so
    its id is never reused while kept), and every P of a sweep reads the
    same ones.  Objects and tasks are frozen, so a tuple of them never
    changes; a list may, so its facts are never kept.
    """

    _last: Optional["_PerTuple"] = None

    def __init__(self, items: Sequence):
        self.items = items

    @classmethod
    def of(cls, items: Sequence):
        last = cls._last
        if last is not None and last.items is items:
            return last
        facts = cls(items)
        if isinstance(items, tuple):
            cls._last = facts
        return facts


class ObjectOrders(_PerTuple):
    """Edge total and size orders of objects whose ids are the indices 0..N-1.

    Building it checks the objects: their ids, and that no edge count is
    negative.  ``Object`` checks nothing itself.
    """

    def __init__(self, objects: Sequence[Object]):
        if sorted(o.id for o in objects) != list(range(len(objects))):
            raise InvalidScenarioError("object ids must be the indices 0..N-1")
        for o in objects:
            if o.edges < 0:
                raise InvalidScenarioError(f"object {o.id}: edges must be >= 0, got {o.edges}")
        super().__init__(objects)

    @cached_property
    def total(self) -> int:
        return sum(o.edges for o in self.items)

    @cached_property
    def by_size(self) -> List[Tuple[int, int]]:
        """(id, edges) of the objects with edges, in descending edges, then id."""
        return sorted(((o.id, o.edges) for o in self.items if o.edges > 0),
                      key=lambda ie: (-ie[1], ie[0]))

    @cached_property
    def live_ids(self) -> List[int]:
        """Ids of the objects with edges, in the objects' order."""
        return [o.id for o in self.items if o.edges > 0]

    @cached_property
    def workloads(self) -> List[int]:
        """Workload (edges squared) of each object with edges, in the objects' order."""
        return [estimate_workload(o.edges) for o in self.items if o.edges > 0]

    @cached_property
    def by_workload(self) -> List[int]:
        """Positions in ``workloads``: descending workload, then ascending position."""
        # stable under reverse=True
        return sorted(range(len(self.workloads)), key=self.workloads.__getitem__, reverse=True)


class TaskOrders(_PerTuple):
    """Workload total and LPT order of a task list, and its runs of equal workloads."""

    @cached_property
    def total(self) -> int:
        return sum(t.workload for t in self.items)

    @cached_property
    def ids(self) -> List[int]:
        return [t.object_id for t in self.items]

    @cached_property
    def problem(self) -> Optional[str]:
        """What makes the tasks invalid for the schedulers, or None."""
        if len(set(self.ids)) != len(self.ids):
            return "task ids must be unique"
        for t in self.items:
            if t.procs < 1:
                return f"task {t.object_id}: procs must be >= 1"
            if t.workload < 0:
                return f"task {t.object_id}: workload must be >= 0"
        return None

    @cached_property
    def workloads(self) -> List[int]:
        return [t.workload for t in self.items]

    @cached_property
    def order(self) -> List[int]:
        """Task positions in descending workload, then ascending id."""
        ids, workloads = self.ids, self.workloads
        return sorted(range(len(workloads)), key=lambda i: (-workloads[i], ids[i]))

    @cached_property
    def runs(self) -> List[Tuple[int, int]]:
        """Runs of equal workloads along ``order``, as (W, count)."""
        workloads = self.workloads
        return [(w, len(list(g))) for w, g in groupby(workloads[i] for i in self.order)]

    @cached_property
    def ends(self) -> List[int]:
        """Position in ``order`` just past each run."""
        return list(accumulate(m for _, m in self.runs))

    @cached_property
    def last_ahead(self) -> List[int]:
        """Workload ahead of each run's last task in ``order``."""
        runs = self.runs
        return [ahead - w for (w, _), ahead in zip(runs, accumulate(w * m for w, m in runs))]

    @cached_property
    def step_logs(self) -> Dict[Optional[int], object]:
        """Part_Schedule's step log per cutoff: a ``sched._StepLog``, grown as walks need steps."""
        return {}


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per-processor ordered task lists, each run back to back from time 0.

    ``rows[p]`` is the ordered list of task ids processor p executes; a
    parallel task id appears in the row of every processor in its group,
    so a task's group is the set of rows holding it, and nothing else
    records it.  ``group_sizes`` counts those rows per task id, and
    ``tasks`` gives the workloads: a slot of task i lasts W_i / |group|.
    A list of tasks is copied to a tuple; a tuple, such as
    ``Scenario.tasks()``, is kept without a copy.

    The exact ``Fraction`` times are made together when ``start_times``,
    ``finish_times`` or ``makespan()`` is first read:
    ``start_times[p][t]`` is the start instant of the t-th slot of row p,
    in work units, and ``finish_times[p]`` is F_p.
    """

    rows: Tuple[Tuple[int, ...], ...]
    tasks: Tuple[TaskSpec, ...]

    def __post_init__(self):
        # tuple() of a tuple is that tuple, so only a list is copied
        object.__setattr__(self, "tasks", tuple(self.tasks))

    @cached_property
    def group_sizes(self) -> Counter:
        """Task id -> the number of rows holding it: P_i, or 1 for a sequential task."""
        return Counter(chain.from_iterable(self.rows))

    @cached_property
    def row_classes(self) -> "RowClasses":
        """The rows grouped by their slots: one walk, shared by every reader."""
        return RowClasses(self)

    @cached_property
    def start_times(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return self._pack()[0]

    @cached_property
    def finish_times(self) -> Tuple[Fraction, ...]:
        return self._pack()[1]

    def _pack(self):
        """Both times, stored in the cache of both properties at once.

        Each row's clock is an integer over one denominator, the lcm of
        the group sizes; it becomes a ``Fraction`` only as a time is stored.
        """
        workload_of = {t.object_id: t.workload for t in self.tasks}
        sizes = self.group_sizes
        denom = math.lcm(*sizes.values())
        step = {tid: workload_of[tid] * (denom // k) for tid, k in sizes.items()}
        start_times = []
        finish_times = []
        for row in self.rows:
            clock = 0
            starts = []
            for tid in row:
                starts.append(Fraction(clock, denom))
                clock += step[tid]
            start_times.append(tuple(starts))
            finish_times.append(Fraction(clock, denom))
        times = tuple(start_times), tuple(finish_times)
        self.__dict__["start_times"], self.__dict__["finish_times"] = times
        return times

    @property
    def n_procs(self) -> int:
        return len(self.rows)

    def makespan(self) -> Fraction:
        return max(self.finish_times, default=Fraction(0))


class RowClasses:
    """A schedule's rows grouped by their slots, independent of any partition.

    - ``by_tuple``: each distinct row tuple -> its rows, ascending.
    - ``classes``: (parallel tuple, its rows ascending) per class, in the
      order of the class's first row.  A row's parallel tuple is its
      tasks on more than one row, in slot order; rows holding no such
      task are in no class.
    - ``sequential``: each row holding a task on that row alone -> (the
      row's index in ``classes``, or -1; those tasks in slot order).
      Such a row's tuple is on no other row.

    A repeated tuple holds parallel tasks only, so only the tuples on
    one row are split.  The task-list matching and the redistribution
    pricing read ``classes`` and ``sequential``; the slot pricing reads
    ``by_tuple``.
    """

    __slots__ = ("by_tuple", "classes", "sequential")

    def __init__(self, schedule: Schedule):
        self.by_tuple = by_tuple = {}
        for r, row in enumerate(schedule.rows):
            rows = by_tuple.get(row)
            if rows is None:
                by_tuple[row] = [r]
            else:
                rows.append(r)
        size = schedule.group_sizes
        number: Dict[Tuple[int, ...], int] = {}  # parallel tuple -> its index in classes
        self.classes = classes = []
        self.sequential = sequential = {}
        for row, rows in by_tuple.items():
            seq = ()
            if len(rows) > 1:
                par = row
            else:
                par, seq = [], []
                for tid in row:
                    (par if size[tid] > 1 else seq).append(tid)
                par = tuple(par)
            k = -1
            if par:
                k = number.get(par, -1)
                if k < 0:
                    k = number[par] = len(classes)
                    classes.append((par, []))
                classes[k][1].extend(rows)
            if seq:
                sequential[rows[0]] = (k, tuple(seq))
        for _, rows in classes:
            rows.sort()


def check_schedule(
    schedule: Schedule,
    tasks: Sequence[TaskSpec],
    procs: int,
) -> None:
    """Validate a schedule against the schedule invariants.

    Checks, for the given task set:
      - every task appears in at least one row, at most once per row, and
        no row holds an unknown task, or one the schedule's own tasks
        lack; the rows holding a task are its group, and a slot of it
        lasts W_i / |group|;
      - all processors of a parallel task record the same start time;
      - each row starts at time 0, and F_p is the sum of that row's slot
        durations, with slots packed back to back (no gaps);
      - the parallel-task budget sum(P_i > 1) <= procs holds.

    Raises InvariantViolationError on the first failure found.  The rows
    are checked before any time is read, because a ``Schedule`` makes its
    times from its own tasks' workloads.
    """
    by_id = {t.object_id: t for t in tasks}
    if len(by_id) != len(tasks):
        raise InvalidTaskError("task ids are not unique")
    if len(schedule.rows) != procs:
        raise InvariantViolationError(
            f"schedule has {len(schedule.rows)} rows for {procs} processors"
        )

    # each task's group: the rows that hold it
    own = {t.object_id for t in schedule.tasks}
    seen = {tid: set() for tid in by_id}
    for p, row in enumerate(schedule.rows):
        for tid in row:
            if tid not in by_id:
                raise InvariantViolationError(f"row {p} contains unknown task {tid}")
            if tid not in own:
                raise InvariantViolationError(
                    f"row {p} holds task {tid}, which the schedule has no workload for"
                )
            if p in seen[tid]:
                raise InvariantViolationError(f"task {tid} appears twice in row {p}")
            seen[tid].add(p)
    if len(schedule.finish_times) != procs:
        raise InvariantViolationError(
            f"schedule has {len(schedule.finish_times)} finish times for {procs} processors"
        )

    budget = 0
    for tid, group in seen.items():
        if len(group) == 0:
            raise InvariantViolationError(f"task {tid} is not scheduled")
        if len(group) > 1:
            budget += len(group)
            starts = {
                schedule.start_times[p][schedule.rows[p].index(tid)] for p in group
            }
            if len(starts) != 1:
                raise InvariantViolationError(
                    f"parallel task {tid} has differing start times {sorted(starts)}"
                )
    if budget > procs:
        raise InvariantViolationError(
            f"parallel tasks use {budget} processors, only {procs} exist"
        )

    for p in range(procs):
        clock = Fraction(0)
        for slot, tid in enumerate(schedule.rows[p]):
            start = schedule.start_times[p][slot]
            if start != clock:
                raise InvariantViolationError(
                    f"processor {p} slot {slot}: start {start} != expected {clock}"
                )
            task = by_id[tid]
            clock += Fraction(task.workload, len(seen[tid]))
        if schedule.finish_times[p] != clock:
            raise InvariantViolationError(
                f"processor {p}: F_p {schedule.finish_times[p]} != slot sum {clock}"
            )


Pieces = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class PartitionMap:
    """External-problem mesh ownership, kept per object as sparse pieces.

    ``pieces[i]`` lists the (process, edges) pieces of object i in
    ascending process id, one per process holding part of it; a zero-edge
    object has none.  ``loads[p]`` is the edges process p owns, summed
    from the same pieces, one entry per process.
    """

    pieces: Tuple[Pieces, ...]
    loads: Tuple[int, ...]

    @property
    def n_procs(self) -> int:
        return len(self.loads)

    @property
    def n_objects(self) -> int:
        return len(self.pieces)

    def partition_counts(self) -> List[int]:
        """Number of processes owning a piece of each object."""
        return [len(pieces) for pieces in self.pieces]

    @cached_property
    def owned(self):
        """Dense int64 (process, object) matrix: owned[p, i] edges of object i on p.

        Kept only for the benchmark's partition check, which reads it; it
        is the one place the package imports numpy.
        """
        import numpy as np

        owned = np.zeros((self.n_procs, self.n_objects), dtype=np.int64)
        for i, pieces in enumerate(self.pieces):
            for p, edges in pieces:
                owned[p, i] = edges
        return owned


# MachineModel's coefficient fields, in the scenario files' key order
MACHINE_COEFFICIENTS = ("t_work", "t_near", "t_fft", "gamma_grid", "alpha_msg", "beta_edge")


@dataclass(frozen=True)
class MachineModel:
    """Cost coefficients converting work units into seconds, and the grid shape.

    t_work: seconds per work unit of dense internal operations
    t_near: seconds per owned edge of external near-region work
    t_fft: seconds per grid point * log2(grid points), shared FFT term
    gamma_grid: seconds per sqrt(work unit) per grid factor, the
        distributed-dense communication penalty
    alpha_msg / beta_edge: per-message / per-edge redistribution costs
    grid: the auxiliary grid's factors (Nx, Ny, Nz)

    The coefficients are held as floats.  Each coefficient, and the
    grid's point count, must be finite as a float: the simulation prices
    in floats.
    """

    t_work: float = 1e-9
    t_near: float = 5e-7
    t_fft: float = 2e-9
    gamma_grid: float = 2e-8
    alpha_msg: float = 1e-6
    beta_edge: float = 1e-9
    grid: Tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        for name in MACHINE_COEFFICIENTS:
            value = getattr(self, name)
            if not (value >= 0 and _fits_float(value)):
                raise InvalidScenarioError(f"machine coefficient {name} must be finite and >= 0")
            object.__setattr__(self, name, float(value))
        if len(self.grid) != 3 or min(self.grid) < 0:
            raise InvalidScenarioError(f"grid must be three factors >= 0, got {self.grid}")
        if not _fits_float(self.grid_points):
            raise InvalidScenarioError("grid has too many points for a float")

    @property
    def grid_points(self) -> int:
        """Total auxiliary grid size Nx*Ny*Nz."""
        return math.prod(self.grid)

    def task_seconds(self, workload: int, procs: int) -> float:
        """Seconds to run a dense internal task of this workload on procs >= 1 processes.

        t_work * W/P_i plus, for parallel tasks, a distributed-dense
        communication term gamma_grid * sqrt(W) * (r + c) with (r, c) the
        process grid of P_i.
        """
        seconds = self.t_work * workload / procs
        if procs > 1:
            r, c = grid_factors(procs)
            seconds += self.gamma_grid * math.sqrt(workload) * (r + c)
        return seconds


def grid_factors(p: int) -> Tuple[int, int]:
    """Factor p = r*c with r <= c minimizing r + c (the process-grid shape)."""
    if p < 1:
        raise InvalidTaskError(f"p must be >= 1, got {p}")
    r = math.isqrt(p)
    while p % r:
        r -= 1
    return r, p // r


def _fits_float(value) -> bool:
    """Whether ``value`` is a finite float, or converts to one."""
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


# the approximate-square cutoff of a scenario, and of ``sched.part_schedule``
DEFAULT_CUTOFF = 20

# the largest P any entry point or command takes: each cell holds lists of
# P entries, and Part_Schedule may take about one step per processor
MAX_PROCS = 2**20


def check_procs(procs: int) -> None:
    """Refuse a processor count outside 1..MAX_PROCS, with InvalidTaskError."""
    if not 1 <= procs <= MAX_PROCS:
        raise InvalidTaskError(f"procs must be in 1..MAX_PROCS ({MAX_PROCS}), got {procs}")


# the most objects a generator builds, one ``Object`` each; a scenario file's
# object count is bounded by its size instead
MAX_OBJECTS = 2**20


@dataclass(frozen=True)
class Scenario:
    """A named problem instance: objects, solver iterations, machine, cutoff."""

    name: str
    objects: Tuple[Object, ...]
    iterations: int = 1
    machine: MachineModel = field(default_factory=MachineModel)
    cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self):
        if not self.objects:
            raise InvalidScenarioError("a scenario needs at least one object")
        # checks the ids and edge counts, once per objects tuple
        orders = ObjectOrders.of(self.objects)
        if self.iterations < 1:
            raise InvalidScenarioError("iterations must be >= 1")
        if self.cutoff < 1:
            raise InvalidScenarioError("cutoff must be >= 1")
        if not _fits_float(sum(orders.workloads)):
            raise InvalidScenarioError("total workload (edges squared) is too large for a float")

    def tasks(self) -> Tuple[TaskSpec, ...]:
        """One sequential task per object, built once per scenario."""
        return self._tasks

    @cached_property
    def _tasks(self) -> Tuple[TaskSpec, ...]:
        return tasks_from_objects(self.objects)

    def total_edges(self) -> int:
        return ObjectOrders.of(self.objects).total
