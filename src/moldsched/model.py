"""Domain types shared by the scheduler, partitioner and simulator.

All types are immutable value objects: construct once, share freely.
Task durations are exact rationals (workload / processor count), never
rounded floats, so that the schedulers' equality tests are reliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np


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
    """Mismatched process/row counts between a schedule and a partition."""


class InvariantViolationError(SchedulingError):
    """A schedule failed validation against the schedule invariants."""


@dataclass(frozen=True)
class Object:
    """A conductor surface reduced to its mesh-edge count."""

    id: int
    edges: int

    def __post_init__(self):
        if self.edges < 0:
            raise InvalidTaskError(f"object {self.id}: edges must be >= 0, got {self.edges}")


@dataclass(frozen=True)
class TaskSpec:
    """One internal-problem task: a workload plus its processor count P_i.

    ``workload`` is in work units (edges squared for scenario-derived
    tasks); ``procs`` is the P_i the scheduler has currently assigned.
    The task id is the id of the referenced object.
    """

    object_id: int
    workload: int
    procs: int = 1


def estimate_workload(edges: int) -> int:
    """Work units for an object with the given edge count (edges squared)."""
    if edges < 0:
        raise InvalidTaskError(f"edges must be >= 0, got {edges}")
    return edges * edges


def task_duration(task: TaskSpec) -> Fraction:
    """Estimated execution time W_i / P_i, exact."""
    if task.procs < 1:
        raise InvalidTaskError(f"task {task.object_id}: procs must be >= 1, got {task.procs}")
    return Fraction(task.workload, task.procs)


def tasks_from_objects(objects: Sequence[Object]) -> Tuple[TaskSpec, ...]:
    """One sequential task per object, workload = edges squared."""
    return tuple(TaskSpec(o.id, estimate_workload(o.edges), 1) for o in objects)


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per-processor ordered task lists with start and finish times.

    ``rows[p]`` is the ordered list of task ids processor p executes; a
    parallel task id appears in the row of every processor in its group.
    ``start_times[p][t]`` is the start instant of the t-th slot of row p,
    in work units.  ``proc_assignment`` maps task id to the set of
    processors executing it, and ``finish_times[p]`` is F_p.
    """

    rows: Tuple[Tuple[int, ...], ...]
    start_times: Tuple[Tuple[Fraction, ...], ...]
    proc_assignment: Mapping[int, frozenset]
    finish_times: Tuple[Fraction, ...]

    @property
    def n_procs(self) -> int:
        return len(self.rows)

    def makespan(self) -> Fraction:
        return max(self.finish_times, default=Fraction(0))


def check_schedule(
    schedule: Schedule,
    tasks: Sequence[TaskSpec],
    procs: int,
    initial_finish: Optional[Sequence[Fraction]] = None,
) -> None:
    """Validate a schedule against the schedule invariants.

    Checks, for the given task set:
      - every task appears exactly once in the rows of exactly the
        processors in its proc_assignment, and nowhere else;
      - all processors of a parallel task record the same start time;
      - F_p is the seeded sum of that row's slot durations, with slots
        packed back to back (no gaps);
      - the parallel-task budget sum(P_i > 1) <= procs holds.

    Raises InvariantViolationError on the first failure found.
    """
    by_id = {t.object_id: t for t in tasks}
    if len(by_id) != len(tasks):
        raise InvalidTaskError("task ids are not unique")
    if len(schedule.rows) != procs or len(schedule.finish_times) != procs:
        raise InvariantViolationError(
            f"schedule has {len(schedule.rows)} rows for {procs} processors"
        )

    seeds = [Fraction(0)] * procs if initial_finish is None else [Fraction(s) for s in initial_finish]

    seen = {tid: set() for tid in by_id}
    for p, row in enumerate(schedule.rows):
        for tid in row:
            if tid not in by_id:
                raise InvariantViolationError(f"row {p} contains unknown task {tid}")
            if p in seen[tid]:
                raise InvariantViolationError(f"task {tid} appears twice in row {p}")
            seen[tid].add(p)

    budget = 0
    for tid, task in by_id.items():
        group = schedule.proc_assignment.get(tid, frozenset())
        if seen[tid] != set(group):
            raise InvariantViolationError(
                f"task {tid}: rows place it on {sorted(seen[tid])}, "
                f"proc_assignment says {sorted(group)}"
            )
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
        clock = seeds[p]
        for slot, tid in enumerate(schedule.rows[p]):
            start = schedule.start_times[p][slot]
            if start != clock:
                raise InvariantViolationError(
                    f"processor {p} slot {slot}: start {start} != expected {clock}"
                )
            task = by_id[tid]
            clock += Fraction(task.workload, len(schedule.proc_assignment[tid]))
        if schedule.finish_times[p] != clock:
            raise InvariantViolationError(
                f"processor {p}: F_p {schedule.finish_times[p]} != slot sum {clock}"
            )


@dataclass(frozen=True, eq=False)
class PartitionMap:
    """External-problem mesh ownership: owned[p, i] edges of object i on process p."""

    owned: np.ndarray

    def __post_init__(self):
        if self.owned.ndim != 2:
            raise InvalidScenarioError("owned must be a 2-D (process, object) matrix")
        if (self.owned < 0).any():
            raise InvalidScenarioError("owned entries must be >= 0")

    @property
    def n_procs(self) -> int:
        return self.owned.shape[0]

    @property
    def n_objects(self) -> int:
        return self.owned.shape[1]

    def loads(self) -> np.ndarray:
        """Edges owned per process."""
        return self.owned.sum(axis=1)

    def partition_counts(self) -> np.ndarray:
        """Number of processes owning a piece of each object."""
        return (self.owned > 0).sum(axis=0)


@dataclass(frozen=True)
class MachineModel:
    """Cost coefficients converting work units into seconds.

    t_work: seconds per work unit of dense internal operations
    t_near: seconds per owned edge of external near-region work
    t_fft: seconds per grid point * log2(grid points), shared FFT term
    gamma_grid: seconds per sqrt(work unit) per grid factor, the
        distributed-dense communication penalty
    alpha_msg / beta_edge: per-message / per-edge redistribution costs
    grid_points: total auxiliary grid size Nx*Ny*Nz
    """

    t_work: float = 1e-9
    t_near: float = 5e-7
    t_fft: float = 2e-9
    gamma_grid: float = 2e-8
    alpha_msg: float = 1e-6
    beta_edge: float = 1e-9
    grid_points: int = 0

    def __post_init__(self):
        for name in ("t_work", "t_near", "t_fft", "gamma_grid", "alpha_msg", "beta_edge"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidScenarioError(f"machine coefficient {name} must be finite and >= 0")
        if self.grid_points < 0:
            raise InvalidScenarioError("grid_points must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """A named problem instance: objects, solver iterations, machine, grid shape."""

    name: str
    objects: Tuple[Object, ...]
    iterations: int = 1
    machine: MachineModel = field(default_factory=MachineModel)
    cutoff: int = 20
    grid: Tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        ids = [o.id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise InvalidScenarioError("object ids must be unique")
        if self.iterations < 1:
            raise InvalidScenarioError("iterations must be >= 1")
        if self.cutoff < 1:
            raise InvalidScenarioError("cutoff must be >= 1")
        if len(self.grid) != 3 or min(self.grid) < 0:
            raise InvalidScenarioError(f"grid must be three factors >= 0, got {self.grid}")
        if self.machine.grid_points != math.prod(self.grid):
            raise InvalidScenarioError(f"machine grid_points != product of grid {self.grid}")

    def tasks(self) -> Tuple[TaskSpec, ...]:
        return tasks_from_objects(self.objects)

    def total_edges(self) -> int:
        return sum(o.edges for o in self.objects)

    def total_workload(self) -> int:
        return sum(estimate_workload(o.edges) for o in self.objects)
