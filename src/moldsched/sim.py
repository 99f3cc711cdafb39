"""Per-iteration solver simulation under the three parallelization strategies.

One solver iteration is modeled as: external-problem matvec (near-region
work plus a shared FFT term), a data redistribution stage, and the
internal-problem phase.  Internal tasks are priced in seconds by
``MachineModel.task_seconds``, with a 2-D process-grid communication
penalty, so elongated processor counts (primes especially) are expensive,
which is exactly what the scheduler's approximate-square restriction avoids.

The no-redist baseline runs each object's task on the processes that
own its pieces (owner-computes), all of them starting together.  Its
schedule is priced twice per cell: in float seconds for the report and
in exact work units for the normalized length.  Which processes each
task blocks, and the order in which one process's tasks start, are the
same for both, so ``run_strategy`` reads them from the pieces once per
cell, into an ``_OwnerPlan``, and each pass replays it with its own
durations.  The split objects join the processes they touch into
independent groups, the connected components a disjoint-set forest
finds, that never delay one another, so a pass replays each group on
its own, with the same result as one schedule over all processes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .model import (
    InvalidScenarioError,
    InvalidTaskError,
    MachineModel,
    Object,
    ObjectOrders,
    PartitionMap,
    Scenario,
    ShapeError,
    TaskSpec,
    grid_factors,  # a public name of this module too
    plain_sum,
)
from .partition import assign_task_lists, partition_external, redistribution_cost
from .sched import ScheduleResult, ideal_length, normalized_length, part_schedule


class StrategyKind(Enum):
    """How internal tasks are mapped to processes."""

    PROPOSED = "proposed"
    ANY_PI = "any-pi"
    NO_REDISTRIBUTION = "no-redist"

    @classmethod
    def from_key(cls, key: str) -> "StrategyKind":
        for kind in cls:
            if kind.value == key:
                return kind
        raise ValueError(f"unknown strategy {key!r}; expected one of "
                         f"{[k.value for k in cls]}")


@dataclass(frozen=True)
class SimReport:
    """Per-strategy timing, idle and communication metrics for one run."""

    p: int
    t_matvec_avg: float
    internal_makespan: float
    idle_fraction: float
    comm: Tuple[int, int, float]

    @property
    def t_gen(self) -> float:
        """Generation evaluates each task's cost shape once: the internal makespan."""
        return self.internal_makespan

    @property
    def t_iter_avg(self) -> float:
        """The preconditioner is excluded from the metric: the matvec time."""
        return self.t_matvec_avg


@dataclass(frozen=True, eq=False)
class StrategyRun:
    """SimReport plus the normalized length, and the schedule and partition it came from."""

    report: SimReport
    c_max_norm: float
    schedule_result: Optional[ScheduleResult]
    partition: PartitionMap


def dense_task_time(task: TaskSpec, machine: MachineModel) -> float:
    """Seconds of one dense internal task on its P_i: ``MachineModel.task_seconds``."""
    if task.procs < 1:
        raise InvalidTaskError(f"task {task.object_id}: procs must be >= 1")
    return machine.task_seconds(task.workload, task.procs)


def external_phase_time(partition: PartitionMap, machine: MachineModel) -> float:
    """Seconds for one external matvec: near-region work plus shared FFTs."""
    grid = max(machine.grid_points, 1)
    heaviest = max(partition.loads)
    fft = machine.t_fft * grid * math.log2(grid) / partition.n_procs
    return machine.t_near * heaviest + fft


class _OwnerPlan:
    """The no-redist owner-group schedule of one partition, less its durations.

    Each object with edges is a task on the processes owning its pieces,
    all of them starting together; positions index the objects with
    edges, as in ``ObjectOrders.workloads``.  The schedule repeatedly
    starts the task whose processes are free earliest (ties: larger
    workload, then lower position).  Which processes a task blocks, and
    in which order the tasks of one process start, do not depend on the
    durations, so one walk over the pieces, in (-W, position) order,
    finds them for both passes:

    - ``split``: (position, processes) of each object on several processes;
    - ``queues``: each process some split object touches, with the
      positions of its single-owner tasks;
    - ``unshared``: every other process with tasks, with their positions.

    The single-owner tasks of one process share its ready time, so they
    start in (-W, position) order.  An unshared process runs them back to
    back from 0: its free and busy times are the running sum of their
    durations, added in that order.

    The split objects join the processes they touch into independent
    groups (connected components): the walk links each split object's
    processes in a disjoint-set forest, and a group is one tree.  No
    task spans two groups, so none delays another, and each group is
    replayed on a heap of its own.  ``heaps`` holds each group's initial
    heap: its split tasks and the first task of each of its queues.
    ``lone`` holds (position, processes) of each group that is one split
    task with no queue: it starts at 0 and needs no heap.
    """

    __slots__ = ("procs", "workloads", "split", "queues", "unshared", "heaps", "lone")

    def __init__(self, objects: Sequence[Object], partition: PartitionMap):
        orders = ObjectOrders.of(objects)
        live_ids, pieces = orders.live_ids, partition.pieces
        self.procs = procs = partition.n_procs
        self.workloads = workloads = orders.workloads
        own: List[List[int]] = [[] for _ in range(procs)]
        # a disjoint-set forest over the processes: up[p] is p's parent, p
        # itself at a root, -1 where no split object touches p; root halves
        # the path it walks
        up = [-1] * procs

        def root(p):
            while up[p] != p:
                up[p] = p = up[up[p]]
            return p

        self.split = split = []
        for i in orders.by_workload:
            owners = pieces[live_ids[i]]
            if len(owners) == 1:
                own[owners[0][0]].append(i)
                continue
            g = [p for p, _ in owners]
            split.append((i, g))
            # link its processes' trees under one root, an untouched process
            # directly
            r = g[0] if up[g[0]] < 0 else root(g[0])
            for p in g:
                up[p if up[p] < 0 else root(p)] = r
        # each group's heap keys (ready, -W, position, processes), under its
        # root and in the order of its first split task.  Heap keys are
        # distinct, so no group is ever compared.
        groups = {}
        for i, g in split:
            groups.setdefault(root(g[0]), []).append((0, -workloads[i], i, g))
        self.queues = queues = {}
        self.unshared = unshared = []
        for p, q in enumerate(own):
            if not q:
                continue
            if up[p] < 0:
                unshared.append((p, q))
            else:
                queues[p] = q
                groups[root(p)].append((0, -workloads[q[0]], q[0], p))
        self.lone, self.heaps = [], []
        for group in groups.values():
            if len(group) == 1:
                self.lone.append(group[0][2:])
            else:
                heapq.heapify(group)
                self.heaps.append(group)

    def replay(self, durations: Sequence):
        """(makespan, per-process busy time) with these per-position durations.

        Works for float or integer durations.  Each group runs to the end
        on its own heap, in which only its split tasks and the next queued
        task of each of its processes wait; a started queued task pushes
        its successor at the new free time.  Heap keys are lazy: a popped
        key below its processes' ready time is pushed back with the
        current one.  Groups share no process, so each process sees its
        tasks start, and its free and busy times grow, exactly as in one
        heap over all groups.
        """
        free = [0] * self.procs
        busy = [0] * self.procs
        for p, positions in self.unshared:
            f = 0
            for i in positions:
                f += durations[i]
            free[p] = busy[p] = f
        for i, g in self.lone:
            end = 0 + durations[i]  # as a start at 0 adds it: -0.0 becomes 0.0
            for p in g:
                free[p] = busy[p] = end
        workloads, queues = self.workloads, self.queues
        nxt = dict.fromkeys(queues, 1)
        pop, push = heapq.heappop, heapq.heappush
        for starts in self.heaps:
            heap = starts.copy()
            while heap:
                ready, negw, i, g = pop(heap)
                if type(g) is int:
                    cur = free[g]
                    if cur != ready:
                        push(heap, (cur, negw, i, g))
                        continue
                    d = durations[i]
                    free[g] = end = ready + d
                    busy[g] += d
                    q, k = queues[g], nxt[g]
                    if k < len(q):
                        nxt[g] = k + 1
                        j = q[k]
                        push(heap, (end, -workloads[j], j, g))
                else:
                    cur = max([free[p] for p in g])
                    if cur != ready:
                        push(heap, (cur, negw, i, g))
                        continue
                    d = durations[i]
                    end = ready + d
                    for p in g:
                        free[p] = end
                        busy[p] += d
        return max(free, default=0), busy


def _idle_fraction(makespan: float, busy: Sequence, procs: int) -> float:
    if procs == 0 or makespan <= 0:
        return 0.0
    return float(plain_sum((makespan - b) / makespan for b in busy) / procs)


def internal_makespan_no_redist(plan: _OwnerPlan, machine: MachineModel) -> Tuple[float, float]:
    """Internal-phase makespan and idle fraction when tasks run on partition owners.

    Each object's task executes on exactly the processes owning its
    external-problem partitions, all starting simultaneously, so tasks
    sharing a process block each other.  Zero-edge objects carry no work
    and are skipped.  A whole object's task takes t_work * W seconds, the
    float ``machine.task_seconds(W, 1)`` gives.  The cell's owner plan
    is replayed with these durations.
    """
    t_work, price = machine.t_work, machine.task_seconds
    durations = [t_work * w for w in plan.workloads]
    for i, g in plan.split:
        durations[i] = price(plan.workloads[i], len(g))
    makespan, busy = plan.replay(durations)
    return float(makespan), _idle_fraction(float(makespan), busy, plan.procs)


def _no_redist_work_units(plan: _OwnerPlan) -> Fraction:
    """Work-unit makespan of the owner-group schedule (for normalized lengths).

    Durations W_i / P_i are scaled by the lcm L of the group sizes, so the
    schedule runs on integers and its makespan is exact over L.  When no
    object is split, L is 1 and the durations are the workloads.  The
    cell's owner plan is replayed with these durations.
    """
    scale = math.lcm(*(len(g) for _, g in plan.split))
    durations = plan.workloads
    if scale > 1:
        durations = [w * scale for w in durations]
        for i, g in plan.split:
            durations[i] = plan.workloads[i] * (scale // len(g))
    makespan, _ = plan.replay(durations)
    return Fraction(makespan, scale)


def _schedule_seconds(
    result: ScheduleResult, tasks: Sequence[TaskSpec], machine: MachineModel
) -> Tuple[float, float]:
    """Makespan/idle of a built schedule with slots priced by ``MachineModel.task_seconds``.

    A row's busy time is its slots' seconds summed left to right from the
    integer 0, as ``plain_sum`` adds.  Rows with equal tuples give equal
    sums bit for bit, so each distinct tuple of ``row_classes`` is summed
    once and its sum copied to its rows.
    """
    price = machine.task_seconds
    seconds_of = {t.object_id: price(t.workload, k) for t, k in zip(tasks, result.procs_per_task)}
    schedule = result.schedule
    busy = [0] * schedule.n_procs
    for row, rows in schedule.row_classes.by_tuple.items():
        total = 0
        for tid in row:
            total += seconds_of[tid]
        for r in rows:
            busy[r] = total
    makespan = max(busy) if busy else 0.0
    return makespan, _idle_fraction(makespan, busy, len(busy))


def run_strategy(
    scenario: Scenario,
    strategy: StrategyKind,
    procs: int,
    partition: Optional[PartitionMap] = None,
) -> StrategyRun:
    """Simulate one solver configuration and keep the schedule and partition it used.

    ``partition`` is the external partition of ``scenario.objects`` onto
    ``procs`` processes, as an earlier run at the same P returned it;
    when it is None it is built here.  A partition of another P, another
    object count or another edge total raises ``ShapeError``; nothing
    else of it is checked, so a partition of other objects with the same
    count and edge total still passes.  A report with a figure that is
    not finite raises ``InvalidScenarioError``.
    """
    objects = scenario.objects
    if partition is None:
        partition = partition_external(objects, procs)
    elif (partition.n_procs, partition.n_objects) != (procs, len(objects)):
        raise ShapeError(
            f"partition of {partition.n_objects} objects onto {partition.n_procs} "
            f"processes does not fit {len(objects)} objects at P={procs}"
        )
    elif sum(partition.loads) != ObjectOrders.of(objects).total:
        raise ShapeError(
            f"partition of {sum(partition.loads)} edges does not fit objects of "
            f"{ObjectOrders.of(objects).total} edges"
        )
    tasks = scenario.tasks()
    machine = scenario.machine
    external = external_phase_time(partition, machine)
    ideal = ideal_length(tasks, procs)

    if strategy is StrategyKind.NO_REDISTRIBUTION:
        plan = _OwnerPlan(objects, partition)
        internal, idle = internal_makespan_no_redist(plan, machine)
        comm = (0, 0, 0.0)
        schedule_result = None
        c_max_wu = _no_redist_work_units(plan)
    else:
        cutoff = scenario.cutoff if strategy is StrategyKind.PROPOSED else None
        schedule_result = part_schedule(tasks, procs, cutoff)
        assignment = assign_task_lists(schedule_result.schedule, partition)
        comm = redistribution_cost(assignment, schedule_result.schedule, partition, machine)
        internal, idle = _schedule_seconds(schedule_result, tasks, machine)
        c_max_wu = schedule_result.c_max

    report = SimReport(
        p=procs,
        t_matvec_avg=external + comm[2] + internal,
        internal_makespan=internal,
        idle_fraction=idle,
        comm=comm,
    )
    # each coefficient and workload fits a float, but their products may not
    figures = (report.t_matvec_avg, internal, idle, comm[2])
    if not all(map(math.isfinite, figures)):
        raise InvalidScenarioError(
            f"{strategy.value} at P={procs} overflows a float: t_matvec_avg, "
            f"internal_makespan, idle_fraction, comm_seconds = {figures}"
        )
    return StrategyRun(
        report=report,
        c_max_norm=normalized_length(c_max_wu, ideal),
        schedule_result=schedule_result,
        partition=partition,
    )


def simulate(scenario: Scenario, strategy: StrategyKind, procs: int) -> SimReport:
    """Per-iteration timing report for one (scenario, strategy, P) cell.

    The matvec time is the external phase plus redistribution plus the
    internal-phase makespan.
    """
    return run_strategy(scenario, strategy, procs).report
