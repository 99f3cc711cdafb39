"""Per-iteration solver simulation under the three parallelization strategies.

One solver iteration is modeled as: external-problem matvec (near-region
work plus a shared FFT term), a data redistribution stage, and the
internal-problem phase.  Internal tasks are priced in seconds with a
2-D process-grid communication penalty, so elongated processor counts
(primes especially) are expensive, which is exactly what the scheduler's
approximate-square restriction avoids.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    InvalidTaskError,
    MachineModel,
    Object,
    PartitionMap,
    Scenario,
    TaskSpec,
)
from .partition import (
    TaskListAssignment,
    assign_task_lists,
    partition_external,
    redistribution_cost,
)
from .sched import ScheduleResult, ideal_length, part_schedule


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
    """SimReport plus the intermediate artifacts it was computed from."""

    strategy: StrategyKind
    report: SimReport
    c_max_norm: float
    partition: PartitionMap
    schedule_result: Optional[ScheduleResult]
    assignment: Optional[TaskListAssignment]


def grid_factors(p: int) -> Tuple[int, int]:
    """Factor p = r*c with r <= c minimizing r + c (the process-grid shape)."""
    if p < 1:
        raise InvalidTaskError(f"p must be >= 1, got {p}")
    for r in range(math.isqrt(p), 0, -1):
        if p % r == 0:
            return r, p // r
    raise AssertionError("unreachable")


def dense_task_time(task: TaskSpec, machine: MachineModel) -> float:
    """Seconds to run one dense internal task on its P_i processes.

    t_work * W/P_i plus, for parallel tasks, a distributed-dense
    communication term gamma_grid * sqrt(W) * (r + c) with (r, c) the
    process grid of P_i.
    """
    if task.procs < 1:
        raise InvalidTaskError(f"task {task.object_id}: procs must be >= 1")
    seconds = machine.t_work * task.workload / task.procs
    if task.procs > 1:
        r, c = grid_factors(task.procs)
        seconds += machine.gamma_grid * math.sqrt(task.workload) * (r + c)
    return seconds


def external_phase_time(partition: PartitionMap, machine: MachineModel) -> float:
    """Seconds for one external matvec: near-region work plus shared FFTs."""
    grid = max(machine.grid_points, 1)
    heaviest = int(partition.loads().max())
    fft = machine.t_fft * grid * math.log2(grid) / partition.n_procs
    return machine.t_near * heaviest + fft


def _simultaneity_schedule(
    groups: Sequence[Sequence[int]],
    tasks: Sequence[TaskSpec],
    durations: Sequence,
    procs: int,
):
    """Greedy list schedule where each task's whole group starts together.

    Repeatedly starts the task whose group is ready earliest (ties: larger
    workload, then lower index) at that ready time.  Returns (makespan,
    per-processor busy time); works for float or integer durations.
    """
    free = [0] * procs
    busy = [0] * procs
    heap = [(0, -t.workload, i) for i, t in enumerate(tasks)]
    heapq.heapify(heap)
    while heap:
        ready, negw, i = heapq.heappop(heap)
        cur = max(free[p] for p in groups[i])
        if cur != ready:
            heapq.heappush(heap, (cur, negw, i))
            continue
        end = ready + durations[i]
        for p in groups[i]:
            free[p] = end
            busy[p] += durations[i]
    return max(free, default=0), busy


def _idle_fraction(makespan: float, busy: Sequence, procs: int) -> float:
    if procs == 0 or makespan <= 0:
        return 0.0
    return float(sum((makespan - b) / makespan for b in busy) / procs)


def _owner_groups(
    objects: Sequence[Object], partition: PartitionMap
) -> Tuple[List[List[int]], List[TaskSpec]]:
    """Owning processes (ascending) of each object with edges, and its task.

    The task's P_i is the size of its owner group; both no-redistribution
    passes schedule these groups.
    """
    obj_ids, proc_ids = np.nonzero(partition.owned.T)
    bounds = np.searchsorted(obj_ids, np.arange(partition.n_objects + 1)).tolist()
    owners = proc_ids.tolist()
    live = [o for o in objects if o.edges > 0]
    groups = [owners[bounds[o.id]:bounds[o.id + 1]] for o in live]
    return groups, [TaskSpec(o.id, o.edges * o.edges, len(g)) for o, g in zip(live, groups)]


def internal_makespan_no_redist(
    objects: Sequence[Object], partition: PartitionMap, machine: MachineModel
) -> Tuple[float, float]:
    """Internal-phase makespan and idle fraction when tasks run on partition owners.

    Each object's task executes on exactly the processes owning its
    external-problem partitions, all starting simultaneously, so tasks
    sharing a process block each other.  Zero-edge objects carry no work
    and are skipped.
    """
    procs = partition.n_procs
    groups, tasks = _owner_groups(objects, partition)
    durations = [dense_task_time(t, machine) for t in tasks]
    makespan, busy = _simultaneity_schedule(groups, tasks, durations, procs)
    return float(makespan), _idle_fraction(float(makespan), busy, procs)


def _no_redist_work_units(
    objects: Sequence[Object], partition: PartitionMap
) -> Fraction:
    """Work-unit makespan of the owner-group schedule (for normalized lengths).

    Durations W_i / P_i are scaled by the lcm L of the group sizes, so the
    schedule runs on integers and its makespan is exact over L.
    """
    groups, tasks = _owner_groups(objects, partition)
    scale = math.lcm(*(t.procs for t in tasks))
    durations = [t.workload * (scale // t.procs) for t in tasks]
    makespan, _ = _simultaneity_schedule(groups, tasks, durations, partition.n_procs)
    return Fraction(makespan, scale)


def _schedule_seconds(
    result: ScheduleResult, tasks: Sequence[TaskSpec], machine: MachineModel
) -> Tuple[float, float]:
    """Makespan/idle of a built schedule with slots priced by dense_task_time."""
    seconds_of = {
        t.object_id: dense_task_time(TaskSpec(t.object_id, t.workload, k), machine)
        for t, k in zip(tasks, result.procs_per_task)
    }
    busy = [sum(seconds_of[tid] for tid in row) for row in result.schedule.rows]
    makespan = max(busy) if busy else 0.0
    return makespan, _idle_fraction(makespan, busy, len(busy))


def run_strategy(scenario: Scenario, strategy: StrategyKind, procs: int) -> StrategyRun:
    """Simulate one solver configuration and keep the intermediate artifacts."""
    tasks = scenario.tasks()
    machine = scenario.machine
    partition = partition_external(scenario.objects, procs)
    external = external_phase_time(partition, machine)
    ideal = ideal_length(tasks, procs)

    if strategy is StrategyKind.NO_REDISTRIBUTION:
        internal, idle = internal_makespan_no_redist(scenario.objects, partition, machine)
        comm = (0, 0, 0.0)
        schedule_result = None
        assignment = None
        c_max_wu = _no_redist_work_units(scenario.objects, partition)
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
    c_max_norm = float(c_max_wu / ideal) if ideal > 0 else 0.0
    return StrategyRun(
        strategy=strategy,
        report=report,
        c_max_norm=c_max_norm,
        partition=partition,
        schedule_result=schedule_result,
        assignment=assignment,
    )


def simulate(scenario: Scenario, strategy: StrategyKind, procs: int) -> SimReport:
    """Per-iteration timing report for one (scenario, strategy, P) cell.

    The matvec time is the external phase plus redistribution plus the
    internal-phase makespan.
    """
    return run_strategy(scenario, strategy, procs).report
