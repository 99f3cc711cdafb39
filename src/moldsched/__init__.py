"""Moldable-task scheduling and simulation for coupled solver workloads."""

from .model import (
    InfeasibleParallelSetError,
    InstanceTooLargeError,
    InvalidScenarioError,
    InvalidTaskError,
    InvariantViolationError,
    MachineModel,
    Object,
    PartitionMap,
    Scenario,
    Schedule,
    SchedulingError,
    ShapeError,
    TaskSpec,
    UndefinedBoundError,
    check_schedule,
    estimate_workload,
    task_duration,
    tasks_from_objects,
)
from .partition import (
    TaskListAssignment,
    assign_task_lists,
    partition_external,
    redistribution_cost,
)
from .sched import (
    ScheduleResult,
    ideal_length,
    is_approx_square,
    lpt_bound,
    lpt_schedule,
    nearest_approx_square,
    next_approx_square_increment,
    oracle_optimal,
    part_bound,
    part_schedule,
)
from .scenarios import gen_bus, gen_interposer, gen_random, gen_srr
from .sim import (
    SimReport,
    StrategyKind,
    StrategyRun,
    dense_task_time,
    external_phase_time,
    grid_factors,
    run_strategy,
    simulate,
)

__version__ = "0.1.0"
