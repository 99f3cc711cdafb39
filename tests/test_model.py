import dataclasses
from fractions import Fraction

import pytest

import moldsched as ms
from moldsched.model import check_schedule


def test_estimate_workload_examples():
    assert ms.estimate_workload(0) == 0
    assert ms.estimate_workload(1000) == 1_000_000
    # per-conductor edge count of the bus family, squared by hand
    assert ms.estimate_workload(7026) == 49_364_676


def test_estimate_workload_monotone():
    values = [ms.estimate_workload(e) for e in range(200)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_estimate_workload_rejects_negative():
    with pytest.raises(ms.InvalidTaskError):
        ms.estimate_workload(-1)


def test_task_duration_examples():
    assert ms.task_duration(ms.TaskSpec(0, 12, 4)) == 3
    assert ms.task_duration(ms.TaskSpec(0, 8, 1)) == 8
    assert ms.task_duration(ms.TaskSpec(0, 49_364_676, 2)) == 24_682_338


def test_task_duration_is_exact():
    d = ms.task_duration(ms.TaskSpec(0, 10, 3))
    assert d == Fraction(10, 3)
    assert isinstance(d, Fraction)


def test_task_duration_sequential_identity():
    for w in (0, 1, 17, 49_364_676):
        assert ms.task_duration(ms.TaskSpec(0, w, 1)) == w


def test_task_duration_zero_procs_invalid():
    with pytest.raises(ms.InvalidTaskError):
        ms.task_duration(ms.TaskSpec(0, 5, 0))


def test_object_rejects_negative_edges():
    with pytest.raises(ms.InvalidTaskError):
        ms.Object(0, -3)


def test_tasks_from_objects():
    objs = [ms.Object(0, 3), ms.Object(1, 0)]
    tasks = ms.tasks_from_objects(objs)
    assert [(t.object_id, t.workload, t.procs) for t in tasks] == [(0, 9, 1), (1, 0, 1)]


def test_scenario_validation():
    with pytest.raises(ms.InvalidScenarioError):
        ms.Scenario(name="dup", objects=(ms.Object(0, 1), ms.Object(0, 2)))
    with pytest.raises(ms.InvalidScenarioError):
        ms.Scenario(name="it", objects=(ms.Object(0, 1),), iterations=0)
    # no grid factor is negative
    with pytest.raises(ms.InvalidScenarioError):
        ms.MachineModel(grid=(-2, -2, 1))
    ok = ms.Scenario(
        name="g", objects=(ms.Object(0, 1),), machine=ms.MachineModel(grid=(8, 8, 8)),
    )
    assert ok.machine.grid_points == 512


def test_scenario_object_ids_are_indices():
    for ids in ((1, 3), (0, 2), (1,)):
        with pytest.raises(ms.InvalidScenarioError, match="0..N-1"):
            ms.Scenario(name="ids", objects=tuple(ms.Object(i, 1) for i in ids))
    # any order of 0..N-1 is accepted; partition columns are indexed by id
    shuffled = ms.Scenario(name="ids", objects=(ms.Object(1, 4), ms.Object(0, 2)))
    assert [t.object_id for t in shuffled.tasks()] == [1, 0]


def test_scenario_tasks_built_once():
    scenario = ms.gen_random(5, (1, 9), seed=0)
    assert scenario.tasks() is scenario.tasks()
    assert scenario.tasks() == ms.tasks_from_objects(scenario.objects)


def test_validator_accepts_scheduler_output():
    tasks = [ms.TaskSpec(i, w) for i, w in enumerate([5, 4, 3, 3, 2])]
    result = ms.lpt_schedule(tasks, 2)
    check_schedule(result.schedule, tasks, 2)

    moldable = [ms.TaskSpec(i, w) for i, w in enumerate([8, 2, 2])]
    result = ms.part_schedule(moldable, 4, None)
    check_schedule(result.schedule, moldable, 4)


def test_validator_rejects_bad_finish_time():
    tasks = [ms.TaskSpec(i, w) for i, w in enumerate([5, 4, 3])]
    schedule = ms.lpt_schedule(tasks, 2).schedule
    broken = dataclasses.replace(
        schedule, finish_times=tuple(f + 1 for f in schedule.finish_times)
    )
    with pytest.raises(ms.InvariantViolationError):
        check_schedule(broken, tasks, 2)


def test_validator_rejects_missing_task():
    tasks = [ms.TaskSpec(i, w) for i, w in enumerate([5, 4])]
    schedule = ms.lpt_schedule(tasks, 2).schedule
    extra = tasks + [ms.TaskSpec(2, 7)]
    with pytest.raises(ms.InvariantViolationError):
        check_schedule(schedule, extra, 2)


def test_validator_rejects_desynced_parallel_start():
    tasks = [ms.TaskSpec(0, 8, 2), ms.TaskSpec(1, 3, 1)]
    schedule = ms.lpt_schedule(tasks, 3).schedule
    starts = [list(s) for s in schedule.start_times]
    starts[1][0] += 1  # second member of the parallel group drifts
    broken = dataclasses.replace(
        schedule, start_times=tuple(tuple(s) for s in starts)
    )
    with pytest.raises(ms.InvariantViolationError):
        check_schedule(broken, tasks, 3)


def test_validator_rejects_row_count_mismatch():
    tasks = [ms.TaskSpec(0, 8, 2), ms.TaskSpec(1, 6, 2)]
    result = ms.lpt_schedule(tasks, 4)
    check_schedule(result.schedule, tasks, 4)
    with pytest.raises(ms.InvariantViolationError):
        check_schedule(result.schedule, tasks, 3)


def test_validator_rejects_overbooked_parallel_budget():
    # two 2-process tasks time-sharing processor 1: coverage and starts are
    # consistent, but the simultaneity budget needs 4 > 3 processors
    tasks = [ms.TaskSpec(0, 8, 2), ms.TaskSpec(1, 6, 2)]
    schedule = ms.Schedule(
        rows=((0,), (0, 1), (1,)),
        start_times=(
            (Fraction(0),),
            (Fraction(0), Fraction(4)),
            (Fraction(4),),
        ),
        proc_assignment={0: frozenset({0, 1}), 1: frozenset({1, 2})},
        finish_times=(Fraction(4), Fraction(7), Fraction(7)),
    )
    with pytest.raises(ms.InvariantViolationError):
        check_schedule(schedule, tasks, 3)
