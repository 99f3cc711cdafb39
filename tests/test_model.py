from fractions import Fraction
from types import SimpleNamespace

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
    # an Object checks nothing; the objects tuple is checked where it is read
    objects = (ms.Object(0, 2), ms.Object(1, -1))
    with pytest.raises(ms.InvalidScenarioError, match="object 1: edges must be >= 0, got -1"):
        ms.Scenario(name="neg", objects=objects)
    with pytest.raises(ms.InvalidScenarioError, match="object 1: edges must be >= 0, got -1"):
        ms.partition_external(objects, 2)


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


def test_schedule_keeps_the_workloads_it_was_built_with():
    tasks = [ms.TaskSpec(0, 6, 2), ms.TaskSpec(1, 3)]
    schedule = ms.Schedule(((0,), (0, 1)), tasks)
    # the list changes before the times are first read
    tasks[0] = ms.TaskSpec(0, 60, 2)
    tasks.pop()
    assert schedule.start_times == ((0,), (0, 3))
    assert schedule.finish_times == (3, 6)
    check_schedule(schedule, list(schedule.tasks), 2)
    # a tuple is kept as it is
    frozen = tuple(schedule.tasks)
    assert ms.Schedule(schedule.rows, frozen).tasks is frozen


def stand_in(schedule, **changes):
    """The four attributes check_schedule reads, with some of them changed.

    A Schedule makes its own times from its rows, so a broken one is
    built as this stand-in.
    """
    attrs = {name: getattr(schedule, name)
             for name in ("rows", "tasks", "start_times", "finish_times")}
    return SimpleNamespace(**{**attrs, **changes})


def test_validator_rejects_bad_finish_time():
    tasks = [ms.TaskSpec(i, w) for i, w in enumerate([5, 4, 3])]
    schedule = ms.lpt_schedule(tasks, 2).schedule
    broken = stand_in(
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


def test_validator_rejects_unknown_task_in_row():
    tasks = [ms.TaskSpec(i, w) for i, w in enumerate([5, 4])]
    schedule = ms.lpt_schedule(tasks, 2).schedule
    broken = stand_in(schedule, rows=((0,), (1, 7)))
    with pytest.raises(ms.InvariantViolationError, match="row 1 contains unknown task 7"):
        check_schedule(broken, tasks, 2)


# A real Schedule makes its times from its own tasks, so the row checks must
# come before any time is read: these rows name a task whose workload it lacks.
def test_validator_rejects_unknown_task_in_a_real_schedule():
    tasks = [ms.TaskSpec(i, w) for i, w in enumerate([5, 4])]
    schedule = ms.Schedule(((0, 7), (1,)), tasks)
    with pytest.raises(ms.InvariantViolationError, match="row 0 contains unknown task 7"):
        check_schedule(schedule, tasks, 2)


def test_validator_rejects_a_task_the_schedule_has_no_workload_for():
    tasks = [ms.TaskSpec(i, w) for i, w in enumerate([5, 4])]
    schedule = ms.Schedule(((0,), (1,)), tasks[:1])
    with pytest.raises(ms.InvariantViolationError, match="row 1 holds task 1, which the schedule"):
        check_schedule(schedule, tasks, 2)


def test_validator_rejects_task_twice_in_one_row():
    tasks = [ms.TaskSpec(i, w) for i, w in enumerate([5, 4])]
    schedule = ms.lpt_schedule(tasks, 2).schedule
    broken = stand_in(schedule, rows=((0, 0), (1,)))
    with pytest.raises(ms.InvariantViolationError, match="task 0 appears twice in row 0"):
        check_schedule(broken, tasks, 2)


def test_validator_rejects_desynced_parallel_start():
    tasks = [ms.TaskSpec(0, 8, 2), ms.TaskSpec(1, 3, 1)]
    schedule = ms.lpt_schedule(tasks, 3).schedule
    starts = [list(s) for s in schedule.start_times]
    starts[1][0] += 1  # second member of the parallel group drifts
    broken = stand_in(
        schedule, start_times=tuple(tuple(s) for s in starts)
    )
    with pytest.raises(ms.InvariantViolationError):
        check_schedule(broken, tasks, 3)


def test_validator_rejects_late_first_slot():
    # every row runs back to back from 1, and each F_p is its row's sum
    # from there: consistent, but the rows must start at 0
    tasks = [ms.TaskSpec(0, 8, 2), ms.TaskSpec(1, 3, 1)]
    schedule = SimpleNamespace(
        rows=((0,), (0,), (1,)),
        tasks=tuple(tasks),
        start_times=((Fraction(1),), (Fraction(1),), (Fraction(1),)),
        finish_times=(Fraction(5), Fraction(5), Fraction(4)),
    )
    with pytest.raises(ms.InvariantViolationError, match="start 1 != expected 0"):
        check_schedule(schedule, tasks, 3)


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
    schedule = SimpleNamespace(
        rows=((0,), (0, 1), (1,)),
        tasks=tuple(tasks),
        start_times=(
            (Fraction(0),),
            (Fraction(0), Fraction(4)),
            (Fraction(4),),
        ),
        finish_times=(Fraction(4), Fraction(7), Fraction(7)),
    )
    with pytest.raises(ms.InvariantViolationError):
        check_schedule(schedule, tasks, 3)


def test_row_classes_of_a_hand_built_schedule():
    # parallel tasks 0 (rows 0-2) and 1 (rows 0-1, in two slot orders), sequential
    # tasks 2 and 3 beside task 0 and on their own, and an empty row
    tasks = [ms.TaskSpec(0, 3, 3), ms.TaskSpec(1, 2, 2), ms.TaskSpec(2, 1), ms.TaskSpec(3, 1)]
    rows = ((0, 1), (1, 0), (2, 0), (3,), (), (0, 1))
    schedule = ms.Schedule(rows[:5], tasks)
    view = schedule.row_classes
    assert view is schedule.row_classes
    assert view.by_tuple == {(0, 1): [0], (1, 0): [1], (2, 0): [2], (3,): [3], (): [4]}
    assert view.classes == [((0, 1), [0]), ((1, 0), [1]), ((0,), [2])]
    assert view.sequential == {2: (2, (2,)), 3: (-1, (3,))}
    # a repeated tuple is one class with its rows in ascending order
    tasks[0] = ms.TaskSpec(0, 3, 4)
    tasks[1] = ms.TaskSpec(1, 2, 3)
    view = ms.Schedule(rows, tasks).row_classes
    assert view.by_tuple[(0, 1)] == [0, 5]
    assert view.classes == [((0, 1), [0, 5]), ((1, 0), [1]), ((0,), [2])]
