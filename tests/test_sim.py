import heapq
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moldsched as ms
import moldsched.model
import moldsched.sim
from moldsched.cli import main
from moldsched.model import MAX_PROCS, ObjectOrders
from moldsched.sched import ScheduleResult
from moldsched.sim import (
    StrategyKind,
    _idle_fraction,
    _no_redist_work_units,
    _OwnerPlan,
    _schedule_seconds,
    internal_makespan_no_redist,
    run_strategy,
)

from conftest import dense_partition, sparse_partition


def no_redist_seconds(objects, partition, machine):
    """The float no-redist pass on the plan of ``partition``."""
    return internal_makespan_no_redist(_OwnerPlan(objects, partition), machine)


def no_redist_units(objects, partition):
    """The exact no-redist pass on the plan of ``partition``."""
    return _no_redist_work_units(_OwnerPlan(objects, partition))


def reference_simultaneity_schedule(groups, tasks, durations, procs):
    """Owner-group schedule with every task in one lazy heap.

    Kept as the reference for the per-process queues of single-owner
    tasks: each start re-pushes every stale task of its processes.
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


def reference_no_redist_work_units(objects, partition):
    """Owner-group simultaneity schedule in exact Fraction work units.

    Kept as the reference for the integer-scaled pass in the simulator:
    groups are built one object at a time, and durations W / |g| stay
    Fractions throughout.
    """
    groups, durations, workloads = [], [], []
    for obj in objects:
        if obj.edges == 0:
            continue
        g = [int(p) for p in np.nonzero(partition.owned[:, obj.id] > 0)[0]]
        groups.append(g)
        workloads.append(obj.edges * obj.edges)
        durations.append(Fraction(obj.edges * obj.edges, len(g)))
    free = [Fraction(0)] * partition.n_procs
    heap = []
    for i in range(len(groups)):
        heapq.heappush(heap, (Fraction(0), -workloads[i], i))
    while heap:
        ready, negw, i = heapq.heappop(heap)
        cur = max(free[p] for p in groups[i])
        if cur != ready:
            heapq.heappush(heap, (cur, negw, i))
            continue
        for p in groups[i]:
            free[p] = ready + durations[i]
    return max(free, default=Fraction(0))


def reference_dense_seconds(workload, procs, machine):
    """Seconds of a workload on procs >= 1 processes, as the simulator priced it.

    Kept as the reference for ``MachineModel.task_seconds``: the same float
    operations in the same order.
    """
    seconds = machine.t_work * workload / procs
    if procs > 1:
        r, c = ms.grid_factors(procs)
        seconds += machine.gamma_grid * math.sqrt(workload) * (r + c)
    return seconds


class TestGridFactors:
    def test_one_home(self):
        assert ms.grid_factors is moldsched.sim.grid_factors is moldsched.model.grid_factors

    def test_examples(self):
        assert ms.grid_factors(12) == (3, 4)
        assert ms.grid_factors(7) == (1, 7)
        assert ms.grid_factors(16) == (4, 4)

    def test_exhaustive_against_divisor_search(self):
        for p in range(1, 10001):
            r, c = ms.grid_factors(p)
            assert r * c == p and r <= c
            best = min(d + p // d for d in range(1, p + 1) if p % d == 0)
            assert r + c == best


class TestDenseTaskTime:
    def test_examples(self):
        machine = ms.MachineModel(t_work=1.0, gamma_grid=1.0)
        assert ms.dense_task_time(ms.TaskSpec(0, 100, 1), machine) == 100
        assert ms.dense_task_time(ms.TaskSpec(0, 100, 4), machine) == 65
        got = ms.dense_task_time(ms.TaskSpec(0, 100, 7), machine)
        assert got == pytest.approx(100 / 7 + 80)

    def test_monotone_speedup_over_approx_squares(self):
        # once the dense work dominates, more processes is always faster;
        # the monotone range grows with the workload
        machine = ms.MachineModel()
        for w, limit in ((10**6, 16), (10**12, 500)):
            members = [p for p in range(1, limit + 1) if ms.is_approx_square(p)]
            times = [ms.dense_task_time(ms.TaskSpec(0, w, p), machine) for p in members]
            assert all(a > b for a, b in zip(times, times[1:])), w

    def test_elongated_grids_cost_more(self):
        machine = ms.MachineModel()
        w = 10**8
        prime = ms.dense_task_time(ms.TaskSpec(0, w, 127), machine)
        square = ms.dense_task_time(ms.TaskSpec(0, w, 121), machine)
        assert prime > square

    def test_no_processes_rejected(self):
        with pytest.raises(ms.InvalidTaskError):
            ms.dense_task_time(ms.TaskSpec(0, 100, 0), ms.MachineModel())


coefficients = st.one_of(st.sampled_from([0.0, 1e-9, 1.0, 1e300, 1.7e308]),
                         st.floats(0, 1.7e308, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(workload=st.integers(0, 10**12), procs=st.integers(1, MAX_PROCS),
       t_work=coefficients, gamma_grid=coefficients)
@example(workload=10**12, procs=MAX_PROCS, t_work=1.7e308, gamma_grid=1.7e308)
@example(workload=10**12, procs=MAX_PROCS - 1, t_work=0.0, gamma_grid=1e-9)
@example(workload=0, procs=7, t_work=0.0, gamma_grid=0.0)
def test_property_task_seconds_is_the_reference_price(workload, procs, t_work, gamma_grid):
    machine = ms.MachineModel(t_work=t_work, gamma_grid=gamma_grid)
    assert machine.task_seconds(workload, procs) == reference_dense_seconds(workload, procs, machine)


@pytest.mark.parametrize("call", [
    lambda p: ms.part_schedule([ms.TaskSpec(0, 4)], p),
    lambda p: ms.part_schedule([ms.TaskSpec(0, 4)], p, None),
    lambda p: ms.lpt_schedule([ms.TaskSpec(0, 4)], p),
    lambda p: ms.oracle_optimal([ms.TaskSpec(0, 4)], p),
    lambda p: ms.partition_external([ms.Object(0, 4)], p),
    lambda p: run_strategy(ms.gen_bus(1), StrategyKind.NO_REDISTRIBUTION, p),
    lambda p: run_strategy(ms.gen_bus(1), StrategyKind.PROPOSED, p),
], ids=["part_schedule", "part_schedule unlimited", "lpt_schedule", "oracle_optimal",
        "partition_external", "run_strategy no-redist", "run_strategy proposed"])
def test_more_than_max_procs_refused(call):
    # each entry point refuses P before it builds anything of P entries
    with pytest.raises((ms.InvalidTaskError, ms.InvalidScenarioError), match="MAX_PROCS"):
        call(MAX_PROCS + 1)


class TestExternalPhase:
    def test_balanced_loads(self):
        part = dense_partition(np.array([[50, 0], [0, 50]]))
        machine = ms.MachineModel(t_near=1e-3, t_fft=0.0, grid=(0, 0, 0))
        assert ms.external_phase_time(part, machine) == pytest.approx(0.05)

    def test_single_process_full_cost(self):
        part = dense_partition(np.array([[30, 70]]))
        machine = ms.MachineModel(t_near=1.0, t_fft=1.0, grid=(16, 8, 8))
        got = ms.external_phase_time(part, machine)
        assert got == pytest.approx(100 + 1024 * 10)

    def test_bus_grid_term(self):
        scenario = ms.gen_bus(5)
        part = ms.partition_external(scenario.objects, 20)
        machine = scenario.machine
        assert machine.grid_points == 500 * 20 * 8
        got = ms.external_phase_time(part, machine)
        expected = machine.t_near * 3513 + machine.t_fft * 80000 * math.log2(80000) / 20
        assert got == pytest.approx(expected)

    def test_zero_grid_points_drop_fft_term(self):
        part = dense_partition(np.array([[10]]))
        machine = ms.MachineModel(t_near=1.0, t_fft=5.0, grid=(0, 0, 0))
        assert ms.external_phase_time(part, machine) == pytest.approx(10.0)


class TestNoRedistribution:
    def test_disjoint_singletons_no_idle(self):
        objs = [ms.Object(0, 10), ms.Object(1, 10)]
        part = dense_partition(np.array([[10, 0], [0, 10]]))
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.0)
        makespan, idle = no_redist_seconds(objs, part, machine)
        assert makespan == pytest.approx(100.0)
        assert idle == 0.0

    def test_chain_blocks_middle_processor(self):
        # A on {p0,p1}, B on {p1,p2}, equal durations: B waits for A, the
        # outer processors are each idle for half the phase
        objs = [ms.Object(0, 10), ms.Object(1, 10)]
        part = dense_partition(np.array([[5, 0], [5, 5], [0, 5]]))
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.0)
        makespan, idle = no_redist_seconds(objs, part, machine)
        d = 100 / 2
        assert makespan == pytest.approx(2 * d)
        assert idle == pytest.approx((d + 0 + d) / (2 * d) / 3)

    def test_single_object_on_all_processes(self):
        objs = [ms.Object(0, 12)]
        part = ms.partition_external(objs, 4)
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.0)
        makespan, idle = no_redist_seconds(objs, part, machine)
        assert makespan == pytest.approx(144 / 4)
        assert idle == 0.0


class TestNoRedistWorkUnits:
    def _assert_matches(self, objects, partition):
        got = no_redist_units(objects, partition)
        assert isinstance(got, Fraction)
        assert got == reference_no_redist_work_units(objects, partition)

    def test_random_scenarios_match_reference(self):
        for seed in range(20):
            scenario = ms.gen_random(30, (1, 400), seed)
            for procs in range(2, 63, 3):
                part = ms.partition_external(scenario.objects, procs)
                self._assert_matches(scenario.objects, part)

    def test_zero_edge_objects_match_reference(self):
        zero_edge = 0
        for seed in range(10):
            scenario = ms.gen_random(40, (0, 50), seed)
            zero_edge += sum(o.edges == 0 for o in scenario.objects)
            for procs in range(2, 63, 3):
                part = ms.partition_external(scenario.objects, procs)
                self._assert_matches(scenario.objects, part)
        assert zero_edge > 0

    def test_hand_built_partitions_match_reference(self):
        objs = [ms.Object(0, 10), ms.Object(1, 10)]
        singletons = dense_partition(np.array([[10, 0], [0, 10]]))
        chain = dense_partition(np.array([[5, 0], [5, 5], [0, 5]]))
        uneven = [ms.Object(0, 7), ms.Object(1, 0), ms.Object(2, 9)]
        overlap = dense_partition(np.array([[3, 0, 3], [2, 0, 0], [2, 0, 6]]))
        for objects, part in ((objs, singletons), (objs, chain), (uneven, overlap)):
            self._assert_matches(objects, part)
        assert no_redist_units(objs, singletons) == 100
        assert no_redist_units(objs, chain) == 100
        assert no_redist_units(uneven, overlap) == Fraction(49, 3) + Fraction(81, 2)

    def test_only_zero_edge_objects_is_zero(self):
        objs = [ms.Object(0, 0), ms.Object(1, 0)]
        part = dense_partition(np.zeros((3, 2), dtype=np.int64))
        assert no_redist_units(objs, part) == 0
        assert reference_no_redist_work_units(objs, part) == 0


class TestOwnerGroups:
    """The owner-group plan both no-redist passes replay."""

    def test_split_queued_and_unshared_tasks(self):
        # p0 holds whole objects only; the object split over p1 and p2 makes
        # both shared, so p1's whole object waits in its queue; p3 holds nothing
        objs = (ms.Object(0, 4), ms.Object(1, 6), ms.Object(2, 5), ms.Object(3, 3),
                ms.Object(4, 0), ms.Object(5, 4))
        pieces = (((0, 4),), ((1, 3), (2, 3)), ((1, 5),), ((0, 3),), (), ((0, 4),))
        plan = _OwnerPlan(objs, sparse_partition(4, pieces))
        assert plan.workloads == [16, 36, 25, 9, 16]
        assert plan.split == [(1, [1, 2])]
        assert plan.queues == {1: [2]}
        assert plan.unshared == [(0, [0, 4, 3])]
        # p1 and p2 form one group; its heap starts the split task and p1's queue
        assert [sorted(h) for h in plan.heaps] == [[(0, -36, 1, [1, 2]), (0, -25, 2, 1)]]
        assert plan.lone == []

    def test_follow_the_order_of_the_objects(self):
        objs = [ms.Object(0, 7), ms.Object(1, 0), ms.Object(2, 9)]
        part = dense_partition(np.array([[3, 0, 3], [2, 0, 0], [2, 0, 6]]))
        plan = _OwnerPlan(objs, part)
        assert plan.workloads == [49, 81]
        assert plan.split == [(1, [0, 2]), (0, [0, 1, 2])]
        assert (plan.queues, plan.unshared) == ({}, [])
        assert _OwnerPlan(objs[::-1], part).split == [(0, [0, 2]), (1, [0, 1, 2])]


def reference_no_redist_seconds(objects, partition, machine):
    """Float makespan and idle fraction of the owner-group schedule, from the one-heap reference."""
    groups, tasks = [], []
    for obj in objects:
        if obj.edges == 0:
            continue
        g = [int(p) for p in np.nonzero(partition.owned[:, obj.id] > 0)[0]]
        groups.append(g)
        tasks.append(ms.TaskSpec(obj.id, obj.edges * obj.edges, len(g)))
    durations = [ms.dense_task_time(t, machine) for t in tasks]
    makespan, busy = reference_simultaneity_schedule(groups, tasks, durations, partition.n_procs)
    return float(makespan), _idle_fraction(float(makespan), busy, partition.n_procs)


def assert_passes_match_references(objects, part, machine):
    got = no_redist_seconds(objects, part, machine)
    assert got == reference_no_redist_seconds(objects, part, machine)
    assert no_redist_units(objects, part) == reference_no_redist_work_units(objects, part)


def assert_no_redist_matches_references(objects, procs, machine):
    assert_passes_match_references(objects, ms.partition_external(objects, procs), machine)


def alternating_cases(srr):
    """(objects tuple, P values): SRR in id order and shuffled, and a small random file."""
    shuffled = list(srr.objects)
    random.Random(2).shuffle(shuffled)
    small = ms.gen_random(40, (0, 50), 3)
    return ((srr.objects, (200, 1000)), (tuple(shuffled), (200, 1000)),
            (small.objects, (3, 17, 60)))


class TestOrdersPerObjectsTuple:
    """Both no-redist passes read the (-W, position) order kept for the last objects tuple."""

    def test_alternating_scenarios(self, srr):
        for objects, procs_list in alternating_cases(srr) * 2:
            for procs in procs_list:
                assert_no_redist_matches_references(objects, procs, srr.machine)

    def test_plan_built_once_per_cell_for_a_tuple(self, srr, tmp_path, monkeypatch):
        built = []
        init = _OwnerPlan.__init__

        def counting_init(plan, objects, partition):
            built.append((plan, objects))
            init(plan, objects, partition)

        monkeypatch.setattr(_OwnerPlan, "__init__", counting_init)
        for kind in StrategyKind:
            built.clear()
            run_strategy(srr, kind, 200)
            if kind is StrategyKind.NO_REDISTRIBUTION:
                ((plan, objects),) = built
                assert objects is srr.objects
                assert plan.workloads is ObjectOrders.of(srr.objects).workloads
            else:
                assert built == []
        # a sweep builds one plan per no-redist cell, and none for the others
        path, out = tmp_path / "srr.json", tmp_path / "sweep.csv"
        assert main(["gen", "srr", "-o", str(path)]) == 0
        for strategies, plans in (("no-redist", 3), ("proposed,any-pi", 0),
                                  ("proposed,any-pi,no-redist", 3)):
            built.clear()
            argv = ["sweep", str(path), "--procs", "20:100:40", "--strategies", strategies]
            assert main(argv + ["-o", str(out)]) == 0
            assert len(built) == plans
            assert all(objects == srr.objects for _, objects in built)

    def test_list_changed_in_place_is_not_stale(self):
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.5)
        objs = list(ms.gen_random(30, (0, 40), 4).objects)
        for procs in (7, 40):
            assert_no_redist_matches_references(objs, procs, machine)
        part = ms.partition_external(objs, 40)
        plan = _OwnerPlan(objs, part)
        objs.reverse()
        again = _OwnerPlan(objs, part)
        last = len(plan.workloads) - 1
        assert again.workloads == plan.workloads[::-1]
        assert dict(again.split) == {last - i: g for i, g in plan.split}
        objs[3] = ms.Object(objs[3].id, 300)
        random.Random(4).shuffle(objs)
        for procs in (7, 40):
            assert_no_redist_matches_references(objs, procs, machine)


def owner_groups(objects, partition):
    """Owning processes of each object with edges, in the objects' order."""
    return [[p for p, _ in partition.pieces[o.id]] for o in objects if o.edges > 0]


def plan_of_groups(groups, edges, procs):
    """The plan of objects 0..n-1 (edges > 0), object i on groups[i].

    The plan reads only which processes hold an object's pieces, so each
    piece is given one edge.
    """
    objects = tuple(ms.Object(i, e) for i, e in enumerate(edges))
    pieces = tuple(tuple((p, 1) for p in g) for g in groups)
    return _OwnerPlan(objects, sparse_partition(procs, pieces))


def assert_schedule_matches_reference(groups, edges, durations, procs):
    """Replay the plan of ``plan_of_groups`` against the one-heap reference."""
    got = plan_of_groups(groups, edges, procs).replay(durations)
    tasks = [ms.TaskSpec(i, e * e, len(g)) for i, (g, e) in enumerate(zip(groups, edges))]
    assert got == reference_simultaneity_schedule(groups, tasks, durations, procs)


def assert_owner_schedules_match(objects, partition, machine):
    """The plan replayed with both passes' durations: float seconds and lcm-scaled work units."""
    plan = _OwnerPlan(objects, partition)
    groups = owner_groups(objects, partition)
    tasks = [ms.TaskSpec(0, o.edges * o.edges, len(g))
             for o, g in zip([o for o in objects if o.edges > 0], groups)]
    scale = math.lcm(*(t.procs for t in tasks))
    seconds = [ms.dense_task_time(t, machine) for t in tasks]
    units = [t.workload * (scale // t.procs) for t in tasks]
    for durations in (seconds, units):
        got = plan.replay(durations)
        assert got == reference_simultaneity_schedule(groups, tasks, durations, partition.n_procs)


class TestSimultaneitySchedule:
    def test_structures_match_reference(self, interposer, srr):
        cells = ((srr, (20, 1000)), (interposer, (40, 640)), (ms.gen_bus(40), (20, 640)))
        for scenario, procs_list in cells:
            for procs in procs_list:
                part = ms.partition_external(scenario.objects, procs)
                assert_owner_schedules_match(scenario.objects, part, scenario.machine)

    def test_random_scenarios_match_reference(self):
        for seed in range(20):
            scenario = ms.gen_random(30, (1, 400), seed)
            for procs in range(2, 63, 3):
                part = ms.partition_external(scenario.objects, procs)
                assert_owner_schedules_match(scenario.objects, part, scenario.machine)

    def test_hand_built_partitions_match_reference(self):
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.5)
        objs = [ms.Object(0, 10), ms.Object(1, 10)]
        chain = dense_partition(np.array([[5, 0], [5, 5], [0, 5]]))
        uneven = [ms.Object(0, 7), ms.Object(1, 0), ms.Object(2, 9)]
        overlap = dense_partition(np.array([[3, 0, 3], [2, 0, 0], [2, 0, 6]]))
        for objects, part in ((objs, chain), (uneven, overlap)):
            assert_owner_schedules_match(objects, part, machine)

    def test_unshared_process_adds_in_queue_order(self):
        # process 0 holds whole objects only; 1 and 2 share one.  Added in
        # (-W, index) order, 1e16 swallows each 1.0; any other order or a
        # compensated sum gives 1e16 + 2.
        groups = [[0], [0], [1, 2], [0], [1]]
        edges = [2, 9, 5, 2, 3]
        durations = [1.0, 1e16, 4.0, 1.0, 2.0]
        assert_schedule_matches_reference(groups, edges, durations, 3)
        plan = plan_of_groups(groups, edges, 3)
        assert plan.unshared == [(0, [1, 0, 3])]
        makespan, busy = plan.replay(durations)
        assert makespan == busy[0] == 1e16
        assert busy[1:] == [6.0, 4.0]

    def test_random_1500_objects_match_references(self):
        scenario = ms.gen_random(1500, (50, 1500), 0)
        for procs, split in ((760, False), (1000, True)):
            part = ms.partition_external(scenario.objects, procs)
            shared = {p for pieces in part.pieces if len(pieces) > 1 for p, _ in pieces}
            assert bool(shared) is split and len(shared) < procs
            assert_owner_schedules_match(scenario.objects, part, scenario.machine)
            units = no_redist_units(scenario.objects, part)
            assert units == reference_no_redist_work_units(scenario.objects, part)

    def test_past_p_1000_match_references(self, srr, interposer, random300):
        for scenario in (srr, interposer, random300):
            for procs in (2000, 4000):
                assert_no_redist_matches_references(scenario.objects, procs, scenario.machine)

    def test_zero_durations_match_reference(self, srr):
        machine = ms.MachineModel(t_work=0.0, gamma_grid=0.0)
        for procs in (20, 1000):
            part = ms.partition_external(srr.objects, procs)
            groups = owner_groups(srr.objects, part)
            edges = [o.edges for o in srr.objects if o.edges > 0]
            seconds = [ms.dense_task_time(ms.TaskSpec(0, e * e, len(g)), machine)
                       for g, e in zip(groups, edges)]
            assert set(seconds) == {0.0}
            for durations in (seconds, [0] * len(edges)):
                assert_schedule_matches_reference(groups, edges, durations, procs)

    def test_groups_interleaving_in_the_one_heap_order(self):
        # two independent groups, {0, 1} and {2, 3}, each with two split
        # tasks and two queued ones; by workload their tasks alternate
        # between the groups, so the one-heap reference pops them
        # interleaved while the plan runs each group to the end in turn
        groups = [[0, 1], [2, 3], [0], [3], [0, 1], [2, 3], [1], [2]]
        edges = [10, 9, 8, 7, 6, 5, 4, 3]
        plan = plan_of_groups(groups, edges, 4)
        assert [sorted(k[2] for k in h) for h in plan.heaps] == [[0, 2, 4, 6], [1, 3, 5, 7]]
        assert plan.lone == []
        for durations in ([3, 5, 1, 2, 4, 1, 6, 2], [0.3, 0.5, 0.1, 0.2, 0.4, 0.1, 0.6, 0.2]):
            assert_schedule_matches_reference(groups, edges, durations, 4)
        # {0, 1}: the first split ends at 3, p1's queued task at 9, the second
        # split then runs 9 to 13; {2, 3} ends at 8
        assert plan.replay([3, 5, 1, 2, 4, 1, 6, 2]) == (13, [8, 13, 8, 8])

    def test_lone_split_tasks(self):
        # each split task is alone on its processes: no heap, both start at 0
        groups = [[0, 1], [2, 3, 4], [5]]
        edges = [4, 5, 3]
        plan = plan_of_groups(groups, edges, 6)
        assert (plan.heaps, plan.lone) == ([], [(1, [2, 3, 4]), (0, [0, 1])])
        for durations in ([7, 2, 3], [0.7, 0.2, 0.3]):
            assert_schedule_matches_reference(groups, edges, durations, 6)
        # a start at 0 adds 0 + d, which turns a -0.0 into 0.0
        makespan, busy = plan.replay([-0.0, -0.0, -0.0])
        assert [math.copysign(1, t) for t in (makespan, *busy)] == [1] * 7


OWNER_SCHEDULE_KINDS = ("independent", "chained", "lone", "queued")


@st.composite
def owner_schedules(draw):
    """Random mixed single-owner and multi-process groups, many equal
    workloads, with the owner groups of one of four kinds:

    - independent: two or more process groups that no task joins;
    - chained: a group joined through two or more split tasks;
    - lone: a split task on processes that hold no other task;
    - queued: a split task on a process that also holds single-owner tasks.

    The kind is built on processes of its own, beside random tasks on the
    others, and the rows are shuffled, so positions tie in any order.
    """
    kind = draw(st.sampled_from(OWNER_SCHEDULE_KINDS))
    free = draw(st.integers(0, 12))
    group = st.one_of(
        st.integers(0, max(free - 1, 0)).map(lambda p: [p]),
        st.lists(st.integers(0, max(free - 1, 0)), min_size=1, max_size=max(free, 1),
                 unique=True).map(sorted),
    )
    groups = draw(st.lists(group, max_size=40 if free else 0))
    procs = free
    if kind == "independent":
        for _ in range(draw(st.integers(2, 3))):
            size = draw(st.integers(2, 4))
            block = list(range(procs, procs + size))
            procs += size
            groups.append(block)
            groups += draw(st.lists(st.sampled_from(block).map(lambda p: [p]), max_size=3))
    elif kind == "chained":
        size = draw(st.integers(3, 5))
        groups += [[procs + k, procs + k + 1] for k in range(size - 1)]
        groups += draw(st.lists(st.integers(procs, procs + size - 1).map(lambda p: [p]),
                                max_size=4))
        procs += size
    else:
        size = draw(st.integers(2, 4))
        groups.append(list(range(procs, procs + size)))
        if kind == "queued":
            groups += draw(st.lists(st.integers(procs, procs + size - 1).map(lambda p: [p]),
                                    min_size=1, max_size=4))
        procs += size
    groups = draw(st.permutations(groups))
    n = len(groups)
    edges = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    durations = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    return kind, groups, edges, durations, procs


def has_owner_schedule_kind(plan, kind):
    if kind == "independent":
        return len(plan.heaps) + len(plan.lone) >= 2
    if kind == "chained":
        return any(sum(type(k[3]) is list for k in h) >= 2 for h in plan.heaps)
    if kind == "lone":
        return bool(plan.lone)
    return bool(plan.queues)


@settings(max_examples=300, deadline=None)
@given(case=owner_schedules())
# the last split object in the walk, [2, 5], joins {0, 1, 2} and {3, 4, 5}
# through processes that are not their groups' first: each group holds two
# split tasks and queued ones
@example(case=("chained", [[0, 1], [1, 2], [3, 4], [4, 5], [0], [5], [2], [2, 5], [4]],
               [10, 9, 8, 7, 6, 5, 4, 1, 2], [3, 5, 1, 2, 4, 1, 6, 2, 3], 6))
# [1, 2] finds 1 and 2 already in one group through [0, 1] and [0, 2], so
# its union links nothing; process 3 is unshared
@example(case=("chained", [[0, 1], [0, 2], [1, 2], [1], [2], [3]],
               [5, 4, 3, 2, 2, 7], [2, 3, 1, 4, 0, 5], 4))
def test_property_simultaneity_schedule_matches_reference(case):
    kind, groups, edges, durations, procs = case
    assert has_owner_schedule_kind(plan_of_groups(groups, edges, procs), kind)
    assert_schedule_matches_reference(groups, edges, durations, procs)
    seconds = [d / 3 for d in durations]
    assert_schedule_matches_reference(groups, edges, seconds, procs)


def in_order_sum(values):
    total = 0
    for v in values:
        total += v
    return total


class TestPlainSums:
    """Float sums are added left to right, the same on every supported Python."""

    def test_plain_sum_is_not_compensated(self):
        values = [1e16, 1.0, 1.0]
        assert math.fsum(values) == 1e16 + 2  # what builtin sum gives from Python 3.12
        assert ms.model.plain_sum(values) == in_order_sum(values) == 1e16

    def test_idle_fraction(self):
        # idle shares 1, 2**-53 and 2**-53: each small one is half an ulp of 1.0
        busy = [0.0, 1.0 - 2.0**-53, 1.0 - 2.0**-53]
        shares = [(1.0 - b) / 1.0 for b in busy]
        assert in_order_sum(shares) != math.fsum(shares)
        assert _idle_fraction(1.0, busy, 3) == in_order_sum(shares) / 3

    def test_schedule_seconds(self):
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.0)
        tasks = [ms.TaskSpec(0, 10**16), ms.TaskSpec(1, 1), ms.TaskSpec(2, 1)]
        result = ms.lpt_schedule(tasks, 1)
        assert result.schedule.rows == ((0, 1, 2),)
        assert _schedule_seconds(result, tasks, machine) == (1e16, 0.0)


def reference_schedule_seconds(result, tasks, machine):
    """Makespan/idle with every row's slots summed left to right from 0, row by row.

    Kept as the reference for the slot pricing that sums each distinct
    row tuple once.
    """
    price = machine.task_seconds
    seconds_of = {t.object_id: price(t.workload, k) for t, k in zip(tasks, result.procs_per_task)}
    busy = []
    for row in result.schedule.rows:
        total = 0
        for tid in row:
            total += seconds_of[tid]
        busy.append(total)
    makespan = max(busy) if busy else 0.0
    return makespan, _idle_fraction(makespan, busy, len(busy))


@st.composite
def repeated_row_schedules(draw):
    """Hand-built rows around parallel groups, each row in one of two slot orders.

    Groups drawn over the same rows give equal row tuples, or the same
    tasks in the other order; sequential tasks make some rows distinct,
    and rows holding no task stay empty.
    """
    procs = draw(st.integers(2, 12))
    members_of = [sorted(draw(st.sets(st.integers(0, procs - 1), min_size=2)))
                  for _ in range(draw(st.integers(1, 3)))]
    members_of += [[r] for r in draw(st.lists(st.integers(0, procs - 1), max_size=6))]
    rows = [[] for _ in range(procs)]
    for tid, members in enumerate(members_of):
        for r in members:
            rows[r].append(tid)
    rows = tuple(tuple(row[::-1]) if draw(st.booleans()) else tuple(row) for row in rows)
    workloads = st.sampled_from([0, 1, 3, 7, 10**6 + 1, 10**16])
    tasks = [ms.TaskSpec(tid, draw(workloads), len(members))
             for tid, members in enumerate(members_of)]
    schedule = ms.Schedule(rows, tasks)
    procs_per_task = tuple(len(members) for members in members_of)
    result = ScheduleResult(schedule, schedule.makespan(), procs_per_task, 0, False, "none")
    return result, tasks


def part_schedule_case(edges, procs, cutoff):
    objects = [ms.Object(i, e) for i, e in enumerate(edges)]
    tasks = ms.tasks_from_objects(objects)
    return ms.part_schedule(tasks, procs, cutoff), tasks


slot_coefficients = st.sampled_from([0.0, 1e-9, 0.1, 1.0, 3.7e-5, 1e300])


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(
        repeated_row_schedules(),
        st.builds(part_schedule_case,
                  st.lists(st.integers(0, 60), min_size=1, max_size=30).filter(any),
                  st.integers(1, 40), st.one_of(st.none(), st.integers(1, 20))),
    ),
    t_work=slot_coefficients, gamma_grid=slot_coefficients,
)
def test_property_schedule_seconds_is_the_reference(case, t_work, gamma_grid):
    # the same float sums bit for bit, so the same makespan and idle fraction
    result, tasks = case
    machine = ms.MachineModel(t_work=t_work, gamma_grid=gamma_grid)
    got = _schedule_seconds(result, tasks, machine)
    assert repr(got) == repr(reference_schedule_seconds(result, tasks, machine))


class TestSimulate:
    def test_single_object_single_process_strategies_agree(self):
        scenario = ms.gen_random(1, (40, 40), seed=1)
        reports = [ms.simulate(scenario, kind, 1) for kind in StrategyKind]
        baseline = reports[0]
        for report in reports[1:]:
            assert report == baseline
        assert baseline.comm == (0, 0, 0.0)

    def test_bus_proposed_matches_pairwise_dense_time(self):
        scenario = ms.gen_bus(5)
        run = run_strategy(scenario, StrategyKind.PROPOSED, 20)
        assert run.schedule_result.procs_per_task == (2,) * 10
        expected = ms.dense_task_time(ms.TaskSpec(0, 7026**2, 2), scenario.machine)
        assert run.report.internal_makespan == pytest.approx(expected)
        assert run.report.t_gen == pytest.approx(expected)

    def test_weak_scaling_flat_internal_makespan(self, bus_runs):
        runs, _ = bus_runs
        values = [run.report.internal_makespan for _, _, run in runs]
        spread = (max(values) - min(values)) / max(values)
        assert spread <= 1e-9

    def test_proposed_internal_never_loses(self, interposer, srr):
        sweeps = ((interposer, range(40, 641, 40)), (srr, (20, 40, 80, 160, 320, 640, 1000)))
        for scenario, procs_list in sweeps:
            for procs in procs_list:
                prop = ms.simulate(scenario, StrategyKind.PROPOSED, procs)
                nored = ms.simulate(scenario, StrategyKind.NO_REDISTRIBUTION, procs)
                assert prop.internal_makespan <= nored.internal_makespan, (
                    scenario.name,
                    procs,
                )

    def test_simulate_is_deterministic(self, interposer):
        a = ms.simulate(interposer, StrategyKind.ANY_PI, 160)
        b = ms.simulate(interposer, StrategyKind.ANY_PI, 160)
        assert a == b

    def test_zero_edge_objects_flow_through(self):
        scenario = ms.Scenario(
            name="degenerate",
            objects=(ms.Object(0, 0), ms.Object(1, 10), ms.Object(2, 4)),
            machine=ms.MachineModel(grid=(8, 8, 8)),
        )
        for kind in StrategyKind:
            report = ms.simulate(scenario, kind, 2)
            assert report.internal_makespan >= 0
            assert report.idle_fraction >= 0

    def test_partition_that_does_not_fit_the_cell(self, srr, interposer):
        assert len(interposer.objects) != len(srr.objects)
        other_p = ms.partition_external(srr.objects, 50)
        other_scenario = ms.partition_external(interposer.objects, 100)
        fits = ms.partition_external(srr.objects, 100)
        for kind in StrategyKind:
            for part in (other_p, other_scenario):
                with pytest.raises(ms.ShapeError):
                    run_strategy(srr, kind, 100, part)
            assert run_strategy(srr, kind, 100, fits).report == ms.simulate(srr, kind, 100)

    def test_partition_of_objects_with_another_edge_total(self, srr):
        other = ms.gen_srr((1116, 279, 93))
        assert len(other.objects) == len(srr.objects)
        part = ms.partition_external(other.objects, 100)
        assert (sum(part.loads), ObjectOrders.of(srr.objects).total) == (1282098, 1282284)
        for kind in StrategyKind:
            with pytest.raises(ms.ShapeError, match="1282098 edges"):
                run_strategy(srr, kind, 100, part)

    def test_partition_of_other_objects_with_the_same_edge_total_passes(self):
        # only the shape and the edge total are checked, not each object's edges
        scenario = ms.Scenario(name="two", objects=(ms.Object(0, 5), ms.Object(1, 3)))
        swapped = ms.partition_external((ms.Object(0, 3), ms.Object(1, 5)), 2)
        for kind in StrategyKind:
            run_strategy(scenario, kind, 2, swapped)

    def test_report_fields_are_sane(self, interposer):
        report = ms.simulate(interposer, StrategyKind.PROPOSED, 80)
        assert report.p == 80
        assert report.t_iter_avg == report.t_matvec_avg
        assert report.t_matvec_avg >= report.internal_makespan
        assert 0.0 <= report.idle_fraction <= 1.0
        edges, messages, seconds = report.comm
        assert edges >= 0 and messages >= 0 and seconds >= 0
        assert messages <= 80 * 79
