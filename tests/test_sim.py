import gc
import heapq
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moldsched as ms
from moldsched.model import ObjectOrders
from moldsched.sim import (
    StrategyKind,
    _idle_fraction,
    _no_redist_work_units,
    _OwnerPlan,
    _owner_plans,
    _schedule_seconds,
    run_strategy,
)

from conftest import dense_partition, sparse_partition


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


class TestGridFactors:
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
        makespan, idle = ms.internal_makespan_no_redist(objs, part, machine)
        assert makespan == pytest.approx(100.0)
        assert idle == 0.0

    def test_chain_blocks_middle_processor(self):
        # A on {p0,p1}, B on {p1,p2}, equal durations: B waits for A, the
        # outer processors are each idle for half the phase
        objs = [ms.Object(0, 10), ms.Object(1, 10)]
        part = dense_partition(np.array([[5, 0], [5, 5], [0, 5]]))
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.0)
        makespan, idle = ms.internal_makespan_no_redist(objs, part, machine)
        d = 100 / 2
        assert makespan == pytest.approx(2 * d)
        assert idle == pytest.approx((d + 0 + d) / (2 * d) / 3)

    def test_single_object_on_all_processes(self):
        objs = [ms.Object(0, 12)]
        part = ms.partition_external(objs, 4)
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.0)
        makespan, idle = ms.internal_makespan_no_redist(objs, part, machine)
        assert makespan == pytest.approx(144 / 4)
        assert idle == 0.0


class TestNoRedistWorkUnits:
    def _assert_matches(self, objects, partition):
        got = _no_redist_work_units(objects, partition)
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
        assert _no_redist_work_units(objs, singletons) == 100
        assert _no_redist_work_units(objs, chain) == 100
        assert _no_redist_work_units(uneven, overlap) == Fraction(49, 3) + Fraction(81, 2)

    def test_only_zero_edge_objects_is_zero(self):
        objs = [ms.Object(0, 0), ms.Object(1, 0)]
        part = dense_partition(np.zeros((3, 2), dtype=np.int64))
        assert _no_redist_work_units(objs, part) == 0
        assert reference_no_redist_work_units(objs, part) == 0


class TestOwnerGroups:
    """The owner-group plan both no-redist passes replay."""

    def test_built_once_per_partition(self, srr):
        part = ms.partition_external(srr.objects, 100)
        plan = _OwnerPlan.of(srr.objects, part)
        assert _OwnerPlan.of(srr.objects, part) is plan
        assert plan.workloads is ObjectOrders.of(srr.objects).workloads
        assert _OwnerPlan.of(list(srr.objects), part) is not plan
        assert _OwnerPlan.of(srr.objects, ms.partition_external(srr.objects, 100)) is not plan
        fresh = ms.partition_external(srr.objects, 100)
        _OwnerPlan.of(list(srr.objects), fresh)
        assert fresh not in _owner_plans

    def test_freed_with_its_partition(self, srr):
        part = ms.partition_external(srr.objects, 100)
        plan = _OwnerPlan.of(srr.objects, part)
        assert _owner_plans[part] == (srr.objects, plan)
        gone = weakref.ref(part)
        del part
        gc.collect()
        assert gone() is None
        assert all(kept is not plan for _, kept in _owner_plans.values())

    def test_split_queued_and_unshared_tasks(self):
        # p0 holds whole objects only; the object split over p1 and p2 makes
        # both shared, so p1's whole object waits in its queue; p3 holds nothing
        objs = (ms.Object(0, 4), ms.Object(1, 6), ms.Object(2, 5), ms.Object(3, 3),
                ms.Object(4, 0), ms.Object(5, 4))
        pieces = (((0, 4),), ((1, 3), (2, 3)), ((1, 5),), ((0, 3),), (), ((0, 4),))
        plan = _OwnerPlan.of(objs, sparse_partition(4, pieces))
        assert plan.workloads == [16, 36, 25, 9, 16]
        assert plan.split == [(1, [1, 2])]
        assert plan.queues == {1: [2]}
        assert plan.unshared == [(0, [0, 4, 3])]
        assert sorted(plan.starts) == [(0, -36, 1, [1, 2]), (0, -25, 2, 1)]

    def test_follow_the_order_of_the_objects(self):
        objs = [ms.Object(0, 7), ms.Object(1, 0), ms.Object(2, 9)]
        part = dense_partition(np.array([[3, 0, 3], [2, 0, 0], [2, 0, 6]]))
        plan = _OwnerPlan.of(objs, part)
        assert plan.workloads == [49, 81]
        assert plan.split == [(1, [0, 2]), (0, [0, 1, 2])]
        assert (plan.queues, plan.unshared) == ({}, [])
        assert _OwnerPlan.of(objs[::-1], part).split == [(0, [0, 2]), (1, [0, 1, 2])]


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
    got = ms.internal_makespan_no_redist(objects, part, machine)
    assert got == reference_no_redist_seconds(objects, part, machine)
    assert _no_redist_work_units(objects, part) == reference_no_redist_work_units(objects, part)


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

    def test_plan_built_once_per_cell_for_a_tuple(self, srr, monkeypatch):
        built = []
        init = _OwnerPlan.__init__

        def counting_init(plan, objects, partition):
            built.append(objects)
            init(plan, objects, partition)

        monkeypatch.setattr(_OwnerPlan, "__init__", counting_init)
        run_strategy(srr, StrategyKind.NO_REDISTRIBUTION, 200)
        assert len(built) == 1 and built[0] is srr.objects
        for objects, procs_list in alternating_cases(srr):
            for procs in procs_list:
                part = ms.partition_external(objects, procs)
                built.clear()
                assert_passes_match_references(objects, part, srr.machine)
                assert_passes_match_references(objects, part, srr.machine)
                assert len(built) == 1
                # a list may change between the passes, so each pass reads it again
                listed = list(objects)
                built.clear()
                assert_passes_match_references(listed, part, srr.machine)
                listed.reverse()
                assert_passes_match_references(listed, part, srr.machine)
                assert len(built) == 4 and all(o is listed for o in built)

    def test_list_changed_in_place_is_not_stale(self):
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.5)
        objs = list(ms.gen_random(30, (0, 40), 4).objects)
        for procs in (7, 40):
            assert_no_redist_matches_references(objs, procs, machine)
        part = ms.partition_external(objs, 40)
        plan = _OwnerPlan.of(objs, part)
        objs.reverse()
        again = _OwnerPlan.of(objs, part)
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


def assert_schedule_matches_reference(groups, edges, durations, procs):
    """Replay the plan of objects 0..n-1 (edges > 0), object i on groups[i].

    The plan reads only which processes hold an object's pieces, so each
    piece is given one edge.
    """
    objects = tuple(ms.Object(i, e) for i, e in enumerate(edges))
    pieces = tuple(tuple((p, 1) for p in g) for g in groups)
    plan = _OwnerPlan.of(objects, sparse_partition(procs, pieces))
    got = plan.replay(durations)
    tasks = [ms.TaskSpec(i, e * e, len(g)) for i, (g, e) in enumerate(zip(groups, edges))]
    assert got == reference_simultaneity_schedule(groups, tasks, durations, procs)


def assert_owner_schedules_match(objects, partition, machine):
    """The plan replayed with both passes' durations: float seconds and lcm-scaled work units."""
    plan = _OwnerPlan.of(objects, partition)
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
        objects = tuple(ms.Object(i, e) for i, e in enumerate(edges))
        pieces = tuple(tuple((p, 1) for p in g) for g in groups)
        plan = _OwnerPlan.of(objects, sparse_partition(3, pieces))
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
            units = _no_redist_work_units(scenario.objects, part)
            assert units == reference_no_redist_work_units(scenario.objects, part)

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


@st.composite
def owner_schedules(draw):
    """Random mixed single-owner and multi-process groups, many equal workloads."""
    procs = draw(st.integers(1, 12))
    group = st.one_of(
        st.integers(0, procs - 1).map(lambda p: [p]),
        st.lists(st.integers(0, procs - 1), min_size=1, max_size=procs, unique=True).map(sorted),
    )
    n = draw(st.integers(0, 40))
    row = st.tuples(group, st.integers(1, 30), st.integers(0, 20))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return [g for g, _, _ in rows], [e for _, e, _ in rows], [d for _, _, d in rows], procs


@settings(max_examples=200, deadline=None)
@given(case=owner_schedules())
def test_property_simultaneity_schedule_matches_reference(case):
    groups, edges, durations, procs = case
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

    def test_report_fields_are_sane(self, interposer):
        report = ms.simulate(interposer, StrategyKind.PROPOSED, 80)
        assert report.p == 80
        assert report.t_iter_avg == report.t_matvec_avg
        assert report.t_matvec_avg >= report.internal_makespan
        assert 0.0 <= report.idle_fraction <= 1.0
        edges, messages, seconds = report.comm
        assert edges >= 0 and messages >= 0 and seconds >= 0
        assert messages <= 80 * 79
