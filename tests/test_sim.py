import heapq
import math
from fractions import Fraction

import numpy as np
import pytest

import moldsched as ms
from moldsched.sim import StrategyKind, _no_redist_work_units, run_strategy


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
        part = ms.PartitionMap(owned=np.array([[50, 0], [0, 50]]))
        machine = ms.MachineModel(t_near=1e-3, t_fft=0.0, grid_points=0)
        assert ms.external_phase_time(part, machine) == pytest.approx(0.05)

    def test_single_process_full_cost(self):
        part = ms.PartitionMap(owned=np.array([[30, 70]]))
        machine = ms.MachineModel(t_near=1.0, t_fft=1.0, grid_points=1024)
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
        part = ms.PartitionMap(owned=np.array([[10]]))
        machine = ms.MachineModel(t_near=1.0, t_fft=5.0, grid_points=0)
        assert ms.external_phase_time(part, machine) == pytest.approx(10.0)


class TestNoRedistribution:
    def test_disjoint_singletons_no_idle(self):
        objs = [ms.Object(0, 10), ms.Object(1, 10)]
        part = ms.PartitionMap(owned=np.array([[10, 0], [0, 10]]))
        machine = ms.MachineModel(t_work=1.0, gamma_grid=0.0)
        makespan, idle = ms.internal_makespan_no_redist(objs, part, machine)
        assert makespan == pytest.approx(100.0)
        assert idle == 0.0

    def test_chain_blocks_middle_processor(self):
        # A on {p0,p1}, B on {p1,p2}, equal durations: B waits for A, the
        # outer processors are each idle for half the phase
        objs = [ms.Object(0, 10), ms.Object(1, 10)]
        part = ms.PartitionMap(owned=np.array([[5, 0], [5, 5], [0, 5]]))
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
        singletons = ms.PartitionMap(owned=np.array([[10, 0], [0, 10]]))
        chain = ms.PartitionMap(owned=np.array([[5, 0], [5, 5], [0, 5]]))
        uneven = [ms.Object(0, 7), ms.Object(1, 0), ms.Object(2, 9)]
        overlap = ms.PartitionMap(owned=np.array([[3, 0, 3], [2, 0, 0], [2, 0, 6]]))
        for objects, part in ((objs, singletons), (objs, chain), (uneven, overlap)):
            self._assert_matches(objects, part)
        assert _no_redist_work_units(objs, singletons) == 100
        assert _no_redist_work_units(objs, chain) == 100
        assert _no_redist_work_units(uneven, overlap) == Fraction(49, 3) + Fraction(81, 2)

    def test_only_zero_edge_objects_is_zero(self):
        objs = [ms.Object(0, 0), ms.Object(1, 0)]
        part = ms.PartitionMap(owned=np.zeros((3, 2), dtype=np.int64))
        assert _no_redist_work_units(objs, part) == 0
        assert reference_no_redist_work_units(objs, part) == 0


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
            machine=ms.MachineModel(grid_points=512),
            grid=(8, 8, 8),
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
