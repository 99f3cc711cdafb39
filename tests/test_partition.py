import heapq
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moldsched as ms
from moldsched.model import ObjectOrders
from moldsched.partition import TaskListAssignment

from conftest import dense_partition, groups_of, sparse_partition


def objects_of(edges):
    return [ms.Object(i, e) for i, e in enumerate(edges)]


def reference_partition_external(objects, procs):
    """Greedy object-aware split filling a dense (P, N) owned matrix.

    Kept as the reference for the partitioner that builds the pieces
    directly.
    """
    total = sum(o.edges for o in objects)
    owned = np.zeros((procs, len(objects)), dtype=np.int64)
    loads = [0] * procs
    heap = [(0, p) for p in range(procs)]

    def pop_least():
        while True:
            load, p = heapq.heappop(heap)
            if load == loads[p]:
                return p
            heapq.heappush(heap, (loads[p], p))

    for obj in sorted(objects, key=lambda o: (-o.edges, o.id)):
        if obj.edges == 0:
            continue
        if obj.edges * procs <= total:
            p = pop_least()
            owned[p, obj.id] += obj.edges
            loads[p] += obj.edges
            heapq.heappush(heap, (loads[p], p))
            continue
        k = min(-(-obj.edges * procs // total), obj.edges, procs)
        base, rem = divmod(obj.edges, k)
        takers = [pop_least() for _ in range(k)]
        for idx, p in enumerate(takers):
            chunk = base + 1 if idx < rem else base
            owned[p, obj.id] += chunk
            loads[p] += chunk
            heapq.heappush(heap, (loads[p], p))
    return dense_partition(owned)


def reference_assign_task_lists(schedule, partition):
    """Greedy row match on a dense float membership matrix and its matmul.

    Kept as the reference for the overlap built from per-object pieces.
    """
    procs = partition.n_procs
    membership = np.zeros((procs, partition.n_objects), dtype=np.float64)
    for r, row in enumerate(schedule.rows):
        for tid in set(row):
            membership[r, tid] = 1.0
    overlap = np.rint(partition.owned.astype(np.float64) @ membership.T).astype(np.int64)

    process_to_row = [-1] * procs
    achieved = [0] * procs
    available = np.ones(procs, dtype=bool)
    for p in range(procs):
        scores = np.where(available, overlap[p], -1)
        r = int(np.argmax(scores))
        process_to_row[p] = r
        achieved[p] = int(overlap[p, r])
        available[r] = False
    return TaskListAssignment(process_to_row=tuple(process_to_row), overlap=tuple(achieved))


def row_to_process(assignment):
    """The inverse of ``assignment.process_to_row``: row -> process."""
    inv = [0] * len(assignment.process_to_row)
    for p, r in enumerate(assignment.process_to_row):
        inv[r] = p
    return tuple(inv)


def destined_shares(schedule, assignment, partition):
    """Per object: process -> edge count it hosts for the internal problem.

    A task's internal rows are split evenly and contiguously over the
    processes executing it (the processes whose assigned task lists
    contain the task), in ascending process id; the first processes take
    one edge more when the split is uneven.  Kept as the reference for
    the shares that the pricing merges with the pieces.
    """
    row_owner = row_to_process(assignment)
    shares = {}
    for tid, rows in groups_of(schedule).items():
        group = sorted(row_owner[r] for r in rows)
        base, rem = divmod(sum(e for _, e in partition.pieces[tid]), len(group))
        shares[tid] = {p: base + 1 if idx < rem else base for idx, p in enumerate(group)}
    return shares


def reference_redistribution_cost(assignment, schedule, partition, machine):
    """Surplus/deficit match on dense (P, N) want and diff matrices.

    Kept as the reference for the per-object pass over pieces.
    """
    want = np.zeros_like(partition.owned)
    for tid, shares in destined_shares(schedule, assignment, partition).items():
        for p, share in shares.items():
            want[p, tid] = share
    diff = partition.owned - want
    edges_moved = int(np.where(diff < 0, -diff, 0).sum())

    pairs = set()
    for j in np.unique(np.nonzero(diff < 0)[1]):
        col = diff[:, j]
        deficits = [(int(p), int(-col[p])) for p in np.nonzero(col < 0)[0]]
        surpluses = [(int(p), int(col[p])) for p in np.nonzero(col > 0)[0]]
        si = 0
        for p, need in deficits:
            while need > 0:
                q, have = surpluses[si]
                take = min(need, have)
                pairs.add((q, p))
                need -= take
                have -= take
                if have == 0:
                    si += 1
                else:
                    surpluses[si] = (q, have)

    messages = len(pairs)
    seconds = machine.alpha_msg * messages + machine.beta_edge * edges_moved
    return edges_moved, messages, seconds


def assert_pieces_match_owned(partition):
    """Every nonzero entry of owned appears once, in ascending process order."""
    assert len(partition.pieces) == partition.n_objects
    for tid, pieces in enumerate(partition.pieces):
        column = partition.owned[:, tid]
        assert pieces == tuple((int(p), int(column[p])) for p in np.nonzero(column)[0])
        assert all(type(p) is int and type(e) is int for p, e in pieces)


def assert_matches_reference(schedule, partition, machine):
    assert_pieces_match_owned(partition)
    got = ms.assign_task_lists(schedule, partition)
    assert got == reference_assign_task_lists(schedule, partition)
    cost = ms.redistribution_cost(got, schedule, partition, machine)
    assert cost == reference_redistribution_cost(got, schedule, partition, machine)
    return cost


class TestPartitionExternal:
    def test_bus_regime_two_processes_per_conductor(self):
        part = ms.partition_external(objects_of([7026] * 10), 20)
        assert part.owned.sum() == 70260
        assert list(part.partition_counts()) == [2] * 10
        assert list(part.loads) == [3513] * 20

    def test_symmetric_whole_objects(self):
        part = ms.partition_external(objects_of([100] * 4), 4)
        assert list(part.partition_counts()) == [1] * 4
        assert list(part.loads) == [100] * 4

    def test_loads_of_split_objects_at_high_p(self):
        # the partitioner hands its heap's loads to the map; they equal the
        # loads summed from the pieces alone.  760 is the last P of the
        # 40:1000:40 sweep at which every object goes whole, 800 the first
        # at which some are split.
        objects = ms.gen_random(1500, (50, 1500), 0).objects
        for procs in (40, 760, 800, 900, 1000):
            part = ms.partition_external(objects, procs)
            assert any(len(pieces) > 1 for pieces in part.pieces) == (procs >= 800)
            assert_partition_matches_reference(objects, procs)
            rebuilt = sparse_partition(procs, part.pieces)
            assert rebuilt.loads == part.loads

    def test_single_process_identity(self):
        part = ms.partition_external(objects_of([100]), 1)
        assert part.owned.tolist() == [[100]]

    def test_column_sums_and_no_split_guarantees(self):
        rng = random.Random(3)
        for _ in range(100):
            edges = [rng.randint(0, 500) for _ in range(rng.randint(1, 30))]
            if sum(edges) == 0:
                edges[0] = 1
            procs = rng.randint(1, 16)
            objs = objects_of(edges)
            part = ms.partition_external(objs, procs)
            assert part.owned.sum(axis=0).tolist() == edges
            target = Fraction(sum(edges), procs)
            counts = part.partition_counts()
            for obj in objs:
                if 0 < obj.edges <= target:
                    assert counts[obj.id] == 1
            assert max(part.loads) <= 2 * target

    def test_zero_total_places_nothing(self):
        part = ms.partition_external(objects_of([0, 0]), 2)
        assert part.pieces == ((), ())
        assert part.loads == (0, 0)

    def test_noncontiguous_ids_rejected(self):
        with pytest.raises(ms.InvalidScenarioError):
            ms.partition_external([ms.Object(1, 5), ms.Object(3, 5)], 2)


def assert_partition_matches_reference(objects, procs):
    part = ms.partition_external(objects, procs)
    ref = reference_partition_external(objects, procs)
    assert (part.n_procs, part.pieces) == (ref.n_procs, ref.pieces)
    assert part.loads == tuple(ref.owned.sum(axis=1).tolist())


class TestSizeOrderPerObjectsTuple:
    """The id check, edge total and size order are kept for the last objects tuple."""

    def test_alternating_scenarios(self, srr):
        shuffled = list(srr.objects)
        random.Random(1).shuffle(shuffled)
        scenarios = (srr.objects, ms.gen_random(40, (0, 50), 2).objects, tuple(shuffled))
        for objects in scenarios * 2:
            for procs in (3, 60, 1000):
                assert_partition_matches_reference(objects, procs)

    def test_list_changed_in_place_is_not_stale(self):
        objs = objects_of([5, 0, 9, 9, 2])
        assert_partition_matches_reference(objs, 4)
        objs[1] = ms.Object(1, 30)
        objs.reverse()
        assert_partition_matches_reference(objs, 4)
        del objs[-1]  # id 0
        with pytest.raises(ms.InvalidScenarioError):
            ms.partition_external(objs, 4)

    def test_kept_for_tuples_only(self):
        objs = objects_of([3, 0, 4])
        kept = tuple(objs)
        assert ObjectOrders.of(kept) is ObjectOrders.of(kept)
        assert ObjectOrders.of(objs) is not ObjectOrders.of(objs)
        assert ObjectOrders.of(kept).by_size == [(2, 4), (0, 3)]

    def test_bad_ids_raise_every_time(self):
        for objects in ((ms.Object(1, 5), ms.Object(3, 5)), (ms.Object(0, 5), ms.Object(0, 5))):
            for _ in range(2):
                with pytest.raises(ms.InvalidScenarioError):
                    ms.partition_external(objects, 2)


def two_row_schedule(workloads):
    """One task per processor via LPT on descending workloads."""
    tasks = [ms.TaskSpec(i, w) for i, w in enumerate(workloads)]
    return ms.lpt_schedule(tasks, len(workloads)).schedule


class TestAssignTaskLists:
    def test_symmetric_optimum(self):
        schedule = two_row_schedule([2, 1])
        part = dense_partition(np.array([[100, 10], [10, 100]]))
        got = ms.assign_task_lists(schedule, part)
        assert got.process_to_row == (0, 1)
        assert got.overlap == (100, 100)

    def test_greedy_is_not_globally_optimal(self):
        schedule = two_row_schedule([2, 1])
        part = dense_partition(np.array([[100, 90], [95, 5]]))
        got = ms.assign_task_lists(schedule, part)
        assert got.process_to_row == (0, 1)
        assert sum(got.overlap) == 105  # the swapped assignment reaches 185

    def test_single_process(self):
        schedule = two_row_schedule([7])
        part = dense_partition(np.array([[7]]))
        got = ms.assign_task_lists(schedule, part)
        assert got.process_to_row == (0,)

    def test_shape_mismatch(self):
        schedule = two_row_schedule([2, 1])
        part = dense_partition(np.array([[5, 5]]))
        with pytest.raises(ms.ShapeError):
            ms.assign_task_lists(schedule, part)

    def test_bijection_on_random_inputs(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 8)
            edges = [rng.randint(1, 50) for _ in range(n)]
            objs = objects_of(edges)
            schedule = ms.part_schedule(ms.tasks_from_objects(objs), n, 20).schedule
            part = ms.partition_external(objs, n)
            got = ms.assign_task_lists(schedule, part)
            assert sorted(got.process_to_row) == list(range(n))

    def test_equivariance_without_conflicts(self):
        # when every process prefers a distinct row, the ascending-id visit
        # order is immaterial and relabeling processes relabels the result
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 8)
            owned = np.full((n, n), 1, dtype=np.int64)
            for p in range(n):
                owned[p, p] = 100 + rng.randint(0, 50)
            schedule = two_row_schedule(
                [(n - i) * (n - i) * 10000 for i in range(n)]
            )
            part = dense_partition(owned)
            got = ms.assign_task_lists(schedule, part)

            perm = list(range(n))
            rng.shuffle(perm)
            got_perm = ms.assign_task_lists(schedule, dense_partition(owned[perm]))
            for p in range(n):
                assert got_perm.process_to_row[p] == got.process_to_row[perm[p]]

    def test_greedy_beats_identity_and_random_bijections(self, interposer, srr):
        rng = random.Random(41)
        for scenario, procs in ((ms.gen_bus(5), 20), (interposer, 80), (srr, 100)):
            result = ms.part_schedule(scenario.tasks(), procs, scenario.cutoff)
            part = ms.partition_external(scenario.objects, procs)
            got = ms.assign_task_lists(result.schedule, part)
            total = sum(got.overlap)

            membership = np.zeros((procs, part.n_objects))
            for r, row in enumerate(result.schedule.rows):
                for tid in set(row):
                    membership[r, tid] = 1.0
            overlap = part.owned.astype(float) @ membership.T

            identity = sum(overlap[p, p] for p in range(procs))
            assert total >= identity
            for _ in range(100):
                perm = list(range(procs))
                rng.shuffle(perm)
                assert total >= sum(overlap[p, perm[p]] for p in range(procs))


class TestRedistribution:
    def test_perfectly_aligned_is_free(self):
        objs = objects_of([100, 100])
        schedule = two_row_schedule([100 * 100] * 2)
        part = dense_partition(np.array([[100, 0], [0, 100]]))
        assignment = ms.assign_task_lists(schedule, part)
        moved, messages, seconds = ms.redistribution_cost(
            assignment, schedule, part, ms.MachineModel()
        )
        assert (moved, messages, seconds) == (0, 0, 0.0)

    def test_single_owner_sends_to_other_process(self):
        # p0 owns all of both objects; row with object 1 lands on p1
        schedule = two_row_schedule([2, 1])
        part = dense_partition(np.array([[100, 50], [0, 0]]))
        assignment = ms.assign_task_lists(schedule, part)
        assert assignment.process_to_row == (0, 1)
        machine = ms.MachineModel(alpha_msg=1e-6, beta_edge=1e-9)
        moved, messages, seconds = ms.redistribution_cost(assignment, schedule, part, machine)
        assert moved == 50
        assert messages == 1
        assert seconds == pytest.approx(1e-6 + 50e-9)

    def test_even_share_split_across_parallel_group(self):
        objs = objects_of([10])
        tasks = [ms.TaskSpec(0, 100, 3)]
        schedule = ms.lpt_schedule(tasks, 3).schedule
        part = ms.partition_external(objs, 3)
        assignment = ms.assign_task_lists(schedule, part)
        shares = destined_shares(schedule, assignment, part)
        assert sorted(shares[0].values(), reverse=True) == [4, 3, 3]
        assert sum(shares[0].values()) == 10

    def test_message_limit(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 6)
            procs = rng.randint(1, 6)
            edges = [rng.randint(1, 40) for _ in range(n)]
            objs = objects_of(edges)
            result = ms.part_schedule(ms.tasks_from_objects(objs), procs, 20)
            part = ms.partition_external(objs, procs)
            assignment = ms.assign_task_lists(result.schedule, part)
            moved, messages, _ = ms.redistribution_cost(
                assignment, result.schedule, part, ms.MachineModel()
            )
            assert messages <= procs * (procs - 1)
            assert moved >= 0


def assert_cost_matches_reference(process_to_row, schedule, part, expected=None):
    """Cost of a given row placement, against the dense reference and, if given, by hand."""
    machine = ms.MachineModel(alpha_msg=1e-6, beta_edge=1e-9)
    assignment = TaskListAssignment(process_to_row=process_to_row, overlap=(0,) * len(process_to_row))
    cost = ms.redistribution_cost(assignment, schedule, part, machine)
    assert cost == reference_redistribution_cost(assignment, schedule, part, machine)
    if expected is not None:
        assert cost[:2] == expected


class TestSequentialRedistribution:
    """A sequential task's row process needs its whole object."""

    def test_split_object_none_on_the_row_process(self):
        # object 0 lies on processes 0-2; its row lands on process 3
        schedule = ms.lpt_schedule([ms.TaskSpec(0, 30)], 4).schedule
        part = dense_partition(np.array([[10], [12], [8], [0]]))
        assert_cost_matches_reference((1, 2, 3, 0), schedule, part, (30, 3))

    def test_row_process_owns_the_whole_object(self):
        schedule = ms.lpt_schedule([ms.TaskSpec(0, 30)], 4).schedule
        part = dense_partition(np.array([[0], [30], [0], [0]]))
        assert_cost_matches_reference((1, 0, 2, 3), schedule, part, (0, 0))

    def test_zero_edge_object(self):
        # object 0 has no edges and moves nothing, wherever its row lands
        schedule = two_row_schedule([2, 1])
        part = dense_partition(np.array([[0, 5], [0, 0]]))
        assert part.pieces[0] == ()
        assert_cost_matches_reference((0, 1), schedule, part, (5, 1))
        assert_cost_matches_reference((1, 0), schedule, part, (0, 0))


def one_parallel_task(procs, rows, pieces):
    """A schedule of one parallel task on ``rows``, and its object's pieces."""
    members = frozenset(rows)
    rows_of = tuple((0,) if r in members else () for r in range(procs))
    schedule = ms.Schedule(rows_of, [ms.TaskSpec(0, 1, len(members))])
    return schedule, sparse_partition(procs, (pieces,))


class TestParallelRedistribution:
    """The even shares of a parallel task's group, merged with its object's pieces.

    With the identity placement, process p runs row p, so the group is the rows.
    """

    def test_group_disjoint_from_the_owners(self):
        # 9 edges on processes 0 and 3, shares 5 and 4 on processes 1 and 2:
        # process 0 sends 5 to 1 and 1 to 2, process 3 sends 3 to 2
        schedule, part = one_parallel_task(4, (1, 2), ((0, 6), (3, 3)))
        assert_cost_matches_reference((0, 1, 2, 3), schedule, part, (9, 3))
        # rows 1 and 2 on the owners, processes 0 and 3, whose pieces are the shares
        schedule, part = one_parallel_task(4, (1, 2), ((0, 5), (3, 4)))
        assert_cost_matches_reference((1, 0, 3, 2), schedule, part, (0, 0))

    def test_owner_whose_share_is_its_piece(self):
        # shares 3, 3, 3: process 1 keeps its 3 edges, process 0 sends 1 to 2
        schedule, part = one_parallel_task(3, (0, 1, 2), ((0, 4), (1, 3), (2, 2)))
        assert_cost_matches_reference((0, 1, 2), schedule, part, (1, 1))

    def test_remainder_edge_on_an_owner(self):
        # 10 edges over processes 1-3 give shares 4, 3, 3; process 1 holds 5
        # with the remainder edge, so it sends 1 and process 3 sends 2 to process 2
        schedule, part = one_parallel_task(4, (1, 2, 3), ((1, 5), (3, 5)))
        assert_cost_matches_reference((0, 1, 2, 3), schedule, part, (3, 2))
        # with row 3 on process 0, the group is processes 0-2 and the remainder
        # edge goes to process 0, which owns nothing: it takes 2 from process 1
        # and 2 from process 3, and process 3 sends 3 to process 2
        assert_cost_matches_reference((3, 1, 2, 0), schedule, part, (7, 3))


@settings(max_examples=200, deadline=None)
@given(
    edges=st.lists(st.integers(1000, 1999), min_size=1, max_size=4),
    spare=st.integers(0, 40),
    data=st.data(),
)
def test_property_sequential_tasks_on_split_objects(edges, spare, data):
    # with at least 2 processes per object and no object under half the
    # largest, every object is above the per-process target, so it is split
    procs = 2 * len(edges) + spare
    part = ms.partition_external(objects_of(edges), procs)
    assert all(len(pieces) > 1 for pieces in part.pieces)
    # sequential tasks, and sometimes parallel ones, on any row placement
    budget, tasks = procs, []
    for tid, e in enumerate(edges):
        k = data.draw(st.integers(1, procs))
        if 1 < k <= budget and data.draw(st.booleans()):
            budget -= k
        else:
            k = 1
        tasks.append(ms.TaskSpec(tid, e * e, k))
    schedule = ms.lpt_schedule(tasks, procs).schedule
    process_to_row = tuple(data.draw(st.permutations(range(procs))))
    assert_cost_matches_reference(process_to_row, schedule, part)


HAND_BUILT = (
    ([2, 1], [[100, 10], [10, 100]]),
    ([2, 1], [[100, 90], [95, 5]]),
    ([7], [[7]]),
    ([100 * 100] * 2, [[100, 0], [0, 100]]),
    ([2, 1], [[100, 50], [0, 0]]),
)


class TestPieces:
    def test_hand_built(self):
        part = dense_partition(np.array([[100, 0, 50], [0, 0, 7], [3, 0, 0]]))
        assert part.pieces == (((0, 100), (2, 3)), (), ((0, 50), (1, 7)))

    def test_cached_once(self):
        part = ms.partition_external(objects_of([5, 0, 9]), 2)
        assert part.pieces is part.pieces


class TestAgainstDenseReference:
    @pytest.mark.parametrize("cutoff", [20, None])
    def test_structures(self, cutoff, interposer, srr):
        cases = ((srr, (20, 100, 1000)), (interposer, (40, 320, 640)),
                 (ms.gen_bus(40), (20, 160, 640)))
        for scenario, procs_list in cases:
            for procs in procs_list:
                result = ms.part_schedule(scenario.tasks(), procs, cutoff)
                part = ms.partition_external(scenario.objects, procs)
                assert_matches_reference(result.schedule, part, scenario.machine)

    @pytest.mark.parametrize("cutoff", [20, None])
    def test_random_with_zero_edge_objects(self, cutoff):
        for seed in range(10):
            scenario = ms.gen_random(40, (0, 50), seed)
            for procs in (3, 17, 60):
                result = ms.part_schedule(scenario.tasks(), procs, cutoff)
                part = ms.partition_external(scenario.objects, procs)
                assert_matches_reference(result.schedule, part, scenario.machine)

    def test_hand_built_partitions(self):
        machine = ms.MachineModel()
        for workloads, owned in HAND_BUILT:
            part = dense_partition(np.array(owned))
            assert_matches_reference(two_row_schedule(workloads), part, machine)
        part = ms.partition_external(objects_of([10]), 3)
        schedule = ms.lpt_schedule([ms.TaskSpec(0, 100, 3)], 3).schedule
        assert_matches_reference(schedule, part, machine)

    def test_same_parallel_tasks_in_other_slot_orders(self):
        # parallel tasks 0 and 1 run on rows 0-2, and sequential task 2 on row 3;
        # with row 1's slots swapped, rows 0 and 2 form one class and row 1
        # another, of equal overlaps: process 2 ties rows 1 and 2 and takes row 1
        tasks = [ms.TaskSpec(0, 3, 3), ms.TaskSpec(1, 3, 3), ms.TaskSpec(2, 1)]
        part = dense_partition(np.array([[0, 0, 5], [1, 2, 0], [0, 1, 0], [4, 0, 1]]))
        for rows in (((0, 1), (1, 0), (0, 1), (2,)), ((0, 1),) * 3 + ((2,),)):
            schedule = ms.Schedule(rows, tasks)
            got = ms.assign_task_lists(schedule, part)
            assert got == TaskListAssignment((3, 0, 1, 2), (5, 3, 1, 4))
            assert_matches_reference(schedule, part, ms.MachineModel())


class TestRowClassShapes:
    """The shapes the shared row classes serve, against the dense references."""

    @pytest.mark.parametrize("cutoff", [20, None])
    @pytest.mark.parametrize("procs", [320, 640])
    def test_interposer_few_tuples_over_many_parallel_rows(self, procs, cutoff, interposer):
        schedule = ms.part_schedule(interposer.tasks(), procs, cutoff).schedule
        view = schedule.row_classes
        assert len(view.by_tuple) == 129
        assert procs - len(view.sequential) >= procs // 2
        part = ms.partition_external(interposer.objects, procs)
        assert_matches_reference(schedule, part, interposer.machine)

    @pytest.mark.parametrize("cutoff", [20, None])
    def test_srr_parallel_tasks_beside_distinct_sequential_tasks(self, cutoff, srr):
        schedule = ms.part_schedule(srr.tasks(), 1000, cutoff).schedule
        view = schedule.row_classes
        # a class of one parallel task whose rows each hold sequential tasks of their own
        assert any(len(tids) == 1 and len(rows) > 1 and all(r in view.sequential for r in rows)
                   for tids, rows in view.classes)
        assert len(view.by_tuple) == 705
        part = ms.partition_external(srr.objects, 1000)
        assert_matches_reference(schedule, part, srr.machine)


@st.composite
def hand_built_cases(draw):
    """A dense owned matrix with zero rows, zero columns and equal entries,
    and an LPT schedule of its objects with random P_i."""
    procs = draw(st.integers(1, 12))
    n = draw(st.integers(1, 15))
    entries = st.sampled_from([0, 0, 0, 1, 2, 7])
    owned = np.array(draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=procs, max_size=procs)))
    for p in draw(st.sets(st.integers(0, procs - 1))):
        owned[p, :] = 0
    for tid in draw(st.sets(st.integers(0, n - 1))):
        owned[:, tid] = 0
    budget, tasks = procs, []
    for tid in range(n):
        k = draw(st.integers(1, procs))
        if 1 < k <= budget:
            budget -= k
        else:
            k = 1
        tasks.append(ms.TaskSpec(tid, draw(st.sampled_from([0, 3, 3, 5])), k))
    return ms.lpt_schedule(tasks, procs).schedule, dense_partition(owned)


@st.composite
def grouped_cases(draw):
    """Rows built by hand around two or more parallel groups.

    Sequential tasks sit on group rows and on plain rows; sometimes a
    second parallel task shares a group's rows, or spans one group row and
    a plain row.  Each row's slots come in a drawn order, so rows holding
    the same parallel tasks may hold them in different orders.  One process
    owns as much of group 0's task as of a plain row's task and nothing
    else, so its overlaps with both tie.
    """
    procs = draw(st.integers(5, 12))
    perm = draw(st.permutations(range(procs)))
    sizes = [draw(st.integers(2, 4)) for _ in range(draw(st.integers(2, (procs - 1) // 2)))]
    while sum(sizes) > procs - 1:
        sizes[sizes.index(max(sizes))] -= 1
    groups, start = [], 0
    for size in sizes:
        groups.append(perm[start:start + size])
        start += size
    plain = perm[start:]
    if draw(st.booleans()):
        groups.append(groups[0])
    if draw(st.booleans()):
        groups.append([groups[1][0], plain[0]])
    # sequential tasks: one on a plain row, one on a group row, the rest anywhere
    seq_rows = [plain[-1], groups[0][-1]] + draw(st.lists(st.integers(0, procs - 1), max_size=8))
    rows = [[] for _ in range(procs)]
    members_of = groups + [[r] for r in seq_rows]
    for tid, members in enumerate(members_of):
        for r in members:
            rows[r].append(tid)
    rows = [tuple(draw(st.permutations(row))) for row in rows]
    tasks = [ms.TaskSpec(tid, 1, len(members)) for tid, members in enumerate(members_of)]
    schedule = ms.Schedule(tuple(rows), tasks)

    n = len(tasks)
    owned = np.array(draw(st.lists(
        st.lists(st.sampled_from([0, 0, 1, 2, 7]), min_size=n, max_size=n),
        min_size=procs, max_size=procs)))
    q = draw(st.integers(0, procs - 1))
    owned[q, :] = 0
    owned[q, 0] = owned[q, len(groups)] = draw(st.integers(1, 3))
    return schedule, dense_partition(owned)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(hand_built_cases(), grouped_cases()), data=st.data())
def test_property_assign_matches_dense_reference(case, data):
    # processes that own nothing, or nothing of a free row, take the lowest
    # free row; equal overlaps go to the lowest row
    schedule, part = case
    got = ms.assign_task_lists(schedule, part)
    assert got == reference_assign_task_lists(schedule, part)
    # the pricing of rows with two parallel tasks, and of a task in two
    # classes, on the chosen placement and on any other
    assert_cost_matches_reference(got.process_to_row, schedule, part)
    process_to_row = tuple(data.draw(st.permutations(range(part.n_procs))))
    assert_cost_matches_reference(process_to_row, schedule, part)


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.integers(0, 60), min_size=1, max_size=30).filter(any),
    procs=st.integers(1, 40),
    cutoff=st.sampled_from([20, None]),
)
def test_property_pieces_and_redistribution(edges, procs, cutoff):
    objects = objects_of(edges)
    part = ms.partition_external(objects, procs)
    assert [sum(e for _, e in pieces) for pieces in part.pieces] == edges
    assert part.owned.sum(axis=0).tolist() == edges

    result = ms.part_schedule(ms.tasks_from_objects(objects), procs, cutoff)
    _, messages, _ = assert_matches_reference(result.schedule, part, ms.MachineModel())
    assert messages <= procs * (procs - 1)


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.integers(0, 500), min_size=1, max_size=30).filter(any),
    procs=st.integers(1, 64),
)
def test_property_partition_matches_dense_reference(edges, procs):
    objects = objects_of(edges)
    part = ms.partition_external(objects, procs)
    ref = reference_partition_external(objects, procs)
    assert part.n_procs == ref.n_procs == procs
    assert part.pieces == ref.pieces
    assert part.loads == tuple(ref.owned.sum(axis=1).tolist())
    assert part.partition_counts() == (ref.owned > 0).sum(axis=0).tolist()
    assert part.owned.dtype == ref.owned.dtype
    assert np.array_equal(part.owned, ref.owned)
    # no process holds more than twice the target total / P, or more than the
    # one edge any owner holds when the target is below half an edge
    assert max(part.loads) * procs <= max(2 * sum(edges), procs)


def empty_and_whole(edges, procs):
    """Empty processes left after the split objects are cut, and whole objects.

    A split object of e edges takes min(ceil(e / target), e, P) processes,
    the empty ones first.
    """
    total = sum(edges)
    split = [e for e in edges if e * procs > total]
    takers = sum(min(-(-e * procs // total), e, procs) for e in split)
    return max(procs - takers, 0), sum(1 for e in edges if 0 < e and e * procs <= total)


def straddles(edges, procs):
    """True if a split object takes the last empty processes and loaded ones too."""
    total = sum(edges)
    taken = 0
    for e in sorted((e for e in edges if e * procs > total), reverse=True):
        k = min(-(-e * procs // total), e, procs)
        if taken < procs < taken + k:
            return True
        taken += k
    return False


@st.composite
def phase_boundary_cases(draw):
    """Edges and P with fewer, as many or more empty processes after the
    split objects than there are whole objects, or with a split object
    whose takers are part empty, part loaded.

    A whole object holds at most the target T = total / P, and a split one
    of e edges takes ceil(e / T) processes unless that exceeds e, which
    happens only when P > total.  So there are more empty processes than
    whole objects only when P > total, where every object is cut into
    single edges and no whole object is left.  As many: split objects of
    k * T edges and P - sum(k) whole objects of T edges each; cutting one
    of those into smaller whole objects gives fewer.  With the scale,
    edges and loads go beyond 2**53.

    The last: two objects of e edges on an odd P = 2q + 1 <= 2e.  Each is
    cut into q + 1 chunks, so the second takes the q empty processes left
    and one loaded process.
    """
    regime = draw(st.sampled_from(["fewer", "as many", "more", "straddle"]))
    if regime == "straddle":
        q = draw(st.integers(1, 6))
        procs = 2 * q + 1
        edges = [draw(st.integers(q + 1, 40)) * draw(st.sampled_from([1, 2**53 + 1]))] * 2
    elif regime == "more":
        edges = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8).filter(any))
        procs = sum(edges) + draw(st.integers(1, 20))
    else:
        target = draw(st.integers(2 if regime == "fewer" else 1, 6))
        target *= draw(st.sampled_from([1, 2**53 + 1]))
        ks = draw(st.lists(st.integers(2, 6), max_size=4))
        n_whole = draw(st.integers(0 if ks and regime == "as many" else 1, 8))
        procs = sum(ks) + n_whole
        edges = [k * target for k in ks] + [target] * n_whole
        if regime == "fewer":
            cuts = sorted(draw(st.sets(st.integers(1, target - 1), min_size=1, max_size=3)))
            edges[-1:] = [b - a for a, b in zip([0] + cuts, cuts + [target])]
    edges += [0] * draw(st.integers(0, 2))
    return draw(st.permutations(edges)), procs, regime


@settings(max_examples=300, deadline=None)
@given(case=phase_boundary_cases())
def test_property_partition_phases_match_dense_reference(case):
    edges, procs, regime = case
    empty, whole = empty_and_whole(edges, procs)
    assert {"fewer": empty < whole, "as many": empty == whole, "more": empty > whole,
            "straddle": straddles(edges, procs)}[regime]
    assert_partition_matches_reference(objects_of(edges), procs)
