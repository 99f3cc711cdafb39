import heapq
import random
import weakref
from fractions import Fraction
from itertools import accumulate
from math import isqrt, lcm
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moldsched as ms
from moldsched.model import TaskOrders, check_schedule

from conftest import groups_of


def make_tasks(durations):
    return [ms.TaskSpec(i, w) for i, w in enumerate(durations)]


def reference_next_approx_square_increment(p):
    """The distance to the next approximate square, by testing four candidates."""
    q = isqrt(p)
    for member in (q * q, q * (q + 1), (q + 1) * (q + 1), (q + 1) * (q + 2)):
        if member > p:
            return member - p
    raise AssertionError("no candidate exceeds p")


def reference_nearest_approx_square(p):
    """The nearest approximate square (ties: smaller), by a downward scan."""
    if ms.is_approx_square(p):
        return p
    above = p + reference_next_approx_square_increment(p)
    below = p
    while below > 1 and not ms.is_approx_square(below):
        below -= 1
    return below if p - below <= above - p else above


class TestBounds:
    def test_lpt_bound(self):
        assert ms.lpt_bound(1) == 1
        assert ms.lpt_bound(2) == Fraction(7, 6)
        assert ms.lpt_bound(10**9) < Fraction(4, 3)
        assert ms.lpt_bound(10**9) > Fraction(4, 3) - Fraction(1, 10**8)

    def test_part_bound(self):
        assert ms.part_bound(2) == 4
        assert ms.part_bound(4) == Fraction(8, 3)
        assert ms.part_bound(10**9) > 2
        assert ms.part_bound(10**9) < 2 + Fraction(1, 10**8)

    def test_part_bound_undefined_for_single_processor(self):
        with pytest.raises(ms.UndefinedBoundError):
            ms.part_bound(1)


class TestApproxSquares:
    def test_increment_examples(self):
        assert ms.next_approx_square_increment(4) == 2
        assert ms.next_approx_square_increment(20) == 5
        assert ms.next_approx_square_increment(25) == 5

    def test_set_prefix(self):
        members = [p for p in range(1, 37) if ms.is_approx_square(p)]
        assert members == [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36]

    def test_increment_lands_in_set(self):
        for p in range(1, 2000):
            target = p + ms.next_approx_square_increment(p)
            assert target > p
            assert ms.is_approx_square(target)
            # smallest member above p
            for q in range(p + 1, target):
                assert not ms.is_approx_square(q)

    def test_nearest(self):
        assert ms.nearest_approx_square(20) == 20
        assert ms.nearest_approx_square(22) == 20
        assert ms.nearest_approx_square(23) == 25
        assert ms.nearest_approx_square(33) == 30  # tie between 30 and 36

    def test_increment_matches_reference(self):
        for p in range(1, 20_001):
            assert ms.next_approx_square_increment(p) == reference_next_approx_square_increment(p), p

    def test_nearest_matches_reference(self):
        for p in range(1, 20_001):
            assert ms.nearest_approx_square(p) == reference_nearest_approx_square(p), p


class TestLpt:
    def test_example_five_tasks(self):
        tasks = make_tasks([5, 4, 3, 3, 2])
        result = ms.lpt_schedule(tasks, 2)
        assert result.schedule.rows == ((0, 3), (1, 2, 4))
        assert result.c_max == 9
        assert ms.oracle_optimal(tasks, 2) == 9
        check_schedule(result.schedule, tasks, 2)

    def test_example_attains_bound(self):
        tasks = make_tasks([3, 3, 2, 2, 2])
        result = ms.lpt_schedule(tasks, 2)
        optimal = ms.oracle_optimal(tasks, 2)
        assert result.c_max == 7
        assert optimal == 6
        assert Fraction(result.c_max) / optimal == ms.lpt_bound(2)

    def test_single_processor_sums(self):
        tasks = make_tasks([4, 1, 6, 2])
        result = ms.lpt_schedule(tasks, 1)
        assert result.c_max == 13

    def test_mixed_parallel_and_sequential(self):
        tasks = [ms.TaskSpec(0, 8, 2), ms.TaskSpec(1, 3, 1), ms.TaskSpec(2, 2, 1)]
        result = ms.lpt_schedule(tasks, 3)
        # parallel task occupies processors 0,1 from time zero
        assert groups_of(result.schedule)[0] == frozenset({0, 1})
        assert result.schedule.start_times[0][0] == 0
        assert result.schedule.start_times[1][0] == 0
        check_schedule(result.schedule, tasks, 3)

    def test_infeasible_parallel_set(self):
        tasks = [ms.TaskSpec(0, 8, 2), ms.TaskSpec(1, 6, 2)]
        with pytest.raises(ms.InfeasibleParallelSetError):
            ms.lpt_schedule(tasks, 3)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ms.InvalidTaskError):
            ms.lpt_schedule([ms.TaskSpec(0, 1), ms.TaskSpec(0, 2)], 2)


class TestPartSchedule:
    def test_example_unlimited(self):
        tasks = make_tasks([8, 2, 2])
        result = ms.part_schedule(tasks, 4, cutoff=None)
        assert result.procs_per_task == (2, 1, 1)
        assert result.c_max == 4
        assert ms.oracle_optimal(tasks, 4, moldable=True) == 4
        check_schedule(result.schedule, tasks, 4)

    def test_example_budget_trace(self):
        # single task ends on 30 = 5*6 processes; the next step (d = 6)
        # would drive the budget negative
        result = ms.part_schedule([ms.TaskSpec(0, 100)], 30, cutoff=20)
        assert result.procs_per_task == (30,)
        assert result.c_max == Fraction(100, 30)

    def test_single_processor_matches_lpt(self):
        tasks = make_tasks([4, 1, 6])
        part = ms.part_schedule(tasks, 1, cutoff=20)
        lpt = ms.lpt_schedule(tasks, 1)
        assert part.c_max == lpt.c_max == 11
        assert part.procs_per_task == (1, 1, 1)
        assert part.schedule.rows == lpt.schedule.rows

    def test_equal_tasks_all_parallelized(self):
        # ten equal tasks on twice as many processors: every task ends on 2
        tasks = make_tasks([100] * 10)
        result = ms.part_schedule(tasks, 20, cutoff=20)
        assert result.procs_per_task == (2,) * 10
        assert result.c_max == 50

    def test_never_worse_than_sequential_lpt(self):
        rng = random.Random(11)
        for _ in range(200):
            tasks = make_tasks([rng.randint(0, 10) for _ in range(rng.randint(1, 8))])
            procs = rng.randint(1, 6)
            base = ms.lpt_schedule(tasks, procs)
            for cutoff in (20, None):
                result = ms.part_schedule(tasks, procs, cutoff)
                assert result.c_max <= base.c_max

    def test_budget_constraint_and_validity(self):
        rng = random.Random(5)
        for _ in range(150):
            tasks = make_tasks([rng.randint(0, 12) for _ in range(rng.randint(1, 9))])
            procs = rng.randint(1, 7)
            result = ms.part_schedule(tasks, procs, rng.choice([None, 2, 20]))
            parallel = sum(k for k in result.procs_per_task if k > 1)
            assert parallel <= procs
            check_schedule(result.schedule, tasks, procs)

    def test_valid_past_p_1000(self, srr, interposer, random300):
        for scenario in (srr, interposer, random300):
            tasks = scenario.tasks()
            for procs in (1280, 2000, 2560, 4000):
                for cutoff in (scenario.cutoff, None):
                    result = ms.part_schedule(tasks, procs, cutoff)
                    check_schedule(result.schedule, tasks, procs)
                    assert result.c_max == result.schedule.makespan()

    def test_finite_cutoff_keeps_large_counts_in_set(self):
        result = ms.part_schedule([ms.TaskSpec(0, 10**8)], 600, cutoff=20)
        (k,) = result.procs_per_task
        assert k > 20
        assert ms.is_approx_square(k)

    def test_zero_workloads_stay_sequential(self):
        tasks = make_tasks([0, 0, 0])
        result = ms.part_schedule(tasks, 4, cutoff=20)
        assert result.procs_per_task == (1, 1, 1)
        assert result.c_max == 0

    def test_empty_tasks_rejected(self):
        with pytest.raises(ms.InvalidTaskError):
            ms.part_schedule([], 2, 20)

    def test_invalid_tasks_rejected(self):
        with pytest.raises(ms.InvalidTaskError, match="procs must be >= 1"):
            ms.part_schedule([ms.TaskSpec(0, 5, 0)], 2)
        with pytest.raises(ms.InvalidTaskError, match="workload must be >= 0"):
            ms.part_schedule([ms.TaskSpec(0, 5), ms.TaskSpec(1, -1)], 2)

    def test_deterministic(self):
        tasks = make_tasks([7, 7, 5, 3, 3, 1])
        a = ms.part_schedule(tasks, 4, 20)
        b = ms.part_schedule(tasks, 4, 20)
        assert repr(a) == repr(b)


class TestIdealLength:
    def test_examples(self):
        assert ms.ideal_length(make_tasks([8, 2, 2]), 4) == 3
        assert ms.ideal_length(make_tasks([1]), 1) == 1

    def test_interposer_cage_share(self, interposer):
        tasks = interposer.tasks()
        total = sum(t.workload for t in tasks)
        assert 0.52 <= tasks[0].workload / total <= 0.54
        assert ms.ideal_length(tasks, 40) == Fraction(total, 40)


class TestOracle:
    def test_sequential_examples(self):
        assert ms.oracle_optimal(make_tasks([3, 3, 2, 2, 2]), 2) == 6
        assert ms.oracle_optimal(make_tasks([5, 4, 3, 3, 2]), 2) == 9

    def test_moldable_example(self):
        assert ms.oracle_optimal(make_tasks([8, 2, 2]), 4, moldable=True) == 4

    def test_moldable_splits_single_task(self):
        assert ms.oracle_optimal(make_tasks([100]), 4, moldable=True) == 25

    def test_guards(self):
        with pytest.raises(ms.InstanceTooLargeError):
            ms.oracle_optimal(make_tasks([1] * 13), 2)
        with pytest.raises(ms.InstanceTooLargeError):
            ms.oracle_optimal(make_tasks([1]), 7)

    def test_oracle_lower_bounds_lpt(self):
        rng = random.Random(23)
        for _ in range(100):
            tasks = make_tasks([rng.randint(1, 10) for _ in range(rng.randint(1, 7))])
            procs = rng.randint(1, 5)
            assert ms.oracle_optimal(tasks, procs) <= ms.lpt_schedule(tasks, procs).c_max


def reference_part_schedule(tasks, procs, cutoff):
    """Part_Schedule with one full LPT pass, placements included, per iteration.

    The straightforward form of the scheduler's loop, kept as the
    reference that ``part_schedule`` must reproduce.  Returns (c_max,
    P_i per task, iterations, rows, stop reason).
    """
    ids = [t.object_id for t in tasks]
    workloads = [t.workload for t in tasks]
    n = len(tasks)
    pi = [1] * n

    def lpt_pass():
        denom = lcm(*pi)
        scaled = [workloads[i] * (denom // pi[i]) for i in range(n)]
        order = sorted(range(n), key=lambda i: (-scaled[i], ids[i]))
        rows = [[] for _ in range(procs)]
        fin = [0] * procs
        nxt = 0
        for i in order:
            if pi[i] > 1:
                for p in range(nxt, nxt + pi[i]):
                    fin[p] = scaled[i]
                    rows[p].append(ids[i])
                nxt += pi[i]
        heap = [(fin[p], p) for p in range(procs)]
        heapq.heapify(heap)
        for i in order:
            if pi[i] == 1:
                f, p = heap[0]
                rows[p].append(ids[i])
                heapq.heapreplace(heap, (f + scaled[i], p))
        return Fraction(max(f for f, _ in heap), denom), tuple(map(tuple, rows))

    cur_cmax, rows = lpt_pass()
    best = (cur_cmax, tuple(pi), rows)
    budget = procs
    iterations = 0
    stop_reason = "budget"
    while budget > 0:
        iterations += 1
        i = 0
        for j in range(1, n):
            a = workloads[j] * pi[i]
            b = workloads[i] * pi[j]
            if a > b or (a == b and ids[j] < ids[i]):
                i = j
        h = Fraction(workloads[i], pi[i])
        d = 1 if cutoff is None or pi[i] < cutoff else ms.next_approx_square_increment(pi[i])
        budget -= d + 1 if pi[i] == 1 else d
        if cur_cmax != h or budget < 0:
            stop_reason = "not-longest" if cur_cmax != h else "overdraw"
            break
        pi[i] += d
        new_cmax, rows = lpt_pass()
        if new_cmax > cur_cmax:
            stop_reason = "worse"
            break
        cur_cmax = new_cmax
        if new_cmax < best[0]:
            best = (new_cmax, tuple(pi), rows)
    c_max, best_pi, best_rows = best
    return c_max, best_pi, iterations, best_rows, stop_reason


def assert_matches_reference(tasks, procs, cutoff):
    result = ms.part_schedule(tasks, procs, cutoff)
    c_max, pi, iterations, rows, stop_reason = reference_part_schedule(tasks, procs, cutoff)
    assert result.c_max == c_max, (procs, cutoff)
    assert result.stop_reason == stop_reason, (procs, cutoff)
    assert result.procs_per_task == pi, (procs, cutoff)
    assert result.iterations_taken == iterations, (procs, cutoff)
    assert result.schedule.rows == rows, (procs, cutoff)
    check_schedule(result.schedule, tasks, procs)
    # one makespan before the loop and one per rebuild; a step stopped
    # before its rebuild (not-longest, overdraw) makes none
    rebuilds = iterations - (stop_reason in ("not-longest", "overdraw"))
    assert sum(result.routes) == rebuilds + 1, (procs, cutoff)
    return result


class TestFastPathEquivalence:
    def test_matches_exact_path(self, interposer, srr):
        rng = random.Random(99)
        for _ in range(120):
            tasks = make_tasks([rng.randint(0, 12) for _ in range(rng.randint(1, 9))])
            procs = rng.randint(1, 8)
            assert_matches_reference(tasks, procs, rng.choice([None, 2, 20]))
        # many equal workloads on more processors: runs of equal tasks
        # spread over several buckets of equal finish times
        for _ in range(120):
            sizes = [rng.randint(0, 40) for _ in range(rng.randint(1, 4))]
            tasks = make_tasks([rng.choice(sizes) for _ in range(rng.randint(1, 40))])
            assert_matches_reference(tasks, rng.randint(1, 24), rng.choice([None, 2, 20]))
        for scenario, procs_list in ((interposer, (20, 160, 640)), (srr, (20, 100, 260))):
            tasks = scenario.tasks()
            for procs in procs_list:
                for cutoff in (20, None):
                    assert_matches_reference(tasks, procs, cutoff)

    def test_task_orders_per_tuple(self, interposer, srr):
        # the LPT order and its runs are kept for the last task tuple only;
        # listed out of id order, equal workloads still go longest-first by id
        shuffled = tuple(random.Random(5).sample(srr.tasks(), len(srr.tasks())))
        for tasks in (interposer.tasks(), srr.tasks(), shuffled) * 2:
            assert_matches_reference(tasks, 100, 20)
        tasks = make_tasks([5, 9, 9, 2, 7])
        assert_matches_reference(tasks, 3, None)
        assert ms.ideal_length(tasks, 2) == 16
        tasks[1] = ms.TaskSpec(1, 1)
        tasks.reverse()
        assert_matches_reference(tasks, 3, None)
        assert ms.ideal_length(tasks, 2) == Fraction(24, 2)

    def test_last_ahead_is_the_prefix_sum_before_each_runs_last_task(self, srr):
        rng = random.Random(3)
        drawn = [ms.TaskSpec(i, rng.choice([0, 3, 7, 7, 9, 40])) for i in range(60)]
        for tasks in (srr.tasks(), drawn):
            shuffled = tuple(rng.sample(tasks, len(tasks)))
            orders = TaskOrders.of(shuffled)
            prefix = [0]
            for i in orders.order:
                prefix.append(prefix[-1] + shuffled[i].workload)
            assert orders.last_ahead == [prefix[end - 1] for end in orders.ends]

    def test_parallel_ties_go_to_the_lowest_id(self):
        # parallel tasks of equal W/P but different P_i: growing the
        # higher id first overdraws the budget one iteration early
        assert_matches_reference(make_tasks([180, 120, 120, 240, 180, 60]), 28, 4)

    def test_huge_workloads_use_exact_path(self):
        # workloads past int64: the result is still exact
        w = 2**56
        tasks = [ms.TaskSpec(0, 3 * w), ms.TaskSpec(1, 2 * w), ms.TaskSpec(2, 2 * w)]
        result = ms.part_schedule(tasks, 4, cutoff=None)
        check_schedule(result.schedule, tasks, 4)
        assert result.procs_per_task == (2, 1, 1)
        assert result.c_max == 2 * w


class TestStopReason:
    def test_budget_spent_at_the_loop_head(self):
        # 1 -> 2 spends both processors; the loop head finds none left
        result = ms.part_schedule(make_tasks([100]), 2, None)
        assert (result.procs_per_task, result.stop_reason) == ((2,), "budget")

    def test_not_longest(self):
        # on 3 processors task 0 (8/3) no longer sets c_max (4): a sequential 2 + 2 does
        result = ms.part_schedule(make_tasks([8, 2, 2]), 4, None)
        assert (result.procs_per_task, result.c_max) == ((2, 1, 1), 4)
        assert result.iterations_taken == 3 and result.stop_reason == "not-longest"

    def test_overdraw(self):
        # 2 -> 4 would need two processors, one is left
        result = ms.part_schedule(make_tasks([100]), 3, cutoff=2)
        assert (result.procs_per_task, result.stop_reason) == ((2,), "overdraw")

    def test_worse(self):
        # 2 -> 3 leaves no idle processor: the 2s follow 8/3, and 14/3 > 4
        result = ms.part_schedule(make_tasks([8, 2, 2]), 3, None)
        assert (result.procs_per_task, result.c_max) == ((2, 1, 1), 4)
        assert result.iterations_taken == 2 and result.stop_reason == "worse"

    def test_not_longest_wins_over_an_overdraw(self):
        # on one processor c_max is 10, not 5, and 1 -> 2 overdraws the budget
        result = ms.part_schedule(make_tasks([5, 5]), 1, None)
        assert (result.iterations_taken, result.stop_reason) == (1, "not-longest")

    def test_lpt_takes_no_steps(self):
        assert ms.lpt_schedule(make_tasks([5, 5]), 1).stop_reason == "none"


class TestMakespanRoutes:
    def test_each_route_once(self):
        # all P_i 1: four tasks on four processors, the idle-processor cut.
        # Task 0 on 2: Graham's bound at the 1 gives 4/2.  On 3: the 1 runs
        # on the idle processor, and the bound caps the 0s at 4/3, with no
        # walk.  On 4: the walk ends at 2 > 4/3, and the loop stops, worse.
        result = ms.part_schedule(make_tasks([4, 0, 0, 1]), 4, None)
        assert result.routes == (1, 1, 1, 1)
        assert (result.procs_per_task, result.stop_reason) == ((3, 1, 1, 1), "worse")

    # Four processors.  All P_i 1: Graham's bound at the 12 gives 12.  Task 0
    # on 2: two idle processors, and the outcome ties to runs g and h.
    #  - 12, 5, 1, 0, 0: the idle processors run the 5 and the 1 alone, and
    #    from the 1 on (g < h) the bound caps every finish at 12/2, with no
    #    walk.  Task 0 on 3: the walk puts the 1 on a 4, and at the 0s the
    #    bound caps every finish at 5.  Growing the 5 would overdraw.
    #  - 12, 5, 1, 1, 1: the idle processors run the 5 and a 1, and from the
    #    1s on (g == h) the bound gives 12/2, with no walk.  Task 0 on 3: the
    #    bound at the 5 fails, and the walk ends at 5.
    #  - 12, 5, 5, 0, 0: the 5s end exactly at the idle count, so the idle
    #    processors hold them whole, and from the 0s on (g == h) the bound
    #    gives 12/2.  Task 0 on 3: the second 5 lands on a 4, 9 > 6 is worse.
    @pytest.mark.parametrize("workloads, routes, outcome", [
        ([12, 5, 1, 0, 0], (0, 1, 2, 0), ((3, 1, 1, 1, 1), 5, "overdraw")),
        ([12, 5, 1, 1, 1], (0, 1, 1, 1), ((3, 1, 1, 1, 1), 5, "overdraw")),
        ([12, 5, 5, 0, 0], (0, 1, 1, 1), ((2, 1, 1, 1, 1), 6, "worse")),
    ])
    def test_graham_exit_inside_the_idle_processors(self, workloads, routes, outcome, monkeypatch):
        walks = []
        walk = ms.sched._lpt_makespan
        monkeypatch.setattr(ms.sched, "_lpt_makespan", lambda *a: walks.append(a) or walk(*a))
        result = ms.part_schedule(make_tasks(workloads), 4, None)
        assert result.routes == routes and len(walks) == 1
        assert (result.procs_per_task, result.c_max, result.stop_reason) == outcome

    def test_mid_walk_exit_on_srr(self, srr, monkeypatch):
        # some of route 2's exits come from inside the heap walk
        cuts = []
        walk = ms.sched._lpt_makespan
        monkeypatch.setattr(ms.sched, "_lpt_makespan", lambda *a: cuts.append(walk(*a)) or cuts[-1])
        result = ms.part_schedule(srr.tasks(), 1000, 20)
        mid_walk = sum(cut for _, _, cut in cuts)
        assert 0 < mid_walk < result.routes[2]

    def test_lpt_finds_no_makespan_by_route(self):
        assert ms.lpt_schedule(make_tasks([5, 5]), 1).routes == (0, 0, 0, 0)


def reference_lpt_makespan(parallel, runs, procs):
    """Makespan of an LPT pass, without the placements, as (top, denom).

    ``parallel`` gives (W_i, P_i) of the parallel tasks, and ``runs`` the
    sequential tasks in LPT order as (W, m): m tasks of equal workload W.
    Processors with equal finish times are interchangeable, so the heap
    holds (F, count) buckets of them.  A run takes the least-F bucket
    whole, or splits it, exactly where m single placements would put its
    tasks, in one heap step per bucket.  The makespan is top / denom,
    with denom the lcm of the P_i.

    The form with one bucket per parallel task, kept as the reference for
    the one that takes a bucket per (W_i, P_i) class.
    """
    denom = lcm(*(k for _, k in parallel))
    buckets = [(w * (denom // k), k) for w, k in parallel]
    idle = procs - sum(k for _, k in parallel)
    if idle:
        buckets.append((0, idle))
    top = max(f for f, _ in buckets)
    heapq.heapify(buckets)
    for w, m in runs:
        s = w * denom
        while m:
            f, c = buckets[0]
            if c > m:
                heapq.heapreplace(buckets, (f, c - m))
                heapq.heappush(buckets, (f + s, m))
                m = 0
            else:
                heapq.heapreplace(buckets, (f + s, c))
                m -= c
            top = max(top, f + s)
    return top, denom


@st.composite
def makespan_cases(draw):
    """(W, P) classes of one or more tasks, zero workloads included, and
    sequential runs in LPT order, on as few processors as they need or more."""
    classes = {}
    for w, k, count in draw(st.lists(st.tuples(
            st.sampled_from([0, 6, 12, 30, 35, 60]), st.integers(2, 6), st.integers(1, 4)),
            max_size=5)):
        classes[w, k] = classes.get((w, k), 0) + count
    idle = draw(st.one_of(st.just(0), st.integers(0, 12)))
    procs = max(1, sum(k * c for (_, k), c in classes.items()) + idle)
    workloads = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=5)), reverse=True)
    runs = [(w, draw(st.integers(1, 25))) for w in workloads]
    r = draw(st.integers(0, len(runs) - 1))  # r = len(runs) - 1: no run after the first
    first = draw(st.integers(0, runs[r][1]))
    return classes, runs, r, first, procs


def walk_args(classes, runs, r, first, procs):
    """What ``part_schedule`` hands ``_lpt_makespan``, found by linear scans.

    Runs r.. of ``runs`` are the sequential tasks, at positions k = ends[r]
    - first on, so r moves to r + 1 when ``first`` is 0.  The idle
    processors run positions k..edge - 1; h is the first run they do not
    hold whole and g the first run q >= r with reach[q] * P_j <= P * W_j,
    each len(runs) if there is none.  Returns (ends, k, edge, r, h, g,
    longest).
    """
    reach, longest = graham_reach(classes, runs, r, first, procs)
    w, p = longest
    ends = list(accumulate(m for _, m in runs))
    k = ends[r] - first
    if not first:
        r += 1
    edge = k + procs - sum(c * k_i for (_, k_i), c in classes.items())
    h = next((q for q in range(r, len(runs)) if ends[q] > edge), len(runs))
    g = next((q for q in range(r, len(runs)) if reach[q] * p <= procs * w), len(runs))
    return ends, k, edge, r, h, g, longest


def graham_reach(classes, runs, r, first, procs):
    """reach and a longest (W, P), as ``part_schedule`` hands them to ``_lpt_makespan``.

    Taken per task: the workload ahead of a sequential task is the parallel
    tasks' plus that of the sequential tasks before it, and reach[q] is the
    largest Graham bound, ahead + P * W, over the tasks of runs[q:] (for
    q < r, that of runs[r:]).  The longest is over the parallel classes and
    the sequential tasks; (0, 1) when there is no task.
    """
    ahead = sum(w * c for (w, _), c in classes.items())
    bound = [0] * len(runs)
    longest = [(0, 1)] + list(classes)
    for q, w, m in [(r, runs[r][0], first)] + [(q, w, m) for q, (w, m) in enumerate(runs) if q > r]:
        for _ in range(m):
            bound[q] = max(bound[q], ahead + procs * w)
            ahead += w
            longest.append((w, 1))
    reach = [max(bound[max(q, r):]) for q in range(len(runs))]
    return reach, max(longest, key=lambda wk: Fraction(*wk))


@settings(max_examples=400, deadline=None)
@given(case=makespan_cases())
# three tasks of one class make one bucket of 6 processors; the run of 4 splits it
@example(case=({(10, 2): 3}, [(1, 4)], 0, 4, 6))
# a zero-workload class beside the idle processors, runs after the first
@example(case=({(0, 3): 2, (12, 4): 1}, [(5, 2), (3, 9)], 0, 1, 12))
# no idle processors, and no sequential task at all
@example(case=({(30, 2): 2, (35, 5): 1}, [(7, 3)], 0, 0, 9))
# the bound passes at the 1s, the first run the idle processors hold none of:
# the 20s end at 20 <= 30, and the 1s fit under 30, with no walk
@example(case=({(60, 2): 2}, [(20, 2), (1, 3)], 0, 2, 6))
# the bound would pass before the 0, but a placed finish, 20 + 20 = 40, exceeds 30 first
@example(case=({(60, 2): 1}, [(20, 3), (0, 1)], 0, 3, 4))
# the run of 20s straddles the parallel prefix: two are parallel and three
# fill idle processors; the bound passes at the 1s, which straddle the idle
# count, so there is no walk
@example(case=({(60, 2): 2, (20, 2): 2}, [(20, 5), (1, 4)], 0, 3, 13))
# g is the run that straddles the idle count: the 29 and seven 1s fill the
# eight idle processors, and the bound caps the 1s at 30 = 60 / 2
@example(case=({(60, 2): 1}, [(29, 1), (1, 20)], 0, 1, 10))
# no task left in the first run, and the bound holds from run r + 1, where
# the sequential tasks start
@example(case=({(60, 2): 1}, [(29, 1), (5, 1), (1, 20)], 0, 0, 10))
# every run fits beside a class: the idle-processor cut, whose makespan is
# the longest task's duration, 30 / 2
@example(case=({(30, 2): 1}, [(9, 2), (8, 1)], 0, 2, 6))
# no task left in the first run, and no run after it
@example(case=({}, [(1, 1)], 0, 0, 1))
# two runs fill three of the five idle processors: the idle-processor cut
@example(case=({}, [(9, 2), (8, 1)], 0, 2, 5))
# the run of 8s straddles the idle count: one fills the last idle processor,
# the other two go through the heap, to 8 + 8 and 9 + 8 = 17 = 34 / 2
@example(case=({(30, 2): 1}, [(9, 2), (8, 3)], 0, 2, 5))
def test_property_class_makespan_matches_reference(case):
    classes, runs, r, first, procs = case
    parallel = [wk for wk, count in classes.items() for _ in range(count)]
    expected = reference_lpt_makespan(parallel, [(runs[r][0], first)] + runs[r + 1:], procs)
    ends, k, edge, r, h, g, longest = walk_args(classes, runs, r, first, procs)
    if g <= h:
        # part_schedule takes the longest task's duration and walks nothing:
        # no finish before run h exceeds it, and the bound caps the rest
        assert Fraction(*expected) == Fraction(*longest)
        return
    top, den, cut = ms.sched._lpt_makespan(classes, runs, ends, k, edge, r, h, g, longest)
    if g < len(runs):
        # the exit may fire, and returns the longest (W_j, P_j): equal in value
        assert Fraction(top, den) == Fraction(*expected)
        assert not cut or (top, den) == longest
    else:
        assert (top, den, cut) == (*expected, False)


def test_graham_exit_at_a_run_inside_the_idle_processors():
    # ten processors, two hold the 60/2: the 29 and the 5 fit in the idle
    # ones, and at the 5 the bound caps every finish at 30, so the makespan
    # is 60/2 before the twenty 1s, which straddle the idle count, are walked
    classes, runs = {(60, 2): 1}, [(29, 1), (5, 1), (1, 20)]
    reach, longest = graham_reach(classes, runs, 0, 1, 10)
    assert longest == (60, 2) and reach[0] * 2 > 10 * 60 >= reach[1] * 2
    ends, k, edge, r, h, g, _ = walk_args(classes, runs, 0, 1, 10)
    assert (r, g, h) == (0, 1, 2)
    # the walk to the end, with no run to exit at, gives the same makespan
    assert ms.sched._lpt_makespan(classes, runs, ends, k, edge, r, h, len(runs), longest) == (60, 2, False)
    assert reference_lpt_makespan([(60, 2)], runs, 10) == (60, 2)


# runs of equal values, zeros included, so LPT ties and equal-duration buckets occur
WORKLOAD_RUNS = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 10**9)), st.integers(1, 30)),
    min_size=1,
    max_size=6,
).map(lambda runs: [w for w, k in runs for _ in range(k)])


@settings(max_examples=150, deadline=None)
@given(
    workloads=WORKLOAD_RUNS,
    procs=st.integers(1, 64),
    cutoff=st.one_of(st.none(), st.integers(1, 20)),
)
def test_property_part_schedule_is_valid(workloads, procs, cutoff):
    tasks = make_tasks(workloads)
    result = ms.part_schedule(tasks, procs, cutoff)
    check_schedule(result.schedule, tasks, procs)
    assert result.c_max == result.schedule.makespan()
    sizes = result.schedule.group_sizes
    assert tuple(sizes[t.object_id] for t in tasks) == result.procs_per_task


@settings(max_examples=150, deadline=None)
@given(workloads=WORKLOAD_RUNS, procs=st.integers(1, 64), data=st.data())
def test_property_lpt_schedule_is_valid(workloads, procs, data):
    # P_i > 1 only while the parallel tasks still fit on disjoint groups
    budget, counts = procs, []
    n = len(workloads)
    for k in data.draw(st.lists(st.integers(1, procs), min_size=n, max_size=n)):
        if 1 < k <= budget:
            budget -= k
        else:
            k = 1
        counts.append(k)
    tasks = [ms.TaskSpec(i, w, k) for i, (w, k) in enumerate(zip(workloads, counts))]
    result = ms.lpt_schedule(tasks, procs)
    check_schedule(result.schedule, tasks, procs)
    assert result.c_max == result.schedule.makespan()
    assert all(result.schedule.group_sizes[t.object_id] == t.procs for t in tasks)


@settings(max_examples=200, deadline=None)
@given(
    workloads=WORKLOAD_RUNS,
    spare=st.integers(-63, 63),
    cutoff=st.one_of(st.none(), st.integers(1, 20)),
)
def test_property_part_schedule_matches_reference(workloads, spare, cutoff):
    # P = n + spare, clamped to 1..64: the idle-processor cut can fire only
    # while there are more processors than tasks, so draw P on both sides of n
    procs = min(64, max(1, len(workloads) + spare))
    assert_matches_reference(make_tasks(workloads), procs, cutoff)


def assert_same_walk(a, b):
    assert (a.c_max, a.procs_per_task, a.iterations_taken, a.restricted, a.stop_reason,
            a.routes) == (b.c_max, b.procs_per_task, b.iterations_taken, b.restricted,
                          b.stop_reason, b.routes)
    assert a.schedule.rows == b.schedule.rows


@settings(max_examples=150, deadline=None)
@given(
    workloads=WORKLOAD_RUNS,
    calls=st.lists(
        st.tuples(st.integers(-63, 63), st.one_of(st.none(), st.sampled_from([1, 2, 4, 20]))),
        min_size=1,
        max_size=8,
    ),
    arrange=st.sampled_from(["ascending", "descending", "shuffled"]),
)
# n == P: the idle-processor cut settles state 0 only, a skip of zero steps
@example(workloads=[5, 3, 2], calls=[(0, None), (0, 20), (1, None)], arrange="shuffled")
# the budget runs out inside the prefix the second call skips: every task parallel,
# P_i summing to P
@example(workloads=[4, 4], calls=[(2, None), (2, None), (2, 2), (0, None)], arrange="shuffled")
@example(workloads=[0, 0, 0], calls=[(-2, None), (0, 20), (5, 1), (40, None)], arrange="descending")
@example(workloads=[9, 7, 7, 3], calls=[(-1, 1), (4, 1), (20, 1), (0, 1)], arrange="shuffled")
@example(workloads=[6, 6, 1], calls=[(-63, None), (-63, 20), (-63, 1)], arrange="ascending")
def test_property_shared_step_log_matches_reference(workloads, calls, arrange):
    # one task tuple, so every call walks the same step log per cutoff; P = n + spare,
    # clamped to 1..96, so the idle-processor skip and the full walk both occur
    tasks = tuple(make_tasks(workloads))
    calls = [(min(96, max(1, len(tasks) + spare)), cutoff) for spare, cutoff in calls]
    if arrange != "shuffled":
        calls.sort(key=lambda call: call[0], reverse=arrange == "descending")
    logs = TaskOrders.of(tasks).step_logs
    for procs, cutoff in calls:
        before = list(logs[cutoff].steps) if cutoff in logs else []
        result = assert_matches_reference(tasks, procs, cutoff)
        # a list never shares a log
        assert_same_walk(result, ms.part_schedule(list(tasks), procs, cutoff))
        # the log only gains steps at its end
        assert logs[cutoff].steps[:len(before)] == before


def test_step_logs_are_released(monkeypatch):
    made = []

    class Recorded(ms.sched._StepLog):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(ms.sched, "_StepLog", Recorded)
    first = tuple(make_tasks([9, 5, 5, 1]))
    ms.part_schedule(first, 3, 20)
    ms.part_schedule(first, 12, 20)
    assert len(made) == 1 and made[0]() is TaskOrders.of(first).step_logs[20]
    # scheduling another tuple drops the first one's log, with no cycle to wait for
    ms.part_schedule(tuple(make_tasks([3, 2])), 4, 20)
    assert len(made) == 2 and made[0]() is None and made[1]() is not None
    # a list's log lives for one call
    ms.part_schedule(make_tasks([9, 5, 5, 1]), 12, 20)
    assert len(made) == 3 and made[2]() is None and made[1]() is not None


def assert_results_equal(a, b):
    assert (a.c_max, a.procs_per_task, a.iterations_taken, a.restricted, a.stop_reason) == (
        b.c_max, b.procs_per_task, b.iterations_taken, b.restricted, b.stop_reason)
    assert a.schedule.rows == b.schedule.rows
    assert groups_of(a.schedule) == groups_of(b.schedule)
    assert a.schedule.start_times == b.schedule.start_times
    assert a.schedule.finish_times == b.schedule.finish_times


class TestRestricted:
    def test_cutoff_step_of_one_does_not_restrict(self):
        # at the cutoff, 1 -> 2 is a step of d = 1, the same as unlimited
        result = ms.part_schedule(make_tasks([100]), 2, cutoff=1)
        assert result.procs_per_task == (2,) and not result.restricted
        assert_results_equal(result, ms.part_schedule(make_tasks([100]), 2, None))

    def test_the_stopping_step_counts(self):
        # 2 -> 4 overdraws the budget and stops the loop: restricted, and
        # unlimited (2 -> 3) goes on to a different result
        result = ms.part_schedule(make_tasks([100]), 3, cutoff=2)
        assert result.procs_per_task == (2,) and result.restricted
        assert ms.part_schedule(make_tasks([100]), 3, None).procs_per_task == (3,)

    def test_unlimited_and_lpt_never_restricted(self, interposer):
        tasks = interposer.tasks()
        assert ms.part_schedule(tasks, 160, interposer.cutoff).restricted
        assert not ms.part_schedule(tasks, 160, None).restricted
        assert not ms.lpt_schedule(tasks, 160).restricted


@settings(max_examples=300, deadline=None)
@given(
    workloads=WORKLOAD_RUNS,
    spare=st.integers(-63, 63),
    cutoff=st.sampled_from([1, 2, 20]),
)
def test_property_unrestricted_result_equals_unlimited(workloads, spare, cutoff):
    procs = min(64, max(1, len(workloads) + spare))
    tasks = make_tasks(workloads)
    result = ms.part_schedule(tasks, procs, cutoff)
    if not result.restricted:
        assert_results_equal(result, ms.part_schedule(tasks, procs, None))


# within the oracle's guard; small workloads keep its search short
SMALL_INSTANCES = st.tuples(
    st.lists(st.integers(1, 12), min_size=1, max_size=ms.sched.ORACLE_MAX_TASKS),
    st.integers(2, ms.sched.ORACLE_MAX_PROCS),
)


@settings(max_examples=150, deadline=None)
@given(instance=SMALL_INSTANCES)
def test_property_lpt_within_its_bound(instance):
    workloads, procs = instance
    tasks = make_tasks(workloads)
    optimal = ms.oracle_optimal(tasks, procs)
    assert ms.lpt_schedule(tasks, procs).c_max <= ms.lpt_bound(procs) * optimal


@settings(max_examples=150, deadline=None)
@given(instance=SMALL_INSTANCES)
def test_property_part_schedule_within_its_bound(instance):
    workloads, procs = instance
    tasks = make_tasks(workloads)
    bound = ms.part_bound(procs) * ms.oracle_optimal(tasks, procs, moldable=True)
    for cutoff in (None, 2, 20):
        assert ms.part_schedule(tasks, procs, cutoff).c_max <= bound


def reference_lpt_placement(tasks, procs):
    """LPT with the P_i fixed, one task per step on ``Fraction`` finish times.

    Kept as the reference that ``lpt_schedule`` must reproduce: tasks go
    longest W_i/P_i first, ties to the lowest id.  Parallel tasks take
    contiguous groups from processor 0; sequential tasks then go to the
    earliest-finishing processor, ties to the lowest processor id.
    Returns (rows, groups, c_max), groups mapping each task id to its processors.
    """
    order = sorted(tasks, key=lambda t: (-Fraction(t.workload, t.procs), t.object_id))
    fin = [Fraction(0)] * procs
    rows = [[] for _ in range(procs)]
    assignment = {}
    nxt = 0
    for t in order:
        if t.procs > 1:
            group = range(nxt, nxt + t.procs)
            for p in group:
                rows[p].append(t.object_id)
                fin[p] += Fraction(t.workload, t.procs)
            assignment[t.object_id] = frozenset(group)
            nxt += t.procs
    for t in order:
        if t.procs == 1:
            p = min(range(procs), key=fin.__getitem__)  # the first of equal minima
            rows[p].append(t.object_id)
            fin[p] += t.workload
            assignment[t.object_id] = frozenset((p,))
    return tuple(map(tuple, rows)), assignment, max(fin)


def draw_lpt_tasks(workloads, procs, data):
    """Tasks of the given workloads with any P_i vector that fits in P, on shuffled ids.

    The parallel P_i are the gaps between distinct cut points in 1..P, so
    they sum to at most P, and go to tasks drawn at random; the ids are
    shuffled, so the id tie rule is not the input order.
    """
    n = len(workloads)
    ids = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, procs), max_size=n)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts)]
    counts = data.draw(st.permutations(sizes + [1] * (n - len(sizes))))
    return [ms.TaskSpec(i, w, k) for i, w, k in zip(ids, workloads, counts)]


@settings(max_examples=300, deadline=None)
@given(workloads=WORKLOAD_RUNS, procs=st.integers(1, 64), data=st.data())
def test_property_lpt_schedule_matches_reference(workloads, procs, data):
    tasks = draw_lpt_tasks(workloads, procs, data)
    result = ms.lpt_schedule(tasks, procs)
    rows, assignment, c_max = reference_lpt_placement(tasks, procs)
    assert result.schedule.rows == rows
    assert groups_of(result.schedule) == assignment
    assert result.c_max == c_max
    check_schedule(result.schedule, tasks, procs)


def reference_times(result, tasks, procs):
    """Start and finish times by the eager packing loop: a Fraction clock per row.

    Kept as the reference for the times a Schedule makes on first read:
    each row runs back to back from time 0, a slot lasting W_i / P_i.
    """
    workload_of = {t.object_id: t.workload for t in tasks}
    group_of = dict(zip((t.object_id for t in tasks), result.procs_per_task))
    start_times = []
    finish_times = []
    for p in range(procs):
        clock = Fraction(0)
        starts = []
        for tid in result.schedule.rows[p]:
            starts.append(clock)
            clock += Fraction(workload_of[tid], group_of[tid])
        start_times.append(tuple(starts))
        finish_times.append(clock)
    return tuple(start_times), tuple(finish_times)


def test_parallel_tasks_on_rows_apart():
    # task 0 runs on rows 0 and 2, and task 2 on rows 0 and 3, after task 0 on
    # row 0 and task 3 on row 3: neither group is contiguous, and each task's
    # P_i is the number of rows holding it
    tasks = [ms.TaskSpec(0, 6, 2), ms.TaskSpec(1, 5), ms.TaskSpec(2, 8, 2), ms.TaskSpec(3, 3)]
    schedule = ms.Schedule(((0, 2), (1,), (0,), (3, 2)), tasks)
    assert schedule.group_sizes == {0: 2, 1: 1, 2: 2, 3: 1}
    result = SimpleNamespace(schedule=schedule, procs_per_task=(2, 1, 2, 1))
    starts, finish = reference_times(result, tasks, 4)
    assert (schedule.start_times, schedule.finish_times) == (starts, finish)
    assert finish == (7, 5, 3, 7)
    check_schedule(schedule, tasks, 4)


def assert_times_match_reference(result, tasks, procs, read_makespan_first):
    schedule = result.schedule
    # the times are made on the first read, whichever name is read first
    if read_makespan_first:
        assert schedule.makespan() == result.c_max
    starts, finish = reference_times(result, tasks, procs)
    assert schedule.start_times == starts
    assert schedule.finish_times == finish
    assert schedule.makespan() == max(finish, default=Fraction(0)) == result.c_max
    check_schedule(schedule, tasks, procs)


@settings(max_examples=150, deadline=None)
@given(
    workloads=WORKLOAD_RUNS,
    procs=st.integers(1, 64),
    data=st.data(),
    read_makespan_first=st.booleans(),
)
def test_property_lpt_times_match_eager_packing(workloads, procs, data, read_makespan_first):
    # parallel groups of distinct sizes make the clocks' denominator the lcm of theirs
    tasks = draw_lpt_tasks(workloads, procs, data)
    result = ms.lpt_schedule(tasks, procs)
    assert_times_match_reference(result, tasks, procs, read_makespan_first)


@settings(max_examples=150, deadline=None)
@given(
    workloads=WORKLOAD_RUNS,
    spare=st.integers(-40, 40),
    cutoff=st.one_of(st.none(), st.integers(1, 20)),
    read_makespan_first=st.booleans(),
)
def test_property_part_schedule_times_match_eager_packing(
    workloads, spare, cutoff, read_makespan_first
):
    procs = min(64, max(1, len(workloads) + spare))
    tasks = make_tasks(workloads)
    result = ms.part_schedule(tasks, procs, cutoff)
    assert_times_match_reference(result, tasks, procs, read_makespan_first)
