"""Moldable-task schedulers: LPT, Part_Schedule, and its grid-friendly variant.

The schedulers are exact: durations are workload / processor-count
rationals, and every comparison (including the makespan equality test
the iterative scheduler's stopping rule needs) is made on Python
integers, never on rounded floats.  There is one scheduling path, in
pure Python.  The iterative scheduler carries its makespans as integer
(numerator, denominator) pairs compared cross-multiplied, and orders W/P
by integer keys; a ``Fraction`` is made once, for the returned c_max.

Which task the iterative scheduler grows, and by how much, does not
depend on P: P only decides where its loop stops.  So its steps are
logged once per task tuple and cutoff, as (task, old P_i, d), with the
sum of the P_i and the parallel task count after each step.  The log
owns that state and picks each next step itself, and every P of a sweep
walks it and reads its state there.  The P_i of the best schedule are
replayed from the log's prefix, so no step copies the P_i.

It needs only the makespan of each rebuilt schedule.  It skips the
rebuild when the makespan is the longest task's duration: when the idle
processors are at least as many as the sequential tasks (each then runs
alone from time zero), or when Graham's list-scheduling bound proves it.
The first case holds while all P_i sum to at most P, and that sum grows
with every step, so when P >= n the walk skips those steps with one
bisect.  Graham's bound peaks at the last task of each run of equal
sequential workloads, so it is kept per run, built in O(runs) at a
call's first test of it from a fact of the task tuple
(``TaskOrders.last_ahead``).  Two bisects find run g, the first from
which the bound caps every finish at the longest task's duration, and
run h, the first the idle processors do not hold whole.  No finish
before run h exceeds that duration, since each is one task's own, so
g <= h settles the makespan with no walk.  Otherwise it computes the
makespan from buckets of equal finish times: it keeps the parallel
tasks as a multiset of (W_i, P_i) classes, one bucket per class,
brought up to the current step only when a rebuild needs it, so a
rebuild costs O(classes + runs of equal sequential workloads), not
O(tasks).  That walk starts at run h and tests the bound once more, at
run g: it stops there when no finish placed so far exceeds the longest
task's duration.  ``ScheduleResult.routes`` counts the makespans each
way settled.

It places the tasks once, for the best processor counts found, in the
LPT placement pass that ``lpt_schedule`` also runs: one pass builds the
rows, which hold the processor groups, and gives the makespan.  It takes
the parallel prefix and the sequential suffix as two lists and keeps
each processor as one int key, ``finish * procs + p``.  A built schedule
keeps integer clocks until its start and finish times are read; only
then are they made exact ``Fraction``s (see ``Schedule``).
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt, lcm
from operator import neg
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .model import (
    DEFAULT_CUTOFF,
    MAX_PROCS,
    InfeasibleParallelSetError,
    InstanceTooLargeError,
    InvalidTaskError,
    Schedule,
    TaskOrders,
    TaskSpec,
    UndefinedBoundError,
)

ORACLE_MAX_TASKS = 12
ORACLE_MAX_PROCS = 6


@dataclass(frozen=True)
class ScheduleResult:
    """A built schedule plus its makespan and final processor counts.

    ``restricted`` is true when the approximate-square cutoff bound:
    some step of ``part_schedule`` grew a task by d > 1, the step at
    which the loop stopped included (its d is charged to the budget
    before the stop test).  When it is false, the same tasks at cutoff
    ``None`` take the same steps and give an equal result.  ``lpt_schedule``
    takes no steps, so its results read false.

    ``stop_reason`` says why ``part_schedule``'s loop ended: "budget"
    (no processor left at the loop head), "not-longest" (c_max was no
    longer the longest task's duration), "overdraw" (the step's d would
    overdraw the budget) or "worse" (the rebuilt schedule was strictly
    longer).  A step that is both not-longest and an overdraw reads
    "not-longest".  ``lpt_schedule`` results read "none".

    ``routes`` counts how ``part_schedule`` found each makespan it
    needed, one before its loop and one per rebuild, in this order: by
    the idle-processor cut, by Graham's bound at the first sequential
    task, by Graham's bound at a later run (inside the idle processors
    or mid-walk), and by a walk to the end.
    ``lpt_schedule`` needs none.
    """

    schedule: Schedule
    c_max: Fraction
    procs_per_task: Tuple[int, ...]
    iterations_taken: int
    restricted: bool
    stop_reason: str
    routes: Tuple[int, int, int, int] = (0, 0, 0, 0)


def lpt_bound(procs: int) -> Fraction:
    """Worst-case makespan ratio of LPT: 4/3 - 1/(3P)."""
    if procs < 1:
        raise UndefinedBoundError("LPT bound needs P >= 1")
    return Fraction(4, 3) - Fraction(1, 3 * procs)


def part_bound(procs: int) -> Fraction:
    """Worst-case makespan ratio of Part_Schedule: 2/(1 - 1/P), multiprocessor only."""
    if procs < 2:
        raise UndefinedBoundError("Part_Schedule bound diverges for P < 2")
    return Fraction(2 * procs, procs - 1)


def ideal_length(tasks: Sequence[TaskSpec], procs: int) -> Fraction:
    """Length of a perfectly balanced schedule, sum(W_i)/P.

    The sum is taken once per task tuple (``TaskOrders``).
    """
    if procs < 1:
        raise InvalidTaskError(f"procs must be >= 1, got {procs}")
    return Fraction(TaskOrders.of(tasks).total, procs)


def normalized_length(c_max: Fraction, ideal: Fraction) -> float:
    """c_max over the ideal length; 0.0 when the ideal length is 0 (no work)."""
    return float(c_max / ideal) if ideal > 0 else 0.0


def is_approx_square(p: int) -> bool:
    """True if p = Q*Q or p = Q*(Q+1) for a natural Q."""
    q = isqrt(p)
    return p in (q * q, q * (q + 1))


def next_approx_square_increment(p: int) -> int:
    """Distance from p to the next larger approximate square.

    The approximate squares are {Q^2} U {Q(Q+1)} = 1, 2, 4, 6, 9, 12, 16,
    20, 25, 30, 36, ...; process counts in this set factor into near-equal
    grid dimensions.  The next one above p is q(q+1) or (q+1)^2, q = isqrt(p).
    """
    if p < 1:
        raise InvalidTaskError(f"p must be >= 1, got {p}")
    q = isqrt(p)
    return (q * (q + 1) if p < q * (q + 1) else (q + 1) * (q + 1)) - p


def nearest_approx_square(p: int) -> int:
    """Member of the approximate-square set closest to p (ties: smaller)."""
    if p < 1:
        raise InvalidTaskError(f"p must be >= 1, got {p}")
    q = isqrt(p)
    # the largest member <= p: q(q+1) or q^2
    below = q * (q + 1) if q * (q + 1) <= p else q * q
    above = p + next_approx_square_increment(p)
    return below if p - below <= above - p else above


def _lpt_place(
    orders: TaskOrders,
    pi: Sequence[int],
    parallel: Sequence[int],
    sequential: Sequence[int],
    procs: int,
) -> Tuple[Schedule, Tuple[int, int]]:
    """One LPT pass with the P_i fixed: the Schedule and its makespan as (top, denom).

    Every processor starts at time 0.  ``orders`` holds the tasks.
    ``parallel`` lists the positions of the tasks with P_i > 1, in any
    order, and ``sequential`` those with P_i = 1, longest first, ties to
    the lowest id.  This is the one place the parallel tasks are put in
    LPT order: longest W_i/P_i first, ties to the lowest id.  They take
    contiguous groups from processor 0; sequential tasks then go to the
    earliest-finishing processor, ties to the lowest processor id.  So
    each row holds its parallel task, if any, first.

    Durations are scaled by denom, the lcm of the parallel P_i, and each
    processor is one int key ``finish * procs + p`` in a min-heap: as 0 <=
    p < procs, the keys sort as the (finish, p) pairs do, the processor is
    ``key % procs``, and a task of workload W adds ``W * denom * procs``.
    The makespan is top / denom.
    """
    ids, workloads = orders.ids, orders.workloads
    denom = lcm(*(pi[i] for i in parallel))
    fin = [0] * procs
    rows: List[List[int]] = [[] for _ in range(procs)]

    nxt = 0
    for i in sorted(parallel, key=lambda j: (-workloads[j] * (denom // pi[j]), ids[j])):
        k = pi[i]
        tid = ids[i]
        # the groups are disjoint: each F_p was 0
        fin[nxt:nxt + k] = [workloads[i] * (denom // k)] * k
        for row in rows[nxt:nxt + k]:
            row.append(tid)
        nxt += k

    heap = [f * procs + p for p, f in enumerate(fin)]
    heapq.heapify(heap)
    unit = denom * procs
    for i in sequential:
        key = heap[0]
        rows[key % procs].append(ids[i])
        heapq.heapreplace(heap, key + workloads[i] * unit)
    schedule = Schedule(tuple(map(tuple, rows)), orders.items)
    return schedule, (max(heap) // procs, denom)


def _lpt_makespan(
    classes: Mapping[Tuple[int, int], int],
    runs: Sequence[Tuple[int, int]],
    ends: Sequence[int],
    k: int,
    edge: int,
    r: int,
    h: int,
    g: int,
    longest: Tuple[int, int],
) -> Tuple[int, int, bool]:
    """Makespan of an LPT pass, without the placements, as (top, denom, cut).

    ``classes`` counts the parallel tasks per (W_i, P_i) class.  The
    sequential tasks are the positions k.. of an LPT order cut into
    ``runs``: a run (W, m) is m tasks of equal workload W, and runs[q]
    ends at position ends[q].  Position k is in runs[r].  The idle
    processors run positions k..edge - 1 alone from time 0, and runs[h]
    is the first run they do not hold whole, so h < len(runs).
    Processors with equal finish times are interchangeable, so the heap
    holds (F, count) buckets of them: one per class, (W * denom / P,
    count * P), and one per run, or head of run h, that the idle
    processors hold.  From the rest of run h on, a run takes the least-F
    bucket whole, or splits it, exactly where m single placements would
    put its tasks, in one heap step per bucket.  A call costs O(classes +
    runs), however many tasks the classes hold.  The makespan is top /
    denom, with denom the lcm of the distinct P_i.

    Each finish before run h is one task's own duration, so none exceeds
    W_j/P_j, with ``longest`` (W_j, P_j) a task of the longest duration:
    the caller settles Graham's bound itself when its run g, the first
    from which the bound caps every finish at W_j/P_j, is at most h (see
    ``part_schedule``).  So g > h here, and the walk tests the bound at
    run g once: if no finish so far exceeds W_j/P_j, no task will, and
    the call returns (W_j, P_j, True).  A walk to the end returns cut
    False.
    """
    w_j, p_j = longest
    denom = lcm(*(p for _, p in classes))
    buckets = [(w * (denom // p), c * p) for (w, p), c in classes.items()]
    # the idle processors hold runs r..h - 1 whole, the first from position k on
    start = k
    if h > r:
        buckets.append((runs[r][0] * denom, ends[r] - k))
        buckets += [(w * denom, m) for w, m in runs[r + 1:h]]
        start = ends[h - 1]
    if edge > start:
        buckets.append((runs[h][0] * denom, edge - start))
    heapq.heapify(buckets)
    for q in range(h, len(runs)):
        if q == g and max(buckets)[0] * p_j <= w_j * denom:
            return w_j, p_j, True
        w, m = runs[q]
        if q == h:
            m = ends[h] - edge
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
    # finish times only grow, so the last ones hold the largest
    return max(buckets)[0], denom, False


def _check_inputs(tasks: Sequence[TaskSpec], procs: int) -> TaskOrders:
    """The tasks' ``TaskOrders``, once P and the tasks are checked (per task tuple)."""
    if not 1 <= procs <= MAX_PROCS:
        raise InvalidTaskError(f"procs must be in 1..MAX_PROCS ({MAX_PROCS}), got {procs}")
    orders = TaskOrders.of(tasks)
    if orders.problem is not None:
        raise InvalidTaskError(orders.problem)
    return orders


def lpt_schedule(tasks: Sequence[TaskSpec], procs: int) -> ScheduleResult:
    """Longest-processing-time list schedule for tasks with fixed P_i, from time 0.

    Tasks with P_i > 1 are placed first, all starting at time zero on
    disjoint processor groups (requires sum of their P_i <= procs);
    sequential tasks are then appended to the earliest-finishing
    processor.  Ties: longer duration first, then ascending task id;
    earliest-F_p ties go to the lowest processor id.  It runs the LPT
    placement pass that ``part_schedule`` ends with.
    """
    orders = _check_inputs(tasks, procs)
    parallel_total = sum(t.procs for t in tasks if t.procs > 1)
    if parallel_total > procs:
        raise InfeasibleParallelSetError(
            f"parallel tasks need {parallel_total} processors, only {procs} exist"
        )

    pi = [t.procs for t in tasks]
    # ``order`` is longest workload first, ties to the lowest id: the LPT
    # order of the sequential tasks
    parallel = [i for i in orders.order if pi[i] > 1]
    sequential = [i for i in orders.order if pi[i] == 1]
    schedule, (top, denom) = _lpt_place(orders, pi, parallel, sequential, procs)
    return ScheduleResult(
        schedule=schedule,
        c_max=Fraction(top, denom),
        procs_per_task=tuple(pi),
        iterations_taken=0,
        restricted=False,
        stop_reason="none",
    )


# Two distinct W/P with P, P' <= MAX_PROCS differ by at least 1/MAX_PROCS**2,
# more than 2**-SHIFT, so their keys in ``_entry`` differ, and equal W/P get
# equal keys
SHIFT = 2 * MAX_PROCS.bit_length()


def _entry(w: int, tid: int, i: int, p: int) -> Tuple[int, int, int, int]:
    """Task i's entry in ``_StepLog``'s heap: the longest W/P first, ties to the lowest id."""
    return -((w << SHIFT) // p), tid, i, p


class _StepLog:
    """Part_Schedule's steps for one task tuple and cutoff, shared by every P.

    ``steps[s]`` is (i, p, d): after s steps the longest task is i (ties
    to the lowest id), at P_i = p, and step s grows it to p + d.  Which
    task grows, and by how much, reads the P_i and the cutoff only; P
    decides only where the loop stops.  So every P walks one sequence of
    steps, and a walk that takes the last logged step calls ``grow`` to
    log the next one; no step is ever rewritten.  ``first_wide`` is the
    first step with d > 1, once one is logged: a walk that takes it is
    restricted.

    Three arrays of 64-bit integers hold one entry per logged step s: the
    sum of all P_i after s steps (``sums``), the parallel task count
    (``ks``), and the first step after which the longest duration was what
    it is after s steps (``best``).  A walk reads its state after s steps
    from them.  Each fits: a sum is at most P + n, and P is at most
    ``MAX_PROCS``.

    ``parallel`` is the state before the last logged step: its parallel
    tasks in a heap of ``_entry`` tuples, longest first, each holding its
    task's P_i, the only copy of it.  The parallel tasks are the prefix
    ``order[:k]`` of the sequential LPT order, k the heap's size, and the
    longest sequential task is ``order[k]``, at P_i = 1.  The log holds
    lists of ``TaskOrders``, not the ``TaskOrders``, which holds the log.
    """

    __slots__ = ("cutoff", "ids", "workloads", "order", "steps", "first_wide", "parallel",
                 "sums", "ks", "best")

    def __init__(self, orders: TaskOrders, cutoff: Optional[int]):
        self.cutoff = cutoff
        self.ids, self.workloads, self.order = orders.ids, orders.workloads, orders.order
        # P_i = 1 is below any cutoff, or 1 -> 2 is the step to the next approximate square
        self.steps = [(orders.order[0], 1, 1)]
        self.first_wide: Optional[int] = None
        self.parallel: List[Tuple[int, int, int, int]] = []
        self.sums = array("q", [len(orders.order)])
        self.ks, self.best = array("q", [0]), array("q", [0])

    def grow(self) -> None:
        """Take the last logged step on the heap, and log the next one."""
        ids, workloads, order, parallel = self.ids, self.workloads, self.order, self.parallel
        s = len(self.steps)
        j, p, d = self.steps[-1]
        w = workloads[j]
        k = self.ks[-1] + (p == 1)
        # j turns parallel, or is the heap's top.  Every P_i on the heap is at most
        # P <= MAX_PROCS: a walk takes a step, and so logs the next one, only once
        # its overdraw test has passed.
        (heapq.heappush if p == 1 else heapq.heapreplace)(parallel, _entry(w, ids[j], j, p + d))
        # the longest task and its P_i: the heap's top, or order[k] at P_i = 1
        head = parallel[0]
        if k < len(order):
            t = order[k]
            head = min(head, _entry(workloads[t], ids[t], t, 1))
        _, _, i, q = head
        e = 1 if self.cutoff is None or q < self.cutoff else next_approx_square_increment(q)
        if e > 1 and self.first_wide is None:
            self.first_wide = s
        self.steps.append((i, q, e))
        self.sums.append(self.sums[-1] + d)
        self.ks.append(k)
        # the longest duration never grows: it ties step s - 1's or falls below it
        self.best.append(self.best[-1] if workloads[i] * p == w * q else s)


def part_schedule(
    tasks: Sequence[TaskSpec],
    procs: int,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
) -> ScheduleResult:
    """Iterative moldable schedule: parallelize the longest task, rebuild by LPT.

    All P_i start at 1.  Each iteration picks the task with the longest
    current duration (ties: lowest id) and grows its P_i by d, where d is
    1 while P_i is below ``cutoff`` and otherwise the step to the next
    approximate square, so that large processor grids stay near-square.
    A processor budget a = P is charged d (plus 1 when a task first turns
    parallel) per step, and the search stops when the makespan is no
    longer the longest task, the budget is exhausted, or a rebuilt
    schedule comes out strictly worse.

    ``cutoff=None`` removes the approximate-square restriction (d = 1
    always), recovering the original algorithm.  The returned schedule is
    the shortest one encountered; rebuilds that merely tie the current
    length keep the search going but never replace the best schedule, so
    chains of equal-length tasks still end up parallelized.  The result's
    ``restricted`` says whether the cutoff ever changed a step, its
    ``stop_reason`` which test ended the loop, and its ``routes`` how each
    makespan was found.

    The steps do not depend on P, so they are logged once per task tuple
    and cutoff (``TaskOrders.step_logs``, see ``_StepLog``), and a call
    walks the log: it reads each state's parallel count and budget from
    it, runs the stop tests, finds only the makespans this P needs, and
    has the log grow when it takes the last logged step.  The placement
    replays the log's prefix up to the best schedule into a fresh list of
    P_i, and runs one LPT pass.  The parallel tasks are always the
    longest-first prefix of the sequential LPT order, and the rebuild's
    makespan reads them as a multiset of (W_i, P_i) classes, brought up
    to the current step only when a makespan needs it.

    Each rebuild tests each shortcut once.  The idle-processor cut holds
    when the idle processors are at least as many as the sequential
    tasks.  If not, with j the longest task, g is the first run q of
    sequential workloads at or after order[k]'s run r from which Graham's
    bound caps every finish at W_j/P_j, and h the first the idle
    processors do not hold whole.  Each finish before run h is one task's
    own duration, no longer than W_j/P_j, so g == r (the bound at
    order[k]) and r < g <= h (the bound inside the idle processors) both
    give W_j/P_j.  Only when g > h are the classes brought up to date and
    ``_lpt_makespan`` walked, from run h; it tests the bound at run g.

    When P >= n, the walk skips the logged steps that the idle-processor
    cut settles.  After s steps the budget is P less the parallel P_i,
    and the cut holds when the n - k sequential tasks fit in it, that
    is, when all P_i sum to at most P.  Each step adds its d >= 1 to that
    sum, so the cut holds for a prefix of the steps, and one bisect over
    the logged sums finds where it ends, or that it runs past the log.
    Inside it the makespan is the longest task's duration, which no step
    lengthens, and the budget covers the sequential tasks, so no step
    there stops the loop as not-longest, overdraw or worse; the budget
    runs out only at the prefix's end, when every task is parallel and
    their P_i sum to P.  So the walk starts at the prefix's last logged
    step, with the log's first step of that step's makespan as the best,
    and tests the cut at each step from there as before.
    """
    if not tasks:
        raise InvalidTaskError("part_schedule needs a nonempty task list")
    orders = _check_inputs(tasks, procs)
    if cutoff is not None and cutoff < 1:
        raise InvalidTaskError(f"cutoff must be >= 1 or None, got {cutoff}")

    # A sequential task's duration is its workload, so LPT order over the
    # sequential tasks never changes, and the task that first turns
    # parallel is always the first sequential one: the parallel tasks are
    # the prefix order[:k].  The order and its runs of equal workloads
    # depend on the tasks only, so they are built once per task tuple.
    workloads, order = orders.workloads, orders.order
    # runs of equal workloads in ``order``: (W, count), ending at ends[r]
    runs, ends = orders.runs, orders.ends
    n = len(tasks)
    log = orders.step_logs.get(cutoff)
    if log is None:
        log = orders.step_logs[cutoff] = _StepLog(orders, cutoff)
    steps, sums, ks = log.steps, log.sums, log.ks
    # Graham's bound per run, built at its first test
    reach: Optional[List[int]] = None

    # makespans found by the idle-processor cut, Graham's bound at order[k],
    # Graham's bound at a later run, and a walk to the end
    routes = [0, 0, 0, 0]
    # the parallel tasks as a multiset, (W_i, P_i) -> count, after ``taken`` steps
    classes: Dict[Tuple[int, int], int] = {}
    taken = 0

    # Makespans are (numerator, denominator) pairs, compared cross-multiplied.
    # No makespan kept is worse than the one before, so the current one is
    # the best so far.
    if n <= procs:
        # the cut settles the makespans after 0..s steps: all P_i sum to at most P
        s = bisect_right(sums, procs) - 1
        best_steps = log.best[s]
        routes[0] = s
        j, p, _ = steps[s]
        cur_top, cur_den = workloads[j], p
    else:
        s = best_steps = 0
        # 1/0 stands for an infinite makespan: the first one found is lower
        cur_top, cur_den = 1, 0

    while True:
        # after s steps: k parallel tasks, and the budget is P less the parallel P_i;
        # the longest task j gives c_max >= W_j/P_j
        j, p, d = steps[s]
        w = workloads[j]
        k = ks[s]
        budget = procs - sums[s] + n - k
        if n - k <= budget:
            # each sequential task runs alone from time 0
            routes[0] += 1
            top, den = w, p
        else:
            if reach is None:
                # Graham: sequential task j finishes by (W_par + prefix_j)/P + W_j,
                # and W_par + prefix_j is the workload ahead of j in ``order``.
                # Within a run that peaks at the run's last task, so reach[r] is P
                # times the largest such bound over the tasks of runs[r:], and it
                # never grows with r.
                reach = [ahead + procs * v for ahead, (v, _) in zip(orders.last_ahead, runs)]
                reach = list(accumulate(reversed(reach), max))[::-1]
            # r: order[k]'s run; g: the first run from which Graham's bound caps
            # every finish at W_j/P_j (reach is an int); h: the first run the idle
            # processors do not hold whole (see the docstring for why g <= h settles it)
            r = bisect_right(ends, k)
            g = bisect_left(reach, -(procs * w // p), r, key=neg)
            h = bisect_right(ends, k + budget, r)
            if g <= h:
                routes[1 if g == r else 2] += 1
                top, den = w, p
            else:
                for i, q, e in steps[taken:s]:
                    v = workloads[i]
                    if q > 1:
                        if classes[v, q] == 1:
                            del classes[v, q]
                        else:
                            classes[v, q] -= 1
                    classes[v, q + e] = classes.get((v, q + e), 0) + 1
                taken = s
                top, den, cut = _lpt_makespan(classes, runs, ends, k, k + budget, r, h, g, (w, p))
                routes[2 if cut else 3] += 1
        if top * cur_den > cur_top * den:
            stop_reason = "worse"
            break
        if top * cur_den < cur_top * den:
            best_steps = s
        cur_top, cur_den = top, den
        if budget <= 0:
            stop_reason = "budget"
            break
        # step s grows j by d
        s += 1
        # stop when c_max is no longer the longest task's W_j/P_j
        if top * p != w * den:
            stop_reason = "not-longest"
            break
        # the step is charged d, plus 1 when j turns parallel
        if budget < (d + 1 if p == 1 else d):
            stop_reason = "overdraw"
            break
        if s == len(steps):
            log.grow()

    pi = [1] * n
    for i, p, d in steps[:best_steps]:
        pi[i] = p + d
    # the placement's makespan is cur_top / cur_den: the same LPT pass.  The
    # grown tasks are the parallel ones, the prefix order[:best_k], and its
    # sequential tasks order[best_k:], already longest first.
    best_k = n - pi.count(1)
    schedule, (top, den) = _lpt_place(orders, pi, order[:best_k], order[best_k:], procs)
    return ScheduleResult(
        schedule=schedule,
        c_max=Fraction(top, den),
        procs_per_task=tuple(pi),
        iterations_taken=s,
        restricted=log.first_wide is not None and log.first_wide < s,
        stop_reason=stop_reason,
        routes=tuple(routes),
    )


def _min_pack(durations: Sequence[int], loads: Sequence[int], cap: Optional[int]) -> int:
    """Minimum makespan packing sequential durations onto preloaded processors.

    Branch and bound over placements, longest duration first, with
    identical-load symmetry pruning.  Returns min(cap, optimum) when a
    cap is given; exact arithmetic throughout.
    """
    procs = len(loads)
    durs = sorted(durations, reverse=True)
    total = sum(loads) + sum(durs)
    floor_bound = max(-(-total // procs), max(loads, default=0), max(durs, default=0))

    work = list(loads)
    heap = list(loads)
    heapq.heapify(heap)
    for d in durs:
        heapq.heapreplace(heap, heap[0] + d)
    best = max(heap)
    if cap is not None and cap < best:
        best = cap
    if best <= floor_bound:
        return best

    def rec(k: int, cur_max: int) -> None:
        nonlocal best
        if cur_max >= best:
            return
        if k == len(durs):
            best = cur_max
            return
        d = durs[k]
        tried: Set[int] = set()
        for p in range(procs):
            load = work[p]
            if load in tried:
                continue
            tried.add(load)
            new = load + d
            if new >= best:
                continue
            work[p] = new
            rec(k + 1, max(cur_max, new))
            work[p] = load
            if best <= floor_bound:
                return

    rec(0, max(loads, default=0))
    return best


def oracle_optimal(
    tasks: Sequence[TaskSpec],
    procs: int,
    moldable: bool = False,
) -> Fraction:
    """Exhaustive-search optimal makespan for small instances.

    With ``moldable=False`` every task runs on exactly one processor.
    With ``moldable=True`` each task's P_i ranges over 1..P under the
    same execution model as the schedulers: all parallel tasks start at
    time zero on disjoint groups with sum(P_i > 1) <= P, sequential tasks
    fill in afterwards.  Guarded to at most 12 tasks and 6 processors;
    exponential beyond that.
    """
    _check_inputs(tasks, procs)
    if len(tasks) > ORACLE_MAX_TASKS or procs > ORACLE_MAX_PROCS:
        raise InstanceTooLargeError(
            f"oracle limited to {ORACLE_MAX_TASKS} tasks and {ORACLE_MAX_PROCS} processors"
        )
    workloads = [t.workload for t in tasks]
    n = len(tasks)

    if not moldable:
        best = _min_pack(workloads, [0] * procs, None)
        return Fraction(best)

    scale = lcm(*range(1, procs + 1))
    best: Optional[int] = None
    pvec = [1] * n

    def enumerate_pvec(k: int, parallel_sum: int) -> None:
        nonlocal best
        if k == n:
            loads: List[int] = []
            seq: List[int] = []
            for i in range(n):
                if pvec[i] > 1:
                    loads.extend([workloads[i] * (scale // pvec[i])] * pvec[i])
                else:
                    seq.append(workloads[i] * scale)
            loads.extend([0] * (procs - len(loads)))
            got = _min_pack(seq, loads, best)
            if best is None or got < best:
                best = got
            return
        for k_i in range(1, procs + 1):
            extra = k_i if k_i > 1 else 0
            if parallel_sum + extra > procs:
                continue
            pvec[k] = k_i
            enumerate_pvec(k + 1, parallel_sum + extra)
        pvec[k] = 1

    enumerate_pvec(0, 0)
    assert best is not None
    return Fraction(best, scale)
