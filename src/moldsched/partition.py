"""External-problem mesh partitioning and task-list/process alignment.

The partitioner balances owned edges across processes while keeping the
number of partitions per object minimal; small objects are never split.
Task lists (schedule rows) are then matched to processes by edge overlap
so that the per-iteration redistribution stage moves as little data as
possible, and the residual traffic is accounted for explicitly.

Object ids double as 0-based indices of the partition's per-object pieces,
so schedule task ids address an object's pieces directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .model import (
    InvalidScenarioError,
    MachineModel,
    Object,
    ObjectOrders,
    PartitionMap,
    Pieces,
    Schedule,
    ShapeError,
)


@dataclass(frozen=True)
class TaskListAssignment:
    """Bijection from process id to schedule row, with the achieved overlap."""

    process_to_row: Tuple[int, ...]
    overlap: Tuple[int, ...]

    def row_to_process(self) -> Tuple[int, ...]:
        inv = [0] * len(self.process_to_row)
        for p, r in enumerate(self.process_to_row):
            inv[r] = p
        return tuple(inv)


def partition_external(objects: Sequence[Object], procs: int) -> PartitionMap:
    """Greedy object-aware split of mesh edges over processes.

    Objects are taken in descending edge count.  An object no larger than
    the per-process target (total edges / P) goes whole to the currently
    least-loaded process; a larger one is cut into ceil(edges/target)
    near-equal contiguous chunks, placed on the least-loaded processes.
    Each object's pieces sum to its edge count exactly, and no process
    ends up with more than twice the target, or more than one edge when
    the target is below half an edge.

    The check that the ids are 0..N-1, the edge total and the size order
    (zero-edge objects left out) do not depend on P: they come from
    ``ObjectOrders``, computed once per objects tuple, so a sweep sorts
    its objects once.  A list of objects is checked and sorted per call.
    Each process's load, left in the heap at the end, goes to the map.
    """
    if procs < 1:
        raise InvalidScenarioError(f"procs must be >= 1, got {procs}")
    orders = ObjectOrders.of(objects)
    total = orders.total

    pieces: List[Pieces] = [()] * len(objects)

    # (load, process id) min-heap, one entry per process
    heap: List[Tuple[int, int]] = [(0, p) for p in range(procs)]

    for i, edges in orders.by_size:
        if edges * procs <= total:  # edges <= target
            load, p = heap[0]
            pieces[i] = ((p, edges),)
            heapq.heapreplace(heap, (load + edges, p))
            continue
        k = -(-edges * procs // total)  # ceil(edges / target)
        k = min(k, edges, procs)
        base, rem = divmod(edges, k)
        takers = [heapq.heappop(heap) for _ in range(k)]
        chunks = [(p, base + 1 if idx < rem else base) for idx, (_, p) in enumerate(takers)]
        for (load, _), (p, chunk) in zip(takers, chunks):
            heapq.heappush(heap, (load + chunk, p))
        # the takers are distinct: none is pushed back before all k are popped
        pieces[i] = tuple(sorted(chunks))

    loads = [0] * procs
    for load, p in heap:
        loads[p] = load
    return PartitionMap(tuple(pieces), tuple(loads))


def assign_task_lists(schedule: Schedule, partition: PartitionMap) -> TaskListAssignment:
    """Match schedule rows to processes by shared mesh edges.

    A row overlaps process p by the edges p owns of the row's tasks.
    Visiting processes in ascending id, each takes the remaining row it
    overlaps most (ties to the lowest row index), or the lowest remaining
    row when it overlaps none.  The result is a bijection; the greedy
    order is deterministic but not globally optimal.

    Rows holding the same parallel tasks form a class, and every row of a
    class overlaps p by the same edges of those tasks, so a parallel
    task's edges are counted once per class, not once per row.  (The
    classes of an LPT schedule are its disjoint parallel groups.)  Process
    p compares the free rows holding its sequential tasks, counted with
    their class, and the lowest free row of each class it overlaps,
    counted with the class alone.  Any other row of that class overlaps p
    no more, at a higher index; and if p's sequential tasks add to the
    lowest row, that row is already among the first candidates, with
    more edges.
    """
    procs = partition.n_procs
    if schedule.n_procs != procs:
        raise ShapeError(
            f"schedule has {schedule.n_procs} rows, partition has {procs} processes"
        )

    held: Dict[int, List[int]] = {}
    for tid, rows in schedule.proc_assignment.items():
        if len(rows) > 1:
            for r in rows:
                held.setdefault(r, []).append(tid)
    class_of: Dict[Tuple[int, ...], int] = {}
    row_class = [-1] * procs
    class_rows: List[List[int]] = []
    for r in sorted(held):
        c = class_of.setdefault(tuple(held[r]), len(class_rows))
        if c == len(class_rows):
            class_rows.append([])
        class_rows[c].append(r)
        row_class[r] = c
    classes_of: Dict[int, List[int]] = {}
    for tids, c in class_of.items():
        for tid in tids:
            classes_of.setdefault(tid, []).append(c)

    # per process: row -> edges of its sequential tasks, class -> edges of its parallel tasks
    single: List[Dict[int, int]] = [{} for _ in range(procs)]
    shared: List[Dict[int, int]] = [{} for _ in range(procs)]
    for tid, rows in schedule.proc_assignment.items():
        pieces = partition.pieces[tid]
        if len(rows) == 1:
            (r,) = rows
            for p, edges in pieces:
                own = single[p]
                own[r] = own.get(r, 0) + edges
        for c in classes_of.get(tid, ()):
            for p, edges in pieces:
                par = shared[p]
                par[c] = par.get(c, 0) + edges

    taken = [False] * procs
    # taken rows are never freed, so these only move up
    lowest_free = 0
    lowest_in_class = [0] * len(class_rows)
    process_to_row = []
    achieved = []
    for p in range(procs):
        own, par = single[p], shared[p]
        edges, r = 0, procs  # no candidate yet; every candidate shares edges
        for row, e in own.items():
            if not taken[row]:
                e += par.get(row_class[row], 0)
                if e > edges or (e == edges and row < r):
                    edges, r = e, row
        for c, e in par.items():
            rows, j = class_rows[c], lowest_in_class[c]
            while j < len(rows) and taken[rows[j]]:
                j += 1
            lowest_in_class[c] = j
            if j < len(rows) and (e > edges or (e == edges and rows[j] < r)):
                edges, r = e, rows[j]
        if r == procs:
            while taken[lowest_free]:
                lowest_free += 1
            r = lowest_free
        taken[r] = True
        process_to_row.append(r)
        achieved.append(edges)

    return TaskListAssignment(process_to_row=tuple(process_to_row), overlap=tuple(achieved))


def _even_split(pieces: Pieces, group: List[int]) -> Dict[int, int]:
    """Process -> edges: the object's edges split evenly and contiguously over ``group``.

    ``group`` is in ascending process id; the first processes take one
    edge more when the split is uneven.
    """
    base, rem = divmod(sum(e for _, e in pieces), len(group))
    return {p: base + 1 if idx < rem else base for idx, p in enumerate(group)}


def destined_shares(
    schedule: Schedule, assignment: TaskListAssignment, partition: PartitionMap
) -> Dict[int, Dict[int, int]]:
    """Per object: process -> edge count it hosts for the internal problem.

    A task's internal rows are split evenly and contiguously over the
    processes executing it (the processes whose assigned task lists
    contain the task), in ascending process id.
    """
    row_owner = assignment.row_to_process()
    return {
        tid: _even_split(partition.pieces[tid], sorted(row_owner[r] for r in rows))
        for tid, rows in schedule.proc_assignment.items()
    }


def redistribution_cost(
    assignment: TaskListAssignment,
    schedule: Schedule,
    partition: PartitionMap,
    machine: MachineModel,
) -> Tuple[int, int, float]:
    """Edges moved, messages sent and seconds spent aligning data layouts.

    For each object, processes needing more of it than their external
    partition holds receive the shortfall from processes holding a
    surplus, matched in ascending process id.  Returns
    (edges_moved, messages, alpha_msg*messages + beta_edge*edges_moved);
    messages never exceeds P*(P-1).

    A sequential task runs on one process p, which needs the whole
    object: every piece (q, e) with q != p sends its e edges to p, so
    it is priced straight from the pieces.  A parallel task's processes
    take the even split of ``destined_shares``, and surpluses and
    deficits are matched.
    """
    row_owner = assignment.row_to_process()
    edges_moved = 0
    pairs = set()
    for tid, rows in schedule.proc_assignment.items():
        pieces = partition.pieces[tid]
        if len(rows) == 1:
            (r,) = rows
            p = row_owner[r]
            for q, e in pieces:
                if q != p:
                    edges_moved += e
                    pairs.add((q, p))
            continue
        diff = dict(pieces)
        for p, v in _even_split(pieces, sorted(row_owner[r] for r in rows)).items():
            diff[p] = diff.get(p, 0) - v
        held = sorted(diff.items())
        deficits = [(p, -d) for p, d in held if d < 0]
        surpluses = [(p, d) for p, d in held if d > 0]
        edges_moved += sum(need for _, need in deficits)
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
