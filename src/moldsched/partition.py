"""External-problem mesh partitioning and task-list/process alignment.

The partitioner balances owned edges across processes while keeping the
number of partitions per object minimal; small objects are never split.
Task lists (schedule rows) are then matched to processes by edge overlap
so that the per-iteration redistribution stage moves as little data as
possible, and the residual traffic is priced explicitly: a task's
processes hold even shares of its object, and each object's shortfalls
are filled from its surpluses, both read from one merge of the group
with the object's pieces.

Neither the matching nor the pricing walks the schedule's rows.  Both
read ``Schedule.row_classes``, built once per schedule with one walk and
shared with the simulator's slot pricing: the rows of each parallel
tuple (a class), and each row's sequential tasks.  The matching adds
each class's pieces and each sequential task's pieces once; the pricing
builds each parallel group from its classes' rows through the inverse
of ``process_to_row``.  What the two share depends on the schedule
alone, so a hand-built ``TaskListAssignment`` is priced as one from the
matching is.  Object ids double as 0-based indices of the partition's
per-object pieces, so schedule task ids address an object's pieces
directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .model import (
    MAX_PROCS,
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


def partition_external(objects: Sequence[Object], procs: int) -> PartitionMap:
    """Greedy object-aware split of mesh edges over processes.

    Objects are taken in descending edge count.  An object no larger than
    the per-process target (total edges / P) goes whole to the currently
    least-loaded process; a larger one is cut into ceil(edges/target)
    near-equal contiguous chunks, placed on the least-loaded processes.
    Ties between equal loads go to the lowest process id.  Each object's
    pieces sum to its edge count exactly, and no process ends up with
    more than twice the target, or more than one edge when the target is
    below half an edge.

    Each process is one int key ``load * procs + p`` in a min-heap: as
    0 <= p < procs, the keys sort as the (load, p) pairs do, the process
    is ``key % procs``, placing ``edges`` adds ``edges * procs``, and
    ``divmod(key, procs)`` gives the final (load, p).  Every placed piece
    holds at least one edge, so the empty processes are the least loaded,
    and they are taken in ascending id: they need no heap, only a cursor,
    and the heap holds the loaded keys alone.  The objects above the
    target are a prefix of the size order, so one loop cuts them, taking
    k processes, the empty ones first and then popped keys, and pushing
    each back with its chunk.  A second loop places the whole objects
    with no target test: it hands the empty processes the next objects
    without a heap step, then heapifies the loaded keys once and goes on
    with ``heapreplace``.

    The check that the ids are 0..N-1, the edge total and the size order
    (zero-edge objects left out) do not depend on P: they come from
    ``ObjectOrders``, computed once per objects tuple, so a sweep sorts
    its objects once.  A list of objects is checked and sorted per call.
    """
    if not 1 <= procs <= MAX_PROCS:
        raise InvalidScenarioError(f"procs must be in 1..MAX_PROCS ({MAX_PROCS}), got {procs}")
    orders = ObjectOrders.of(objects)
    total = orders.total
    by_size = orders.by_size

    pieces: List[Pieces] = [()] * len(objects)
    loaded: List[int] = []  # keys of the processes holding a piece
    fresh = 0  # processes fresh.. hold nothing yet

    n_split = 0
    for i, edges in by_size:
        if edges * procs <= total:  # edges <= target, and so are the objects after it
            break
        n_split += 1
        k = -(-edges * procs // total)  # ceil(edges / target)
        k = min(k, edges, procs)
        base, rem = divmod(edges, k)
        # the empty processes first, then the least loaded; the takers are
        # distinct: none is pushed back before all k are taken
        e = min(k, procs - fresh)
        takers = list(range(fresh, fresh + e))
        takers += [heapq.heappop(loaded) for _ in range(k - e)]
        fresh += e
        chunks = []
        for idx, key in enumerate(takers):
            chunk = base + 1 if idx < rem else base
            chunks.append((key % procs, chunk))
            heapq.heappush(loaded, key + chunk * procs)
        pieces[i] = tuple(sorted(chunks))

    whole = by_size[n_split:]
    for (i, edges), p in zip(whole, range(fresh, procs)):
        pieces[i] = ((p, edges),)
        loaded.append(edges * procs + p)
    heapq.heapify(loaded)
    for i, edges in whole[procs - fresh:]:
        key = loaded[0]
        pieces[i] = ((key % procs, edges),)
        heapq.heapreplace(loaded, key + edges * procs)

    loads = [0] * procs  # the processes left empty keep 0
    for key in loaded:
        load, p = divmod(key, procs)
        loads[p] = load
    return PartitionMap(tuple(pieces), tuple(loads))


def assign_task_lists(schedule: Schedule, partition: PartitionMap) -> TaskListAssignment:
    """Match schedule rows to processes by shared mesh edges.

    A row overlaps process p by the edges p owns of the row's tasks.
    Visiting processes in ascending id, each takes the remaining row it
    overlaps most (ties to the lowest row index), or the lowest remaining
    row when it overlaps none.  The result is a bijection; the greedy
    order is deterministic but not globally optimal.

    The rows come from ``schedule.row_classes``, so this walks no row.
    Rows with the same parallel tuple form a class, numbered c in
    ``row_classes.classes``: every row of a class overlaps p by the same
    edges of those tasks, so each class's pieces are added once, to
    ``shared[p][c]``, and ``class_rows[c]`` lists its rows in ascending
    order.  (The classes of an LPT schedule are its disjoint parallel
    groups.  Rows holding the same parallel tasks in another slot order
    form another class, with the same edges, which leaves the pick below
    as it is.)  Each sequential task's pieces are added once, to
    ``single[p][r]`` at its row r; when no row holds one, every process
    reads one empty dict.  Process p compares the free rows holding its
    sequential tasks, counted with their class, and the lowest free row
    of each class it overlaps, counted with the class alone.  Any other
    row of that class overlaps p no more, at a higher index; and if p's
    sequential tasks add to the lowest row, that row is already among
    the first candidates, with more edges.
    """
    procs = partition.n_procs
    if schedule.n_procs != procs:
        raise ShapeError(
            f"schedule has {schedule.n_procs} rows, partition has {procs} processes"
        )

    view = schedule.row_classes
    pieces = partition.pieces
    # per process: class -> edges of its parallel tasks, row -> edges of its sequential tasks
    shared: List[Dict[int, int]] = [{} for _ in range(procs)]
    class_rows = []
    for c, (tids, rows) in enumerate(view.classes):
        class_rows.append(rows)
        if len(tids) == 1:  # no process holds two pieces of one object
            for p, edges in pieces[tids[0]]:
                shared[p][c] = edges
            continue
        for tid in tids:
            for p, edges in pieces[tid]:
                par = shared[p]
                par[c] = par.get(c, 0) + edges
    sequential = view.sequential
    # with no sequential task, every process reads the same empty dict
    single: List[Dict[int, int]] = [{} for _ in range(procs)] if sequential else [{}] * procs
    for r, (_, tids) in sequential.items():
        for tid in tids:
            for p, edges in pieces[tid]:
                own = single[p]
                own[r] = own.get(r, 0) + edges

    taken = [False] * procs
    # taken rows are never freed, so these only move up
    lowest_free = 0
    lowest_in_class = [0] * len(class_rows)
    process_to_row = []
    achieved = []
    for own, par in zip(single, shared):
        edges, r = 0, procs  # no candidate yet; every candidate shares edges
        if own:
            for row, e in own.items():
                if not taken[row]:
                    e += par.get(sequential[row][0], 0)
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


def redistribution_cost(
    assignment: TaskListAssignment,
    schedule: Schedule,
    partition: PartitionMap,
    machine: MachineModel,
) -> Tuple[int, int, float]:
    """Edges moved, messages sent and seconds spent aligning data layouts.

    Each task's object is split evenly and contiguously over the
    processes executing it (those whose assigned rows hold the task), in
    ascending process id; the first processes take one edge more when the
    split is uneven.  Per object, processes needing more than their pieces
    hold receive the shortfall from processes holding a surplus, matched
    in ascending process id.  Returns (edges_moved, messages,
    alpha_msg*messages + beta_edge*edges_moved); messages never exceeds
    P*(P-1).

    The rows come from ``schedule.row_classes``, so this walks no row,
    and each row's process from the inverse of
    ``assignment.process_to_row``, built here.  A sequential task's
    process needs the whole object: every piece (q, e) off that process
    sends its e edges.  A parallel task's group is the processes of the
    rows of each class holding it, sorted into ascending id.  A task's
    deficits and surpluses then come from one merge of its group with
    the object's pieces, which are sorted by process and hold at least
    one edge each.
    """
    view = schedule.row_classes
    pieces_of = partition.pieces
    process_of = [0] * len(assignment.process_to_row)
    for p, r in enumerate(assignment.process_to_row):
        process_of[r] = p
    edges_moved = 0
    pairs = set()
    for r, (_, tids) in view.sequential.items():
        p = process_of[r]
        for tid in tids:
            for q, e in pieces_of[tid]:
                if q != p:
                    edges_moved += e
                    pairs.add((q, p))
    groups: Dict[int, List[int]] = {}
    for tids, rows in view.classes:
        members = sorted([process_of[r] for r in rows])
        for tid in tids:
            # a task in several classes: in two slot orders, or beside other tasks
            group = groups.get(tid)
            groups[tid] = members if group is None else sorted(group + members)
    for tid, group in groups.items():
        pieces = pieces_of[tid]
        total = 0
        for _, e in pieces:
            total += e
        base, rem = divmod(total, len(group))
        # merge the group and its shares with the pieces; a piece off the group is a surplus
        deficits = []
        surpluses = []
        i, n = 0, len(pieces)
        for idx, p in enumerate(group):
            while i < n and pieces[i][0] < p:
                surpluses.append(pieces[i])
                i += 1
            d = -base - 1 if idx < rem else -base
            if i < n and pieces[i][0] == p:
                d += pieces[i][1]
                i += 1
            if d < 0:
                deficits.append((p, -d))
                edges_moved -= d
            elif d > 0:
                surpluses.append((p, d))
        surpluses.extend(pieces[i:])
        si = 0
        for p, need in deficits:
            while True:
                q, have = surpluses[si]
                pairs.add((q, p))
                if have > need:
                    surpluses[si] = (q, have - need)
                    break
                si += 1
                need -= have
                if not need:
                    break

    messages = len(pairs)
    seconds = machine.alpha_msg * messages + machine.beta_edge * edges_moved
    return edges_moved, messages, seconds
