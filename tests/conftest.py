import time

import pytest

import moldsched as ms

PARITY_PROCS = range(20, 1001, 20)
BUS_FAMILY = (5, 10, 20, 40)


def dense_partition(owned):
    """The partition of a dense (process, object) matrix of owned edges.

    numpy is imported here, not at module level, so the modules that never
    call this run on an install without numpy.
    """
    import numpy as np

    owned = np.asarray(owned)
    pieces = tuple(
        tuple((p, e) for p, e in enumerate(column) if e) for column in owned.T.tolist()
    )
    return ms.PartitionMap(pieces, tuple(owned.sum(axis=1).tolist()))


def sparse_partition(n_procs, pieces):
    """The partition of per-object (process, edges) pieces over n_procs processes."""
    loads = [0] * n_procs
    for object_pieces in pieces:
        for p, edges in object_pieces:
            loads[p] += edges
    return ms.PartitionMap(tuple(pieces), tuple(loads))


def groups_of(schedule):
    """Task id -> the frozenset of processors whose rows hold it, read off the rows."""
    groups = {}
    for p, row in enumerate(schedule.rows):
        for tid in row:
            groups.setdefault(tid, set()).add(p)
    return {tid: frozenset(group) for tid, group in groups.items()}


@pytest.fixture(scope="session")
def interposer():
    return ms.gen_interposer()


@pytest.fixture(scope="session")
def srr():
    return ms.gen_srr()


@pytest.fixture(scope="session")
def random300():
    """The random file of the CLI's golden sweeps: 300 objects, edges 50..1500, seed 3."""
    return ms.gen_random(300, (50, 1500), 3)


@pytest.fixture(scope="session")
def parity_records(interposer, srr):
    """Modified vs original schedules for both structures over the full sweep.

    Returns (records, build_seconds); each record is
    (scenario_name, tasks, P, modified_result, original_result).
    """
    t0 = time.perf_counter()
    records = []
    for scenario in (interposer, srr):
        tasks = scenario.tasks()
        for procs in PARITY_PROCS:
            modified = ms.part_schedule(tasks, procs, scenario.cutoff)
            original = ms.part_schedule(tasks, procs, None)
            records.append((scenario.name, tasks, procs, modified, original))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def bus_runs():
    """Proposed-strategy runs for the weak-scaling bus family, with timing."""
    t0 = time.perf_counter()
    runs = []
    for pairs in BUS_FAMILY:
        scenario = ms.gen_bus(pairs)
        runs.append((pairs, scenario, ms.run_strategy(scenario, ms.StrategyKind.PROPOSED, 4 * pairs)))
    return runs, time.perf_counter() - t0
