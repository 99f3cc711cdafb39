"""The benchmark's workloads: which scenario, which cells, and why.

Each workload is one in-process ``moldsched sweep`` over a fixed set of
(P, strategy) cells.  Only ``random-noredist`` takes its scenario from
the seed; the other two are the paper's fixed structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

DEFAULT_SEED = 0

ALL_STRATEGIES = ("proposed", "any-pi", "no-redist")
SCHEDULED_STRATEGIES = ("proposed", "any-pi")


@dataclass(frozen=True)
class Workload:
    name: str
    procs: str  # START:STOP:STEP (stop inclusive) or one P, as `sweep --procs` takes it
    smoke_procs: str
    strategies: Tuple[str, ...]
    seeded: bool  # whether the scenario depends on --seed
    make: Callable  # (moldsched module, seed) -> Scenario
    why: str

    def uses_scheduler(self) -> bool:
        return any(s in SCHEDULED_STRATEGIES for s in self.strategies)


def _srr(ms, seed):
    return ms.gen_srr()


def _interposer(ms, seed):
    return ms.gen_interposer()


def _random(ms, seed):
    return ms.gen_random(1500, (50, 1500), seed)


# P=20 and P=1000 are the two ends of the paper's 20:1000:20 SRR range; the
# full range takes ~100 s, far too long to repeat within one run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="srr-strong",
            procs="20:1000:980",
            smoke_procs="20",
            strategies=ALL_STRATEGIES,
            seeded=False,
            make=_srr,
            why="SRR array at P=20 and 1000, all three strategies: part_schedule does most of "
                "the work, on runs of equal durations",
        ),
        Workload(
            name="interposer-strong",
            procs="40:640:40",
            smoke_procs="40",
            strategies=ALL_STRATEGIES,
            seeded=False,
            make=_interposer,
            why="interposer 40:640:40, all strategies: the scheduler grows one dominant task "
                "with no equal-duration runs; assign and redistribution weigh more",
        ),
        Workload(
            name="random-noredist",
            procs="40:1000:40",
            smoke_procs="20",
            strategies=("no-redist",),
            seeded=True,
            make=_random,
            why="seeded random 1500 objects, no-redist only: never calls the scheduler; "
                "partition and the owner-group passes do the work",
        ),
    )
}


def parse_procs(text: str) -> List[int]:
    """The P values a `--procs` argument names, in ascending order."""
    parts = [int(x) for x in text.split(":")]
    if len(parts) == 1:
        return parts
    start, stop, step = parts
    return list(range(start, stop + 1, step))


def cells(workload: Workload, procs: str) -> List[Tuple[int, str]]:
    """(P, strategy) cells in the order the sweep CSV lists them."""
    return sorted((p, s) for p in parse_procs(procs) for s in workload.strategies)
