"""Generators for the benchmark structures and for random test scenarios.

Three structure families are provided: a high-speed bus of identical
conductors (weak scaling), a split-ring-resonator array with three
element sizes (strong scaling, many small tasks), and a fan-out
interposer whose ground cage dominates the internal workload (strong
scaling, one huge task).  Published totals are matched exactly where
exact, and to the stated tolerance where per-object detail is free.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence, Tuple

from .model import InvalidScenarioError, MachineModel, Object, Scenario, plain_sum

BUS_EDGES_PER_CONDUCTOR = 7026
BUS_ITERATIONS = {5: 66, 10: 74, 20: 85, 40: 96, 80: 109, 160: 124, 250: 135}

SRR_OBJECTS = 1488
SRR_TOTAL_EDGES = 1_281_975
SRR_CLASS_WEIGHTS = (16, 4, 1)  # edges scale with element area: full, 1/2, 1/4 size
SRR_DEFAULT_COUNTS = (93, 279, 1116)

INTERPOSER_TOTAL_EDGES = 449_610
INTERPOSER_CAGE_SHARE = 0.53
INTERPOSER_LINE_SHARES = (0.003, 0.0043)


def gen_bus(pairs: int) -> Scenario:
    """High-speed bus with 2*pairs identical trapezoidal conductors.

    Edge counts follow the published structure family, where the total
    mesh is exactly proportional to the conductor count (7,026 edges
    each).  Iteration counts come from the published table; off-table
    pair counts reuse the nearest row.
    """
    if pairs < 1:
        raise InvalidScenarioError(f"pairs must be >= 1, got {pairs}")
    n = 2 * pairs
    objects = tuple(Object(i, BUS_EDGES_PER_CONDUCTOR) for i in range(n))
    nearest = min(BUS_ITERATIONS, key=lambda k: (abs(k - pairs), k))
    return Scenario(
        name=f"bus-{pairs}pairs",
        objects=objects,
        iterations=BUS_ITERATIONS[nearest],
        machine=MachineModel(grid=(500, 4 * pairs, 8)),
    )


def gen_srr(class_counts: Optional[Sequence[int]] = None) -> Scenario:
    """Split-ring-resonator array: 1,488 elements in three sizes.

    Element edge counts scale 16:4:1 (area scaling of the half- and
    quarter-size rings) and are chosen so the array total lands as close
    as possible to the published 1,281,975 edges.  The per-class object
    counts are not published; the split is a free parameter recorded in
    the scenario name.
    """
    counts = tuple(SRR_DEFAULT_COUNTS if class_counts is None else class_counts)
    if len(counts) != 3 or any(c < 0 for c in counts):
        raise InvalidScenarioError("class_counts must be three counts >= 0")
    if sum(counts) != SRR_OBJECTS:
        raise InvalidScenarioError(
            f"class_counts must sum to {SRR_OBJECTS}, got {sum(counts)}"
        )

    weight_total = sum(c * w for c, w in zip(counts, SRR_CLASS_WEIGHTS))
    base = SRR_TOTAL_EDGES / weight_total
    class_edges = [round(w * base) for w in SRR_CLASS_WEIGHTS]

    objects = []
    for count, edges in zip(counts, class_edges):
        offset = len(objects)
        objects.extend(Object(offset + k, edges) for k in range(count))
    return Scenario(
        name=f"srr-{counts[0]}-{counts[1]}-{counts[2]}",
        objects=tuple(objects),
        iterations=43,
        machine=MachineModel(grid=(1000, 1000, 4)),
    )


def gen_interposer() -> Scenario:
    """Fan-out interposer: one dominant ground cage plus 128 thin lines.

    The cage carries 53% of the total internal workload; the lines'
    workload fractions are linearly spaced over 0.3%..0.43% and the whole
    set renormalized.  Edge counts are square roots of those fractions,
    scaled to a mesh total of 449,610 and rounded; the rounded counts sum
    to 449,610 exactly.
    """
    lo, hi = INTERPOSER_LINE_SHARES
    raw = [INTERPOSER_CAGE_SHARE] + [
        lo + (hi - lo) * i / 127 for i in range(128)
    ]
    total = plain_sum(raw)
    fractions = [f / total for f in raw]
    roots = [math.sqrt(f) for f in fractions]

    scale = INTERPOSER_TOTAL_EDGES / plain_sum(roots)
    edges = [round(r * scale) for r in roots]

    objects = tuple(Object(i, e) for i, e in enumerate(edges))
    return Scenario(
        name="interposer",
        objects=objects,
        iterations=76,
        machine=MachineModel(grid=(400, 400, 8)),
    )


def gen_random(n_objects: int, edge_range: Tuple[int, int], seed: int) -> Scenario:
    """Seeded random scenario for property tests; same seed, same scenario."""
    if n_objects < 1:
        raise InvalidScenarioError(f"n_objects must be >= 1, got {n_objects}")
    lo, hi = edge_range
    if lo < 0 or hi < lo:
        raise InvalidScenarioError(f"edge_range must satisfy 0 <= lo <= hi, got {edge_range}")
    rng = random.Random(seed)
    objects = tuple(Object(i, rng.randint(lo, hi)) for i in range(n_objects))
    return Scenario(
        name=f"random-{n_objects}x{lo}-{hi}-s{seed}",
        objects=objects,
        machine=MachineModel(grid=(32, 32, 8)),
    )
