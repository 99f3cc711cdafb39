"""Kept mutants: small defects of ``src/`` that named tests must catch.

Each entry of ``MUTANTS`` is a file under ``src/``, an exact source text,
its replacement, and the ids of the tests that must fail with it.  For
each mutant the script:

- copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
  directory, so that the copied tests import the copied package;
- requires the text to occur there exactly once, so that a mutant whose
  code has moved fails loudly instead of passing vacuously;
- applies the replacement;
- runs only the named tests against the copy (Hypothesis seeded, so a
  run is repeatable);
- requires each of them to be reported FAILED.

Run it from anywhere, with pytest and Hypothesis installed:

    python tests/mutants.py

It exits 0 only when every mutant is caught.  pytest does not collect this
file, so Tier-1 does not run it; Tier-1 does run every named test, on the
unmutated tree, where each must pass.  A mutant leaves the catalogue only
with the code it mutates.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    text: str
    replacement: str
    tests: Tuple[str, ...]  # pytest node ids, from the root of the checkout


MUTANTS = (
    Mutant(
        "owner forest links a joined process, not its root",
        "moldsched/sim.py",
        "up[p if up[p] < 0 else root(p)] = r",
        "up[p] = r",
        ("tests/test_sim.py::test_property_simultaneity_schedule_matches_reference",),
    ),
    Mutant(
        "task price divides before it multiplies",
        "moldsched/model.py",
        "seconds = self.t_work * workload / procs",
        "seconds = self.t_work * (workload / procs)",
        ("tests/test_sim.py::test_property_task_seconds_is_the_reference_price",),
    ),
    Mutant(
        "slot seconds summed in sorted order",
        "moldsched/sim.py",
        "        for tid in row:\n            total += seconds_of[tid]",
        "        for tid in sorted(row):\n            total += seconds_of[tid]",
        ("tests/test_sim.py::test_property_schedule_seconds_is_the_reference",),
    ),
    Mutant(
        "first growth not charged its + 1",
        "moldsched/sched.py",
        "if budget < (d + 1 if p == 1 else d):",
        "if budget < d:",
        ("tests/test_sched.py::TestPartSchedule::test_budget_constraint_and_validity",
         "tests/test_sched.py::test_property_part_schedule_matches_reference",
         "tests/test_sched.py::test_property_shared_step_log_matches_reference"),
    ),
    Mutant(
        "heap keys good to 2**-8",
        "moldsched/sched.py",
        "SHIFT = 2 * MAX_PROCS.bit_length()",
        "SHIFT = 8",
        ("tests/test_sched.py::test_property_heap_key_orders_by_ratio",
         "tests/test_sched.py::test_heap_key_shift_covers_max_procs",
         "tests/test_sched.py::test_property_part_schedule_near_ties_match_reference"),
    ),
    Mutant(
        "check_procs takes MAX_PROCS + 1",
        "moldsched/model.py",
        "if not 1 <= procs <= MAX_PROCS:",
        "if not 1 <= procs <= MAX_PROCS + 1:",
        # calls that refuse P = MAX_PROCS + 1 cheaply when the check lets it through
        ("tests/test_sim.py::test_more_than_max_procs_refused[oracle_optimal]",
         "tests/test_sim.py::test_more_than_max_procs_refused[ideal_length]"),
    ),
    Mutant(
        "objects tuple takes an edge count of -1",
        "moldsched/model.py",
        "            if o.edges < 0:",
        "            if o.edges < -1:",
        ("tests/test_model.py::test_object_rejects_negative_edges",
         "tests/test_cli.py::test_malformed_scenario_exits_3[negative edges]"),
    ),
    Mutant(
        "P >= n start takes the last step of the makespan, not the first",
        "moldsched/sched.py",
        "best_steps = bisect_left(steps,",
        "best_steps = bisect_right(steps,",
        ("tests/test_sched.py::test_property_shared_step_log_matches_reference",
         "tests/test_cli.py::test_golden_sweep_digests[bus-20:1000:60]"),
    ),
    Mutant(
        "one split task leads its group's queues without the rank test",
        "moldsched/sim.py",
        "if len(group) == 1 and group[0] < (0, -workloads[h], h):",
        "if len(group) == 1:",
        ("tests/test_sim.py::TestOwnerGroups::test_queue_head_outranking_the_split_task",
         "tests/test_sim.py::test_property_simultaneity_schedule_matches_reference"),
    ),
    Mutant(
        "a group of two split tasks leads its queues as a chain",
        "moldsched/sim.py",
        "if len(group) == 1 and group[0] < (0, -workloads[h], h):",
        "if group[0] < (0, -workloads[h], h):",
        ("tests/test_sim.py::TestSimultaneitySchedule::test_groups_interleaving_in_the_one_heap_order",
         "tests/test_sim.py::test_property_simultaneity_schedule_matches_reference"),
    ),
    Mutant(
        "led processes stay unshared when a later head outranks their split task",
        "moldsched/sim.py",
        "        if outranked:\n",
        "        if False:\n",
        ("tests/test_sim.py::TestOwnerGroups::test_queue_head_outranking_the_split_task",),
    ),
)


def check(mutant: Mutant) -> List[str]:
    """What is wrong with the mutant's entry or its tests; empty when it is caught."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=skip)
        shutil.copytree(REPO / "tests", Path(tmp) / "tests", ignore=skip)
        shutil.copy(REPO / "pyproject.toml", tmp)
        target = src / mutant.path
        code = target.read_text(encoding="utf-8")
        found = code.count(mutant.text)
        if found != 1:
            return [f"its text occurs {found} times in src/{mutant.path}, not once"]
        target.write_text(code.replace(mutant.text, mutant.replacement), encoding="utf-8")

        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import moldsched; print(moldsched.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            return [f"the tests would import moldsched from {where or 'nowhere'}, not the copy"]

        # the Hypothesis database stays in tmp
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    failed = {line[len("FAILED "):].split(" - ")[0]
              for line in run.stdout.splitlines() if line.startswith("FAILED ")}
    return [f"{t} did not fail" for t in mutant.tests if t not in failed]


def main() -> int:
    start = time.perf_counter()
    escaped = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        problems = check(mutant)
        status = "caught" if not problems else "ESCAPED"
        print(f"{status:8} {time.perf_counter() - t0:5.1f}s  {mutant.name}", flush=True)
        for problem in problems:
            print(f"         {problem}")
        escaped += bool(problems)
    print(f"{len(MUTANTS) - escaped} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f}s")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
