#!/usr/bin/env python3
"""From mesh partitions to task lists to redistribution traffic.

Partitions the bus structure, schedules the internal tasks, matches the
schedule rows to the processes that already own the data, and counts
what still has to move."""

import moldsched as ms

scenario = ms.gen_bus(5)
for procs in (10, 20, 40):
    partition = ms.partition_external(scenario.objects, procs)
    loads = partition.loads
    counts = partition.partition_counts()
    result = ms.part_schedule(scenario.tasks(), procs, scenario.cutoff)
    assignment = ms.assign_task_lists(result.schedule, partition)
    moved, messages, seconds = ms.redistribution_cost(
        assignment, result.schedule, partition, scenario.machine
    )
    print(f"P={procs}: partitions/object={sorted(set(int(c) for c in counts))} "
          f"load range=[{min(loads)}, {max(loads)}] "
          f"P_i={sorted(set(result.procs_per_task))}")
    print(f"      overlap={sum(assignment.overlap)} edges kept local, "
          f"{moved} moved in {messages} messages ({seconds:.2e} s)")

print()
print("at P=20 the partitioner and the scheduler agree (two processes per "
      "conductor), so nothing moves at all.")
