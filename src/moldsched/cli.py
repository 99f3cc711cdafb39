"""Command-line front end: scenario files, scheduling, simulation, sweeps.

Scenario files are JSON documents with the fixed top-level keys
``name``, ``objects`` (array of {id, edges}), ``machine`` (coefficient
map), ``cutoff``, ``iterations`` and ``grid`` (three integers); unknown
keys are rejected.  All output is deterministic: running a command twice
on the same inputs produces byte-identical bytes.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 invariant violation.
A processor count above ``MAX_PROCS`` (2**20) is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (
    MACHINE_COEFFICIENTS,
    MAX_PROCS,
    InvalidScenarioError,
    InvalidTaskError,
    MachineModel,
    Object,
    Scenario,
    SchedulingError,
)
from .scenarios import gen_bus, gen_interposer, gen_random, gen_srr
from .sched import ideal_length, normalized_length, part_schedule
from .sim import SimReport, StrategyKind, run_strategy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INVARIANT = 3

SWEEP_COLUMNS = (
    "P",
    "strategy",
    "t_gen",
    "t_matvec_avg",
    "t_iter_avg",
    "internal_makespan",
    "idle_fraction",
    "comm_edges",
    "comm_messages",
    "c_max_norm",
    "t_ref",
)


def scenario_to_json(scenario: Scenario) -> str:
    """Canonical JSON text for a scenario (fixed key order, repr floats)."""
    doc = {
        "name": scenario.name,
        "objects": [{"id": o.id, "edges": o.edges} for o in scenario.objects],
        "machine": {k: getattr(scenario.machine, k) for k in MACHINE_COEFFICIENTS},
        "cutoff": scenario.cutoff,
        "iterations": scenario.iterations,
        "grid": list(scenario.machine.grid),
    }
    return json.dumps(doc, indent=2) + "\n"


def _json_int(value, what: str) -> int:
    """A JSON integer (not a bool, float or string), else InvalidScenarioError."""
    if type(value) is not int:
        raise InvalidScenarioError(f"{what} must be a JSON integer, got {value!r}")
    return value


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario document, rejecting unknown keys and mistyped values.

    A document nested deeper than the decoder recurses cannot be read, as
    a truncated one cannot (``json.JSONDecodeError``).  An integer literal
    longer than ``int`` parses is a number out of range
    (``InvalidScenarioError``).
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("arrays or objects nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # the only other ValueError of json.loads: int() refuses the literal
        raise InvalidScenarioError(
            f"an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(doc, dict):
        raise InvalidScenarioError("scenario file must hold a JSON object")
    allowed = {"name", "objects", "machine", "cutoff", "iterations", "grid"}
    unknown = set(doc) - allowed
    if unknown:
        raise InvalidScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    if not isinstance(doc.get("name"), str) or not isinstance(doc.get("objects"), list):
        raise InvalidScenarioError("scenario file needs a string 'name' and an 'objects' array")

    objects = []
    for entry in doc["objects"]:
        if not isinstance(entry, dict) or set(entry) != {"id", "edges"}:
            raise InvalidScenarioError(f"objects must be {{id, edges}} records, got {entry!r}")
        edges = _json_int(entry["edges"], "object edges")
        if edges < 0:
            raise InvalidScenarioError(f"object edges must be >= 0, got {edges}")
        objects.append(Object(_json_int(entry["id"], "object id"), edges))

    # a key the file leaves out takes its default from MachineModel or Scenario
    fields = {}
    if "grid" in doc:
        if not isinstance(doc["grid"], list):
            raise InvalidScenarioError(f"grid must be an array, got {doc['grid']!r}")
        fields["grid"] = tuple(_json_int(g, "grid factor") for g in doc["grid"])

    coeffs = doc.get("machine", {})
    if not isinstance(coeffs, dict):
        raise InvalidScenarioError(f"machine must be a JSON object, got {coeffs!r}")
    unknown = set(coeffs) - set(MACHINE_COEFFICIENTS)
    if unknown:
        raise InvalidScenarioError(f"unknown machine keys: {sorted(unknown)}")
    for k, v in coeffs.items():
        if type(v) not in (int, float):
            raise InvalidScenarioError(f"machine coefficient {k} must be a JSON number, got {v!r}")
    machine = MachineModel(**coeffs, **fields)

    counts = {k: _json_int(doc[k], k) for k in ("iterations", "cutoff") if k in doc}
    return Scenario(name=doc["name"], objects=tuple(objects), machine=machine, **counts)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(fh.read())


def _parse_range(text: str) -> List[int]:
    """Parse 'start:stop:step' (stop inclusive) or a single integer, all in 1..MAX_PROCS."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            start = stop = step = int(parts[0])
        elif len(parts) == 3:
            start, stop, step = (int(x) for x in parts)
        else:
            raise ValueError
        if step < 1 or start < 1 or stop < start or stop > MAX_PROCS:
            raise ValueError
        return list(range(start, stop + 1, step))
    except ValueError:
        pass
    raise InvalidTaskError(
        f"bad processor range {text!r}, expected START:STOP:STEP or one integer "
        f"in 1..MAX_PROCS ({MAX_PROCS})"
    )


def _procs_arg(text: str) -> int:
    """argparse type for the --procs of schedule and simulate: an integer in 1..MAX_PROCS."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_PROCS:
        raise argparse.ArgumentTypeError(
            f"expected an integer in 1..MAX_PROCS ({MAX_PROCS}), got {text!r}"
        )
    return value


def _parse_cutoff(text: str) -> Optional[int]:
    if text == "unlimited":
        return None
    try:
        value = int(text)
    except ValueError:
        raise InvalidTaskError(f"bad cutoff {text!r}, expected an integer or 'unlimited'")
    if value < 1:
        raise InvalidTaskError("cutoff must be >= 1 or 'unlimited'")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moldsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a scenario file")
    gen_sub = gen.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    p_bus = gen_sub.add_parser("bus", help="high-speed bus scenario")
    p_bus.add_argument("--pairs", type=int, required=True)
    p_srr = gen_sub.add_parser("srr", help="split-ring-resonator array scenario")
    p_srr.add_argument("--class-counts", type=str, default=None,
                       help="three comma-separated counts summing to 1488")
    gen_sub.add_parser("interposer", help="fan-out interposer scenario")
    p_rand = gen_sub.add_parser("random", help="seeded random scenario")
    p_rand.add_argument("--objects", type=int, required=True)
    p_rand.add_argument("--edges", type=str, required=True, help="LO:HI edge range")
    p_rand.add_argument("--seed", type=int, default=0)
    for p in (p_bus, p_srr, gen_sub.choices["interposer"], p_rand):
        p.add_argument("-o", "--out", type=str, default=None,
                       help="output path (default: stdout)")

    sched = sub.add_parser("schedule", help="build and report a schedule")
    sched.add_argument("scenario")
    sched.add_argument("--procs", type=_procs_arg, required=True)
    sched.add_argument("--strategy", choices=["proposed", "any-pi"], default="proposed")
    sched.add_argument("--cutoff", type=str, default=None,
                       help="approximate-square cutoff or 'unlimited' "
                            "(default: the scenario file's cutoff; any-pi takes "
                            "only 'unlimited')")
    sched.add_argument("--csv", type=str, default=None,
                       help="also write per-task rows to this CSV file")

    simp = sub.add_parser("simulate", help="simulate one solver configuration")
    simp.add_argument("scenario")
    simp.add_argument("--procs", type=_procs_arg, required=True)
    simp.add_argument("--strategy", choices=[k.value for k in StrategyKind],
                      default="proposed")

    sweep = sub.add_parser("sweep", help="simulate over a processor range, emit CSV")
    sweep.add_argument("scenario")
    sweep.add_argument("--procs", type=str, required=True, help="START:STOP:STEP, inclusive")
    sweep.add_argument("--strategies", type=str, default="proposed,any-pi,no-redist")
    sweep.add_argument("-o", "--out", type=str, default=None,
                       help="output CSV path (default: stdout)")

    return parser


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    try:
        if args.kind == "bus":
            scenario = gen_bus(args.pairs)
        elif args.kind == "srr":
            counts = None
            if args.class_counts is not None:
                counts = tuple(int(x) for x in args.class_counts.split(","))
            scenario = gen_srr(counts)
        elif args.kind == "interposer":
            scenario = gen_interposer()
        else:
            lo, _, hi = args.edges.partition(":")
            edge_range = (int(lo), int(hi if hi else lo))
            scenario = gen_random(args.objects, edge_range, args.seed)
    except (InvalidScenarioError, ValueError) as exc:
        print(f"moldsched gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(scenario_to_json(scenario), args.out)
    return EXIT_OK


def _cmd_schedule(args) -> int:
    cutoff = None if args.cutoff is None else _parse_cutoff(args.cutoff)
    if cutoff is not None and args.strategy == "any-pi":
        raise InvalidTaskError(f"--strategy any-pi is always unlimited; got --cutoff {cutoff}")
    scenario = load_scenario(args.scenario)
    tasks = scenario.tasks()
    if args.cutoff is None and args.strategy != "any-pi":
        cutoff = scenario.cutoff
    result = part_schedule(tasks, args.procs, cutoff)
    ideal = ideal_length(tasks, args.procs)

    lines = [
        f"scenario {scenario.name}",
        f"procs {args.procs}",
        f"strategy {args.strategy}",
        f"cutoff {'unlimited' if cutoff is None else cutoff}",
        f"c_max {float(result.c_max)!r}",
        f"c_ideal {float(ideal)!r}",
        f"normalized_length {normalized_length(result.c_max, ideal)!r}",
    ]
    for task, k in zip(tasks, result.procs_per_task):
        lines.append(f"task {task.object_id} procs {k}")
    for p, f in enumerate(result.schedule.finish_times):
        lines.append(f"proc {p} finish {float(f)!r}")
    sys.stdout.write("\n".join(lines) + "\n")

    if args.csv is not None:
        rows = ["task_id,workload,procs,duration"]
        for task, k in zip(tasks, result.procs_per_task):
            rows.append(f"{task.object_id},{task.workload},{k},{task.workload / k!r}")
        _emit("\n".join(rows) + "\n", args.csv)
    return EXIT_OK


def _report_lines(name: str, strategy: str, run) -> List[str]:
    r = run.report
    return [
        f"scenario {name}",
        f"strategy {strategy}",
        f"procs {r.p}",
        f"t_gen {r.t_gen!r}",
        f"t_matvec_avg {r.t_matvec_avg!r}",
        f"t_iter_avg {r.t_iter_avg!r}",
        f"internal_makespan {r.internal_makespan!r}",
        f"idle_fraction {r.idle_fraction!r}",
        f"comm_edges {r.comm[0]}",
        f"comm_messages {r.comm[1]}",
        f"comm_seconds {r.comm[2]!r}",
        f"c_max_norm {run.c_max_norm!r}",
    ]


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    strategy = StrategyKind.from_key(args.strategy)
    run = run_strategy(scenario, strategy, args.procs)
    sys.stdout.write("\n".join(_report_lines(scenario.name, args.strategy, run)) + "\n")
    return EXIT_OK


def _sweep_cells(
    scenario: Scenario, strategies: Sequence[StrategyKind], p: int
) -> Dict[Tuple[int, str], Tuple[SimReport, float]]:
    """(report, c_max_norm) of each strategy at one P, each computed once.

    The strategies share one external partition.  ``proposed`` runs
    before ``any-pi``, and when its cutoff never bound, ``any-pi`` would
    take the same steps, so it takes ``proposed``'s report.  Only the
    reports leave this function: the partitions and schedules of one P
    are freed before the next P starts.
    """
    cells = {}
    partition = None
    proposed = None
    for strategy in sorted(set(strategies), key=list(StrategyKind).index):
        if (strategy is StrategyKind.ANY_PI and proposed is not None
                and not proposed.schedule_result.restricted):
            run = proposed
        else:
            run = run_strategy(scenario, strategy, p, partition)
        partition = run.partition
        if strategy is StrategyKind.PROPOSED:
            proposed = run
        cells[(p, strategy.value)] = (run.report, run.c_max_norm)
    return cells


def _cmd_sweep(args) -> int:
    # the arguments are usage errors (exit 1) before the file is read
    procs = _parse_range(args.procs)
    keys = [k.strip() for k in args.strategies.split(",") if k.strip()]
    if not keys:
        raise InvalidTaskError("at least one strategy is required")
    strategies = [StrategyKind.from_key(k) for k in keys]
    scenario = load_scenario(args.scenario)

    cells: Dict[Tuple[int, str], Tuple[SimReport, float]] = {}
    for p in procs:
        cells.update(_sweep_cells(scenario, strategies, p))

    p_min = min(procs)
    t_at_pmin = {s.value: cells[(p_min, s.value)][0].t_matvec_avg for s in strategies}

    rows = [",".join(SWEEP_COLUMNS)]
    for (p, key) in sorted(cells):
        r, c_max_norm = cells[(p, key)]
        t_ref = t_at_pmin[key] * p_min / p
        # finite reports, but their product with P_min may not be
        if not math.isfinite(t_ref):
            raise InvalidScenarioError(f"{key} at P={p} overflows a float: t_ref = {t_ref}")
        rows.append(
            f"{p},{key},{r.t_gen!r},{r.t_matvec_avg!r},{r.t_iter_avg!r},"
            f"{r.internal_makespan!r},{r.idle_fraction!r},{r.comm[0]},{r.comm[1]},"
            f"{c_max_norm!r},{t_ref!r}"
        )
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    handlers = {
        "gen": _cmd_gen,
        "schedule": _cmd_schedule,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        # before ValueError: both decode errors are ValueErrors
        print(f"moldsched: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidTaskError, ValueError) as exc:
        print(f"moldsched: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchedulingError as exc:
        print(f"moldsched: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
