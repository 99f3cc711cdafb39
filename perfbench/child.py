"""One workload in one fresh process: set up, sweep, check, report JSON.

Started by run.py with the program's ``src`` on PYTHONPATH and BLAS and
OpenMP pools pinned to one thread.  ``--mode setup`` only times set-up;
``--mode run`` also runs the sweeps.  The result is one JSON object on
the last line of standard output.

Order of a run: one traced and checked warm-up sweep (not timed), then
timed sweeps until ``--seconds`` are spent.  With ``--trace 0`` slices of
the reference kernel (refkernel.py) are timed during every sweep, and
``sweep_rel`` is the median over the sweeps of each sweep's time, less
its slices, over its mean slice.  With ``--trace 1`` the timed sweeps
alternate untraced and traced, so the tracing overhead is the difference
of their medians.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import ROOT, Tracer, TracerError, expect_calls
from workloads import DEFAULT_SEED, WORKLOADS, cells

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_TIMED_SWEEPS = 3
FLOAT_COLUMNS = ("t_gen", "t_matvec_avg", "t_iter_avg", "internal_makespan",
                 "idle_fraction", "c_max_norm", "t_ref")


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def load_reference(workload, procs: str, seed: int):
    """Recorded {"P,strategy": row digest} for this sweep, or None if none applies."""
    entries = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    for entry in entries:
        if entry["workload"] == workload.name and entry["procs"] == procs and (
            not workload.seeded or entry["seed"] == seed
        ):
            return entry
    return None


def setup(workload, seed: int):
    """Import the program, generate the scenario, write it and parse it back."""
    t0 = time.perf_counter()
    import moldsched
    from moldsched import cli

    scenario = workload.make(moldsched, seed)
    text = cli.scenario_to_json(scenario)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"scenario-{workload.name}-{os.getpid()}.json"
    path.write_text(text, encoding="utf-8")
    parsed = cli.scenario_from_json(path.read_text(encoding="utf-8"))
    elapsed = time.perf_counter() - t0

    src = (REPO_ROOT / "src").resolve()
    if Path(moldsched.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported moldsched from {moldsched.__file__}, not from {src}")
    if cli.scenario_to_json(parsed) != text:
        raise SystemExit("scenario does not survive a JSON write and parse")
    return elapsed, cli, path


def check_csv(text: str, expected_cells, reference, first_rows):
    """Failed cells of one sweep CSV, each with its reason."""
    failures = {}
    lines = text.splitlines()
    if not lines:
        return {cell: ["sweep wrote no CSV"] for cell in expected_cells}
    if reference is not None and lines[0] != reference["header"]:
        return {cell: [f"CSV header {lines[0]!r} differs from the reference"] for cell in expected_cells}
    rows = {}
    for line, rec in zip(lines[1:], csv.DictReader(io.StringIO(text))):
        rows[(int(rec["P"]), rec["strategy"])] = (line, rec)
    for cell in expected_cells:
        if cell not in rows:
            failures[cell] = ["row missing from the CSV"]
            continue
        line, rec = rows[cell]
        p = cell[0]
        bad = []
        values = [float(rec[c]) for c in FLOAT_COLUMNS]
        if not all(math.isfinite(v) for v in values):
            bad.append("non-finite value")
        if not 0.0 <= float(rec["idle_fraction"]) <= 1.0:
            bad.append(f"idle_fraction {rec['idle_fraction']} outside [0, 1]")
        if int(rec["comm_edges"]) < 0 or not 0 <= int(rec["comm_messages"]) <= p * (p - 1):
            bad.append(f"comm_edges {rec['comm_edges']} comm_messages {rec['comm_messages']}")
        if reference is not None and row_digest(line) != reference["rows"].get(f"{p},{cell[1]}"):
            bad.append("row differs from the reference digest")
        if first_rows is not None and first_rows.get(cell) != line:
            bad.append("row differs from the first sweep of this run")
        if bad:
            failures[cell] = bad
    for cell in set(rows) - set(expected_cells):
        failures[cell] = ["unexpected row"]
    return failures


class Run:
    """The sweeps of one workload run and every failure they produced."""

    def __init__(self, cli, path, workload, procs, seed):
        self.cli = cli
        self.argv = ["sweep", str(path), "--procs", procs,
                     "--strategies", ",".join(workload.strategies)]
        self.workload = workload
        self.cells = cells(workload, procs)
        self.reference = load_reference(workload, procs, seed)
        self.first_rows = None
        self.attempted = 0
        self.failures = {}  # (sweep number, cell) -> reasons
        self.counts = None  # exact counters of the first traced sweep

    def sweep(self, tracer=None, sampler=None):
        """One `moldsched sweep`; returns its wall seconds (validation excluded).

        With a sampler, the reference slices it times during the sweep are
        left in ``sampler.slices`` and their time is not counted."""
        # each sweep starts with no garbage left by the previous sweep or its checks,
        # as a one-shot `moldsched sweep` process does
        gc.collect()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                with sampler.sampling() if sampler else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    code = self.cli.main(self.argv)
                    elapsed = time.perf_counter() - t0
                if sampler:
                    elapsed -= sum(sampler.slices)
            else:
                with tracer.installed():
                    code = tracer.call(ROOT, self.cli.main, (self.argv,))
                elapsed = tracer.summary()["sweep_s"]
        number = self.attempted // len(self.cells)
        self.attempted += len(self.cells)

        if code != 0:
            failed = {cell: [f"sweep exited {code}"] for cell in self.cells}
        else:
            failed = check_csv(buf.getvalue(), self.cells, self.reference, self.first_rows)
            if self.first_rows is None:
                self.first_rows = {(int(l.split(",")[0]), l.split(",")[1]): l
                                   for l in buf.getvalue().splitlines()[1:]}
        if tracer is not None:
            for cell, reasons in tracer.failures.items():
                failed.setdefault(cell, []).extend(reasons)
            self._check_counts(tracer.summary(), failed)
        for cell, reasons in failed.items():
            self.failures[(number, cell)] = reasons
        return elapsed

    def _check_counts(self, summary, failed):
        """The modeled counters and call counts must repeat exactly between sweeps."""
        expect_calls(summary, self.workload.uses_scheduler(),
                     "no-redist" in self.workload.strategies)
        counts = {k: v for k, v in summary.items() if not k.endswith("_s")}
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            failed.setdefault(None, []).append(
                f"counters did not repeat: {counts} != {self.counts}")


def environment(seed: int) -> dict:
    import importlib.util
    import platform
    import subprocess

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "none (not a git checkout)"
    if (REPO_ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    sources = hashlib.sha256()
    for f in sorted((REPO_ROOT / "src" / "moldsched").glob("*.py")):
        sources.update(f.name.encode() + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "NUMPY_MADVISE_HUGEPAGE")},
        "seed": seed,
        "commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--smoke", action="store_true", help="sweep the one small smoke cell")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    setup_s, cli, path = setup(workload, args.seed)
    try:
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        procs = workload.smoke_procs if args.smoke else workload.procs
        run = Run(cli, path, workload, procs, args.seed)
        result = sweep_loop(run, args.seconds, args.trace == 1, args.workload, args.seed)
    finally:
        path.unlink()
    result.update({
        "setup_s": setup_s,
        "env": environment(args.seed),
        "cells": len(run.cells),
        "procs": procs,
        "reference": run.reference is not None,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": [[n, list(c) if c else None, r] for (n, c), r in sorted(
            run.failures.items(), key=lambda kv: (kv[0][0], kv[0][1] or (0, "")))][:20],
    })
    print(json.dumps(result))
    return 0


def sweep_loop(run: Run, seconds: float, traced: bool, name: str, seed: int) -> dict:
    """Warm up, then sweep until `seconds` are spent; medians and spans of the run."""
    warm = Tracer()
    run.sweep(warm)  # warm-up: traced and checked, never timed
    spans = warm.to_records(0)

    untraced, traced_s, layers, slices = [], [], [], []
    sampler = None
    if not traced:
        # reference slices sample the machine's speed during every sweep; imported
        # here, after set-up, which its imports must not speed
        import refkernel

        sampler = refkernel.Sampler()

    deadline = time.perf_counter() + seconds
    while True:
        use_tracer = traced and len(untraced) > len(traced_s)
        t0 = time.perf_counter()
        if use_tracer:
            tracer = Tracer()
            traced_s.append(run.sweep(tracer))
            layers.append(tracer.summary())
            spans.extend(tracer.to_records(len(untraced) + len(traced_s)))
        else:
            untraced.append(run.sweep(sampler=sampler))
            if sampler is not None:
                # a sweep shorter than the sampling interval is set against one slice after it
                slices.append(sampler.slices or [refkernel.time_slice()])
        last = time.perf_counter() - t0
        enough = len(untraced) >= MIN_TIMED_SWEEPS and (not traced or len(traced_s) >= MIN_TIMED_SWEEPS)
        if enough and time.perf_counter() + last > deadline:
            break

    result = {"sweep_s": statistics.median(untraced), "sweep_samples": untraced,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if sampler is not None:
        result["sweep_rel"] = statistics.median(
            s / statistics.fmean(sl) for s, sl in zip(untraced, slices))
        result["slice_samples"] = [statistics.fmean(sl) for sl in slices]
        result["slices_per_sweep"] = statistics.median(len(sl) for sl in slices)
    if traced:
        # times are medians over the traced sweeps; counts are exact and equal in every sweep
        layer = {k: statistics.median(s[k] for s in layers) if k.endswith("_s") else v
                 for k, v in layers[0].items()}
        layer["trace.overhead_s"] = statistics.median(traced_s) - result["sweep_s"]
        result["layers"] = layer
        result["traced_sweeps"] = len(traced_s)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")
    return result


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TracerError as exc:
        print(f"perfbench: tracer: {exc}", file=sys.stderr)
        sys.exit(3)
