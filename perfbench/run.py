"""moldsched benchmark: in-process `moldsched sweep` runs, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload srr-strong --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --smoke                 # one small cell per workload, seconds
    python3 perfbench/run.py --record-reference      # rewrite reference.json from this tree

Each workload runs in a fresh child process (perfbench/child.py) with the
BLAS and OpenMP pools pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics, with the sweep time as ``sweep_rel``, a multiple of
a reference slice (refkernel.py) timed during the sweep; ``--trace 1``
prints the per-layer metrics from a traced run and writes its spans to
perfbench/out/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 only
when every check passed.

Record the reference only when the program's output is meant to change:
it is the definition of a correct sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, cells

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170

# sweep_rel is the sweep's wall time in units of a reference slice timed during the
# sweep (refkernel.py).  Over ten 30 s runs of the same code on a shared 2-vCPU VM,
# the median sweep_s spread by 25-44% (IQR over median), sweep_rel by 2-3%.
# sweep_s, the median sweep time less its slices, is still printed.
END_TO_END = (("setup_s", "s"), ("sweep_rel", "x"), ("peak_rss_mb", "MB"))
# (name, unit, the end-to-end metric it should move and on which workload).  Shares are
# of the untraced sweep_s, measured on a 2-core x86-64 VM without numba.
PER_LAYER = (
    ("sched.part_schedule.self_s", "s",
     "sweep_rel on srr-strong (~70%) and interposer-strong (~77%); 0 calls on random-noredist"),
    ("sched.part_schedule.calls", "count", "0 on random-noredist"),
    ("sched.part_schedule.max_s", "s", "sweep_rel on srr-strong, interposer-strong"),
    ("sched.part_schedule.iterations", "count",
     "explains sweep_rel on srr-strong, interposer-strong; exact"),
    ("partition.assign_task_lists.self_s", "s",
     "sweep_rel, peak_rss_mb on srr-strong (P=1000, ~4%), interposer-strong (~7%); "
     "not called on random-noredist"),
    ("partition.assign_task_lists.calls", "count", "0 on random-noredist"),
    ("partition.redistribution_cost.self_s", "s",
     "sweep_rel, peak_rss_mb on srr-strong (P=1000, ~4%), interposer-strong (~5%); "
     "not called on random-noredist"),
    ("partition.redistribution_cost.calls", "count", "0 on random-noredist"),
    ("partition.redistribution_cost.edges", "count", "modeled; must never move"),
    ("partition.redistribution_cost.messages", "count", "modeled; must never move"),
    ("partition.partition_external.self_s", "s",
     "sweep_rel on random-noredist (~10%); under 3% elsewhere"),
    ("partition.partition_external.calls", "count", "exact; one per cell"),
    ("sim.internal_makespan_no_redist.self_s", "s", "sweep_rel on random-noredist (~17%), srr-strong (~3%)"),
    ("sim.internal_makespan_no_redist.calls", "count", "exact; one per no-redist cell"),
    ("sim.run_strategy.self_s", "s",
     "sweep_rel on random-noredist (~70%, the work-unit pass and slot pricing), "
     "srr-strong (~16%, its P=20 no-redist cell), interposer-strong (~5%)"),
    ("sim.external_phase_time.self_s", "s", "sweep_rel on all workloads (negligible)"),
    ("cli.sweep.self_s", "s", "sweep_rel on all workloads (small)"),
    ("trace.overhead_s", "s", "nothing; traced minus untraced sweep_s median"),
)


class BenchError(RuntimeError):
    pass


def child(workload: str, seed: int, seconds: float, trace: int, mode: str, smoke: bool) -> dict:
    src = REPO_ROOT / "src"
    if not (src / "moldsched" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src / 'moldsched'}")
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(src),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        # numpy otherwise asks for transparent huge pages on large arrays, and
        # whether the kernel grants them depends on the machine's state, which
        # moved peak_rss_mb by ~9% between otherwise identical runs
        "NUMPY_MADVISE_HUGEPAGE": "0",
        # glibc otherwise raises its mmap threshold as the process frees large blocks,
        # so whether a large array is returned to the system on free, and with it
        # peak_rss_mb, depends on everything allocated before; that moved peak_rss_mb
        # by up to 10% between two ways of starting the same child.  A fixed threshold
        # (glibc's initial one) keeps large arrays in their own mappings.
        "MALLOC_MMAP_THRESHOLD_": "131072",
    })
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--mode", mode] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Run one workload; print its report lines and return its result object."""
    out = child(name, seed, seconds, trace, "run", smoke)
    if trace == 0:
        setup = [out["setup_s"]] + [child(name, seed, 0, 0, "setup", smoke)["setup_s"]
                                    for _ in range(SETUP_SAMPLES - 1)]
        values = {"setup_s": statistics.median(setup), "sweep_rel": out["sweep_rel"],
                  "peak_rss_mb": out["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    else:
        metrics = {k: {"value": out["layers"][k], "unit": unit} for k, unit, _ in PER_LAYER}

    wl = WORKLOADS[name]
    print(f"env {json.dumps(out['env'], sort_keys=True)}")
    print(f"workload {name} seed {seed}: {out['cells']} cells (P {out['procs']} x "
          f"{','.join(wl.strategies)}), {len(out['sweep_samples'])} timed sweeps"
          + (f", {out['traced_sweeps']} traced" if trace else ""))
    if out["reference"]:
        print("checks: CSV rows against the reference digests, plus invariants")
    else:
        print(f"checks: no reference digest for seed {seed}; only the invariant checks ran")
    print("sweep_s samples " + " ".join(f"{x:.4f}" for x in out["sweep_samples"]))
    if trace == 0:
        print(f"mean reference slice per sweep ({out['slices_per_sweep']} slices in the median "
              "sweep) " + " ".join(f"{x:.6f}" for x in out["slice_samples"]))
        print(f"metric sweep_s {out['sweep_s']!r} s (median; not declared, because it moves "
              f"with the machine's load: sweep_rel is the sweeps over the reference slices)")
    for reason in out["failures"]:
        print(f"FAILED sweep {reason[0]} cell {reason[1]}: {'; '.join(reason[2])}")
    moves = {k: f" (moves: {why})" for k, _, why in PER_LAYER} if trace else {}
    for k, m in metrics.items():
        print(f"metric {k} {m['value']!r} {m['unit']}{moves.get(k, '')}")
    print(f"metric error_rate {out['failed'] / out['attempted']!r} ratio "
          f"({out['failed']} of {out['attempted']} cells failed)")
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def smoke() -> int:
    """One small cell per workload, both modes; every named metric must print."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(name, DEFAULT_SEED, 0.0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {got} != declared {want}")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: {result['failed']} failed cells")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def record_reference() -> int:
    """Rewrite reference.json with the row digests this tree produces at the default seed."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from child import row_digest, setup
    import contextlib
    import io

    entries = []
    for wl in WORKLOADS.values():
        _, cli, path = setup(wl, DEFAULT_SEED)
        for procs in (wl.procs, wl.smoke_procs):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["sweep", str(path), "--procs", procs,
                                 "--strategies", ",".join(wl.strategies)])
            lines = buf.getvalue().splitlines()
            if code != 0 or len(lines) != 1 + len(cells(wl, procs)):
                raise BenchError(f"{wl.name} {procs}: sweep exited {code}")
            entries.append({
                "workload": wl.name, "procs": procs,
                "seed": DEFAULT_SEED if wl.seeded else None,
                "header": lines[0],
                "rows": {",".join(l.split(",")[:2]): row_digest(l) for l in lines[1:]},
            })
        path.unlink()
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} reference sweeps")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    try:
        if args.smoke:
            return smoke()
        if args.record_reference:
            return record_reference()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
