"""Acceptance suite: one test per acceptance criterion, with pass/fail lines.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Heavy sweeps are computed once in session fixtures; their
build time is carried alongside so the runtime limits are still honored.
"""

import random
import time
from fractions import Fraction

import moldsched as ms
from moldsched.cli import main
from moldsched.model import check_schedule
from moldsched.sim import StrategyKind, grid_factors, run_strategy

PASS_LINES = []


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    PASS_LINES.append(line)


def make_tasks(durations):
    return [ms.TaskSpec(i, w) for i, w in enumerate(durations)]


def test_criterion_1_lpt_bound():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    violations = 0
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        procs = rng.choice([2, 3, 4])
        tasks = make_tasks([rng.randint(1, 10) for _ in range(n)])
        lpt = ms.lpt_schedule(tasks, procs)
        check_schedule(lpt.schedule, tasks, procs)
        optimal = ms.oracle_optimal(tasks, procs)
        checked += 1
        if Fraction(lpt.c_max) > ms.lpt_bound(procs) * optimal:
            violations += 1

    tight = make_tasks([3, 3, 2, 2, 2])
    ratio = Fraction(ms.lpt_schedule(tight, 2).c_max) / ms.oracle_optimal(tight, 2)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked >= 1000 and ratio == Fraction(7, 6) and elapsed < 10
    report(1, "LPT bound", ok, f"{checked} instances, {elapsed:.1f}s")
    assert violations == 0
    assert ratio == Fraction(7, 6)
    assert elapsed < 10


def test_criterion_2_part_schedule_bound():
    t0 = time.perf_counter()
    rng = random.Random(987654321)
    violations = 0
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        procs = rng.choice([2, 3, 4])
        tasks = make_tasks([rng.randint(1, 10) for _ in range(n)])
        optimal = ms.oracle_optimal(tasks, procs, moldable=True)
        bound = ms.part_bound(procs) * optimal
        checked += 1
        for cutoff in (None, 20):
            result = ms.part_schedule(tasks, procs, cutoff)
            check_schedule(result.schedule, tasks, procs)
            if result.c_max > bound:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked >= 200 and elapsed < 60
    report(2, "Part_Schedule bound", ok, f"{checked} instances, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60


def test_criterion_3_approx_square_law(parity_records, bus_runs):
    t0 = time.perf_counter()
    records, _ = parity_records
    runs, _ = bus_runs
    final_counts = []
    for _, _, _, modified, _ in records:
        final_counts.extend(modified.procs_per_task)
    for _, _, run in runs:
        final_counts.extend(run.schedule_result.procs_per_task)
    off_set = [k for k in final_counts if k > 20 and not ms.is_approx_square(k)]

    too_far = [
        p
        for p in range(21, 10001)
        if abs(ms.nearest_approx_square(p) - p) > 0.2 * p
    ]
    elapsed = time.perf_counter() - t0
    large = sorted({k for k in final_counts if k > 20})
    ok = not off_set and not too_far and elapsed < 1
    report(3, "approximate-square law", ok, f"large P_i seen: {large[:6]}...")
    assert off_set == []
    assert too_far == []
    assert elapsed < 1


def test_criterion_4_schedule_length_parity(parity_records):
    records, build_seconds = parity_records
    worst = 0.0
    for name, tasks, procs, modified, original in records:
        ideal = ms.ideal_length(tasks, procs)
        gap = float(abs(modified.c_max - original.c_max) / ideal)
        worst = max(worst, gap)
        assert gap <= 0.15, (name, procs, gap)
    ok = worst <= 0.15 and build_seconds < 60
    report(4, "schedule-length parity", ok,
           f"worst gap {worst:.3f}, sweep built in {build_seconds:.1f}s")
    assert build_seconds < 60


def test_criterion_5_weak_scaling_flatness(bus_runs):
    runs, build_seconds = bus_runs
    for pairs, _, run in runs:
        assert run.schedule_result.procs_per_task == (2,) * (2 * pairs), pairs
    values = [run.report.internal_makespan for _, _, run in runs]
    spread = (max(values) - min(values)) / max(values)
    ok = spread <= 1e-9 and build_seconds < 10
    report(5, "weak-scaling flatness", ok, f"relative spread {spread:.2e}")
    assert spread <= 1e-9
    assert build_seconds < 10


def test_criterion_6_strategy_ordering(interposer):
    t0 = time.perf_counter()
    strict_prime_wins = 0
    for procs in range(40, 641, 40):
        prop = run_strategy(interposer, StrategyKind.PROPOSED, procs)
        anyp = run_strategy(interposer, StrategyKind.ANY_PI, procs)
        nored = run_strategy(interposer, StrategyKind.NO_REDISTRIBUTION, procs)
        assert prop.report.t_matvec_avg <= nored.report.t_matvec_avg, procs
        assert prop.report.t_gen <= nored.report.t_gen, procs
        assert prop.report.t_matvec_avg <= anyp.report.t_matvec_avg * (1 + 1e-9), procs
        elongated = [
            k
            for k in anyp.schedule_result.procs_per_task
            if k > 3 and grid_factors(k)[0] == 1
        ]
        if elongated and prop.report.t_matvec_avg < anyp.report.t_matvec_avg:
            strict_prime_wins += 1
    elapsed = time.perf_counter() - t0
    ok = strict_prime_wins >= 1 and elapsed < 60
    report(6, "strategy ordering", ok,
           f"{strict_prime_wins} strict prime-heavy wins, {elapsed:.1f}s")
    assert strict_prime_wins >= 1
    assert elapsed < 60


def test_criterion_7_budget_and_validation(parity_records, bus_runs):
    records, _ = parity_records
    runs, _ = bus_runs
    validated = 0
    for _, tasks, procs, modified, original in records:
        for result in (modified, original):
            parallel = sum(k for k in result.procs_per_task if k > 1)
            assert parallel <= procs
            check_schedule(result.schedule, tasks, procs)
            validated += 1
    for pairs, scenario, run in runs:
        result = run.schedule_result
        tasks = scenario.tasks()
        assert sum(k for k in result.procs_per_task if k > 1) <= 4 * pairs
        check_schedule(result.schedule, tasks, 4 * pairs)
        validated += 1
    rng = random.Random(1234)
    for _ in range(100):
        tasks = make_tasks([rng.randint(0, 9) for _ in range(rng.randint(1, 8))])
        procs = rng.randint(1, 6)
        result = ms.part_schedule(tasks, procs, rng.choice([None, 20]))
        assert sum(k for k in result.procs_per_task if k > 1) <= procs
        check_schedule(result.schedule, tasks, procs)
        validated += 1
    report(7, "budget constraint and validator", True, f"{validated} schedules")


def test_criterion_8_scenario_fidelity():
    t0 = time.perf_counter()
    table = {5: 70_260, 10: 140_520, 20: 281_040, 40: 562_080,
             80: 1_124_160, 160: 2_248_320, 250: 3_513_000}
    for pairs, edges in table.items():
        assert ms.gen_bus(pairs).total_edges() == edges

    ip = ms.gen_interposer()
    assert len(ip.objects) == 129
    workloads = [o.edges**2 for o in ip.objects]
    share = workloads[0] / sum(workloads)
    assert 0.52 <= share <= 0.54
    assert abs(ip.total_edges() - 449_610) <= 128

    srr = ms.gen_srr()
    assert len(srr.objects) == 1488
    assert abs(srr.total_edges() - 1_281_975) / 1_281_975 <= 0.01
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1
    report(8, "scenario fidelity", ok, f"{elapsed:.2f}s")
    assert elapsed < 1


def test_criterion_9_command_determinism(tmp_path, capsys):
    scenario_path = tmp_path / "bus5.json"
    assert main(["gen", "bus", "--pairs", "5", "-o", str(scenario_path)]) == 0

    sched_args = ["schedule", str(scenario_path), "--procs", "20"]
    assert main(sched_args) == 0
    first = capsys.readouterr().out
    assert main(sched_args) == 0
    second = capsys.readouterr().out

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep_args = ["sweep", str(scenario_path), "--procs", "4:20:4"]
    assert main(sweep_args + ["-o", str(a)]) == 0
    assert main(sweep_args + ["-o", str(b)]) == 0

    ok = first == second and a.read_bytes() == b.read_bytes()
    with capsys.disabled():
        report(9, "command determinism", ok)
    assert first == second
    assert a.read_bytes() == b.read_bytes()


def test_thousands_of_cores_ratio_line(srr, interposer, capsys):
    # open acceptance line, printed and not gated: proposed's t_matvec_avg
    # over no-redist's past P = 1000, and each P where proposed loses
    t0 = time.perf_counter()
    ratios, losses = {}, []
    for name, scenario, sweep in (("SRR", srr, (1000, 2000, 3000, 4000)),
                                  ("interposer", interposer, (1280, 1920, 2560))):
        for procs in sweep:
            nored = run_strategy(scenario, StrategyKind.NO_REDISTRIBUTION, procs)
            prop = run_strategy(scenario, StrategyKind.PROPOSED, procs, nored.partition)
            ratios[name, procs] = prop.report.t_matvec_avg / nored.report.t_matvec_avg
        lost = [str(procs) for procs in sweep if ratios[name, procs] > 1]
        if lost:
            losses.append(f"{name} P {', '.join(lost)}")
    worst = max(ratios, key=ratios.get)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE open: thousands of cores, worst proposed/no-redist t_matvec_avg "
              f"{ratios[worst]:.3f} at {worst[0]} P={worst[1]}; proposed loses at "
              f"{'; '.join(losses) or 'no P'} ({elapsed:.2f}s)")
