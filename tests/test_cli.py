import dataclasses
import hashlib
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moldsched as ms
from moldsched.cli import (
    SWEEP_COLUMNS,
    _parse_range,
    _procs_arg,
    main,
    scenario_from_json,
    scenario_to_json,
)
from moldsched.model import MAX_OBJECTS, MAX_PROCS
from moldsched.sim import StrategyKind, run_strategy


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def sweep_row_of(report):
    """The sweep CSV row, less its t_ref, of a `simulate` report."""
    values = dict(line.split(" ", 1) for line in report.splitlines())
    return ",".join([values["procs"], values["strategy"]]
                    + [values[k] for k in SWEEP_COLUMNS[2:-1]])


def sweep_rows(csv):
    """The rows of a sweep CSV, each less its t_ref."""
    return [line.rsplit(",", 1)[0] for line in csv.splitlines()[1:]]


class TestGen:
    def test_bus_file(self, tmp_path, capsys):
        out = tmp_path / "bus5.json"
        code, _, _ = run_cli(capsys, "gen", "bus", "--pairs", "5", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["objects"]) == 10
        assert all(o["edges"] == 7026 for o in doc["objects"])
        assert doc["grid"] == [500, 20, 8]

    def test_random_deterministic_stdout(self, capsys):
        args = ("gen", "random", "--objects", "10", "--edges", "1:100", "--seed", "42")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_pairs_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "bus", "--pairs", "0")
        assert code == 1
        assert "pairs" in err

    @pytest.mark.parametrize("args", [
        ("bus", "--pairs", str(MAX_OBJECTS // 2 + 1)),
        ("random", "--objects", str(MAX_OBJECTS + 1), "--edges", "1:2"),
    ], ids=["bus", "random"])
    def test_more_than_max_objects_is_usage_error(self, args, capsys):
        # refused before any object is built
        code, out, err = run_cli(capsys, "gen", *args)
        assert (code, out) == (1, "")
        assert "MAX_OBJECTS" in err

    def test_srr_class_counts(self, tmp_path, capsys):
        out = tmp_path / "srr.json"
        code, _, _ = run_cli(
            capsys, "gen", "srr", "--class-counts", "1488,0,0", "-o", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["objects"]) == 1488


class TestScenarioRoundTrip:
    def test_emit_parse_emit_is_identity(self, tmp_path, capsys):
        out = tmp_path / "ip.json"
        assert run_cli(capsys, "gen", "interposer", "-o", str(out))[0] == 0
        text = out.read_text()
        assert scenario_to_json(scenario_from_json(text)) == text

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_generated_scenarios_round_trip(self, data):
        kind = data.draw(st.sampled_from(["random", "bus", "srr"]))
        if kind == "random":
            lo = data.draw(st.integers(0, 10**4))
            scenario = ms.gen_random(
                data.draw(st.integers(1, 300)),
                (lo, lo + data.draw(st.integers(0, 10**6))),
                data.draw(st.integers(-(2**63), 2**63)),
            )
        elif kind == "bus":
            scenario = ms.gen_bus(data.draw(st.integers(1, 400)))
        else:
            large = data.draw(st.integers(0, 1488))
            medium = data.draw(st.integers(0, 1488 - large))
            scenario = ms.gen_srr((large, medium, 1488 - large - medium))
        text = scenario_to_json(scenario)
        assert scenario_to_json(scenario_from_json(text)) == text

    def test_omitted_keys_take_the_defaults(self, tmp_path, capsys):
        objects = (ms.Object(0, 7), ms.Object(1, 3))
        parsed = scenario_from_json(
            '{"name": "x", "objects": [{"id": 0, "edges": 7}, {"id": 1, "edges": 3}]}'
        )
        assert parsed == ms.Scenario("x", objects)
        doc = json.loads(scenario_to_json(parsed))
        assert (doc["cutoff"], doc["iterations"], doc["grid"]) == (20, 1, [0, 0, 0])
        # written back in full, a short file simulates to the same bytes; at
        # P = 64 the default cutoff binds
        short, full = tmp_path / "short.json", tmp_path / "full.json"
        short.write_text('{"name": "x", "objects": [{"id": 0, "edges": 5000}, '
                         '{"id": 1, "edges": 300}]}\n')
        scenario = scenario_from_json(short.read_text())
        full.write_text(scenario_to_json(scenario))
        assert ms.part_schedule(scenario.tasks(), 64, scenario.cutoff).restricted
        code, out, _ = run_cli(capsys, "simulate", str(short), "--procs", "64")
        assert code == 0 and out
        assert run_cli(capsys, "simulate", str(full), "--procs", "64") == (code, out, "")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ms.InvalidScenarioError):
            scenario_from_json('{"name": "x", "objects": [], "extra": 1}')

    def test_unknown_machine_key_rejected(self):
        doc = '{"name": "x", "objects": [{"id": 0, "edges": 1}], "machine": {"warp": 9}}'
        with pytest.raises(ms.InvalidScenarioError):
            scenario_from_json(doc)

    def test_unknown_object_key_rejected(self):
        doc = '{"name": "x", "objects": [{"id": 0, "edges": 1, "faces": 2}]}'
        with pytest.raises(ms.InvalidScenarioError):
            scenario_from_json(doc)


BAD_SCENARIOS = {
    "object without edges": '{"name": "x", "objects": [{"id": 0}]}',
    "object not a record": '{"name": "x", "objects": [5]}',
    "objects not an array": '{"name": "x", "objects": {"id": 0}}',
    "float edges": '{"name": "x", "objects": [{"id": 0, "edges": 3.9}]}',
    "bool edges": '{"name": "x", "objects": [{"id": 0, "edges": true}]}',
    "string edges": '{"name": "x", "objects": [{"id": 0, "edges": "7"}]}',
    "negative edges": '{"name": "x", "objects": [{"id": 0, "edges": -1}]}',
    "float id": '{"name": "x", "objects": [{"id": 0.0, "edges": 7}]}',
    "float grid factor": '{"name": "x", "objects": [{"id": 0, "edges": 7}], "grid": [2.7, 2, 2]}',
    "grid not an array": '{"name": "x", "objects": [{"id": 0, "edges": 7}], "grid": 8}',
    "string cutoff": '{"name": "x", "objects": [{"id": 0, "edges": 7}], "cutoff": "20"}',
    "zero cutoff": '{"name": "x", "objects": [{"id": 0, "edges": 7}], "cutoff": 0}',
    "float iterations": '{"name": "x", "objects": [{"id": 0, "edges": 7}], "iterations": 1.5}',
    "bool coefficient": '{"name": "x", "objects": [{"id": 0, "edges": 7}], "machine": {"t_work": true}}',
    "string coefficient": '{"name": "x", "objects": [{"id": 0, "edges": 7}], "machine": {"t_work": "1"}}',
    "machine not a map": '{"name": "x", "objects": [{"id": 0, "edges": 7}], "machine": ["t_work"]}',
    "name not a string": '{"name": 5, "objects": [{"id": 0, "edges": 7}]}',
    "name missing": '{"objects": [{"id": 0, "edges": 7}]}',
    "not an object": '[{"name": "x", "objects": [{"id": 0, "edges": 7}]}]',
    "no objects": '{"name": "x", "objects": []}',
    # integers the simulation converts to floats, beyond the float range
    "huge coefficient": '{"name": "x", "objects": [{"id": 0, "edges": 7}], '
                        '"machine": {"t_work": %d}}' % 10**400,
    "huge edges": '{"name": "x", "objects": [{"id": 0, "edges": %d}]}' % 10**200,
    "huge grid": '{"name": "x", "objects": [{"id": 0, "edges": 7}], '
                 '"grid": [%d, %d, 1]}' % (10**200, 10**200),
    # longer than int() parses from a string (4300 digits by default); "%d" % 10**5000
    # would raise the same error, so the literal is built as text
    "long edges literal": '{"name": "x", "objects": [{"id": 0, "edges": 1%s}]}' % ("0" * 5000),
    "long cutoff literal": '{"name": "x", "objects": [{"id": 0, "edges": 7}], '
                           '"cutoff": 1%s}' % ("0" * 5000),
}


@pytest.mark.parametrize("text", BAD_SCENARIOS.values(), ids=BAD_SCENARIOS.keys())
def test_malformed_scenario_exits_3(text, tmp_path, capsys):
    with pytest.raises(ms.InvalidScenarioError):
        scenario_from_json(text)
    bad = tmp_path / "bad.json"
    bad.write_text(text + "\n")
    for command in ("schedule", "simulate", "sweep"):
        code, out, err = run_cli(capsys, command, str(bad), "--procs", "4")
        assert (code, out) == (3, ""), command
        assert "Traceback" not in err


# each coefficient fits a float, but its product with a workload, a load or the
# grid's FFT term does not
OVERFLOWING_REPORTS = {
    "t_work": '"machine": {"t_work": 1e300}',
    "gamma_grid": '"machine": {"gamma_grid": 1e300}',
    "t_near": '"machine": {"t_near": 1e300}',
    "t_fft": '"machine": {"t_fft": 1e300}, "grid": [1000, 1000, 1000]',
}


@pytest.mark.parametrize("extra", OVERFLOWING_REPORTS.values(), ids=OVERFLOWING_REPORTS.keys())
def test_non_finite_report_exits_3(extra, tmp_path, capsys):
    text = '{"name": "x", "objects": [{"id": 0, "edges": 10000000000}], %s}' % extra
    bad = tmp_path / "overflow.json"
    bad.write_text(text + "\n")
    # the file loads, and schedule prices nothing in seconds
    scenario = scenario_from_json(text)
    code, out, _ = run_cli(capsys, "schedule", str(bad), "--procs", "4")
    assert code == 0 and out
    for strategy in StrategyKind:
        with pytest.raises(ms.InvalidScenarioError, match="overflows a float"):
            run_strategy(scenario, strategy, 4)
        code, out, err = run_cli(
            capsys, "simulate", str(bad), "--procs", "4", "--strategy", strategy.value
        )
        assert (code, out) == (3, ""), strategy
        assert "Traceback" not in err
    code, out, err = run_cli(capsys, "sweep", str(bad), "--procs", "2:4:1")
    assert (code, out) == (3, "")
    assert "overflows a float" in err


def test_overflowing_t_ref_exits_3(tmp_path, capsys):
    # every report is finite, but t_ref = t_matvec_avg(P_min) * P_min / P
    # overflows before the division
    text = ('{"name": "x", "objects": [{"id": 0, "edges": 10000000000}], '
            '"machine": {"t_near": 4e298}}')
    bad = tmp_path / "t_ref.json"
    bad.write_text(text + "\n")
    scenario = scenario_from_json(text)
    for procs, t_matvec_avg in ((40, 1e307), (80, 5e306)):
        run = run_strategy(scenario, StrategyKind.NO_REDISTRIBUTION, procs)
        assert run.report.t_matvec_avg == t_matvec_avg
    csv = tmp_path / "t_ref.csv"
    for out_args in ((), ("-o", str(csv))):
        code, out, err = run_cli(capsys, "sweep", str(bad), "--procs", "40:80:40",
                                 "--strategies", "no-redist", *out_args)
        assert (code, out) == (3, "")
        assert "t_ref" in err and "Traceback" not in err
    assert not csv.exists()


UNPARSABLE_FILES = {
    "truncated": b'{"name": "x", "objects": [{"id": 0, "edges": 5}',
    "empty": b"",
    "not utf-8": b'{"name": "\xff", "objects": []}',
    # deeper than the decoder recurses
    "deeply nested": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("data", UNPARSABLE_FILES.values(), ids=UNPARSABLE_FILES.keys())
@pytest.mark.parametrize("command", ["schedule", "simulate", "sweep"])
def test_unparsable_scenario_file_is_io_error(command, data, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run_cli(capsys, command, str(bad), "--procs", "4")
    assert (code, out) == (2, "")
    assert "Traceback" not in err


@pytest.mark.parametrize("ids", [(1, 3), (0, 2), (1, 2)])
def test_non_contiguous_object_ids_exit_3(ids, tmp_path, capsys):
    objects = ", ".join(f'{{"id": {i}, "edges": 5}}' for i in ids)
    bad = tmp_path / "ids.json"
    bad.write_text(f'{{"name": "x", "objects": [{objects}]}}\n')
    for command in ("schedule", "simulate", "sweep"):
        code, out, err = run_cli(capsys, command, str(bad), "--procs", "4")
        assert (code, out) == (3, ""), command
        assert "0..N-1" in err


def test_all_zero_edge_scenario_runs_every_command(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text('{"name": "z", "objects": [{"id": 0, "edges": 0}, {"id": 1, "edges": 0}]}\n')
    outs = {}
    for command in ("schedule", "simulate", "sweep"):
        code, outs[command], err = run_cli(capsys, command, str(path), "--procs", "4")
        assert (code, err) == (0, ""), command
    # no work: the normalized length is 0.0 in every subcommand
    assert "normalized_length 0.0" in outs["schedule"].splitlines()
    assert "c_max_norm 0.0" in outs["simulate"].splitlines()
    assert outs["sweep"].splitlines()[1:] == [
        f"4,{s},0.0,0.0,0.0,0.0,0.0,0,0,0.0,0.0" for s in ("any-pi", "no-redist", "proposed")
    ]


def test_integer_machine_coefficient_accepted():
    doc = '{"name": "x", "objects": [{"id": 0, "edges": 7}], "machine": {"t_work": 2}}'
    assert scenario_from_json(doc).machine.t_work == 2.0


@pytest.mark.parametrize("procs", ["0", "-3", "four", "2.5"])
@pytest.mark.parametrize("command", ["schedule", "simulate"])
def test_bad_procs_is_usage_error(command, procs, tmp_path, capsys):
    path = tmp_path / "bus.json"
    run_cli(capsys, "gen", "bus", "--pairs", "1", "-o", str(path))
    code, out, err = run_cli(capsys, command, str(path), "--procs", procs)
    assert (code, out) == (1, "")
    assert err.startswith("usage:") and "--procs" in err


@pytest.mark.parametrize("command, procs", [
    ("schedule", str(MAX_PROCS + 1)),
    ("simulate", str(MAX_PROCS + 1)),
    ("sweep", str(MAX_PROCS + 1)),
    ("sweep", f"{MAX_PROCS}:{MAX_PROCS + 1}:1"),
    ("sweep", f"1:{10**10}:1"),
])
def test_more_than_max_procs_is_usage_error(command, procs, tmp_path, capsys):
    path = tmp_path / "bus.json"
    run_cli(capsys, "gen", "bus", "--pairs", "1", "-o", str(path))
    code, out, err = run_cli(capsys, command, str(path), "--procs", procs)
    assert (code, out) == (1, "")
    assert "MAX_PROCS" in err


def test_max_procs_itself_parses():
    # parsed only: no cell runs at the limit
    assert _procs_arg(str(MAX_PROCS)) == MAX_PROCS
    assert _parse_range(str(MAX_PROCS)) == [MAX_PROCS]
    assert _parse_range(f"1:{MAX_PROCS}:{MAX_PROCS - 1}") == [1, MAX_PROCS]


class TestSchedule:
    @pytest.fixture()
    def bus5(self, tmp_path, capsys):
        path = tmp_path / "bus5.json"
        assert run_cli(capsys, "gen", "bus", "--pairs", "5", "-o", str(path))[0] == 0
        return path

    def test_bus_proposed_perfectly_balanced(self, bus5, capsys):
        code, out, _ = run_cli(
            capsys, "schedule", str(bus5), "--procs", "20", "--strategy", "proposed"
        )
        assert code == 0
        assert "normalized_length 1.0" in out
        assert out.count("procs 2\n") == 10

    def test_single_processor_normalized_length_is_one(self, bus5, capsys):
        code, out, _ = run_cli(capsys, "schedule", str(bus5), "--procs", "1")
        assert code == 0
        assert "normalized_length 1.0" in out

    def test_unknown_strategy_usage_error(self, bus5, capsys):
        code, _, _ = run_cli(capsys, "schedule", str(bus5), "--procs", "4",
                             "--strategy", "mystery")
        assert code == 1

    def test_missing_file_io_error(self, capsys):
        code, _, _ = run_cli(capsys, "schedule", "nope.json", "--procs", "4")
        assert code == 2

    def test_invalid_scenario_content_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "objects": [], "starships": 3}\n')
        code, _, _ = run_cli(capsys, "schedule", str(bad), "--procs", "4")
        assert code == 3

    def test_non_finite_machine_coefficient_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        for value in ("NaN", "Infinity", "-Infinity"):
            bad.write_text('{"name": "x", "objects": [{"id": 0, "edges": 10}], '
                           f'"machine": {{"t_work": {value}}}}}\n')
            for command in ("schedule", "simulate"):
                code, out, _ = run_cli(capsys, command, str(bad), "--procs", "4")
                assert code == 3 and out == "", (value, command)

    def test_deterministic_output(self, tmp_path, capsys):
        path = tmp_path / "ip.json"
        run_cli(capsys, "gen", "interposer", "-o", str(path))
        for strategy in ((), ("--strategy", "any-pi")):
            args = ("schedule", str(path), "--procs", "160", *strategy)
            code, out1, _ = run_cli(capsys, *args)
            _, out2, _ = run_cli(capsys, *args)
            assert code == 0 and out1 == out2

    def test_cutoff_defaults_to_the_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "cutoff2.json"
        path.write_text('{"name": "c", "objects": [{"id": 0, "edges": 50}, '
                        '{"id": 1, "edges": 40}, {"id": 2, "edges": 30}], "cutoff": 2}\n')
        code, out, _ = run_cli(capsys, "schedule", str(path), "--procs", "6")
        assert code == 0
        assert "cutoff 2\n" in out and "normalized_length 1.5\n" in out
        assert run_cli(capsys, "schedule", str(path), "--procs", "6", "--cutoff", "2")[1] == out
        assert "c_max_norm 1.5\n" in run_cli(capsys, "simulate", str(path), "--procs", "6")[1]
        # an explicit --cutoff still overrides the file's
        _, out, _ = run_cli(capsys, "schedule", str(path), "--procs", "6", "--cutoff", "20")
        assert "cutoff 20\n" in out and "normalized_length 1.08\n" in out

    def test_unlimited_cutoff(self, bus5, capsys):
        code, out, _ = run_cli(capsys, "schedule", str(bus5), "--procs", "20",
                               "--cutoff", "unlimited")
        assert code == 0
        assert "cutoff unlimited\n" in out

    def test_any_pi_takes_only_an_unlimited_cutoff(self, bus5, capsys):
        # an integer cutoff would be dropped, so it is refused before the
        # file is read: a missing file still exits 1, not 2
        for path in (bus5, "nope.json"):
            code, out, err = run_cli(capsys, "schedule", str(path), "--procs", "20",
                                     "--strategy", "any-pi", "--cutoff", "5")
            assert (code, out) == (1, "") and "any-pi" in err
        code, out, _ = run_cli(capsys, "schedule", str(bus5), "--procs", "20",
                               "--strategy", "any-pi", "--cutoff", "unlimited")
        assert code == 0 and "cutoff unlimited\n" in out

    @pytest.mark.parametrize("cutoff", ["0", "x"])
    def test_bad_cutoff_usage_error(self, cutoff, bus5, capsys):
        code, out, _ = run_cli(capsys, "schedule", str(bus5), "--procs", "20",
                               "--cutoff", cutoff)
        assert (code, out) == (1, "")

    def test_csv_emission(self, bus5, tmp_path, capsys):
        csv_path = tmp_path / "tasks.csv"
        code, _, _ = run_cli(
            capsys, "schedule", str(bus5), "--procs", "20", "--csv", str(csv_path)
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "task_id,workload,procs,duration"
        assert len(lines) == 11


class TestSimulate:
    def test_report_lines(self, tmp_path, capsys):
        path = tmp_path / "bus.json"
        run_cli(capsys, "gen", "bus", "--pairs", "5", "-o", str(path))
        code, out, _ = run_cli(
            capsys, "simulate", str(path), "--procs", "20", "--strategy", "no-redist"
        )
        assert code == 0
        assert "comm_edges 0" in out
        assert "t_matvec_avg" in out
        # the same figures as the sweep's row for that cell
        code, csv, _ = run_cli(capsys, "sweep", str(path), "--procs", "10:40:10")
        assert code == 0 and len(sweep_rows(csv)) == 4 * 3
        assert sweep_row_of(out) in sweep_rows(csv)


class TestSweep:
    def test_row_count_and_schema(self, tmp_path, capsys):
        path = tmp_path / "ip.json"
        run_cli(capsys, "gen", "interposer", "-o", str(path))
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", str(path), "--procs", "40:640:40", "-o", str(out_csv)
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        header = ("P,strategy,t_gen,t_matvec_avg,t_iter_avg,internal_makespan,"
                  "idle_fraction,comm_edges,comm_messages,c_max_norm,t_ref")
        assert lines[0] == header
        assert len(lines) == 1 + 16 * 3
        # rows sorted by (P, strategy)
        keys = [(int(l.split(",")[0]), l.split(",")[1]) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = tmp_path / "bus.json"
        run_cli(capsys, "gen", "bus", "--pairs", "2", "-o", str(path))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", str(path), "--procs", "2:8:2", "--strategies",
                "proposed,no-redist"]
        assert run_cli(capsys, *args, "-o", str(a))[0] == 0
        assert run_cli(capsys, *args, "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ideal_slope_column(self, tmp_path, capsys):
        path = tmp_path / "bus.json"
        run_cli(capsys, "gen", "bus", "--pairs", "2", "-o", str(path))
        code, out, _ = run_cli(
            capsys, "sweep", str(path), "--procs", "2:4:2", "--strategies", "proposed"
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        t_ref_p2 = float(rows[0][-1])
        t_ref_p4 = float(rows[1][-1])
        assert t_ref_p2 == pytest.approx(float(rows[0][3]))
        assert t_ref_p4 == pytest.approx(t_ref_p2 / 2)

    def test_bad_range_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bus.json"
        run_cli(capsys, "gen", "bus", "--pairs", "2", "-o", str(path))
        code, _, _ = run_cli(capsys, "sweep", str(path), "--procs", "nope")
        assert code == 1

    @pytest.mark.parametrize("args", [("--procs", "1:2"),
                                      ("--procs", "2", "--strategies", ","),
                                      ("--procs", "2", "--strategies", "bogus")],
                             ids=["two-part range", "no strategy", "unknown strategy"])
    def test_bad_arguments_usage_error(self, args, tmp_path, capsys):
        path = tmp_path / "bus.json"
        run_cli(capsys, "gen", "bus", "--pairs", "2", "-o", str(path))
        code, out, _ = run_cli(capsys, "sweep", str(path), *args)
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("args", [("--procs", "0"),
                                      ("--procs", "1:2"),
                                      ("--procs", "2", "--strategies", ","),
                                      ("--procs", "2", "--strategies", "bogus")],
                             ids=["procs 0", "two-part range", "no strategy", "unknown strategy"])
    def test_bad_arguments_before_the_file(self, args, tmp_path, capsys):
        # a usage error (exit 1) before the missing file is read (exit 2)
        code, out, _ = run_cli(capsys, "sweep", str(tmp_path / "missing.json"), *args)
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("procs", ["0", "-3"])
    def test_single_procs_below_one_is_usage_error(self, procs, tmp_path, capsys):
        path = tmp_path / "bus.json"
        run_cli(capsys, "gen", "bus", "--pairs", "2", "-o", str(path))
        code, out, _ = run_cli(capsys, "sweep", str(path), "--procs", procs)
        assert (code, out) == (1, "")


def reference_sweep(scenario, procs, keys):
    """The sweep CSV built from one ``run_strategy`` call per (P, strategy) cell.

    Kept as the reference for the sweep that shares the partition per P
    and ``proposed``'s run with ``any-pi``.
    """
    runs = {(p, k): run_strategy(scenario, StrategyKind.from_key(k), p)
            for p in procs for k in keys}
    p_min = min(procs)
    lines = [",".join(SWEEP_COLUMNS)]
    for (p, k), run in sorted(runs.items()):
        r = run.report
        t_ref = runs[(p_min, k)].report.t_matvec_avg * p_min / p
        lines.append(
            f"{p},{k},{r.t_gen!r},{r.t_matvec_avg!r},{r.t_iter_avg!r},"
            f"{r.internal_makespan!r},{r.idle_fraction!r},{r.comm[0]},{r.comm[1]},"
            f"{run.c_max_norm!r},{t_ref!r}"
        )
    return "\n".join(lines) + "\n"


def restricted_at(scenario, procs):
    """Whether ``proposed``'s cutoff bound, for each P."""
    tasks = scenario.tasks()
    return [ms.part_schedule(tasks, p, scenario.cutoff).restricted for p in procs]


ALL_KEYS = ("proposed", "any-pi", "no-redist")


class TestSharedSweep:
    """``sweep`` computes each cell once and prints what per-cell runs print."""

    def check(self, scenario, procs, keys, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(scenario_to_json(scenario))
        scenario = scenario_from_json(path.read_text())
        spec = f"{procs.start}:{procs.stop - 1}:{procs.step}"
        code, out, err = run_cli(capsys, "sweep", str(path), "--procs", spec,
                                 "--strategies", ",".join(keys))
        assert (code, err) == (0, "")
        assert out == reference_sweep(scenario, list(procs), keys)

    def test_srr_and_bus_share_every_any_pi_cell(self, srr, tmp_path, capsys):
        for scenario, procs in ((srr, range(20, 1001, 490)), (ms.gen_bus(40), range(20, 1001, 490))):
            assert not any(restricted_at(scenario, procs))
            self.check(scenario, procs, ALL_KEYS, tmp_path, capsys)

    def test_interposer_where_the_cutoff_binds(self, interposer, tmp_path, capsys):
        procs = range(40, 641, 300)
        assert all(restricted_at(interposer, procs))
        self.check(interposer, procs, ALL_KEYS, tmp_path, capsys)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_files_with_zero_edge_objects(self, seed, tmp_path, capsys):
        scenario = ms.gen_random(60, (0, 6), seed)
        assert any(o.edges == 0 for o in scenario.objects)
        self.check(scenario, range(1, 41, 13), ALL_KEYS, tmp_path, capsys)

    def test_random_file_where_the_cutoff_binds_at_some_p(self, tmp_path, capsys):
        scenario = ms.gen_random(4, (40, 400), 3)
        procs = range(2, 60, 4)
        assert len(set(restricted_at(scenario, procs))) == 2
        self.check(scenario, procs, ALL_KEYS, tmp_path, capsys)

    @pytest.mark.parametrize("keys", [("any-pi",), ("any-pi", "proposed"), ("no-redist", "any-pi")])
    def test_strategy_subsets_in_any_order(self, keys, srr, interposer, tmp_path, capsys):
        self.check(srr, range(20, 1001, 980), keys, tmp_path, capsys)
        self.check(interposer, range(40, 641, 600), keys, tmp_path, capsys)

    def test_one_partition_and_one_schedule_per_p(self, srr, tmp_path, capsys, monkeypatch):
        calls = {"partition_external": 0, "part_schedule": 0}
        for name in calls:
            fn = getattr(ms.sim, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(ms.sim, name, counted)
        path = tmp_path / "srr.json"
        path.write_text(scenario_to_json(srr))
        code, _, _ = run_cli(capsys, "sweep", str(path), "--procs", "20:1000:980",
                             "--strategies", "no-redist,any-pi,proposed")
        assert code == 0
        # two P; any-pi reuses proposed at both, since the cutoff never binds on SRR,
        # though the list names any-pi first
        assert calls == {"partition_external": 2, "part_schedule": 2}

    def test_layer_calls_keep_the_shape_a_tracer_wraps(self, interposer, tmp_path, capsys,
                                                          monkeypatch):
        # a tracer may replace these names of moldsched.sim and moldsched.cli with
        # wrappers: each scheduled cell calls the matching and the pricing once,
        # the pricing with four positional arguments, the third the cell's partition
        calls = []
        for name in ("assign_task_lists", "redistribution_cost"):
            def recorded(*args, _fn=getattr(ms.sim, name), _name=name, **kwargs):
                calls.append((_name, args, kwargs))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ms.sim, name, recorded)
        runs = []

        def recorded_run(*args, _fn=ms.cli.run_strategy, **kwargs):
            start = len(calls)
            run = _fn(*args, **kwargs)
            runs.append((args, kwargs, run, calls[start:]))
            return run

        monkeypatch.setattr(ms.cli, "run_strategy", recorded_run)
        path = tmp_path / "interposer.json"
        path.write_text(scenario_to_json(interposer))
        code, _, _ = run_cli(capsys, "sweep", str(path), "--procs", "40:80:40")
        assert code == 0
        scheduled = 0
        for args, kwargs, run, made in runs:
            # (scenario, strategy, P, partition), read by position
            assert kwargs == {} and len(args) == 4
            if args[1] is StrategyKind.NO_REDISTRIBUTION:
                assert made == []
                continue
            scheduled += 1
            (assign, assign_args, assign_kwargs), (price, price_args, price_kwargs) = made
            assert (assign, price) == ("assign_task_lists", "redistribution_cost")
            assert assign_kwargs == price_kwargs == {}
            assert assign_args == (run.schedule_result.schedule, run.partition)
            assert len(price_args) == 4
            assert isinstance(price_args[2], ms.PartitionMap)
            assert price_args[2] is run.partition
            assert price_args[1] is run.schedule_result.schedule
        # proposed at both P, and any-pi where the cutoff bound
        assert scheduled == 2 + sum(restricted_at(interposer, (40, 80)))
        assert len(calls) == 2 * scheduled


# sha256 of the sweep CSV, all strategies; every supported Python must print
# these bytes.  The srr and interposer digests were recorded before the sweep
# shared its cells, the bus and random ones before Part_Schedule's makespan
# took a bucket per (W, P) class.
GOLDEN_SWEEPS = {
    ("srr", "20:1000:980"): "b9b6c7c66cf7efe31e18648d614c41bf5e2750858bf6e05b56dc2cd32d87ec81",
    ("interposer", "40:640:120"): "c90403310196956e16162c3b5356ed5d1181ec4ebb0505a1139e98142fbea467",
    # the cells of the interposer-strong benchmark
    ("interposer", "40:640:40"): "7c7e57cd0ac0ddc8badf2ffead165b571c18f5b7330168ee8d4f68863569151e",
    ("bus", "20:1000:60"): "d8467c12102470577c19231677027429c318768c71a49abe00f8af02f9218f22",
    # unequal sizes: every (W, P) class holds one task
    ("random", "40:1000:120"): "6a5d08b124855d8f676cda36e7bcef76d9a0df0691db4c06e0560a9675cec49e",
    # past P = 1000, the abstract's thousands of cores; every object of the
    # random file is split at these P.  Recorded before the no-redist owner
    # plan was built in run_strategy.
    ("srr", "1000:4000:1000"): "9ee4390a95f0b7ff27e3844e538004c58d17f6a9faf2b0a9fa5bc20b2c2fdcfa",
    ("interposer", "640:2560:640"): "6098ddd9f5757e38ba0f710c2cfc09ebe5213a054fc6f6b13f7993c1f529d06a",
    ("random", "1000:4000:1000"): "48a24c93394dd663c4daecc61049213b99965dfb449cf5172366c920437f3603",
}
GOLDEN_GEN_ARGS = {
    "bus": ("--pairs", "40"),
    "random": ("--objects", "300", "--edges", "50:1500", "--seed", "3"),
}


# sha256 of the `gen` output, recorded before the grid moved into MachineModel.
# A round trip only compares a file with itself; these pin the bytes.
GOLDEN_GENS = {
    "bus": "9bd6c1c613274f5648f5224926b1d0e3feceefa408d5f8d3f3d600bed9078667",
    "srr": "4a679ad32e29ef4e317909c5f727856ec0777efbae68d49470db830893bbbea8",
    "interposer": "427dc7de1d20241e28da480c46b9ad4400459ca2aaa7a3d1f803797b11c35e30",
    "random": "56fee88ce202bc3e797d6fb82b567fdf2e3735b3d23d303b7a3abc73d225d456",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_GENS))
def test_golden_gen_digests(kind, capsys):
    code, out, _ = run_cli(capsys, "gen", kind, *GOLDEN_GEN_ARGS.get(kind, ()))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_GENS[kind]


@pytest.mark.parametrize("kind, procs", sorted(GOLDEN_SWEEPS))
def test_golden_sweep_digests(kind, procs, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    assert run_cli(capsys, "gen", kind, *GOLDEN_GEN_ARGS.get(kind, ()), "-o", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "sweep", str(path), "--procs", procs)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SWEEPS[(kind, procs)]


# sha256 of `schedule` stdout followed by its --csv file.  `schedule` prints
# every processor's finish time, so these pin the LPT placement more tightly
# than a sweep does.  Recorded before the placement held one int key per
# processor and the LPT walk stopped at Graham's bound mid-walk.
GOLDEN_SCHEDULE_GEN_ARGS = {
    "random": ("--objects", "1500", "--edges", "50:1500", "--seed", "0"),
}
GOLDEN_SCHEDULES = {
    ("srr", "1000", "proposed"): "8bd958f1792b5dee36428d1c66e1a263c2ec18ae4c5d7b76a5ec2a9d5c210a26",
    ("srr", "1000", "any-pi"): "c72d2beb79cd6e42649d1cb39217adf6db06c97b9aa1bdbccb2090e784e016d8",
    ("interposer", "640", "proposed"): "bfb865289f363d59a45c67c16cd9c03f766b462f650eafc1d180a99dbcc26b56",
    ("interposer", "640", "any-pi"): "24ba184f4a88409bbb9342a49f63c84988349eb8f1f235ff7b15e6fcda32e158",
    ("random", "1000", "proposed"): "63a3479496b6151c90070e72a3d8b402197fabf36af321b11d419f84b23ce1d3",
    ("random", "1000", "any-pi"): "38b1012cf05963dba1682effa0c314ff017d40417f2ba305607500ac16de77fc",
}


@pytest.mark.parametrize("kind, procs, strategy", sorted(GOLDEN_SCHEDULES))
def test_golden_schedule_digests(kind, procs, strategy, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    gen_args = GOLDEN_SCHEDULE_GEN_ARGS.get(kind, ())
    assert run_cli(capsys, "gen", kind, *gen_args, "-o", str(path))[0] == 0
    csv = tmp_path / "tasks.csv"
    code, out, _ = run_cli(capsys, "schedule", str(path), "--procs", procs,
                           "--strategy", strategy, "--csv", str(csv))
    assert code == 0
    text = out + csv.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SCHEDULES[(kind, procs, strategy)]


# sha256 of the benchmark's random no-redist sweep, which never schedules:
# partition_external and the owner-group passes make every row.  Recorded
# before the partitioner held one int key per process.
GOLDEN_RANDOM_NO_REDIST_SWEEP = "a8cfd26f60c91b22ff4599e41015026e4f53ffe7bb13fae78f0210a4aadd574c"


def test_golden_random_no_redist_sweep_digest(tmp_path, capsys):
    path = tmp_path / "random.json"
    gen_args = ("--objects", "1500", "--edges", "50:1500", "--seed", "0")
    assert run_cli(capsys, "gen", "random", *gen_args, "-o", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "sweep", str(path), "--procs", "40:1000:40",
                           "--strategies", "no-redist")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_RANDOM_NO_REDIST_SWEEP
    # `simulate` at the last P prints the figures of the sweep's last row
    code, report, _ = run_cli(capsys, "simulate", str(path), "--procs", "1000",
                              "--strategy", "no-redist")
    assert code == 0
    assert sweep_row_of(report) == sweep_rows(out)[-1]


# sha256 of the same random file's sweep with all strategies.  It has no runs
# of equal sizes, so most of its rebuilds stop at Graham's bound mid-walk,
# inside the heap phase of the LPT walk.  Recorded before Part_Schedule tested
# each makespan shortcut once per rebuild.
GOLDEN_RANDOM_1500_SWEEP = "37a9d15c13c78af12fec1f727dc8b1643b1c0ccedcd844c0fdfee779097f4c47"


def test_golden_random_1500_sweep_digest(tmp_path, capsys):
    path = tmp_path / "random.json"
    gen_args = ("--objects", "1500", "--edges", "50:1500", "--seed", "0")
    assert run_cli(capsys, "gen", "random", *gen_args, "-o", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "sweep", str(path), "--procs", "40:1000:40")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_RANDOM_1500_SWEEP


# sha256 of the 1:61:3 sweep CSV of gen_random(90, (0, 2), 0) with its objects
# shuffled: many equal edge counts, zero-edge objects, and split objects of
# equal size whose owner groups overlap.  The no-redist owner groups start in
# (-W, position in the file) order, not (-edges, id), so at 3 of the 21 P the
# rows differ from those of the same objects listed in id order.
GOLDEN_OUT_OF_ORDER_SWEEPS = {
    "proposed,any-pi,no-redist": "ccdd18a00835f8724d65a7390927ce15cc1366de7e7e1dc2cd6ca9d62c2a63a2",
    "no-redist": "1bb69b7742be9308e26318605f45b780055792de87b3578b7013d4b4e9815559",
}


@pytest.mark.parametrize("strategies", sorted(GOLDEN_OUT_OF_ORDER_SWEEPS))
def test_golden_out_of_order_sweep_digests(strategies, tmp_path, capsys):
    in_order = ms.gen_random(90, (0, 2), 0)
    objects = list(in_order.objects)
    random.Random(0).shuffle(objects)
    shuffled = dataclasses.replace(in_order, objects=tuple(objects))
    assert sum(o.edges == 0 for o in objects) > 0
    digests = []
    for scenario in (shuffled, in_order):
        path = tmp_path / "scenario.json"
        path.write_text(scenario_to_json(scenario))
        code, out, _ = run_cli(capsys, "sweep", str(path), "--procs", "1:61:3",
                               "--strategies", strategies)
        assert code == 0
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert digests[0] == GOLDEN_OUT_OF_ORDER_SWEEPS[strategies]
    assert digests[1] != digests[0]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "moldsched.cli", "gen", "bus", "--pairs", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"edges": 7026' in proc.stdout
