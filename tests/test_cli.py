import json
import subprocess
import sys

import pytest

import moldsched as ms
from moldsched.cli import main, scenario_from_json, scenario_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        args = ("schedule", str(path), "--procs", "160", "--strategy", "any-pi")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "moldsched.cli", "gen", "bus", "--pairs", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"edges": 7026' in proc.stdout
