import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# every run-path command on the interposer; numpy must stay unimported
RUN_PATH = """
import sys
import moldsched
from moldsched import cli

path = sys.argv[1]
assert cli.main(["gen", "interposer", "-o", path]) == 0
assert cli.main(["sweep", path, "--procs", "40:120:40",
                 "--strategies", "proposed,any-pi,no-redist"]) == 0
assert cli.main(["schedule", path, "--procs", "80"]) == 0
for strategy in ("proposed", "any-pi", "no-redist"):
    assert cli.main(["simulate", path, "--procs", "80", "--strategy", strategy]) == 0
print("numpy" in sys.modules)
"""


def test_run_path_does_not_import_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", RUN_PATH, str(tmp_path / "ip.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# the bare-install CI job runs the modules that never call dense_partition with
# numpy absent; so the conftest they load must import without it
CONFTEST = """
import conftest
try:
    import numpy
except ImportError as exc:
    print(exc)
"""


def test_conftest_imports_without_numpy(tmp_path):
    (tmp_path / "numpy.py").write_text('raise ImportError("numpy blocked")\n')
    proc = subprocess.run(
        [sys.executable, "-c", CONFTEST],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (tmp_path, TESTS, SRC)))},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["numpy blocked"]
