"""scripts/compare_outputs.py: one tree against itself, its report of a moved column, and
its check of the CLI's contract."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_outputs.py"


def _script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_against_itself_is_identical_everywhere():
    # a RuntimeWarning raises, and a run that raises breaks the contract
    run = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT)],
                         capture_output=True, text=True, timeout=600,
                         env=dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning"))
    assert run.returncode == 0, run.stdout + run.stderr
    *lines, summary = run.stdout.splitlines()
    assert len(lines) > 100 and all(line.endswith(": identical") for line in lines)
    # the 20 preset files, all 8 manifests among them, are compared
    assert sum(line.startswith("presets/") for line in lines) == 20
    assert summary == f"{len(lines)} of {len(lines)} outputs identical"


def test_a_moved_csv_column_is_reported_beyond_its_printed_unit():
    describe = _script().describe
    old = "a,b\n1,100\n2,200\n"
    assert describe("x.csv", old, old) == "identical"
    # 200 -> 200.000000001 is one printed unit; 2 -> 2.5 is far beyond it
    assert describe("x.csv", old, "a,b\n1,100\n2,200.000000001\n") == (
        "1 of 2 rows differ; b 5e-12 of the column maximum (0 beyond one printed unit)")
    assert describe("x.csv", old, "a,b\n1,100\n2.5,200\n").startswith(
        "1 of 2 rows differ; a 0.2 of the column maximum (0.2 beyond")
    assert describe("x.csv", old, "a,b\n1,100\n") == "differs (header or row count)"
    assert describe("r:exit", "0", "2") == "differs: '0' then '2'"
    assert describe("m.json", '{"v": [1.0, 2.0], "s": "x"}', '{"v": [1.0, 2.5], "s": "x"}') == (
        ".v[] 0.2 of the column maximum")


def test_a_lone_json_scalar_is_also_reported_against_its_document():
    describe = _script().describe
    # a round-off-level residual beside fields of order 1: its own maximum is itself
    old = '{"v": [0.5, 1.0], "residual": 2.42e-18}'
    assert describe("m.json", old, '{"v": [0.5, 1.0], "residual": 2.73e-18}') == (
        ".residual 0.11 of the column maximum (3.1e-19 of the document maximum)")


def test_a_run_that_raises_or_writes_two_error_lines_breaks_the_contract():
    faults = _script().contract_faults({
        "ok": {"exit": 0, "stdout": "a\nb\n", "stderr": ""},
        "refused": {"exit": 2, "stdout": "", "stderr": "error: x\n"},
        "numerical": {"exit": 3, "stdout": "", "stderr": "numerical failure: y\n"},
        "raised": {"exit": "raised RuntimeWarning: overflow", "stdout": "", "stderr": ""},
        "exit-1": {"exit": 1, "stdout": "", "stderr": "error: x\n"},
        "two-lines": {"exit": 2, "stdout": "", "stderr": "error: x\ny\n"},
        "no-line-end": {"exit": 2, "stdout": "", "stderr": "error: x"},
        "stdout": {"exit": 3, "stdout": "partial", "stderr": "numerical failure: y\n"},
    })
    assert [fault.split(":")[0] for fault in faults] == [
        "raised", "exit-1", "two-lines", "no-line-end", "stdout"]
    assert faults[0] == "raised: exit raised RuntimeWarning: overflow"
