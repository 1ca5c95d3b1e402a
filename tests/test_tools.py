"""Tests of the comparison scripts under tools/, loaded by path."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def load_tool(name, path=None):
    spec = importlib.util.spec_from_file_location(name, path or TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCliDigest:
    def test_relative_pythonpath_entries_become_absolute(self, tmp_path, monkeypatch):
        tool = load_tool("cli_digest")
        monkeypatch.chdir(tmp_path)
        value = os.pathsep.join(["src", "/abs/lib", ""])
        expected = os.pathsep.join([str(tmp_path / "src"), "/abs/lib", str(tmp_path)])
        assert tool.absolute_pythonpath(value) == expected

    def test_unimportable_potd_fails_before_the_first_call(self, monkeypatch, capsys):
        tool = load_tool("cli_digest")
        calls = []
        run = subprocess.run

        def recorded(argv, **kwargs):
            calls.append(argv)
            return run(argv, **kwargs)

        monkeypatch.setattr(tool.subprocess, "run", recorded)
        monkeypatch.setenv("PYTHONPATH", "/nonexistent")
        with pytest.raises(SystemExit, match="cannot import potd"):
            tool.main()
        # only the import probe ran, and no digest was printed
        assert [argv[1:] for argv in calls] == [["-c", "import potd"]]
        assert capsys.readouterr().out == ""


RAISING_MODULE = """\
def check(x):
    if x < 0:
        raise ValueError("negative")
    if x > 9:
        raise ValueError(
            "large"
        )
    try:
        return 1 / x
    except ZeroDivisionError:
        raise
"""


class TestRaiseAudit:
    def test_lists_the_raises_off_the_hit_lines(self, tmp_path):
        tool = load_tool("raise_audit")
        module = tmp_path / "checks.py"
        module.write_text(RAISING_MODULE)
        assert tool.raise_lines(module) == [3, 5, 11]
        hits = {(str(module), 3), (str(module), 6), (str(module), 9)}
        # a raise counts as reached by its first line only
        assert tool.unreached([module], hits) == [f"{module}:5", f"{module}:11"]

    def test_traces_only_code_under_the_prefix(self, tmp_path):
        tool = load_tool("raise_audit")
        module = tmp_path / "checks.py"
        module.write_text(RAISING_MODULE)
        checks = load_tool("checks", module)

        def calls():
            for x in (-1, 0):
                with pytest.raises((ValueError, ZeroDivisionError)):
                    checks.check(x)
            return checks.check(2)

        result, hits = tool.traced_lines(calls, str(tmp_path))
        assert result == 0.5
        assert {name for name, _ in hits} == {str(module)}
        assert tool.unreached([module], hits) == [f"{module}:5"]


class TestKernelLedger:
    @pytest.fixture
    def bench(self, monkeypatch):
        # the script sets the BLAS thread variables when it is loaded; these
        # settings restore them afterwards
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
        return load_tool("bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")

    def test_writes_one_row_per_line(self, bench):
        runs = [
            {"provenance": {"git_sha": "a", "cpu_count": 2},
             "rows": [{"bench": "x", "ms": [1.5, 0.1]}, {"bench": "y", "calls": {"k": 2}}]},
            {"provenance": {"git_sha": None}, "rows": [{"bench": "x", "ms": 2.0}]},
        ]
        text = bench.ledger_text(runs)
        assert json.loads(text) == {"runs": runs}
        lines = [line.strip().rstrip(",") for line in text.splitlines()]
        # a line for the file's head and tail, and per record a line for its
        # provenance, one per row and two around them
        assert len(lines) == 2 + sum(3 + len(record["rows"]) for record in runs)
        for record in runs:
            assert f'{{"provenance": {json.dumps(record["provenance"])}' in lines
            assert all(json.dumps(row) in lines for row in record["rows"])

    def test_the_committed_ledger_is_in_that_layout(self, bench):
        text = (ROOT / "BENCH_kernels.json").read_text()
        assert bench.ledger_text(json.loads(text)["runs"]) == text
