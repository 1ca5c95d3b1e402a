"""Tests of the comparison scripts under tools/, loaded by path."""

import importlib.util
import os
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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
