"""What ``import potd`` loads, and when scipy.optimize joins it.

The suite itself imports scipy.optimize (the LP oracle of ``test_ot``), so
the module checks run in fresh interpreters. Their scripts start together
and run side by side, since each one pays for the scipy import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from potd import ot

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = """
import sys

def loaded():
    return {name: name in sys.modules
            for name in ("scipy.optimize", "concurrent.futures.process")}
"""

SCRIPTS = {
    # the CLI's numpy-only paths, then one exact solve
    "cli": LOADED + """
import json
import os
import tempfile

import numpy as np

import potd
import potd.cli
from potd.ot import DiscreteMeasure, exact_ot

report = {"import": loaded()}
with tempfile.TemporaryDirectory() as tmp:
    data = os.path.join(tmp, "g.csv")
    potd.cli.main(["gen", "--model", "I", "--n", "200", "--p", "4", "--dump", data])
    potd.cli.main(["fit", "--data", data, "--r", "2", "--solver", "sinkhorn",
                   "--output", os.path.join(tmp, "basis.csv")])
report["cli"] = loaded()
exact_ot(DiscreteMeasure.uniform(np.arange(3.0)), DiscreteMeasure.uniform(np.arange(4.0)),
         np.arange(12.0).reshape(3, 4))
report["exact"] = loaded()
print(json.dumps(report))
""",
    # a worker pool whose tasks never solve
    "pool": LOADED + """
import json

from potd import harness

def task(seed):
    return seed

if __name__ == "__main__":
    report = {"before": loaded(), "results": harness._run_tasks(task, [1, 2], 2)}
    report["after"] = loaded()
    print(json.dumps(report))
""",
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("POTD_MAX_THREADS", None)
    procs = {}
    for name, script in SCRIPTS.items():
        path = tmp / f"{name}.py"
        path.write_text(script)
        procs[name] = subprocess.Popen(
            [sys.executable, str(path)], cwd=tmp, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    out = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        out[name] = json.loads(stdout.strip().splitlines()[-1])
    return out


def test_import_leaves_out_scipy_optimize_and_process_pools(reports):
    assert reports["cli"]["import"] == {
        "scipy.optimize": False, "concurrent.futures.process": False,
    }


def test_gen_and_sinkhorn_fit_leave_out_scipy_optimize(reports):
    assert reports["cli"]["cli"]["scipy.optimize"] is False


def test_first_exact_solve_imports_scipy_optimize(reports):
    assert reports["cli"]["exact"]["scipy.optimize"] is True


def test_pool_imports_scipy_optimize_before_it_forks(reports):
    pool = reports["pool"]
    assert pool["before"]["scipy.optimize"] is False
    assert pool["results"] == [1, 2]
    # the tasks never solve, so only the parent can have imported it
    assert pool["after"]["scipy.optimize"] is True


@pytest.fixture
def unloaded(monkeypatch):
    """``potd.ot`` as it is before its first exact solve."""
    ot._load_exact_solvers()
    for name in ot._EXACT_SOLVER_NAMES:
        monkeypatch.delitem(vars(ot), name)


def test_highs_names_resolve_before_any_solve(unloaded):
    from scipy.optimize._highspy import _core

    assert ot._Highs is _core._Highs
    assert ot.HighsModelStatus is _core.HighsModelStatus
    # the first read filled the module, so later reads skip the loader
    assert all(name in vars(ot) for name in ot._EXACT_SOLVER_NAMES)


def test_loader_keeps_a_replaced_name(unloaded, monkeypatch):
    stand_in = object()
    monkeypatch.setitem(vars(ot), "_Highs", stand_in)
    ot._load_exact_solvers()
    assert ot._Highs is stand_in
    assert callable(ot.linear_sum_assignment)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ot.no_such_name
