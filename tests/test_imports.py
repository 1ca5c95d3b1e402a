"""What ``import potd`` loads, and that scipy.optimize never joins it.

The exact solver loads scipy's two compiled solver modules from their
files, without the ``scipy.optimize`` package. The suite itself imports
scipy.optimize (the LP oracle of ``test_ot``), so the module checks run in
fresh interpreters. Their scripts start together and run side by side.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from potd import ot

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLOBS_CSV = ROOT / "tests" / "data" / "blobs_n400_p10.csv"
EXTENSIONS = ("scipy.optimize._lsap", "scipy.optimize._highspy._core")

LOADED = f"""
import sys

def loaded():
    return {{name: name in sys.modules
             for name in {("scipy.optimize", "concurrent.futures.process", *EXTENSIONS)!r}}}
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
# the package imported after the solve hands back the loaded modules
import scipy.optimize
from scipy.optimize._highspy import _core

from potd import ot

report["reimport"] = {
    "linear_sum_assignment": scipy.optimize.linear_sum_assignment is ot.linear_sum_assignment,
    "_Highs": _core._Highs is ot._Highs,
}
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
    # one bench-real replication on the bundled blobs CSV, whose equal
    # training classes take the assignment path
    "bench-real": LOADED + """
import json
import os
import tempfile

import potd.cli

with tempfile.TemporaryDirectory() as tmp:
    code = potd.cli.main(["bench-real", "--data", sys.argv[1], "--replications", "1",
                          "--output", os.path.join(tmp, "report.json")])
print(json.dumps({"exit": code, "after": loaded()}))
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
            [sys.executable, str(path), str(BLOBS_CSV)], cwd=tmp, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    out = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        out[name] = json.loads(stdout.strip().splitlines()[-1])
    return out


def test_import_leaves_out_scipy_optimize_and_process_pools(reports):
    assert not any(reports["cli"]["import"].values())


def test_gen_and_sinkhorn_fit_leave_out_scipy_optimize(reports):
    assert reports["cli"]["cli"]["scipy.optimize"] is False


def solvers_only(report):
    """Both solver modules are loaded and the scipy.optimize package is not."""
    return report["scipy.optimize"] is False and all(report[name] for name in EXTENSIONS)


def test_exact_solve_loads_only_the_solver_modules(reports):
    assert not any(reports["cli"]["cli"][name] for name in EXTENSIONS)
    assert solvers_only(reports["cli"]["exact"])


def test_pool_loads_only_the_solver_modules_before_it_forks(reports):
    pool = reports["pool"]
    assert not any(pool["before"][name] for name in (*EXTENSIONS, "scipy.optimize"))
    assert pool["results"] == [1, 2]
    # the tasks never solve, so only the parent can have loaded them
    assert solvers_only(pool["after"])


def test_bench_real_leaves_out_scipy_optimize(reports):
    assert reports["bench-real"]["exit"] == 0
    assert solvers_only(reports["bench-real"]["after"])


def test_scipy_optimize_imported_after_a_solve_shares_its_solvers(reports):
    assert reports["cli"]["reimport"] == {"linear_sum_assignment": True, "_Highs": True}


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


def test_loader_reuses_a_registered_module(monkeypatch):
    stand_in = object()
    monkeypatch.setitem(sys.modules, "scipy.optimize._lsap", stand_in)
    assert ot._load_extension("scipy.optimize._lsap") is stand_in


def test_missing_extension_module_raises_import_error():
    with pytest.raises(ImportError, match="scipy.optimize._no_such_module") as raised:
        ot._load_extension("scipy.optimize._no_such_module")
    assert raised.value.name == "scipy.optimize._no_such_module"


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ot.no_such_name
