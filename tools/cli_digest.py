"""SHA-256 digests of the CLI's deterministic outputs, to compare two checkouts.

    PYTHONPATH=<checkout>/src python3 tools/cli_digest.py > digests.txt

Runs a fixed list of ``potd`` calls, each in its own directory under one
temporary working directory and with relative output names, so that stdout
is the same from run to run. For every call it prints one line per output
body, one for stdout, one for the ``potd: error:`` lines of stderr and one
for the exit code, each with the SHA-256 of those bytes. Left out are the
``.meta.json`` sidecars and the reports' ``meta`` blocks, which hold
timestamps, and the rest of stderr: warnings name source paths and line
numbers, and with ``--workers`` each worker process prints its own. Two
checkouts give the same outputs when ``diff`` finds no difference between
their digest files.

The calls run in other directories than this one, so each ``PYTHONPATH``
entry is made absolute first (an empty one names the current directory, as
it does for Python). Before the first call, ``import potd`` is tried once in
a call directory; if it fails, the script exits with status 1 and prints no
digest, since every call would fail and the digests would hash empty outputs.

The calls generate their own data, except ``bench-real``, which reads the
bundled ``tests/data/blobs_n400_p10.csv`` of the checkout holding this
script. Its splits score a 200 by 200 KNN, so ``bench-real-1600`` also runs
on 1,600 generated rows, whose 800 by 800 KNN spans several row blocks. The last six calls pass a negative seed, ``--k 0``, a ``--k``
above the training size or a ``--test-fraction`` that leaves no test
points, and should fail with exit code 2.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BLOBS_CSV = Path(__file__).resolve().parent.parent / "tests" / "data" / "blobs_n400_p10.csv"
BENCH_REAL = ["bench-real", "--data", "../blobs.csv", "--dims", "2,4", "--replications", "3"]
ORACLE = ["oracle-check", "--size", "6"]

# (name, argv); inputs are the outputs of the gen calls and the blobs copy
CALLS = (
    ("gen-I", ["gen", "--model", "I", "--n", "300", "--p", "6", "--seed", "5", "--dump", "I.csv"]),
    ("gen-cshape", ["gen", "--model", "cshape", "--n-per-class", "120", "--seed", "2",
                    "--dump", "cshape.csv"]),
    ("gen-svm3d", ["gen", "--model", "svm3d", "--n-per-class", "100", "--seed", "3",
                   "--dump", "svm3d.csv"]),
    ("fit-r2", ["fit", "--data", "../gen-I/I.csv", "--r", "2", "--output", "basis.csv"]),
    ("fit-sinkhorn", ["fit", "--data", "../gen-svm3d/svm3d.csv", "--r", "2",
                      "--solver", "sinkhorn", "--output", "basis.csv"]),
    *(
        (f"embed-{method}", ["embed", "--data", "../gen-cshape/cshape.csv", "--method", method,
                             "--r", "2", "--output", "embedding.csv"])
        for method in ("POTD", "SIR", "SAVE", "PCA")
    ),
    ("bench-synthetic", ["bench-synthetic", "--models", "I,II,III,IV", "--n", "200",
                         "--replications", "2", "--output", "report.json", "--csv", "report.csv"]),
    ("bench-real", [*BENCH_REAL, "--output", "report.json", "--csv", "report.csv"]),
    ("bench-real-workers", [*BENCH_REAL, "--workers", "2", "--output", "report.json"]),
    ("bench-real-random", [*BENCH_REAL, "--split", "random", "--output", "report.json"]),
    # 800 test against 800 training rows: a KNN of several row blocks
    ("gen-svm3d-1600", ["gen", "--model", "svm3d", "--n-per-class", "800", "--seed", "4",
                        "--dump", "svm3d.csv"]),
    ("bench-real-1600", ["bench-real", "--data", "../gen-svm3d-1600/svm3d.csv", "--dims", "1,2",
                         "--replications", "2", "--output", "report.json", "--csv", "report.csv"]),
    ("oracle-check", ORACLE),
    ("bench-synthetic-negative-seed", ["bench-synthetic", "--models", "I", "--methods", "PCA",
                                       "--n", "60", "--replications", "1", "--seed", "-1",
                                       "--output", "report.json"]),
    ("bench-real-negative-seed", [*BENCH_REAL, "--seed", "-1", "--output", "report.json"]),
    ("oracle-check-negative-seed", [*ORACLE, "--seed", "-1"]),
    ("bench-real-k0", [*BENCH_REAL, "--k", "0", "--output", "report.json"]),
    ("bench-real-k-above-train", [*BENCH_REAL, "--k", "1000", "--output", "report.json"]),
    ("bench-real-empty-test", [*BENCH_REAL, "--test-fraction", "0.001",
                               "--output", "report.json"]),
)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _body(path):
    """The bytes of an output file; a JSON report without its ``meta`` block."""
    data = path.read_bytes()
    if path.suffix != ".json":
        return data
    payload = json.loads(data)
    payload.pop("meta", None)
    return (json.dumps(payload, indent=2) + "\n").encode()


def absolute_pythonpath(value):
    """``value`` with each entry made absolute against the current directory."""
    return os.pathsep.join(os.path.abspath(entry) for entry in value.split(os.pathsep))


def main():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("POTD_MAX_THREADS", None)
    if "PYTHONPATH" in env:
        env["PYTHONPATH"] = absolute_pythonpath(env["PYTHONPATH"])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copyfile(BLOBS_CSV, root / "blobs.csv")
        probe = subprocess.run(
            [sys.executable, "-c", "import potd"],
            cwd=root, env=env, capture_output=True, check=False,
        )
        if probe.returncode != 0:
            sys.exit(
                f"cli_digest: cannot import potd with PYTHONPATH="
                f"{env.get('PYTHONPATH', '')!r}:\n{probe.stderr.decode(errors='replace')}"
            )
        for name, argv in CALLS:
            cwd = root / name
            cwd.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "potd.cli", *argv],
                cwd=cwd, env=env, capture_output=True, check=False,
            )
            for path in sorted(cwd.iterdir()):
                if not path.name.endswith(".meta.json"):
                    print(f"{_sha(_body(path))}  {name}/{path.name}")
            print(f"{_sha(proc.stdout)}  {name}/stdout")
            errors = [line for line in proc.stderr.splitlines(True) if line.startswith(b"potd: ")]
            print(f"{_sha(b''.join(errors))}  {name}/errors")
            print(f"{_sha(str(proc.returncode).encode())}  {name}/exit={proc.returncode}")


if __name__ == "__main__":
    main()
