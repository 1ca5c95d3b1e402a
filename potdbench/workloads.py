"""The three benchmark workloads, one per coupling path of ``potd.ot``.

- ``table-exact``: the paper's table cells I-10 and III-30 at n=400 through
  ``run_synthetic_benchmark`` with ``SolverConfig(mode="exact")``. Sign
  labels give unequal class sizes, so nearly every coupling is a dense
  HiGHS transportation LP (the few draws that split 200/200 take the
  assignment path); Sinkhorn and KNN are bypassed.
- ``large-auto``: model I at n=1600, p=10 with the default
  ``SolverConfig()``. An 800-by-800 plan is above the 250k-entry ``auto``
  limit, so every coupling is log-domain Sinkhorn; the LP is bypassed. Each
  draw is fitted with ``potd_fit`` on the sign labels and with
  ``potd_fit_continuous`` on the continuous response.
- ``real-knn``: ``potd bench-real`` through ``cli.main`` on the bundled
  ``tests/data/blobs_n400_p10.csv``. The stratified half split leaves
  100/100 training classes, so POTD takes the assignment fast path and
  KNN, the baselines, splitting, CSV ingestion and report writing carry
  the time.

A round is one closed-loop unit of work; ``run_round`` returns a
:class:`RoundResult`. All randomness comes from the seed and the round
index, so the first ``quality_rounds`` rounds, which the quality metrics
and counts cover, are the same on every run with the same seed.
"""

import contextlib
import io
import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np

from potd import cli, core, harness, synthetic
from potd.errors import PotdError
from potd.ot import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BLOBS_CSV = ROOT / "tests" / "data" / "blobs_n400_p10.csv"

# keys mixed into the seed so that test draws differ from training draws
TEST_DRAW = 7
KNN_K = 10


def derive(seed, *key):
    """A 32-bit seed drawn from ``(seed, *key)`` through SeedSequence."""
    ss = np.random.SeedSequence([int(seed) % 2**64, *key])
    return int(ss.generate_state(1)[0])


class FitTimer:
    """One ``perf_counter`` pair per fit call; optionally keeps the fits.

    While ``capture`` is a list, each call appends ``(data, basis)``.
    """

    def __init__(self):
        self.ms = []
        self.capture = None

    def wrap(self, fit):
        def timed(*args, **kwargs):
            start = perf_counter()
            basis = fit(*args, **kwargs)
            self.ms.append(1e3 * (perf_counter() - start))
            if self.capture is not None:
                self.capture.append((args[0], basis))
            return basis

        return timed


class RoundResult:
    """What one round did: replications, fit counts and raw quality."""

    def __init__(self):
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.potd_ok = 0
        self.dists = []
        self.accs = []
        self.pending = []
        self.problems = []

    def add_rows(self, rows):
        """Count fits and failures of benchmark report rows (as dicts)."""
        for row in rows:
            reps = row["replications"]
            if len(row["values"]) + len(row["failures"]) != reps:
                self.problems.append(
                    f"fail_accounting: row {row['method']} {row['setting']} "
                    f"r={row['r']} has {len(row['values'])} values and "
                    f"{len(row['failures'])} failures for {reps} replications"
                )
            self.attempted += reps
            self.failed += len(row["failures"])
            if row["method"] != "POTD":
                continue
            self.potd_ok += len(row["values"])
            if row["metric_kind"] == "subspace_distance":
                self.dists.extend(row["values"])
            else:
                self.accs.extend(row["values"])


def knn_accuracy(train, test, basis):
    """KNN accuracy on ``test`` after projecting both sets onto ``basis``."""
    fitted = core.LabeledDataset(core.project(train.X, basis), train.y)
    pred = harness.knn_predict(fitted, core.project(test.X, basis), KNN_K)
    return harness.accuracy(pred, test.y)


class TableExact:
    name = "table-exact"

    def __init__(self, tiny=False):
        self.n = 60 if tiny else 400
        self.cells = (("I", 10), ("III", 30))
        self.solver = SolverConfig(mode="exact")
        self.quality_rounds = 2 if tiny else 12
        self.sizes = {"n": self.n, "cells": [f"{m}-{p}" for m, p in self.cells],
                      "methods": list(harness.METHODS), "reps_per_round": 2}

    def run_round(self, seed, index, timer, keep):
        res = RoundResult()
        for c, (model, p) in enumerate(self.cells):
            cell_seed = derive(seed, index, c)
            timer.capture = [] if keep else None
            report = harness.run_synthetic_benchmark(
                [model], [p], harness.METHODS, n=self.n, replications=1,
                seed=cell_seed, solver=self.solver, workers=1,
            )
            res.add_rows(report.to_dict()["rows"])
            res.reps += 1
            if keep:
                test_seed = derive(seed, index, c, TEST_DRAW)
                res.pending += [(model, p, test_seed, d, b) for d, b in timer.capture]
        timer.capture = None
        return res

    def quality(self, res):
        """POTD KNN accuracy on an independent draw of the same cell."""
        for model, p, test_seed, data, basis in res.pending:
            test, _ = synthetic.gen_model(
                synthetic.SyntheticSpec(model, self.n, p, test_seed)
            )
            res.accs.append(knn_accuracy(data, test, basis))


class LargeAuto:
    name = "large-auto"

    def __init__(self, tiny=False):
        self.n = 120 if tiny else 1600
        self.p = 10
        self.model = "I"
        # the tiny self-test size keeps the Sinkhorn path by lowering the limit
        self.solver = SolverConfig(exact_size_limit=1000) if tiny else SolverConfig()
        self.quality_rounds = 2 if tiny else 8
        self.sizes = {"n": self.n, "p": self.p, "model": self.model,
                      "exact_size_limit": self.solver.exact_size_limit,
                      "reps_per_round": 1}

    def run_round(self, seed, index, timer, keep):
        res = RoundResult()
        spec = synthetic.SyntheticSpec(self.model, self.n, self.p, derive(seed, index, 0))
        data, truth = synthetic.gen_model(spec)
        noise = np.random.default_rng(derive(seed, index, 1)).standard_normal(self.n)
        y = synthetic.model_signal(self.model, data.X) + spec.noise_scale * noise
        continuous = core.LabeledDataset(data.X, y)
        r0 = truth.dim
        # one cut at the median gives an 800/800 split, so both fits solve
        # one coupling of the same size and the fit times stay unimodal
        fits = (
            (core.potd_fit, data, {}),
            (core.potd_fit_continuous, continuous, {"cuts": [float(np.median(y))]}),
        )
        for fit, fit_data, extra in fits:
            res.attempted += 1
            try:
                basis = timer.wrap(fit)(fit_data, r0, solver=self.solver, **extra)
            except (PotdError, np.linalg.LinAlgError):
                res.failed += 1
                continue
            res.potd_ok += 1
            res.dists.append(synthetic.subspace_distance(basis, truth))
            if keep:
                res.pending.append((data, basis, derive(seed, index, TEST_DRAW)))
        res.reps = 1
        return res

    def quality(self, res):
        """KNN accuracy of both fits' projections on an independent draw."""
        for data, basis, test_seed in res.pending:
            test, _ = synthetic.gen_model(
                synthetic.SyntheticSpec(self.model, self.n, self.p, test_seed)
            )
            res.accs.append(knn_accuracy(data, test, basis))


class RealKnn:
    name = "real-knn"

    def __init__(self, tiny=False):
        if not BLOBS_CSV.is_file():
            raise FileNotFoundError(f"bundled dataset missing: {BLOBS_CSV}")
        self.reps_per_round = 1 if tiny else 4
        self.dims = (2, 4) if tiny else (2, 4, 6, 8)
        self.quality_rounds = 2 if tiny else 20
        self.solver = SolverConfig()
        # the blobs' class means differ along x1 only (tests/data/README.md)
        self.truth = synthetic.TrueSubspace(np.eye(10)[:, :1])
        OUT_DIR.mkdir(exist_ok=True)
        self.report = OUT_DIR / f"real-knn-report-{os.getpid()}.json"
        self.sizes = {"data": "tests/data/blobs_n400_p10.csv", "n": 400, "p": 10,
                      "dims": list(self.dims), "K": KNN_K, "test_fraction": 0.5,
                      "split": "stratified", "reps_per_round": self.reps_per_round}

    def run_round(self, seed, index, timer, keep):
        res = RoundResult()
        argv = [
            "bench-real", "--data", str(BLOBS_CSV), "--label-column", "label",
            "--methods", ",".join(harness.METHODS),
            "--dims", ",".join(map(str, self.dims)), "--k", str(KNN_K),
            "--test-fraction", "0.5", "--split", "stratified",
            "--replications", str(self.reps_per_round),
            "--seed", str(derive(seed, index)), "--workers", "1",
            "--output", str(self.report),
        ]
        timer.capture = [] if keep else None
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        captured, timer.capture = timer.capture, None
        res.reps = self.reps_per_round
        expected = self.reps_per_round * len(harness.METHODS) * len(self.dims)
        if code != 0:
            res.attempted += expected
            res.failed += expected
            res.problems.append(f"cli_exit: bench-real exited with {code}")
            return res
        with open(self.report, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        res.add_rows(rows)
        if res.attempted != expected:
            res.problems.append(
                f"fail_accounting: report covers {res.attempted} fits, expected {expected}"
            )
        if keep:
            res.pending = [basis for _, basis in captured]
        return res

    def quality(self, res):
        """Distance of each POTD basis to the informative x1 axis."""
        for basis in res.pending:
            res.dists.append(synthetic.subspace_distance(basis, self.truth))

    def close(self):
        self.report.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (TableExact, LargeAuto, RealKnn)}
