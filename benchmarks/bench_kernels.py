"""Time the hot kernels of the coupling stage and record them.

``sinkhorn_scaling`` is timed to a 1e-9 marginal error on n-by-n
scaled costs at epsilon = 0.01 times the largest cost, called in place as
the library calls it (the kernel is formed in a work array, which a copy of
the scaled cost refills before each repeat, outside the timer), reporting
the sweep count, the over-relaxation omega of the last sweep and the time
per sweep; ``pairwise_sqdist`` is timed on n-by-n point clouds, with the peak
bytes ``tracemalloc`` traces during one more call; ``exact_ot``
is timed on uniform unequal splits (the shortlist transportation LP),
reporting the nonzeros of the plan, and on table-shaped instances: the
whitened sign-label classes of model I at p=10 and model III at p=30,
n=400, over the first 12 seeds whose classes differ in size, reporting
the median time, the median sweeps of the LP's crash start, the median
number of HiGHS runs (pricing rounds) per solve, the median number of
simplex iterations per solve, summed over its runs, and the median minor
page faults (``ru_minflt``) per repeat solve; these rows run in a fresh
interpreter, whose allocator has not seen the large arrays of the other
rows (after them glibc keeps every table-sized array in the heap, as a
process that fits only the table's n=400 data does not). ``exact_ot`` is also timed on
the assignment path: uniform equal-size whitened two-blob clouds of 100,
200 and 400 points a class at p=10, 12 draws each, reporting the median
time of ``exact_ot``, the median time of the bare assignment solver
(scipy's ``linear_sum_assignment`` on the raw cost) and how many
``exact_ot`` plans equal the plan built from that bare solve. ``solve_coupling`` is
timed at the ``large-auto`` shape: the whitened sign-label classes of model
I at p=10, n=1600 (about 800 by 800, above the exact size limit, so the
default config solves them by Sinkhorn), with the cost left to the solver,
over the first 12 seeds, reporting the median time, sweeps and log-sum-exp
passes over the n-by-m cost per solve. ``solve_coupling_small_eps`` times
the same solves at epsilon = median / 100 of each cost (a fifth of the
default), where most sweeps run in the log domain, and also reports the
``pairwise_sqdist`` calls per solve: the solve writes its cost again from
the points before each log-sum-exp pass of a log-domain sweep. The same
default solve at seed 3 (822 by 778) is timed and traced twice: as the first solve of a fresh thread, which
allocates the thread's cost buffer, and as a repeat solve in a thread that
holds it. ``fit_loop`` runs 10 back-to-back ``potd_fit`` calls of model I
at n=1600, p=10, r=2 in a fresh interpreter, reporting the median time and
minor page faults (``ru_minflt``) per fit, the interpreter's peak resident
set size (``ru_maxrss``; the interpreter is started by a small launcher
process, see ``COLD_LAUNCHER``) after them, and the peak bytes ``tracemalloc``
traces during one more fit, also in units of ``8 n m``, the bytes of one
float array of the fit's n-by-m class pair. Each timing is the best of a
few repeats. BLAS runs on one thread. ``knn_predict`` is timed at K=10 on
200 test against 200 training points (the shape of one ``bench-real``
split of the bundled blobs data), projected to r=2 and r=8 with two
labels, on a tie-heavy integer grid in the plane with three labels, and
on 1,600 against 1,600 points at r=2 with two labels (the shape of the
``large-auto`` benchmark's KNN step), each with its traced peak bytes.
``bench_real_round`` times one ``cli.main(["bench-real", ...])`` round on
the bundled blobs CSV (4 stratified replications, dims 2,4,6,8, K=10, one
worker, stdout captured) in a fresh interpreter, as a standalone
``potd bench-real`` runs it, reporting the median wall time and the median
minor page faults (``ru_minflt``) of ``REAL_ROUNDS`` rounds after a warm-up
round, and the calls that one round makes to ``knn_predict`` and to each
fit function the harness looks up (the public ``*_fit`` names and the
private per-split baseline fits ``_sir``, ``_save`` and ``_pca``).
``cold_start`` runs commands in fresh interpreters with the measured
``src`` on ``PYTHONPATH``: ``import potd``, ``potd gen`` of model I at
n=1600, p=10, a Sinkhorn ``potd fit`` of that CSV, a default ``potd fit``
of the bundled blobs CSV (its equal classes take the assignment path) and
a ``potd bench-real`` of 10 replications on it. Each gets the median wall
time and median peak resident set size (the child's ``ru_maxrss``, read by
a small launcher process) of 7 runs, and which of ``scipy``,
``scipy.optimize``, the two solver modules ``scipy.optimize._lsap`` and
``scipy.optimize._highspy._core`` and ``numpy.ma`` were loaded, read from
``sys.modules`` at the exit of one more run (``-X importtime`` does not
see the solver modules, which ``potd.ot`` loads from their files).

Every run appends one record, its rows plus provenance (git SHA of the
measured ``potd`` checkout, suffixed ``-dirty`` when it has uncommitted
changes, a hash of its sources, library versions, BLAS threads,
``os.cpu_count()``), to ``BENCH_kernels.json`` at the repository root. The
file is written with each record's provenance and each of its rows on a
line of its own, so that a new record adds one line per row to its diff.
To measure another checkout's library with this script, put its ``src``
first on ``PYTHONPATH``.

Usage:
    python benchmarks/bench_kernels.py
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

# single-threaded BLAS for steady timings; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import potd  # noqa: E402
from potd import cli, harness, ot  # noqa: E402
from potd.core import LabeledDataset, whiten  # noqa: E402
from potd.harness import knn_predict  # noqa: E402
from potd.ot import (  # noqa: E402
    DiscreteMeasure,
    exact_ot,
    pairwise_sqdist,
    sinkhorn_scaling,
    solve_coupling,
)
from potd.synthetic import SyntheticSpec, gen_model  # noqa: E402

REPEATS = 5
TABLE_CELLS = (("I", 10), ("III", 30))
TABLE_N = 400
TABLE_SEEDS = 12
ASSIGNMENT_SIZES = (100, 200, 400)
ASSIGNMENT_DRAWS = 12
LARGE_N = 1600
LARGE_SEEDS = 12
# the seed whose sign classes are 822 by 778
BUFFER_SEED = 3
FIT_LOOP_FITS = 10
REAL_ROUNDS = 15
# the harness attributes a bench-real round may call: the fits, then KNN
REAL_CALLS = ("potd_fit", "sir_fit", "save_fit", "pca_fit", "_sir", "_save", "_pca",
              "knn_predict")
COLD_RUNS = 7
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_kernels.json"
BLOBS_CSV = ROOT / "tests" / "data" / "blobs_n400_p10.csv"


def best_of(func, *args, repeats=REPEATS, setup=None):
    """Best time of ``func(*args)`` over ``repeats`` calls, each after an
    untimed ``setup()`` when one is given."""
    times = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


@contextlib.contextmanager
def wrapped(module, wrappers):
    """``module`` with each attribute ``name`` of ``wrappers`` replaced by
    ``wrappers[name](original)`` inside the block."""
    originals = {name: getattr(module, name) for name in wrappers}
    try:
        for name, wrap in wrappers.items():
            setattr(module, name, wrap(originals[name]))
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def counting(calls, name):
    """A wrapper for :func:`wrapped` that counts each call in ``calls[name]``."""
    def wrap(func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return counted

    return wrap


def traced_peak_bytes(func, *args):
    """Peak bytes ``tracemalloc`` traces during one call; numpy reports its
    data buffers to it."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_pairwise(rng):
    print("\npairwise squared distances (n x n, p=10)")
    print(f"{'n':>6} {'ms':>10} {'peak/8nm':>9}")
    rows = []
    for n in (200, 400, 800):
        x = rng.normal(size=(n, 10))
        y = rng.normal(size=(n, 10))
        ms = best_of(pairwise_sqdist, x, y) * 1e3
        peak = traced_peak_bytes(pairwise_sqdist, x, y)
        print(f"{n:>6} {ms:>10.3f} {peak / (8 * n * n):>9.3f}")
        rows.append({"bench": "pairwise_sqdist", "n": n, "p": 10, "ms": ms,
                     "peak_bytes": peak})
    return rows


def sinkhorn_workload(rng, n, eps_factor=0.01):
    x = rng.normal(size=(n, 10))
    y = rng.normal(size=(n, 10)) + 0.5
    cost = pairwise_sqdist(x, y)
    neg_cost = -cost / (eps_factor * cost.max())
    log_marg = np.log(np.full(n, 1.0 / n))
    return neg_cost, log_marg


def sweeps_and_omega(args):
    """Sweeps of one in-place ``sinkhorn_scaling(*args)`` solve and the
    omega of its last sweep, read off the kernel's schedule,
    ``ot._overrelaxation``. The solve's ``refill``, its last argument,
    first writes its work array."""
    omegas = [1.0]

    def recording(schedule):
        def recorded(history):
            omegas.append(schedule(history))
            return omegas[-1]

        return recorded

    args[-1]()
    with wrapped(ot, {"_overrelaxation": recording}):
        sweeps = sinkhorn_scaling(*args)[2]
    return sweeps, omegas[-1]


def bench_sinkhorn(rng):
    print("\nstabilized scaling to 1e-9 marginal error (n x n, eps = 0.01 max cost)")
    print(f"{'n':>6} {'sweeps':>7} {'omega':>6} {'ms':>10} {'ms/sweep':>10}")
    rows = []
    for n in (200, 400, 800):
        neg_cost, log_marg = sinkhorn_workload(rng, n)
        # the kernel and the plan take the work array, which refill() writes
        # back to the scaled cost
        work = np.empty_like(neg_cost)
        refill = functools.partial(np.copyto, work, neg_cost)
        args = (work, log_marg, log_marg, 100_000, 1e-9, None, None, refill)
        sweeps, omega = sweeps_and_omega(args)
        ms = best_of(sinkhorn_scaling, *args, setup=refill) * 1e3
        print(f"{n:>6} {sweeps:>7} {omega:>6.3f} {ms:>10.1f} {ms / max(sweeps, 1):>10.3f}")
        rows.append({"bench": "sinkhorn_scaling", "n": n, "sweeps": sweeps,
                     "final_omega": omega, "ms": ms})
    return rows


def bench_exact_lp(rng):
    print("\nexact coupling on uniform unequal splits (shortlist LP, p=10)")
    print(f"{'n x m':>9} {'ms':>10} {'nonzeros':>9}")
    rows = []
    for n, m in ((190, 210), (380, 420)):
        mu = DiscreteMeasure.uniform(rng.normal(size=(n, 10)))
        nu = DiscreteMeasure.uniform(rng.normal(size=(m, 10)) + 0.5)
        cost = pairwise_sqdist(mu.points, nu.points)
        nonzeros = int(np.count_nonzero(exact_ot(mu, nu, cost).plan))
        ms = best_of(exact_ot, mu, nu, cost) * 1e3
        print(f"{f'{n}x{m}':>9} {ms:>10.1f} {nonzeros:>9}")
        rows.append({"bench": "exact_ot_uniform", "n": n, "m": m, "p": 10,
                     "ms": ms, "nonzeros": nonzeros})
    return rows


def blob_classes(n, draw):
    """Whitened classes of two Gaussian blobs, n points each at p=10, as
    uniform measures."""
    rng = np.random.default_rng(np.random.SeedSequence([124, n, draw]))
    z, _ = whiten(np.vstack([rng.normal(size=(n, 10)), rng.normal(size=(n, 10)) + 1.0]))
    return DiscreteMeasure.uniform(z[:n]), DiscreteMeasure.uniform(z[n:])


def bare_assignment_plan(cost):
    n = cost.shape[0]
    plan = np.zeros((n, n))
    plan[ot.linear_sum_assignment(cost)] = 1.0 / n
    return plan


def bench_assignment():
    print(f"\nexact coupling on the assignment path (whitened two-blob classes, "
          f"p=10, {ASSIGNMENT_DRAWS} draws)")
    print(f"{'n x n':>9} {'ms':>8} {'bare ms':>8} {'equal':>6}")
    rows = []
    for n in ASSIGNMENT_SIZES:
        ms, bare_ms, equal = [], [], 0
        for draw in range(ASSIGNMENT_DRAWS):
            mu, nu = blob_classes(n, draw)
            cost = pairwise_sqdist(mu.points, nu.points)
            equal += bool(np.array_equal(exact_ot(mu, nu, cost).plan,
                                         bare_assignment_plan(cost)))
            ms.append(best_of(exact_ot, mu, nu, cost) * 1e3)
            bare_ms.append(best_of(ot.linear_sum_assignment, cost) * 1e3)
        print(f"{f'{n}x{n}':>9} {np.median(ms):>8.3f} {np.median(bare_ms):>8.3f} "
              f"{equal:>3}/{ASSIGNMENT_DRAWS}")
        rows.append({"bench": "exact_ot_assignment", "n": n, "p": 10,
                     "draws": ASSIGNMENT_DRAWS, "median_ms": float(np.median(ms)),
                     "median_bare_ms": float(np.median(bare_ms)),
                     "plans_equal_bare": equal, "ms": ms, "bare_ms": bare_ms})
    return rows


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def sign_classes(model, n, p, seed):
    """The whitened sign-label classes of one draw, as uniform measures."""
    data, _ = gen_model(SyntheticSpec(model, n, p, seed))
    z, _ = whiten(data.X)
    return DiscreteMeasure.uniform(z[data.y == 1]), DiscreteMeasure.uniform(z[data.y == -1])


def table_instances(model, p):
    """Whitened sign-label classes of the first seeds with unequal sizes."""
    seed = 0
    found = 0
    while found < TABLE_SEEDS:
        mu, nu = sign_classes(model, TABLE_N, p, seed)
        if mu.size != nu.size:
            found += 1
            yield seed, mu, nu
        seed += 1


def lp_work(mu, nu, cost):
    """Crash sweeps, HiGHS runs and simplex iterations of one solve.

    Counted on a stand-in model class and a wrapped crash kernel; HiGHS
    reports the iterations of each run, so they are summed.
    """
    iterations = []
    crash_sweeps = []

    def counting_highs(highs):
        class CountingHighs(highs):
            def run(self):
                status = super().run()
                iterations.append(self.getInfo().simplex_iteration_count)
                return status

        return CountingHighs

    def counting_crash(crash):
        def counted(*args):
            out = crash(*args)
            crash_sweeps.append(out[2])
            return out

        return counted

    with wrapped(ot, {"_Highs": counting_highs, "_crash_scaling": counting_crash}):
        exact_ot(mu, nu, cost)
    return sum(crash_sweeps), len(iterations), sum(iterations)


def bench_table_lp():
    print(f"\nexact coupling on table cells (whitened sign classes, n={TABLE_N}, "
          f"{TABLE_SEEDS} seeds)")
    print(f"{'cell':>7} {'ms':>8} {'crash':>6} {'runs':>5} {'iters':>7} {'minflt':>7} "
          f"{'seeds':>10}")
    rows = []
    for model, p in TABLE_CELLS:
        ms, crash, runs, iterations, faults, seeds = [], [], [], [], [], []
        for seed, mu, nu in table_instances(model, p):
            cost = pairwise_sqdist(mu.points, nu.points)
            crash_sweeps, solve_runs, solve_iterations = lp_work(mu, nu, cost)
            crash.append(crash_sweeps)
            runs.append(solve_runs)
            iterations.append(solve_iterations)
            # a solve with the library's own model class, so that the timed
            # ones repeat it
            exact_ot(mu, nu, cost)
            before = minflt()
            ms.append(best_of(exact_ot, mu, nu, cost, repeats=3) * 1e3)
            faults.append((minflt() - before) / 3)
            seeds.append(seed)
        cell = f"{model}-{p}"
        print(f"{cell:>7} {np.median(ms):>8.1f} {np.median(crash):>6.1f} "
              f"{np.median(runs):>5.1f} {np.median(iterations):>7.1f} "
              f"{np.median(faults):>7.1f} {seeds[0]:>4}..{seeds[-1]:<4}")
        rows.append({"bench": "exact_ot_table", "cell": cell, "n": TABLE_N,
                     "seeds": seeds, "median_ms": float(np.median(ms)),
                     "median_crash_sweeps": float(np.median(crash)),
                     "median_highs_runs": float(np.median(runs)),
                     "median_simplex_iterations": float(np.median(iterations)),
                     "median_minflt": float(np.median(faults)),
                     "ms": ms, "crash_sweeps": crash, "highs_runs": runs,
                     "simplex_iterations": iterations, "minflt": faults})
    return rows


def counted_solve(mu, nu, config):
    """Sweeps, log-sum-exp passes and distance matrices (``pairwise_sqdist``
    calls, by that name or by ``_rewrite_sqdist``) of one ``solve_coupling``."""
    calls = Counter()
    names = ("_log_sum_exp", "pairwise_sqdist", "_rewrite_sqdist")
    with wrapped(ot, {name: counting(calls, name) for name in names}):
        coupling = solve_coupling(mu, nu, config=config)
    return (coupling.iterations, calls["_log_sum_exp"],
            calls["pairwise_sqdist"] + calls["_rewrite_sqdist"])


def bench_large_coupling(bench, rule=None, epsilon=None):
    """The entropic solves at the large-auto shape, as rows ``bench``: at
    the default config, or in sinkhorn mode at ``epsilon(median cost)``,
    recorded as ``rule``, with the distance matrices each solve writes."""
    at = "" if rule is None else f", epsilon = {rule}"
    print(f"\nentropic coupling at the large-auto shape{at} (model I sign classes, "
          f"n={LARGE_N}, {LARGE_SEEDS} seeds)")
    print(f"{'ms':>8} {'sweeps':>7} {'lse':>5} {'sqdist':>7}")
    shapes, ms, sweeps, passes, writes = [], [], [], [], []
    for seed in range(LARGE_SEEDS):
        mu, nu = sign_classes("I", LARGE_N, 10, seed)
        config = None
        if epsilon is not None:
            median = float(np.median(pairwise_sqdist(mu.points, nu.points)))
            config = ot.SolverConfig(mode="sinkhorn", epsilon=epsilon(median))
        solve_sweeps, solve_passes, solve_writes = counted_solve(mu, nu, config)
        shapes.append([mu.size, nu.size])
        sweeps.append(solve_sweeps)
        passes.append(solve_passes)
        writes.append(solve_writes)
        ms.append(best_of(solve_coupling, mu, nu, None, config) * 1e3)
    print(f"{np.median(ms):>8.2f} {np.median(sweeps):>7.1f} {np.median(passes):>5.1f} "
          f"{np.median(writes):>7.1f}")
    # the default row records no epsilon and no distance matrices
    counted = rule is not None
    row = {"bench": bench, "model": "I", "n": LARGE_N, "p": 10, "epsilon": rule,
           "seeds": list(range(LARGE_SEEDS)), "median_ms": float(np.median(ms)),
           "median_sweeps": float(np.median(sweeps)),
           "median_log_sum_exp_passes": float(np.median(passes)),
           "median_pairwise_sqdist_calls": float(np.median(writes)) if counted else None,
           "shapes": shapes, "ms": ms, "sweeps": sweeps, "log_sum_exp_passes": passes,
           "pairwise_sqdist_calls": writes if counted else None}
    return [{key: value for key, value in row.items() if value is not None}]


def in_fresh_interpreter(bench):
    """The rows of ``bench``, a function of this script, run in a fresh
    interpreter; its printed table is printed here."""
    code = f"import json, bench_kernels; print(json.dumps(bench_kernels.{bench.__name__}()))"
    *table, rows = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), cwd=Path(__file__).resolve().parent,
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    print("\n".join(table))
    return json.loads(rows)


def in_fresh_thread(func):
    """``func()`` run in a new thread, which holds no cost buffer yet."""
    out = []
    thread = threading.Thread(target=lambda: out.append(func()))
    thread.start()
    thread.join()
    return out[0]


def bench_solve_buffers():
    mu, nu = sign_classes("I", LARGE_N, 10, BUFFER_SEED)
    n, m = mu.size, nu.size
    print(f"\nentropic solve_coupling, first and repeat solve of a thread "
          f"({n} x {m}, model I seed {BUFFER_SEED})")
    print(f"{'solve':>7} {'ms':>8} {'peak/8nm':>9}")
    rows = []
    # this thread's buffer is held from here on
    solve_coupling(mu, nu)
    for solve, run in (("first", in_fresh_thread), ("repeat", lambda func: func())):
        ms = min(run(lambda: best_of(solve_coupling, mu, nu, repeats=1))
                 for _ in range(REPEATS)) * 1e3
        peak = run(lambda: traced_peak_bytes(solve_coupling, mu, nu))
        print(f"{solve:>7} {ms:>8.2f} {peak / (8 * n * m):>9.3f}")
        rows.append({"bench": "solve_coupling_buffers", "solve": solve, "model": "I",
                     "seed": BUFFER_SEED, "n": n, "m": m, "ms": ms, "peak_bytes": peak})
    return rows


# Back-to-back fits in a fresh interpreter, whose allocator has not seen the
# large arrays of a benchmark run: minor page faults per fit count the n-by-m
# arrays that the allocator handed back to the operating system and that
# the next fit takes again.
FIT_LOOP = """
import json, os, resource, sys, time, tracemalloc
import numpy as np
from potd.core import potd_fit
from potd.synthetic import SyntheticSpec, gen_model
data, _ = gen_model(SyntheticSpec("I", int(sys.argv[1]), 10, 1))
out = []
for _ in range(int(sys.argv[2])):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    potd_fit(data, 2)
    out.append([time.perf_counter() - t0,
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults])
# ru_maxrss is in KB
maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
tracemalloc.start()
potd_fit(data, 2)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
n, m = np.unique(data.y, return_counts=True)[1].tolist()
print(json.dumps({"runs": out, "maxrss_mb": maxrss_mb, "peak_bytes": peak, "n": n, "m": m}))
"""


def bench_fit_loop():
    print(f"\n{FIT_LOOP_FITS} back-to-back potd_fit calls in a fresh interpreter "
          f"(model I, n={LARGE_N}, p=10, r=2)")
    # started from a bare interpreter, whose resident size its ru_maxrss
    # starts at, instead of from this process
    loop = json.loads(subprocess.run(
        [sys.executable, "-c", "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)",
         sys.executable, "-c", FIT_LOOP, str(LARGE_N), str(FIT_LOOP_FITS)],
        env=src_env(), capture_output=True, text=True, check=True,
    ).stdout)
    ms = [run[0] * 1e3 for run in loop["runs"]]
    faults = [run[1] for run in loop["runs"]]
    peak_nm = loop["peak_bytes"] / (8 * loop["n"] * loop["m"])
    print(f"{'ms/fit':>8} {'minflt/fit':>11} {'maxrss MB':>10} {'peak/8nm':>9}")
    print(f"{np.median(ms):>8.2f} {np.median(faults):>11.1f} {loop['maxrss_mb']:>10.1f} "
          f"{peak_nm:>9.3f}")
    return [{"bench": "fit_loop", "model": "I", "n": LARGE_N, "p": 10, "r": 2,
             "fits": FIT_LOOP_FITS, "median_ms": float(np.median(ms)),
             "median_minflt": float(np.median(faults)), "maxrss_mb": loop["maxrss_mb"],
             "class_sizes": [loop["n"], loop["m"]], "repeat_fit_peak_bytes": loop["peak_bytes"],
             "repeat_fit_peak_8nm": peak_nm, "ms": ms, "minflt": faults}]


def bench_knn(rng):
    print("\nKNN prediction (K=10)")
    print(f"{'points':>8} {'n':>5} {'r':>3} {'labels':>7} {'ms':>10} {'peak/8nm':>9}")
    rows = []
    for points, n, r, n_labels in (("normal", 200, 2, 2), ("normal", 200, 8, 2),
                                   ("grid", 200, 2, 3), ("normal", LARGE_N, 2, 2)):
        if points == "grid":
            # coordinates in -3..3: most rows tie at their K-th distance
            train_x = rng.integers(-3, 4, size=(n, r)).astype(np.float64)
            test_x = rng.integers(-3, 4, size=(n, r)).astype(np.float64)
        else:
            train_x = rng.normal(size=(n, r))
            test_x = rng.normal(size=(n, r))
        train = LabeledDataset(train_x, rng.integers(0, n_labels, size=n))
        ms = best_of(knn_predict, train, test_x, 10, repeats=20) * 1e3
        peak = traced_peak_bytes(knn_predict, train, test_x, 10)
        print(f"{points:>8} {n:>5} {r:>3} {n_labels:>7} {ms:>10.3f} "
              f"{peak / (8 * n * n):>9.3f}")
        rows.append({"bench": "knn_predict", "points": points, "n_train": n,
                     "n_test": n, "r": r, "labels": n_labels, "K": 10, "ms": ms,
                     "peak_bytes": peak})
    return rows


def bench_real_round():
    print(f"\nbench-real round in process (blobs CSV, 4 replications, dims 2,4,6,8, "
          f"median of {REAL_ROUNDS})")
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["bench-real", "--data", str(BLOBS_CSV), "--label-column", "label",
                "--methods", "POTD,SIR,SAVE,PCA", "--dims", "2,4,6,8", "--k", "10",
                "--test-fraction", "0.5", "--split", "stratified", "--replications", "4",
                "--workers", "1", "--output", str(Path(tmp) / "report.json")]

        def one_round():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"bench-real exited with {code}")

        calls = Counter({name: 0 for name in REAL_CALLS})
        with wrapped(harness, {name: counting(calls, name) for name in REAL_CALLS}):
            one_round()
        ms, faults = [], []
        for _ in range(REAL_ROUNDS):
            before = minflt()
            t0 = time.perf_counter()
            one_round()
            ms.append((time.perf_counter() - t0) * 1e3)
            faults.append(minflt() - before)
    knn = calls.pop("knn_predict")
    print(f"{'ms':>8} {'minflt':>7} {'knn':>5} {'fits':>5}")
    print(f"{np.median(ms):>8.2f} {np.median(faults):>7.1f} {knn:>5} "
          f"{sum(calls.values()):>5}  {calls}")
    return [{"bench": "bench_real_round", "replications": 4, "dims": [2, 4, 6, 8],
             "K": 10, "rounds": REAL_ROUNDS, "median_ms": float(np.median(ms)),
             "median_minflt": float(np.median(faults)), "knn_predict_calls": knn,
             "fit_calls": calls, "ms": ms, "minflt": faults}]


def cold_commands(tmp):
    """``(name, arguments after the interpreter)`` of each cold-start command."""
    data = str(tmp / "model1.csv")
    blobs = str(ROOT / "tests" / "data" / "blobs_n400_p10.csv")
    cli = ["-m", "potd.cli"]
    return [
        ("import potd", ["-c", "import potd"]),
        ("gen", cli + ["gen", "--model", "I", "--n", "1600", "--p", "10", "--dump", data]),
        ("fit sinkhorn", cli + ["fit", "--data", data, "--r", "2", "--solver", "sinkhorn",
                                "--output", str(tmp / "sinkhorn.csv")]),
        ("fit blobs", cli + ["fit", "--data", blobs, "--r", "2",
                             "--output", str(tmp / "blobs.csv")]),
        ("bench-real", cli + ["bench-real", "--data", blobs, "--replications", "10",
                              "--output", str(tmp / "report.json")]),
    ]


# Runs the timed interpreters from a small process of its own: a child's
# ru_maxrss starts at the resident size of the process that forked it, and
# this one holds numpy, scipy and the benchmark's arrays.
COLD_LAUNCHER = """
import json, os, subprocess, sys, time
argv, runs = json.loads(sys.argv[1]), int(sys.argv[2])
out = []
for _ in range(runs):
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    # wait4 reports the rusage of this child alone; ru_maxrss is in KB
    _, status, usage = os.wait4(proc.pid, 0)
    out.append([time.perf_counter() - t0, usage.ru_maxrss / 1024.0])
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{argv} exited with {proc.returncode}")
print(json.dumps(out))
"""


# Runs one cold-start command (``-c CODE`` or ``-m MODULE``, with its
# arguments) and writes which of the given modules were loaded at its exit.
LOADED_PROBE = """
import atexit, json, runpy, sys
names, out, (flag, target, *args) = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3:]

def record():
    with open(out, "w") as f:
        json.dump({name: name in sys.modules for name in names}, f)

atexit.register(record)
sys.argv = [flag if flag == "-c" else target, *args]
if flag == "-c":
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
else:
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""
COLD_MODULES = ("scipy", "scipy.optimize", "scipy.optimize._lsap",
                "scipy.optimize._highspy._core", "numpy.ma")


def src_env():
    """This environment with the measured ``src`` first on ``PYTHONPATH``."""
    src = str(Path(potd.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def bench_cold_start():
    env = src_env()
    print(f"\ncold start in fresh interpreters (median of {COLD_RUNS})")
    print(f"{'command':>14} {'s':>7} {'MB':>7}  loaded")
    commands = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in cold_commands(Path(tmp)):
            argv = json.dumps([sys.executable, *args])
            runs = json.loads(subprocess.run(
                [sys.executable, "-c", COLD_LAUNCHER, argv, str(COLD_RUNS)],
                env=env, cwd=tmp, capture_output=True, text=True, check=True,
            ).stdout)
            seconds, rss = [run[0] for run in runs], [run[1] for run in runs]
            probe_out = Path(tmp) / "loaded.json"
            subprocess.run(
                [sys.executable, "-c", LOADED_PROBE, json.dumps(COLD_MODULES), str(probe_out),
                 *args],
                env=env, cwd=tmp, capture_output=True, check=True,
            )
            loaded = json.loads(probe_out.read_text())
            print(f"{name:>14} {np.median(seconds):>7.3f} {np.median(rss):>7.1f}  "
                  f"{', '.join(n for n in COLD_MODULES if loaded[n]) or '-'}")
            shown = " ".join(args).replace(tmp, "<tmp>").replace(str(ROOT), "<repo>")
            commands.append({"command": name, "args": shown,
                             "median_s": float(np.median(seconds)),
                             "median_maxrss_mb": float(np.median(rss)),
                             "loaded": loaded, "s": seconds,
                             "maxrss_mb": rss})
    return [{"bench": "cold_start", "runs": COLD_RUNS, "commands": commands}]


def provenance():
    """Where the measured library comes from and what it ran on."""
    src = Path(potd.__file__).resolve().parent
    src_hash = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        src_hash.update(path.relative_to(src).as_posix().encode())
        src_hash.update(path.read_bytes())
    try:
        described = subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        described = None
    return {
        "git_sha": described,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def ledger_text(runs):
    """``{"runs": runs}`` as JSON text, with each record's provenance and
    each of its rows on a line of its own."""
    records = []
    for record in runs:
        rows = ",\n".join("  " + json.dumps(row) for row in record["rows"])
        records.append(f'{{"provenance": {json.dumps(record["provenance"])},\n'
                       f' "rows": [\n{rows}\n ]}}')
    return '{"runs": [\n' + ",\n".join(records) + "\n]}\n"


def main():
    rng = np.random.default_rng(np.random.SeedSequence([123]))
    rows = (bench_pairwise(rng) + bench_sinkhorn(rng) + bench_exact_lp(rng)
            + bench_assignment() + in_fresh_interpreter(bench_table_lp)
            + bench_large_coupling("solve_coupling")
            + bench_large_coupling("solve_coupling_small_eps", "median / 100",
                                   lambda median: median / 100)
            + bench_solve_buffers() + bench_fit_loop() + bench_knn(rng)
            + in_fresh_interpreter(bench_real_round) + bench_cold_start())
    record = {"provenance": provenance(), "rows": rows}
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else []
    OUT.write_text(ledger_text(runs + [record]))
    print(f"\nappended to {OUT.name}: {json.dumps(record['provenance'])}")


if __name__ == "__main__":
    main()
