"""Closed-loop benchmark of potd's fit pipeline.

    python3 potdbench/run.py --workload table-exact --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``. One
process runs one workload (see ``workloads.py``): each round starts after
the previous one returns, with ``workers=1`` and one BLAS thread. The
command prints a readable report, a provenance line and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, timed with one
``perf_counter`` pair per fit call:

- ``fit_p50_ms``: median wall time of one ``potd_fit``/``potd_fit_continuous`` call
- ``fit_tail_ms``: the 11th-largest fit time, i.e. the highest percentile
  with at least 10 samples beyond it (the report names the percentile);
  printed and recorded, not in the result line (see ``REPORT_ONLY``)
- ``reps_per_s``: replications per second, all methods, generation and scoring included
- ``setup_s``: median over three fresh interpreters of importing potd,
  building the inputs and the warm-up round
- ``peak_rss_mb``: peak resident set size of the benchmark process
- ``fit_ok_frac``: fits that succeeded over fits attempted, i.e. 1 - fail_frac
- ``potd_dist_mean``: mean POTD subspace distance (lower is better)
- ``potd_acc_mean``: mean POTD KNN accuracy (higher is better)

``--trace 1`` runs the loop with spans recorded around each layer's entry
points (``spans.py``) and reports per-layer metrics. Each quality round
also runs untraced just before its traced copy; those rounds give the
untraced numbers printed next to the per-layer ones, and the median paired
difference is the tracing overhead.

The warm-up round runs at a fixed seed and doubles as the output check:
every coupling's recomputed marginal error must be within its solver's
tolerance, and its quality must match ``reference.json``. A failed check
is named on stderr, the result line says ``"correct": false`` and the exit
code is 1. A record with provenance, checks and spans goes to
``potdbench/out/``.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

# single-threaded BLAS for steady timings; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# no bytecode caches in the checkout, so every set-up compiles the same way
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

REFERENCE_SEED = 20201020
REFERENCE_RTOL = 1e-6
EXACT_MARGINAL_TOL = 1e-10
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
# printed and recorded but left out of the result line: on real-knn the
# 11th-largest of ~1300 two-millisecond fits follows machine jitter, and its
# spread over seeds (0.22-0.27 of the median) exceeds any allowed bound
REPORT_ONLY = {"fit_tail_ms"}
WORKLOAD_NAMES = ("table-exact", "large-auto", "real-knn")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny sizes for the self-test (default: full)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up and the warm-up check


def setup(args):
    """Import potd, build the workload and run the warm-up round.

    Returns ``(workload, check, seconds)``; ``check`` holds the warm-up
    round's recomputed marginal errors and quality.
    """
    start = perf_counter()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](tiny=args.scale == "tiny")
    check = warmup_check(workload, spans, workloads)
    return workload, check, perf_counter() - start


def warmup_check(workload, spans, workloads):
    errors = []

    def recording(solve):
        def recorded(mu, nu, cost=None, config=None):
            coupling = solve(mu, nu, cost=cost, config=config)
            limit = marginal_limit(workload, coupling.dual_row is not None)
            errors.append((max(coupling.marginal_errors()), limit))
            return coupling

        return recorded

    timer = workloads.FitTimer()
    with spans.Patches() as patches:
        patches.replace("potd.core", "solve_coupling", recording)
        patches.replace("potd.harness", "potd_fit", timer.wrap)
        res = workload.run_round(REFERENCE_SEED, 0, timer, keep=True)
    workload.quality(res)
    return {"couplings": errors, "result": res}


def marginal_limit(workload, entropic):
    """Documented marginal tolerance: 1e-10 exact, the config's for Sinkhorn."""
    return workload.solver.marginal_tolerance if entropic else EXACT_MARGINAL_TOL


def setup_probe_times(args):
    """Set-up seconds of fresh interpreters running this file's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"]
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# the closed loop


def run_loop(workload, seed, seconds, timer):
    """Rounds until ``seconds`` have passed and the quality rounds are done."""
    results, walls = [], []
    start = perf_counter()
    index = 0
    while index < workload.quality_rounds or perf_counter() - start < seconds:
        t0 = perf_counter()
        results.append(workload.run_round(seed, index, timer, index < workload.quality_rounds))
        walls.append(perf_counter() - t0)
        index += 1
    return results, walls, perf_counter() - start


def run_traced(workload, seed, seconds, timer, tracer, spans):
    """Traced rounds for ``seconds``; each quality round also runs untraced.

    The untraced copy of round ``i`` runs next to the traced one on the same
    inputs, first on even rounds and second on odd ones (the second copy
    finds warm memory), so the paired differences give the tracing
    overhead without the machine's slow drift. Returns the untraced rounds,
    their walls and fit times, and the traced rounds and walls.
    """
    base, base_walls, base_ms, results, walls = [], [], [], [], []

    def untraced(i):
        before = len(timer.ms)
        t0 = perf_counter()
        base.append(workload.run_round(seed, i, timer, True))
        base_walls.append(perf_counter() - t0)
        base_ms.extend(timer.ms[before:])

    start = perf_counter()
    index = 0
    while index < workload.quality_rounds or perf_counter() - start < seconds:
        paired = index < workload.quality_rounds
        if paired and index % 2 == 0:
            untraced(index)
        with spans.Patches() as patches:
            tracer.install(patches)
            t0 = perf_counter()
            results.append(tracer.round_span(
                index, lambda i=index: workload.run_round(seed, i, timer, False)))
            walls.append(perf_counter() - t0)
        if paired and index % 2 == 1:
            untraced(index)
        index += 1
    return base, base_walls, base_ms, results, walls


def quality(workload, results):
    """Mean POTD distance and accuracy over the quality rounds."""
    dists, accs = [], []
    for res in results[: workload.quality_rounds]:
        workload.quality(res)
        dists += res.dists
        accs += res.accs
    return dists, accs


def tail(values):
    """The 11th-largest value and the percentile it stands for."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} fits (fewer than {TAIL_BEYOND + 1})"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], (
        f"p{pct:.1f}: {TAIL_BEYOND + 1}th largest of {n} fits"
    )


def end_to_end(workload, results, elapsed, fit_ms):
    reps = sum(r.reps for r in results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    dists, accs = quality(workload, results)
    tail_ms, tail_note = tail(fit_ms) if fit_ms else (float("nan"), "no fits")
    metrics = {
        "fit_p50_ms": (statistics.median(fit_ms) if fit_ms else float("nan"), "ms"),
        "fit_tail_ms": (tail_ms, "ms"),
        "reps_per_s": (reps / elapsed, "1/s"),
        "fit_ok_frac": (1.0 - failed / attempted if attempted else 0.0, "frac"),
        "potd_dist_mean": (statistics.fmean(dists) if dists else float("nan"), "dist"),
        "potd_acc_mean": (statistics.fmean(accs) if accs else float("nan"), "frac"),
    }
    notes = {
        "fit_tail_ms": tail_note,
        "fit_p50_ms": f"median of {len(fit_ms)} fits",
        "reps_per_s": f"{reps} replications in {elapsed:.3f} s",
        "fit_ok_frac": f"fail_frac = {failed}/{attempted}",
        "potd_dist_mean": f"{len(dists)} fits in the first {workload.quality_rounds} rounds",
        "potd_acc_mean": f"{len(accs)} scores in the first {workload.quality_rounds} rounds",
    }
    return metrics, notes, attempted, failed, dists, accs


# ---------------------------------------------------------------------------
# output checks


def check_outputs(scale, workload, warm, results, fit_ms, dists, accs, attempted, failed,
                  tracer=None, traced=()):
    """Named checks; returns ``{name: problem or None}``.

    ``results`` are the untraced rounds that ``fit_ms`` timed; ``traced``
    are the rounds run under ``tracer``.
    """
    checks = {}
    # recomputed from the warm-up plans; as reported by the solver when traced
    couplings = list(warm["couplings"])
    if tracer is not None:
        couplings += [
            (s[5]["marginal_error"], marginal_limit(workload, not s[5]["exact"]))
            for s in tracer.spans if s[0] == "ot.solve_coupling" and s[5]
        ]
    bad = [(err, limit) for err, limit in couplings if not err <= limit]
    checks["marginals"] = (
        "warm-up round solved no coupling" if not warm["couplings"]
        else f"{len(bad)} couplings above tolerance, worst (error, limit) {max(bad)}" if bad
        else None
    )

    checks["reference"] = reference_problem(scale, workload, warm["result"])

    problems = [p for r in (warm["result"], *results, *traced) for p in r.problems]
    if not 1 <= attempted or not 0 <= failed <= attempted:
        problems.append(f"fail_accounting: {failed} failed of {attempted} attempted")
    potd_ok = sum(r.potd_ok for r in results)
    if potd_ok != len(fit_ms):
        problems.append(f"fit_timing: {len(fit_ms)} timed fits for {potd_ok} POTD fits")
    checks["fail_accounting"] = "; ".join(problems) or None

    quality_ok = (
        len(results) >= workload.quality_rounds
        and dists and accs
        and all(0.0 <= d <= 2.0 + 1e-9 for d in dists)
        and all(0.0 <= a <= 1.0 for a in accs)
    )
    checks["quality_range"] = None if quality_ok else "quality values missing or out of range"
    return checks


def reference_problem(scale, workload, res):
    path = HERE / "reference.json"
    measured = {
        "potd_dist_mean": statistics.fmean(res.dists) if res.dists else float("nan"),
        "potd_acc_mean": statistics.fmean(res.accs) if res.accs else float("nan"),
    }
    try:
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)[scale][workload.name]
    except (OSError, KeyError, ValueError) as exc:
        return f"no reference for {scale}/{workload.name} ({exc}); measured {measured}"
    for key, value in measured.items():
        ref = recorded[key]
        if not abs(value - ref) <= REFERENCE_RTOL * abs(ref):
            return f"{key} = {value!r} at seed {REFERENCE_SEED}, recorded {ref!r}"
    return None


# ---------------------------------------------------------------------------
# provenance and reporting


def provenance(args, workload):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode())
        src_hash.update(path.read_bytes())
    kernels = sys.modules.get("potd.kernels")
    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": workload.sizes,
        "loop": "closed, one process, workers=1",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "potd_jit_enabled": getattr(kernels, "JIT_ENABLED", None),
    }


def git_sha():
    """HEAD of the repository this file belongs to, if it is a git checkout."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def blas_threads():
    """Thread counts reported by the OpenBLAS libraries loaded in this process."""
    import ctypes

    counts = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return counts
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(lib).name] = fn()
                break
    return counts


def peak_rss_mb():
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_table(title, metrics, notes=None):
    print(title)
    for name, (value, unit) in metrics.items():
        note = (notes or {}).get(name)
        print(f"  {name:44s} {value:>16.6g} {unit:6s}" + (f"  ({note})" if note else ""))


def write_record(args, record):
    HERE.joinpath("out").mkdir(exist_ok=True)
    path = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    # SIR clamps r to k-1 on binary labels by design; keep stderr for problems
    warnings.filterwarnings("ignore", message="SIR can estimate", category=UserWarning)
    try:
        workload, warm, setup_s = setup(args)
    except (ImportError, FileNotFoundError) as exc:
        print(f"potdbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workload, warm, setup_s)
    finally:
        if hasattr(workload, "close"):
            workload.close()


def measure(args, workload, warm, setup_s):
    import spans
    import workloads

    timer = workloads.FitTimer()
    tracer = spans.Tracer() if args.trace else None
    with spans.Patches() as patches:
        patches.replace("potd.harness", "potd_fit", timer.wrap)
        if args.trace:
            base, base_walls, fit_ms, results, walls = run_traced(
                workload, args.seed, args.seconds, timer, tracer, spans)
        else:
            results, walls, elapsed = run_loop(workload, args.seed, args.seconds, timer)
            fit_ms = timer.ms

    if args.trace:
        e2e, notes, attempted, failed, dists, accs = end_to_end(
            workload, base, sum(base_walls), fit_ms)
        paired = [t - b for t, b in zip(walls, base_walls)]
        overhead_ms = 1e3 * statistics.median(paired)
        metrics = spans.layer_metrics(tracer, len(results), workload.quality_rounds)
        metrics["trace.overhead_ms"] = (overhead_ms, "ms/round")
        metrics["trace.overhead_frac"] = (
            overhead_ms / (1e3 * statistics.median(base_walls)), "frac")
        # bottom-up estimate, for when the paired difference is within noise
        cost_s = spans.span_cost_s()
        metrics["trace.span_cost_us"] = (1e6 * cost_s, "us")
        metrics["trace.overhead_est_frac"] = (
            cost_s * len(tracer.spans) / sum(walls), "frac")
        checks = check_outputs(args.scale, workload, warm, base, fit_ms, dists, accs, attempted,
                               failed, tracer, results)
        attempted += sum(r.attempted for r in results)
        failed += sum(r.failed for r in results)
        print_table(f"untraced end-to-end, {args.workload}, first {len(base)} rounds",
                    e2e, notes)
        print_table(f"per-layer, {args.workload}, {len(results)} traced rounds in "
                    f"{sum(walls):.3f} s (overhead: median of {len(paired)} paired rounds)",
                    metrics)
        if tracer.sites_missing:
            print("  trace sites missing: " + ", ".join(tracer.sites_missing))
    else:
        metrics, notes, attempted, failed, dists, accs = end_to_end(
            workload, results, elapsed, fit_ms)
        metrics["setup_s"] = (statistics.median([setup_s, *setup_probe_times(args)]), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        checks = check_outputs(args.scale, workload, warm, results, fit_ms, dists, accs, attempted,
                               failed)
        print_table(f"end-to-end, {args.workload}, {len(results)} rounds", metrics, notes)

    failed_checks = {k: v for k, v in checks.items() if v is not None}
    prov = provenance(args, workload)
    record = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "checks": checks,
        "rounds": len(results),
        "round_wall_s": walls,
        "fit_ms": fit_ms,
    }
    if tracer is not None:
        record["spans"] = [s[:5] for s in tracer.spans]
    path = write_record(args, record)
    print("checks: " + ", ".join(f"{k}={'ok' if v is None else 'FAILED'}" for k, v in checks.items()))
    print("provenance: " + json.dumps(prov, sort_keys=True, default=str))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in REPORT_ONLY},
    }))
    for name, problem in failed_checks.items():
        print(f"potdbench: check {name} failed: {problem}", file=sys.stderr)
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
