"""Command-line front end.

Commands: ``fit``, ``embed``, ``gen``, ``bench-synthetic``, ``bench-real``
and ``oracle-check``. Exit codes: 0 on success, 1 on numeric or internal
failure, 2 on usage or input errors. Every command is deterministic for
fixed flags and seed; timestamps appear only in ``.meta.json`` sidecars
or the report ``meta`` block. A JSON file passed via ``--config``
overrides the parsed flags (keys are flag names with underscores; values
are converted and checked as the flag's text would be).
"""

import argparse
import itertools
import json
import logging
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import LabeledDataset, potd_fit, project
from .errors import (
    DatasetError,
    DegenerateInputError,
    InvalidInputError,
    PotdError,
)
from .harness import (
    METHODS,
    SplitConfig,
    fit_method,
    load_csv_dataset,
    run_real_benchmark,
    run_synthetic_benchmark,
    save_csv_dataset,
    write_json_file,
    write_numeric_csv,
)
from .ot import (
    SOLVER_MODES,
    DiscreteMeasure,
    SolverConfig,
    exact_ot,
    sinkhorn,
    squared_euclidean_cost,
    transport_cost,
)
from .synthetic import (
    MODELS,
    STANDARDIZE_MODES,
    SyntheticSpec,
    gen_cshape,
    gen_model,
    gen_svm3d,
    make_rng,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

_USAGE_ERRORS = (
    InvalidInputError,
    DegenerateInputError,
    DatasetError,
    FileNotFoundError,
    json.JSONDecodeError,
)


def _error_kind(exc):
    """The exception's class name without ``Error``, hyphenated and lower-case.

    Words split where a lower-case letter or digit meets a capital and at
    the end of an acronym, so ``JSONDecodeError`` gives ``json-decode``.
    """
    name = type(exc).__name__.removesuffix("Error")
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "-", name).lower()


def _print_error(exc):
    message = str(exc).replace("\n", " ")
    print(f"potd: error: {_error_kind(exc)}: {message}", file=sys.stderr)


def _csv_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _label_column(value):
    try:
        return int(value)
    except ValueError:
        return value


def _resolved_config(args):
    skip = {"func", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value
    return out


def _config_value(action, key, value):
    """A ``--config`` value converted and checked as the flag's text would be.

    Lists are joined with commas, as the list flags are written; on/off
    flags take JSON booleans, and flags without a default take null unless
    they are required.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise InvalidInputError(f"config key {key!r} must be true or false")
        return value
    if value is None and action.required:
        raise InvalidInputError(f"config key {key!r} cannot be null")
    if value is None and action.default is None:
        return None
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        value = action.type(text) if action.type else text
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise InvalidInputError(f"config key {key!r} has invalid value {text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise InvalidInputError(
            f"config key {key!r} has invalid choice {value!r}; "
            f"choose from {', '.join(map(str, action.choices))}"
        )
    return value


def _apply_config_file(parser, args):
    if not getattr(args, "config", None):
        return
    with open(args.config, encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise InvalidInputError("config file must contain a JSON object")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {
        a.dest: a for p in (parser, commands.choices[args.command]) for a in p._actions
    }
    known = vars(args)
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr not in known or attr in ("func", "config"):
            raise InvalidInputError(f"unknown config key {key!r}")
        if attr == "command":
            # sidecars record the command; a config fed back must name this one
            if value != args.command:
                raise InvalidInputError(
                    f"config key {key!r} is {value!r} but the command is {args.command!r}"
                )
            continue
        setattr(args, attr, _config_value(actions[attr], key, value))


def _write_meta(path, args, **extra):
    meta = {
        "tool": "potd",
        "version": __version__,
        "config": _resolved_config(args),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        **extra,
    }
    write_json_file(path, meta)


def _solver_from_args(args):
    return SolverConfig(
        mode=args.solver,
        epsilon=args.epsilon,
        max_iterations=args.max_iterations,
        marginal_tolerance=args.marginal_tolerance,
    )


def _add_solver_flags(parser):
    parser.add_argument(
        "--solver",
        choices=SOLVER_MODES,
        default=SolverConfig.mode,
        help="coupling solver; auto picks exact below the size limit (default: %(default)s)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=SolverConfig.epsilon,
        help="entropic regularization; default is 0.05 x median cost",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=SolverConfig.max_iterations,
        help="scaling iteration budget (default: %(default)s)",
    )
    parser.add_argument(
        "--marginal-tolerance",
        type=float,
        default=SolverConfig.marginal_tolerance,
        help="L1 marginal tolerance for the regularized solver (default: %(default)s)",
    )


def _add_common_flags(parser):
    parser.add_argument("--seed", type=int, default=42, help="RNG seed (default: 42)")
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file whose keys override the given flags",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="warning",
        help="logging verbosity (default: warning)",
    )


def _add_dataset_flags(parser):
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument(
        "--label-column",
        type=_label_column,
        default="label",
        help="label column name or 0-based index (default: label)",
    )
    parser.add_argument(
        "--delimiter", default=",", help="CSV field delimiter (default: ,)"
    )


def _add_bench_flags(parser):
    """The flags that ``bench-synthetic`` and ``bench-real`` share."""
    parser.add_argument(
        "--methods",
        type=_csv_list,
        default=list(METHODS),
        help="comma-separated methods (default: POTD,SIR,SAVE,PCA)",
    )
    parser.add_argument(
        "--replications", type=int, default=100, help="replications (default: 100)"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; capped by POTD_MAX_THREADS (default: 1)",
    )
    _add_solver_flags(parser)
    parser.add_argument("--output", required=True, help="JSON report output path")
    parser.add_argument("--csv", default=None, help="optional aggregate CSV output path")
    _add_common_flags(parser)


# ---------------------------------------------------------------------------
# fit


def _cmd_fit(args):
    data = load_csv_dataset(args.data, args.label_column, args.delimiter)
    solver = _solver_from_args(args)
    basis = potd_fit(data, args.r, solver=solver, whiten_flag=args.whiten)
    write_numeric_csv(args.output, [f"v{j + 1}" for j in range(basis.dim)], basis.vectors)
    sv_path = f"{args.output}.singular_values.csv"
    write_numeric_csv(sv_path, ["singular_value"], basis.singular_values[:, None])
    _write_meta(f"{args.output}.meta.json", args, singular_values_path=sv_path)
    print(f"wrote basis ({basis.ambient_dim} x {basis.dim}) to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# embed


def _cmd_embed(args):
    data = load_csv_dataset(args.data, args.label_column, args.delimiter)
    solver = _solver_from_args(args)
    basis = fit_method(args.method, data, args.r, solver=solver)
    coords = project(data.X, basis)
    write_numeric_csv(args.output, [f"z{j + 1}" for j in range(basis.dim)], coords, data.y)
    _write_meta(f"{args.output}.meta.json", args, effective_r=int(basis.dim))
    print(f"wrote {coords.shape[0]} x {coords.shape[1]} embedding to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args):
    if args.model in MODELS:
        spec = SyntheticSpec(
            model=args.model,
            n=args.n,
            p=args.p,
            seed=args.seed,
            noise_scale=args.noise_scale,
        )
        data, _ = gen_model(spec)
    elif args.model == "cshape":
        data, _ = gen_cshape(args.n_per_class, args.seed, standardize=args.standardize)
    else:
        data, _ = gen_svm3d(args.n_per_class, args.seed)
    save_csv_dataset(data, args.dump)
    _write_meta(f"{args.dump}.meta.json", args)
    print(f"wrote {data.n} x {data.p} dataset to {args.dump}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmarks


def _write_report(args, report, title):
    meta = {
        "cli_config": _resolved_config(args),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    report.write_json(args.output, meta=meta)
    if args.csv:
        report.write_csv(args.csv)
    print(f"wrote {title} ({len(report.rows)} rows) to {args.output}")
    return EXIT_OK


def _cmd_bench_synthetic(args):
    solver = _solver_from_args(args)
    report = run_synthetic_benchmark(
        models=args.models,
        p_values=args.p_values,
        methods=args.methods,
        n=args.n,
        replications=args.replications,
        seed=args.seed,
        solver=solver,
        noise_scale=args.noise_scale,
        workers=args.workers,
    )
    return _write_report(args, report, "synthetic benchmark")


def _cmd_bench_real(args):
    if args.setting is None:
        args.setting = os.path.splitext(os.path.basename(args.data))[0]
    data = load_csv_dataset(args.data, args.label_column, args.delimiter)
    solver = _solver_from_args(args)
    split = SplitConfig(
        test_fraction=args.test_fraction,
        replications=args.replications,
        seed=args.seed,
        stratified=(args.split == "stratified"),
    )
    report = run_real_benchmark(
        data,
        methods=args.methods,
        dims=args.dims,
        split=split,
        K=args.k,
        solver=solver,
        setting=args.setting,
        workers=args.workers,
    )
    return _write_report(args, report, "real-data benchmark")


# ---------------------------------------------------------------------------
# oracle check


def _permutation_minimum(cost):
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n)) / n
        if total < best:
            best = total
    return best


def _fixed(value):
    """``value`` in fixed point at a resolution of 1e-9, never as ``-0``.

    Gaps and marginal errors at rounding level print as zero, so a rounding
    change in a solver does not change the output.
    """
    return f"{round(value, 9) + 0.0:.9f}"


def _cmd_oracle_check(args):
    if args.size > 16:
        raise InvalidInputError(f"size must be <= 16, got {args.size}")
    if args.size < 2:
        raise InvalidInputError("size must be >= 2")
    grid = sorted((float(e) for e in args.epsilon_grid), reverse=True)
    if not grid or grid[-1] <= 0:
        raise InvalidInputError("epsilon grid must contain positive factors")
    violations = []

    # exact solver against brute-force assignment enumeration
    for n in range(2, min(args.size, 7) + 1):
        rng = make_rng(args.seed, n)
        mu = DiscreteMeasure.uniform(rng.normal(size=(n, 3)))
        nu = DiscreteMeasure.uniform(rng.normal(size=(n, 3)) + 0.5)
        cost = squared_euclidean_cost(mu.points, nu.points)
        coupling = exact_ot(mu, nu, cost)
        exact_cost = transport_cost(coupling, cost)
        brute = _permutation_minimum(cost)
        gap = abs(exact_cost - brute)
        marker = ""
        if gap > 1e-9:
            violations.append(f"permutation oracle n={n} seed={args.seed} gap={gap:.3e}")
            marker = "  <-- VIOLATION"
        print(f"exact vs enumeration  n={n}: gap/max={_fixed(gap / cost.max())}{marker}")

    # regularized solver against the exact cost on one fixed instance
    rng = make_rng(args.seed, 1000 + args.size)
    mu = DiscreteMeasure.uniform(rng.normal(size=(args.size, 3)))
    nu = DiscreteMeasure.uniform(rng.normal(size=(args.size, 3)) + 0.5)
    cost = squared_euclidean_cost(mu.points, nu.points)
    exact_cost = transport_cost(exact_ot(mu, nu, cost), cost)
    max_cost = float(cost.max())
    print(f"instance size={args.size}: exact cost={exact_cost:.6f}")
    print(f"{'eps/max(cost)':>14} {'cost':>12} {'gap/max':>12} {'rel gap':>9} "
          f"{'iters':>7} {'marg err':>12}")
    prev_gap = np.inf
    last_rel = np.inf
    slack = 1e-9 + 1e-6 * abs(exact_cost)
    init = None
    for factor in grid:
        config = SolverConfig(
            mode="sinkhorn",
            epsilon=factor * max_cost,
            max_iterations=args.max_iterations,
            marginal_tolerance=args.marginal_tolerance,
        )
        # warm-start each solve from the previous (larger-epsilon) duals
        coupling = sinkhorn(mu, nu, cost, config, init=init)
        init = (coupling.dual_row, coupling.dual_col)
        cost_s = transport_cost(coupling, cost)
        gap = cost_s - exact_cost
        rel = gap / exact_cost if exact_cost > 0 else 0.0
        marker = ""
        if gap < -slack:
            violations.append(
                f"dominance violated at eps factor {factor} seed={args.seed}"
            )
            marker = "  <-- VIOLATION"
        if gap > prev_gap + slack:
            violations.append(
                f"gap not nonincreasing at eps factor {factor} seed={args.seed}"
            )
            marker = "  <-- VIOLATION"
        prev_gap = gap
        last_rel = rel
        print(
            f"{factor:>14.6f} {cost_s:>12.6f} {_fixed(gap / max_cost):>12} {rel:>9.2%} "
            f"{coupling.iterations:>7d} {_fixed(coupling.marginal_error):>12}{marker}"
        )
    if last_rel > 0.01:
        violations.append(
            f"final gap {last_rel:.2%} above 1% at smallest epsilon seed={args.seed}"
        )
    if violations:
        for line in violations:
            print(f"oracle violation: {line}", file=sys.stderr)
        return EXIT_INTERNAL
    print("oracle check passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="potd",
        description=(
            "Supervised linear dimension reduction via optimal-transport "
            "displacement directions, with baselines and benchmarks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"potd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the transport-displacement basis")
    _add_dataset_flags(p_fit)
    p_fit.add_argument("--r", type=int, required=True, help="number of directions to keep")
    p_fit.add_argument(
        "--whiten",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="whiten predictors before fitting (default: on)",
    )
    _add_solver_flags(p_fit)
    p_fit.add_argument("--output", required=True, help="basis CSV output path")
    _add_common_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_embed = sub.add_parser("embed", help="project a dataset onto a fitted basis")
    _add_dataset_flags(p_embed)
    p_embed.add_argument(
        "--method",
        required=True,
        choices=METHODS,
        help="reduction method",
    )
    p_embed.add_argument("--r", type=int, required=True, help="embedding dimension")
    _add_solver_flags(p_embed)
    p_embed.add_argument("--output", required=True, help="embedding CSV output path")
    _add_common_flags(p_embed)
    p_embed.set_defaults(func=_cmd_embed)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset as CSV")
    p_gen.add_argument(
        "--model",
        required=True,
        choices=list(MODELS) + ["cshape", "svm3d"],
        help="generator to draw from",
    )
    p_gen.add_argument("--n", type=int, default=400, help="sample size (default: 400)")
    p_gen.add_argument("--p", type=int, default=10, help="ambient dimension (default: 10)")
    p_gen.add_argument(
        "--n-per-class",
        type=int,
        default=300,
        help="per-class size for cshape/svm3d (default: 300)",
    )
    p_gen.add_argument(
        "--noise-scale",
        type=float,
        default=0.2,
        help="label-noise scale for the sign models (default: 0.2)",
    )
    p_gen.add_argument(
        "--standardize",
        choices=STANDARDIZE_MODES,
        default="per-class",
        help="cshape standardization (default: %(default)s)",
    )
    p_gen.add_argument("--dump", required=True, help="CSV output path")
    _add_common_flags(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_bs = sub.add_parser(
        "bench-synthetic", help="subspace-distance benchmark on synthetic models"
    )
    p_bs.add_argument(
        "--models",
        type=_csv_list,
        default=list(MODELS),
        help="comma-separated models (default: I,II,III,IV)",
    )
    p_bs.add_argument(
        "--p-values",
        type=lambda s: [int(v) for v in _csv_list(s)],
        default=[10],
        help="comma-separated ambient dimensions (default: 10)",
    )
    p_bs.add_argument("--n", type=int, default=400, help="sample size (default: 400)")
    p_bs.add_argument(
        "--noise-scale", type=float, default=0.2, help="label-noise scale (default: 0.2)"
    )
    _add_bench_flags(p_bs)
    p_bs.set_defaults(func=_cmd_bench_synthetic)

    p_br = sub.add_parser(
        "bench-real", help="paired-split KNN accuracy benchmark on a CSV dataset"
    )
    _add_dataset_flags(p_br)
    p_br.add_argument(
        "--dims",
        type=lambda s: [int(v) for v in _csv_list(s)],
        default=[2, 4, 6, 8, 10],
        help="comma-separated structure dimensions (default: 2,4,6,8,10)",
    )
    p_br.add_argument("--k", type=int, default=10, help="KNN neighbors (default: 10)")
    p_br.add_argument(
        "--test-fraction",
        type=float,
        default=0.5,
        help="test split fraction (default: 0.5)",
    )
    p_br.add_argument(
        "--split",
        choices=["stratified", "random"],
        default="stratified",
        help="splitting scheme (default: stratified)",
    )
    p_br.add_argument(
        "--setting",
        default=None,
        help="setting name recorded in the report (default: data file stem)",
    )
    _add_bench_flags(p_br)
    p_br.set_defaults(func=_cmd_bench_real)

    p_oc = sub.add_parser(
        "oracle-check", help="verify the coupling solvers against enumeration"
    )
    p_oc.add_argument(
        "--size", type=int, default=7, help="instance size, at most 16 (default: 7)"
    )
    p_oc.add_argument(
        "--epsilon-grid",
        type=lambda s: [float(v) for v in _csv_list(s)],
        default=[0.5, 0.1, 0.02, 0.004, 0.002, 0.001],
        help="epsilon factors relative to max cost (default: 0.5,...,0.001)",
    )
    p_oc.add_argument(
        "--max-iterations",
        type=int,
        default=200_000,
        help="scaling iteration budget (default: 200000)",
    )
    p_oc.add_argument(
        "--marginal-tolerance",
        type=float,
        default=1e-6,
        help=(
            "L1 marginal tolerance for the regularized sweep; the cost-gap "
            "check needs far less marginal precision than the solver "
            "default (default: 1e-6)"
        ),
    )
    _add_common_flags(p_oc)
    p_oc.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else int(exc.code)
    try:
        _apply_config_file(parser, args)
        logging.basicConfig(level=getattr(logging, args.log_level.upper()))
        return args.func(args)
    except _USAGE_ERRORS as exc:
        _print_error(exc)
        return EXIT_USAGE
    except (PotdError, np.linalg.LinAlgError) as exc:
        _print_error(exc)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive catch-all
        logger.debug("unexpected failure", exc_info=True)
        _print_error(exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
