"""Dataset ingestion, splitting, KNN scoring and benchmark orchestration.

Benchmarks are paired: within one replication every method sees the same
generated dataset (synthetic) or the same train/test partition (real).
Each replication draws its randomness from an independent stream derived
from the base seed and the replication index, so runs are reproducible
and order-independent under worker parallelism.
"""

import csv
import json
import logging
import os
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .baselines import _pca, _save, _sir, pca_fit, save_fit, sir_fit
from .core import LabeledDataset, _distinct, potd_fit, project
from .errors import (
    DatasetParseError,
    DatasetSchemaError,
    DegenerateInputError,
    InvalidInputError,
    PotdError,
)
from .ot import _SOLVER_MODULES, _buffer, _load_solvers, _row_blocks, pairwise_sqdist
from .synthetic import (
    MODELS,
    SyntheticSpec,
    gen_model,
    make_rng,
    seed_sequence,
    subspace_distance,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
# label cells read as missing values (compared case-insensitively)
MISSING_LABELS = ("", "nan")
# the benchmark methods, in report order; fit_method dispatches on them
METHODS = ("POTD", "SIR", "SAVE", "PCA")

CSV_COLUMNS = (
    "schema_version",
    "method",
    "setting",
    "r",
    "effective_r",
    "metric_kind",
    "mean",
    "sd",
    "reps",
)


@dataclass(frozen=True)
class SplitConfig:
    """Train/test splitting protocol for real-data benchmarks."""

    test_fraction: float = 0.5
    replications: int = 100
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise InvalidInputError("test_fraction must be in (0, 1)")
        if self.replications < 1:
            raise InvalidInputError("replications must be >= 1")


@dataclass
class ReportRow:
    """One (method, setting, dimension) cell of a benchmark."""

    method: str
    setting: str
    r: int
    effective_r: int
    metric_kind: str
    mean: float | None
    sd: float | None
    replications: int
    values: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)


@dataclass
class BenchmarkReport:
    """Aggregated benchmark results plus the per-replication raw values."""

    kind: str
    rows: list
    config: dict

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config": self.config,
            "rows": [asdict(row) for row in self.rows],
        }

    def write_json(self, path, meta=None):
        payload = self.to_dict()
        if meta:
            payload["meta"] = meta
        write_json_file(path, payload)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow(
                    [
                        SCHEMA_VERSION,
                        row.method,
                        row.setting,
                        row.r,
                        row.effective_r,
                        row.metric_kind,
                        "" if row.mean is None else repr(row.mean),
                        "" if row.sd is None else repr(row.sd),
                        row.replications,
                    ]
                )


def _check_known(kind, names, valid):
    for name in names:
        if name not in valid:
            raise InvalidInputError(
                f"unknown {kind} {name!r}; valid {kind}s: {', '.join(valid)}"
            )


def _entries(name, values, convert=None):
    """``values`` as a list, each entry passed through ``convert`` if given.

    An empty list, or one that repeats an entry (after ``convert``), raises
    :class:`InvalidInputError`: a repeated entry would be fitted and
    reported twice.
    """
    values = list(values)
    if not values:
        raise InvalidInputError(f"no {name} given")
    if convert is not None:
        values = [convert(value) for value in values]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise InvalidInputError(f"{name} repeats {value!r}")
    return values


def _report_row(results, method, setting, r, metric_kind):
    """Aggregate one cell over the per-replication ``results[rep][(method, r)]``.

    Each entry is ``(status, payload, effective_r)``; failed replications
    are kept by index and left out of the mean and sd.
    """
    values, failures = [], {}
    effective_r = r
    for rep, res in enumerate(results):
        status, payload, r_eff = res[(method, r)]
        if status == "ok":
            values.append(payload)
            effective_r = r_eff
        else:
            failures[rep] = payload
    mean = sd = None
    if values:
        arr = np.asarray(values, dtype=np.float64)
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return ReportRow(
        method=method,
        setting=setting,
        r=r,
        effective_r=effective_r,
        metric_kind=metric_kind,
        mean=mean,
        sd=sd,
        replications=len(results),
        values=values,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# CSV ingestion / dumping


def load_csv_dataset(path, label_column, delimiter=","):
    """Read a header-first CSV into a LabeledDataset.

    ``label_column`` selects the response by header name (str) or 0-based
    position (int); every other column must be numeric. An empty or
    ``nan`` label is a missing value and raises :class:`DatasetParseError`.
    Error coordinates are 1-based, counting data rows below the header.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"dataset not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetSchemaError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if isinstance(label_column, int):
            if not 0 <= label_column < len(header):
                raise DatasetSchemaError(
                    f"{path}: label column index {label_column} out of range "
                    f"for {len(header)} columns"
                )
            label_idx = label_column
        else:
            if label_column not in header:
                raise DatasetSchemaError(
                    f"{path}: label column {label_column!r} not found; "
                    f"columns are {header}"
                )
            label_idx = header.index(label_column)
        if len(header) < 2:
            raise DatasetSchemaError(f"{path}: no predictor column besides the label column")
        features, labels = [], []
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetSchemaError(
                    f"{path}: row {row_num} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            feats = []
            for col_num, cell in enumerate(row, start=1):
                if col_num - 1 == label_idx:
                    if cell.strip().lower() in MISSING_LABELS:
                        raise DatasetParseError(
                            f"{path}: missing label {cell!r} at row {row_num}, "
                            f"column {col_num}",
                            row=row_num,
                            column=col_num,
                        )
                    labels.append(cell.strip())
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise DatasetParseError(
                        f"{path}: non-numeric cell {cell!r} at row {row_num}, "
                        f"column {col_num}",
                        row=row_num,
                        column=col_num,
                    ) from None
            features.append(feats)
    if not features:
        raise DatasetSchemaError(f"{path}: no data rows")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if _distinct(y).shape[0] < 2:
        raise DegenerateInputError(f"{path}: all rows share a single class")
    dataset = LabeledDataset(X, y)
    logger.info(
        "loaded %s: %d rows, %d features, classes %s",
        path,
        dataset.n,
        dataset.p,
        dataset.class_counts(),
    )
    return dataset


def write_numeric_csv(path, header, rows, labels=None):
    """Write ``rows`` of numbers under ``header`` as ``repr(float(v))`` cells,
    which read back to the same floats; ``labels`` fill a last ``label`` column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header) + ([] if labels is None else ["label"]))
        for i, row in enumerate(rows):
            cells = [repr(float(v)) for v in row]
            writer.writerow(cells if labels is None else cells + [labels[i]])


def write_json_file(path, payload):
    """Write ``payload`` as JSON indented by 2, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def save_csv_dataset(dataset, path):
    """Write a LabeledDataset, comma-separated, in the schema load_csv_dataset
    reads."""
    write_numeric_csv(path, [f"x{j + 1}" for j in range(dataset.p)], dataset.X, dataset.y)


# ---------------------------------------------------------------------------
# KNN classification


def knn_predict(train, test_points, K):
    """Majority vote among the K nearest training points.

    Deterministic tie handling: equal distances prefer the lower training
    row index, tied votes prefer the smallest class label. K outside
    ``[1, train.n]``, a test matrix without rows, non-finite test points
    and squared distances that overflow raise :class:`InvalidInputError`.

    Distances are computed one row block of test points at a time, about
    ``SWEEP_BLOCK_BYTES`` of them (see :func:`potd.ot.pairwise_sqdist`), so
    no test-by-train array exists: the overflow check, the K-th distances,
    the tie-break and the votes are taken per block, and the votes are
    integer counts per label. A block's distances and the copy partitioned
    for its K-th distances live in the two halves of this thread's
    ``"cost"`` buffer and its candidate mask in ``"flags"`` (see
    :func:`potd.ot._buffer`), so a repeat call allocates no array of a
    block's size.
    """
    if K < 1:
        raise InvalidInputError("K must be >= 1")
    if K > train.n:
        raise InvalidInputError(f"K={K} exceeds training size {train.n}")
    test_points = np.asarray(test_points, dtype=np.float64)
    if test_points.ndim != 2 or test_points.shape[1] != train.p:
        raise InvalidInputError(
            f"test points must be a matrix with {train.p} columns"
        )
    if test_points.shape[0] == 0:
        raise InvalidInputError("no test points to classify")
    if not np.all(np.isfinite(test_points)):
        raise InvalidInputError("test points contain non-finite entries")
    labels, codes = np.unique(train.y, return_inverse=True)
    n_test, n_train = test_points.shape[0], train.n
    n_labels = labels.shape[0]
    votes = np.empty((n_test, n_labels), dtype=np.intp)
    blocks = _row_blocks(n_test, n_train)
    # rows of the first block, the largest: distances, then the partition copy
    size = min(blocks[0].stop, n_test)
    work = _buffer("cost", 2 * size, n_train)
    for rows in blocks:
        points = test_points[rows]
        count = points.shape[0]
        block = pairwise_sqdist(points, train.X, work[:count])
        # an overflowed distance would rank as the largest or tie at inf; max
        # propagates NaN, which fails the comparison too
        if not block.max() < np.inf:
            raise InvalidInputError(
                "squared distances overflow float64; rescale the points"
            )
        # every point within a row's K-th smallest distance is a candidate;
        # the K-th values do not depend on where the partition runs. The
        # flat indices of the candidates give each one's row and training
        # column, in row-major order
        part = work[size : size + count]
        np.copyto(part, block)
        part.partition(K - 1, axis=1)
        kth = part[:, [K - 1]]
        # the compare reads the K-th distances copied across their rows,
        # since numpy takes a buffer of up to 64 KiB for a broadcasting call
        np.copyto(part, kth)
        candidates = np.less_equal(block, part, out=_buffer("flags", count, n_train, bool))
        row, col = np.divmod(np.flatnonzero(candidates), n_train)
        counts = np.bincount(row, minlength=block.shape[0])
        if counts.max() > K:
            # rows with ties at the K-th distance keep the tied points of
            # lowest training index, as a stable sort by distance would. A
            # row's candidates are contiguous, so a running count of tied
            # candidates ranks them; a row whose last tied candidate has rank
            # ``through`` drops its last ``counts - K`` tied candidates
            tied = block[row, col] == kth[row, 0]
            rank = np.cumsum(tied)
            through = rank[np.cumsum(counts) - 1]
            keep = ~tied | (rank <= (through - counts + K)[row])
            row, col = row[keep], col[keep]
        # integer votes per (row, label) from the K points each row keeps,
        # counted on keys formed in place of the row indices
        row *= n_labels
        row += codes[col]
        votes[rows] = np.bincount(row, minlength=count * n_labels).reshape(-1, n_labels)
    # argmax picks the first maximum, i.e. the smallest label on vote ties
    return labels[np.argmax(votes, axis=1)]


def accuracy(predicted, truth):
    """Fraction of matching labels."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise InvalidInputError("predicted and truth must be equal-length vectors")
    if predicted.shape[0] == 0:
        raise InvalidInputError("cannot score empty label vectors")
    return float(np.mean(predicted == truth))


# ---------------------------------------------------------------------------
# splitting


def stratified_split(y, test_fraction, rng):
    """Per-class random split keeping every class in the training half."""
    y = np.asarray(y)
    train_parts, test_parts = [], []
    for label in _distinct(y):
        idx = np.nonzero(y == label)[0]
        perm = rng.permutation(idx)
        n_test = min(int(round(idx.shape[0] * test_fraction)), idx.shape[0] - 1)
        test_parts.append(perm[:n_test])
        train_parts.append(perm[n_test:])
    return (
        np.sort(np.concatenate(train_parts)),
        np.sort(np.concatenate(test_parts)),
    )


def random_split(y, test_fraction, rng):
    """Plain random split (classes may drop out of either half)."""
    n = np.asarray(y).shape[0]
    perm = rng.permutation(n)
    n_test = min(max(int(round(n * test_fraction)), 1), n - 1)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


# ---------------------------------------------------------------------------
# method dispatch


def fit_method(method, dataset, r, solver=None):
    """Fit one of the benchmark methods; returns a Basis.

    POTD fits on whitened predictors, as the benchmark protocol does. SIR
    may return fewer columns than requested (clamped to k-1).
    """
    _check_known("method", [method], METHODS)
    if method == "POTD":
        return potd_fit(dataset, r, solver=solver)
    if method == "SIR":
        return sir_fit(dataset, r)
    if method == "SAVE":
        return save_fit(dataset, r)
    return pca_fit(dataset.X, r)


def _baseline_fit(method, train):
    """The r-independent :class:`~potd.core.Fit` of a baseline method."""
    if method == "SIR":
        return _sir(train)
    if method == "SAVE":
        return _save(train)
    return _pca(train.X)


def _score(train, test_X, test_y, basis, K):
    """KNN accuracy on the test rows after projecting both halves."""
    fitted = LabeledDataset(project(train.X, basis), train.y)
    return accuracy(knn_predict(fitted, project(test_X, basis), K), test_y)


def evaluate_split(dataset, train_idx, test_idx, method, r, K=10, solver=None):
    """Fit on the training rows only, project both halves, score KNN accuracy.

    Returns ``(basis, accuracy, effective_r)``. Nothing from the test rows
    enters the fit.
    """
    train = LabeledDataset(dataset.X[train_idx], dataset.y[train_idx])
    basis = fit_method(method, train, r, solver=solver)
    acc = _score(train, dataset.X[test_idx], dataset.y[test_idx], basis, K)
    return basis, acc, basis.dim


def _replicate(train, methods, dims, solver, score):
    """One training set's ``{(method, r): (status, score or message, effective_r)}``.

    A baseline is fitted once (again for each ``r`` while its fit raises)
    and POTD per ``r``. ``score(basis)`` runs once per method and basis
    dimension, since ``basis(r)`` depends only on ``min(r, directions)``.
    """
    out = {}
    for method in methods:
        fit, scores = None, {}
        for r in dims:
            try:
                if method == "POTD":
                    basis = potd_fit(train, r, solver=solver)
                else:
                    if fit is None:
                        fit = _baseline_fit(method, train)
                    basis = fit.basis(r)
                if basis.dim not in scores:
                    scores[basis.dim] = score(basis)
                out[(method, r)] = ("ok", scores[basis.dim], basis.dim)
            except (PotdError, np.linalg.LinAlgError) as exc:
                out[(method, r)] = ("error", f"{type(exc).__name__}: {exc}", r)
    return out


# ---------------------------------------------------------------------------
# synthetic benchmark

def _replication_seed(seed, *key):
    return int(seed_sequence(seed, *key).generate_state(1, np.uint64)[0])


def _synthetic_rep(model, p, n, methods, solver, noise_scale, rep_seed):
    spec = SyntheticSpec(model=model, n=n, p=p, seed=rep_seed, noise_scale=noise_scale)
    data, truth = gen_model(spec)
    score = partial(subspace_distance, truth=truth)
    return _replicate(data, methods, [truth.dim], solver, score)


def _run_tasks(func, seeds, workers):
    """``[func(seed) for seed in seeds]``, over ``workers`` processes
    (capped by the ``POTD_MAX_THREADS`` environment variable)."""
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    cap = os.environ.get("POTD_MAX_THREADS")
    if cap:
        try:
            workers = min(workers, max(int(cap), 1))
        except ValueError:
            raise InvalidInputError(
                f"POTD_MAX_THREADS must be an integer, got {cap!r}"
            ) from None
    if workers > 1 and len(seeds) > 1:
        # the pool and the exact solvers stay out of ``import potd``; the
        # solvers' two extension modules are loaded before the fork, so the
        # workers inherit them instead of each loading them on its own
        from concurrent.futures import ProcessPoolExecutor

        _load_solvers(*_SOLVER_MODULES)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, seeds))
    return [func(seed) for seed in seeds]


def run_synthetic_benchmark(
    models,
    p_values,
    methods,
    n=400,
    replications=100,
    seed=42,
    solver=None,
    noise_scale=0.2,
    workers=1,
):
    """Subspace-distance benchmark on the synthetic models.

    Every method is fitted at the true structure dimension on identical
    per-replication datasets; distances to the true subspace are
    aggregated per (model, p, method) cell. Per-cell fit errors are
    recorded without aborting the run.
    """
    models = _entries("models", models)
    _check_known("model", models, MODELS)
    p_values = _entries("p_values", p_values, int)
    methods = _entries("methods", methods)
    _check_known("method", methods, METHODS)
    if replications < 1:
        raise InvalidInputError("replications must be >= 1")
    config = {
        "models": models,
        "p_values": p_values,
        "methods": methods,
        "n": n,
        "replications": replications,
        "seed": seed,
        "noise_scale": noise_scale,
        "solver": None if solver is None else asdict(solver),
        "whiten": True,
        "rng": "PCG64",
    }
    rows = []
    for model in models:
        for p in p_values:
            # a model's seed code is its 1-based position in MODELS
            code = list(MODELS).index(model) + 1
            seeds = [_replication_seed(seed, code, p, rep) for rep in range(replications)]
            task = partial(_synthetic_rep, model, p, n, methods, solver, noise_scale)
            results = _run_tasks(task, seeds, workers)
            r0 = MODELS[model][0]
            rows += [
                _report_row(results, m, f"{model}-{p}", r0, "subspace_distance")
                for m in methods
            ]
    return BenchmarkReport(kind="synthetic-benchmark", rows=rows, config=config)


# ---------------------------------------------------------------------------
# real-data benchmark


def _split(split, y, rng):
    """Train and test indices of ``y`` under the protocol ``split``."""
    splitter = stratified_split if split.stratified else random_split
    return splitter(y, split.test_fraction, rng)


def _real_rep(dataset, methods, dims, split, K, solver, rep_seed):
    """One split's ``{(method, r): (status, accuracy or message, effective_r)}``.

    Gives what :func:`evaluate_split` gives per (method, r), through
    :func:`_replicate`; an ``r`` of p or more fails the protocol's ``r < p``
    rule without a fit.
    """
    train_idx, test_idx = _split(split, dataset.y, make_rng(rep_seed))
    train = LabeledDataset(dataset.X[train_idx], dataset.y[train_idx])
    test_X, test_y = dataset.X[test_idx], dataset.y[test_idx]
    score = partial(_score, train, test_X, test_y, K=K)
    out = _replicate(train, methods, [r for r in dims if r < dataset.p], solver, score)
    for r in dims:
        if r >= dataset.p:
            message = f"InvalidInputError: r={r} must be smaller than p={dataset.p}"
            out.update(((method, r), ("error", message, r)) for method in methods)
    return out


def run_real_benchmark(
    dataset,
    methods,
    dims,
    split=None,
    K=10,
    solver=None,
    setting="dataset",
    workers=1,
):
    """Paired-split KNN accuracy benchmark on a labeled dataset.

    Within a replication all methods and dimensions share one train/test
    partition; fits see training rows only.
    """
    if split is None:
        split = SplitConfig()
    methods = _entries("methods", methods)
    _check_known("method", methods, METHODS)
    dims = _entries("dims", dims, int)
    for r in dims:
        if r < 1:
            raise InvalidInputError(f"dims must be >= 1, got {r}")
    if dataset.classes().shape[0] < 2:
        raise InvalidInputError("dataset must have at least 2 classes")
    if K < 1:
        raise InvalidInputError("K must be >= 1")
    # the split sizes do not depend on the rng, only which rows are drawn
    train_idx, test_idx = _split(split, dataset.y, make_rng(0))
    if test_idx.shape[0] == 0:
        raise InvalidInputError(
            f"test_fraction={split.test_fraction:g} leaves no test points"
        )
    n_train = train_idx.shape[0]
    if K > n_train:
        raise InvalidInputError(f"K={K} exceeds training size {n_train}")
    config = {
        "methods": methods,
        "dims": dims,
        "K": K,
        "split": asdict(split),
        "setting": setting,
        "solver": None if solver is None else asdict(solver),
        "rng": "PCG64",
    }
    seeds = [_replication_seed(split.seed, rep) for rep in range(split.replications)]
    results = _run_tasks(
        partial(_real_rep, dataset, methods, dims, split, K, solver), seeds, workers
    )
    rows = [
        _report_row(results, method, setting, r, "accuracy")
        for method in methods
        for r in dims
    ]
    return BenchmarkReport(kind="real-benchmark", rows=rows, config=config)
