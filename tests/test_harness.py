"""Ingestion, splitting, KNN and benchmark-orchestration tests."""

import json
import re
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potd import harness
from potd.core import LabeledDataset, potd_fit
from potd.errors import (
    DatasetParseError,
    DatasetSchemaError,
    DegenerateInputError,
    InvalidInputError,
    PotdError,
)
from potd.harness import (
    SplitConfig,
    _replication_seed,
    accuracy,
    evaluate_split,
    fit_method,
    knn_predict,
    load_csv_dataset,
    random_split,
    run_real_benchmark,
    run_synthetic_benchmark,
    save_csv_dataset,
    stratified_split,
)
from potd.ot import SolverConfig, _row_blocks, pairwise_sqdist
from potd.synthetic import SyntheticSpec, gen_model, subspace_distance

from conftest import memory_points, traced_peak

EXACT = SolverConfig(mode="exact")


def reference_knn_predict(train, test_points, K):
    """Oracle: a stable argsort by distance, then one bincount per test row."""
    labels, codes = np.unique(train.y, return_inverse=True)
    dists = ((test_points[:, None, :] - train.X[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :K]
    counts = np.apply_along_axis(np.bincount, 1, codes[nearest], minlength=labels.shape[0])
    return labels[np.argmax(counts, axis=1)]


@st.composite
def grid_knn_instances(draw):
    """Integer-grid points, where distance ties are common; 1-4 labels,
    integer or string; test sets that include copies of training rows."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(2, 25))
    coord = st.integers(-2, 2)
    train_x = np.array(draw(st.lists(st.lists(coord, min_size=p, max_size=p),
                                     min_size=n, max_size=n)), dtype=np.float64)
    codes = draw(st.lists(st.integers(0, draw(st.integers(0, 3))), min_size=n, max_size=n))
    y = np.array([f"c{c}" for c in codes]) if draw(st.booleans()) else np.array(codes)
    fresh = draw(st.lists(st.lists(coord, min_size=p, max_size=p), min_size=1, max_size=8))
    copies = draw(st.lists(st.integers(0, n - 1), max_size=4))
    test_x = np.vstack([np.array(fresh, dtype=np.float64), train_x[copies]])
    K = draw(st.integers(1, n))
    return LabeledDataset(train_x, y), test_x, K


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_file(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            "f1,f2,label\n1.0,2.0,a\n3.0,4.0,a\n5.0,6.0,b\n",
        )
        data = load_csv_dataset(path, "label")
        assert data.n == 3 and data.p == 2
        assert data.class_counts() == {"a": 2, "b": 1}

    def test_label_column_by_index(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,f1\nx,1.0\nz,2.0\n")
        data = load_csv_dataset(path, 0)
        assert list(data.y) == ["x", "z"]

    def test_non_numeric_cell_coordinates(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            "f1,f2,f3,f4,label\n1,2,3,4,a\n1,2,3,NA,b\n",
        )
        with pytest.raises(DatasetParseError, match="row 2, column 4") as excinfo:
            load_csv_dataset(path, "label")
        assert excinfo.value.row == 2 and excinfo.value.column == 4

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv_dataset("/does/not/exist.csv", "label")

    @pytest.mark.parametrize(
        "text, message", [("", "file is empty"), ("f1,label\n", "no data rows")]
    )
    def test_no_data_rows(self, tmp_path, text, message):
        # a bad label column index is tested through the CLI, in test_cli.py
        path = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(DatasetSchemaError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_csv_dataset(path, "label")

    def test_blank_rows_are_skipped(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "f1,label\n\n1.5,a\n\n2.5,b\n\n")
        data = load_csv_dataset(path, "label")
        assert np.array_equal(data.X, [[1.5], [2.5]])
        assert list(data.y) == ["a", "b"]

    def test_absent_label_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "f1,f2\n1,2\n")
        with pytest.raises(DatasetSchemaError, match="label"):
            load_csv_dataset(path, "label")

    def test_label_only_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "label\na\nb\na\nb\n")
        message = f"{path}: no predictor column besides the label column"
        with pytest.raises(DatasetSchemaError, match=f"^{re.escape(message)}$"):
            load_csv_dataset(path, "label")

    def test_single_class_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "f1,label\n1,a\n2,a\n")
        message = f"{path}: all rows share a single class"
        with pytest.raises(DegenerateInputError, match=f"^{re.escape(message)}$"):
            load_csv_dataset(path, "label")

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "f1,f2,label\n1,2,a\n1,b\n")
        with pytest.raises(DatasetSchemaError, match="row 2"):
            load_csv_dataset(path, "label")

    def test_custom_delimiter(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "f1;label\n1.5;a\n2.5;b\n")
        data = load_csv_dataset(path, "label", delimiter=";")
        assert data.X[1, 0] == 2.5

    def test_roundtrip(self, tmp_path, rng):
        data = LabeledDataset(rng.normal(size=(8, 3)), np.repeat(["u", "v"], 4))
        path = tmp_path / "round.csv"
        save_csv_dataset(data, str(path))
        loaded = load_csv_dataset(str(path), "label")
        assert np.array_equal(loaded.X, data.X)
        assert list(loaded.y) == list(data.y)


class TestKnn:
    def test_exact_training_point(self, rng):
        train = LabeledDataset(rng.normal(size=(20, 3)), np.repeat([1, 2], 10))
        pred = knn_predict(train, train.X[4:5], 1)
        assert pred[0] == train.y[4]

    def test_two_blobs_high_accuracy(self):
        rng = np.random.default_rng(np.random.SeedSequence([41]))
        train_x = np.vstack(
            [rng.normal(size=(100, 2)), rng.normal(size=(100, 2)) + 10.0]
        )
        train_y = np.repeat(["a", "b"], 100)
        test_x = np.vstack(
            [rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) + 10.0]
        )
        test_y = np.repeat(["a", "b"], 50)
        pred = knn_predict(LabeledDataset(train_x, train_y), test_x, 10)
        assert accuracy(pred, test_y) >= 0.99

    def test_k_equals_train_size_majority(self, rng):
        train = LabeledDataset(
            rng.normal(size=(9, 2)), np.array([1] * 5 + [2] * 4)
        )
        pred = knn_predict(train, rng.normal(size=(6, 2)), 9)
        assert np.all(pred == 1)

    def test_distance_tie_prefers_lower_row(self):
        train = LabeledDataset(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]]), np.array([3, 2, 1])
        )
        # both +-1 points are at distance 1 from the origin; the stable order
        # keeps row 0 first, so K=1 votes with label 3
        pred = knn_predict(train, np.array([[0.0, 0.0]]), 1)
        assert pred[0] == 3

    def test_vote_tie_prefers_smallest_label(self):
        train = LabeledDataset(
            np.array([[1.0], [-1.0], [2.0], [-2.0]]), np.array([9, 4, 9, 4])
        )
        pred = knn_predict(train, np.array([[0.0]]), 4)
        assert pred[0] == 4

    def test_k_bounds(self, rng):
        train = LabeledDataset(rng.normal(size=(5, 2)), np.array([1, 1, 2, 2, 2]))
        with pytest.raises(InvalidInputError):
            knn_predict(train, np.zeros((1, 2)), 0)
        with pytest.raises(InvalidInputError):
            knn_predict(train, np.zeros((1, 2)), 6)

    @pytest.mark.parametrize(
        "points, match",
        [
            (np.zeros((0, 2)), "no test points"),
            (np.array([[0.0, np.nan]]), "non-finite"),
            (np.zeros((1, 3)), "^test points must be a matrix with 2 columns$"),
            (np.zeros(2), "^test points must be a matrix with 2 columns$"),
        ],
    )
    def test_rejected_test_points(self, rng, points, match):
        train = LabeledDataset(rng.normal(size=(5, 2)), np.array([1, 1, 2, 2, 2]))
        with pytest.raises(InvalidInputError, match=match):
            knn_predict(train, points, 3)

    def test_overflowed_distances_rejected(self):
        # the squared distances to the coincident row overflow to inf - inf;
        # voting on them would pick row 0, not the coincident row 2
        train = LabeledDataset(np.array([[0.0], [1.0], [1e200], [2.0]]), np.arange(4))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="overflow"):
                knn_predict(train, np.array([[1e200]]), 1)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(grid_knn_instances())
    def test_matches_stable_sort_reference(self, instance):
        train, test_x, K = instance
        pred = knn_predict(train, test_x, K)
        ref = reference_knn_predict(train, test_x, K)
        assert pred.dtype == ref.dtype
        assert np.array_equal(pred, ref)

    def test_ties_across_row_blocks_match_stable_sort_reference(self, rng):
        # 700 test rows against 300 training rows span two row blocks; on the
        # integer grid most rows tie at their K-th distance
        train_x = rng.integers(-2, 3, size=(300, 2)).astype(np.float64)
        test_x = rng.integers(-2, 3, size=(700, 2)).astype(np.float64)
        train = LabeledDataset(train_x, rng.integers(0, 3, size=300))
        assert len(_row_blocks(700, 300)) > 1
        for K in (1, 10, 37):
            pred = knn_predict(train, test_x, K)
            assert np.array_equal(pred, reference_knn_predict(train, test_x, K))

    @pytest.mark.parametrize("points", ["normal", "grid"])
    def test_distance_matrix_is_the_only_n_by_m_array(self, rng, points):
        train_x, test_x = memory_points(rng, points)
        train = LabeledDataset(train_x, rng.integers(0, 2, size=train_x.shape[0]))
        K = 10
        if points == "grid":
            dists = pairwise_sqdist(test_x, train_x)
            kth = np.partition(dists, K - 1, axis=1)[:, [K - 1]]
            assert np.all(np.count_nonzero(dists <= kth, axis=1) > K)
        floats = test_x.shape[0] * train_x.shape[0]
        assert traced_peak(knn_predict, train, test_x, K) <= 1.35 * 8 * floats

    def test_repeat_call_allocates_no_block_sized_array(self, rng):
        # the shape of one bench-real split: the distances, their partition
        # copy and the candidate mask live in this thread's buffers, which
        # the first call has grown; each is 0.125 of 8 n m bytes or more
        n = m = 200
        train = LabeledDataset(rng.normal(size=(m, 2)), rng.integers(0, 2, size=m))
        test_x = rng.normal(size=(n, 2))
        first = knn_predict(train, test_x, 10)
        assert traced_peak(knn_predict, train, test_x, 10) < 0.2 * 8 * n * m
        assert np.array_equal(knn_predict(train, test_x, 10), first)

    @pytest.mark.parametrize("points", ["normal", "grid"])
    def test_no_test_by_train_array(self, rng, points):
        # distances are computed one row block of test points at a time
        train_x, test_x = memory_points(rng, points)
        train = LabeledDataset(train_x, rng.integers(0, 2, size=train_x.shape[0]))
        floats = test_x.shape[0] * train_x.shape[0]
        assert traced_peak(knn_predict, train, test_x, 10) <= 0.25 * 8 * floats

    @pytest.mark.parametrize("points", ["normal", "grid"])
    def test_ragged_row_blocks_match_stable_sort_reference(self, rng, points):
        # 1,000 test rows against 700 training rows take several row blocks,
        # the last one shorter than the others
        test_x, train_x = memory_points(rng, points, n=1000, m=700)
        blocks = _row_blocks(1000, 700)
        assert len(blocks) > 1 and blocks[-1].stop > 1000
        train = LabeledDataset(train_x, rng.integers(0, 3, size=700))
        for K in (1, 10, 37):
            pred = knn_predict(train, test_x, K)
            assert np.array_equal(pred, reference_knn_predict(train, test_x, K))


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1], [2, 2]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 1, 2, 2], [1, 1, 2, 9]) == 0.75

    def test_accuracy_plus_error_rate_is_one(self, rng):
        pred = rng.integers(0, 3, 50)
        truth = rng.integers(0, 3, 50)
        error_rate = float(np.mean(pred != truth))
        assert accuracy(pred, truth) + error_rate == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            accuracy([1], [1, 2])

    def test_empty_vectors(self):
        with pytest.raises(InvalidInputError, match="^cannot score empty label vectors$"):
            accuracy([], [])


class TestSplitConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"test_fraction": 0.0}, r"test_fraction must be in \(0, 1\)"),
            ({"test_fraction": 1.0}, r"test_fraction must be in \(0, 1\)"),
            ({"replications": 0}, "replications must be >= 1"),
        ],
    )
    def test_rejects_bad_settings(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            SplitConfig(**kwargs)


class TestSplits:
    def test_stratified_keeps_all_classes_in_train(self, rng):
        y = np.array(["a"] * 30 + ["b"] * 4 + ["c"] * 2)
        train, test = stratified_split(y, 0.5, rng)
        assert set(y[train]) == {"a", "b", "c"}
        assert len(train) + len(test) == len(y)
        assert len(np.intersect1d(train, test)) == 0

    def test_string_labels_split_as_their_sorted_codes(self):
        # classes are drawn in sorted-label order, whatever the labels' type
        y = np.array(["b", "c", "a"] * 8 + ["c"] * 5)
        codes = np.unique(y, return_inverse=True)[1]
        by_label = stratified_split(y, 0.4, np.random.default_rng(np.random.SeedSequence([7])))
        by_code = stratified_split(codes, 0.4, np.random.default_rng(np.random.SeedSequence([7])))
        assert all(np.array_equal(a, b) for a, b in zip(by_label, by_code))
        assert [len(part) for part in by_label] == [18, 11]

    def test_split_determinism(self):
        y = np.repeat([0, 1], 20)
        rng_a = np.random.default_rng(np.random.SeedSequence([5]))
        rng_b = np.random.default_rng(np.random.SeedSequence([5]))
        a = stratified_split(y, 0.4, rng_a)
        b = stratified_split(y, 0.4, rng_b)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_random_split_sizes(self, rng):
        y = np.zeros(40)
        train, test = random_split(y, 0.25, rng)
        assert len(test) == 10 and len(train) == 30


def blob_dataset(n_per=60, p=6, shift=4.0, seed=43):
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    X = np.vstack(
        [
            rng.standard_normal((n_per, p)),
            rng.standard_normal((n_per, p)) + np.r_[shift, np.zeros(p - 1)],
        ]
    )
    y = np.repeat(["a", "b"], n_per)
    return LabeledDataset(X, y)


METHODS = ["POTD", "SIR", "SAVE", "PCA"]


def three_class_dataset(sizes, p, seed=45):
    """Gaussian classes "a", "b", "c" with means apart along x1 and x2."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    means = np.zeros((3, p))
    means[1, 0] = means[2, 1] = 3.0
    X = np.vstack([rng.standard_normal((n, p)) + mean for n, mean in zip(sizes, means)])
    return LabeledDataset(X, np.repeat(["a", "b", "c"], sizes))


def reference_rows(dataset, methods, dims, split, K):
    """A real benchmark's rows from one evaluate_split call per (method, r)."""
    results = []
    for rep in range(split.replications):
        seed = _replication_seed(split.seed, rep)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        train_idx, test_idx = harness._split(split, dataset.y, rng)
        out = {}
        for method in methods:
            for r in dims:
                if r >= dataset.p:
                    message = f"InvalidInputError: r={r} must be smaller than p={dataset.p}"
                    out[(method, r)] = ("error", message, r)
                    continue
                try:
                    _, acc, r_eff = evaluate_split(dataset, train_idx, test_idx, method, r, K=K)
                    out[(method, r)] = ("ok", acc, r_eff)
                except (PotdError, np.linalg.LinAlgError) as exc:
                    out[(method, r)] = ("error", f"{type(exc).__name__}: {exc}", r)
        results.append(out)
    return [
        harness._report_row(results, method, "dataset", r, "accuracy")
        for method in methods
        for r in dims
    ]


class TestFitDispatch:
    def test_unknown_method(self):
        with pytest.raises(InvalidInputError, match="POTD, SIR, SAVE, PCA"):
            fit_method("UMAP", blob_dataset(), 2)

    @pytest.mark.parametrize("method", ["POTD", "SIR", "SAVE", "PCA"])
    def test_all_methods_return_orthonormal_basis(self, method):
        basis = fit_method(method, blob_dataset(), 2, solver=EXACT)
        assert basis.vectors.shape[0] == 6
        assert np.allclose(
            basis.vectors.T @ basis.vectors, np.eye(basis.dim), atol=1e-10
        )


class TestEvaluateSplit:
    def test_fit_ignores_test_rows(self):
        data = blob_dataset()
        rng = np.random.default_rng(np.random.SeedSequence([44]))
        train_idx, test_idx = stratified_split(data.y, 0.5, rng)
        basis, acc, r_eff = evaluate_split(
            data, train_idx, test_idx, "POTD", 2, K=5, solver=EXACT
        )
        garbage = data.X.copy()
        garbage[test_idx] = 1e6
        corrupted = LabeledDataset(garbage, data.y)
        basis2, acc2, _ = evaluate_split(
            corrupted, train_idx, test_idx, "POTD", 2, K=5, solver=EXACT
        )
        assert np.array_equal(basis.vectors, basis2.vectors)
        assert acc != acc2  # the garbage rows do change the scoring half


class TestSyntheticBenchmark:
    def test_deterministic_reports(self):
        kwargs = dict(
            models=["I"],
            p_values=[5],
            methods=["PCA", "SIR"],
            n=80,
            replications=2,
            seed=7,
            solver=EXACT,
        )
        a = run_synthetic_benchmark(**kwargs)
        b = run_synthetic_benchmark(**kwargs)
        assert a.to_dict() == b.to_dict()

    def test_row_structure_and_aggregates(self):
        report = run_synthetic_benchmark(
            models=["I"],
            p_values=[5],
            methods=["PCA"],
            n=60,
            replications=3,
            seed=1,
            solver=EXACT,
        )
        (row,) = report.rows
        assert row.setting == "I-5"
        assert row.metric_kind == "subspace_distance"
        assert row.replications == 3 and len(row.values) == 3
        assert row.mean == pytest.approx(float(np.mean(row.values)), abs=1e-15)
        assert row.sd == pytest.approx(float(np.std(row.values, ddof=1)), abs=1e-15)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            run_synthetic_benchmark(["I"], [5], ["LDA"], n=50, replications=1, seed=0)

    @pytest.mark.parametrize("empty", ["models", "p_values", "methods"])
    def test_empty_list_rejected(self, empty):
        lists = {"models": ["I"], "p_values": [5], "methods": ["PCA"], empty: []}
        with pytest.raises(InvalidInputError, match=f"^no {empty} given$"):
            run_synthetic_benchmark(**lists, n=50, replications=1, seed=0)

    @pytest.mark.parametrize(
        "name, values, message",
        [
            ("models", ["I", "II", "I"], "models repeats 'I'"),
            # compared as the integers they convert to
            ("p_values", [5, "5"], "p_values repeats 5"),
            ("methods", ["PCA", "SIR", "PCA"], "methods repeats 'PCA'"),
        ],
    )
    def test_repeated_entry_rejected(self, name, values, message):
        lists = {"models": ["I"], "p_values": [5], "methods": ["PCA"], name: values}
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            run_synthetic_benchmark(**lists, n=50, replications=1, seed=0)

    @pytest.mark.parametrize("model, code", [("I", 1), ("II", 2), ("III", 3), ("IV", 4)])
    def test_replication_draws_are_pinned(self, model, code):
        # every synthetic report derives its draws from these model codes
        report = run_synthetic_benchmark(
            [model], [5], ["POTD"], n=60, replications=1, seed=9, solver=EXACT
        )
        spec = SyntheticSpec(model, 60, 5, _replication_seed(9, code, 5, 0))
        data, truth = gen_model(spec)
        (row,) = report.rows
        assert row.r == truth.dim
        assert row.values == [subspace_distance(potd_fit(data, truth.dim, EXACT), truth)]

    def test_workers_do_not_change_results(self):
        kwargs = dict(
            models=["I"],
            p_values=[5],
            methods=["PCA"],
            n=60,
            replications=3,
            seed=3,
            solver=EXACT,
        )
        serial = run_synthetic_benchmark(workers=1, **kwargs)
        parallel = run_synthetic_benchmark(workers=2, **kwargs)
        assert serial.to_dict() == parallel.to_dict()

    def test_one_fit_per_method_and_replication(self, monkeypatch):
        # the synthetic benchmark fits through the same step as bench-real
        calls = Counter()

        def counting(attr):
            fn = getattr(harness, attr)

            def wrapped(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(harness, attr, wrapped)

        for attr in ("_sir", "_save", "_pca", "potd_fit", "subspace_distance"):
            counting(attr)
        report = run_synthetic_benchmark(
            ["I"], [5], METHODS, n=60, replications=2, seed=4, solver=EXACT
        )
        assert calls == {
            "_sir": 2, "_save": 2, "_pca": 2, "potd_fit": 2, "subspace_distance": 8
        }
        assert [len(row.values) for row in report.rows] == [2, 2, 2, 2]


class TestRealBenchmark:
    def test_separable_blobs_all_methods(self):
        data = blob_dataset(n_per=100, p=6)
        split = SplitConfig(test_fraction=0.5, replications=3, seed=11)
        report = run_real_benchmark(
            data,
            methods=["POTD", "SIR", "SAVE", "PCA"],
            dims=[2],
            split=split,
            K=10,
            solver=EXACT,
            setting="blobs",
        )
        for row in report.rows:
            assert row.mean >= 0.95, (row.method, row.mean)

    def test_sir_effective_dimension_recorded(self):
        data = blob_dataset(n_per=40, p=5)
        report = run_real_benchmark(
            data,
            methods=["SIR"],
            dims=[4],
            split=SplitConfig(replications=2, seed=5),
            K=5,
            solver=EXACT,
        )
        (row,) = report.rows
        assert row.r == 4 and row.effective_r == 1

    @pytest.mark.parametrize("empty", ["methods", "dims"])
    def test_empty_list_rejected(self, empty):
        lists = {"methods": ["PCA"], "dims": [2], empty: []}
        with pytest.raises(InvalidInputError, match=f"^no {empty} given$"):
            run_real_benchmark(blob_dataset(n_per=30, p=4), **lists)

    @pytest.mark.parametrize(
        "name, values, message",
        [
            ("methods", ["POTD", "POTD"], "methods repeats 'POTD'"),
            # compared as the integers they convert to
            ("dims", [1, 2, 2.0], "dims repeats 2"),
        ],
    )
    def test_repeated_entry_rejected(self, name, values, message):
        lists = {"methods": ["PCA"], "dims": [2], name: values}
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            run_real_benchmark(blob_dataset(n_per=30, p=4), **lists)

    def test_one_class_rejected(self):
        data = LabeledDataset(np.arange(12.0).reshape(6, 2), np.zeros(6))
        with pytest.raises(InvalidInputError, match="^dataset must have at least 2 classes$"):
            run_real_benchmark(data, methods=["PCA"], dims=[1])

    def test_k_below_one_rejected_before_any_replication(self, monkeypatch):
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "_real_rep", no_replication)
        with pytest.raises(InvalidInputError, match="K must be >= 1"):
            run_real_benchmark(
                blob_dataset(n_per=30, p=4), methods=["PCA"], dims=[2],
                split=SplitConfig(replications=2, seed=5), K=0,
            )

    @pytest.mark.parametrize("stratified", [True, False])
    def test_k_above_training_size_rejected_before_any_replication(
        self, monkeypatch, stratified
    ):
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "_real_rep", no_replication)
        split = SplitConfig(replications=2, seed=5, stratified=stratified)
        with pytest.raises(InvalidInputError, match="K=31 exceeds training size 30"):
            run_real_benchmark(
                blob_dataset(n_per=30, p=4), methods=["PCA"], dims=[2], split=split, K=31,
            )

    @pytest.mark.parametrize(
        "case",
        [
            "blobs-stratified",
            "blobs-random",
            "three-classes",
            "single-point-class",
            "single-point-integer-class",
        ],
    )
    def test_rows_match_per_dimension_evaluate_split(self, case, blobs_csv):
        # bench-real fits each baseline once per split and reuses SIR's
        # accuracy past its k - 1 directions; every row must be what
        # separate evaluate_split calls give for each (method, r)
        stratified = case != "blobs-random"
        if case.startswith("blobs"):
            data, dims = load_csv_dataset(blobs_csv, "label"), [2, 4, 6, 8]
        elif case == "three-classes":
            # SIR has 2 directions, so r = 3 and 4 score the r = 2 basis again
            data, dims = three_class_dataset([40, 40, 40], p=6), [1, 2, 3, 4]
        else:
            # one training point in class "c": SAVE fails at every r below
            # p, and r = 5 = p fails the protocol's r < p rule first
            data, dims = three_class_dataset([30, 30, 2], p=5), [1, 3, 5, 2]
            if case == "single-point-integer-class":
                data = LabeledDataset(data.X, np.repeat([1, 2, 3], [30, 30, 2]))
        split = SplitConfig(replications=2, seed=8, stratified=stratified)
        report = run_real_benchmark(data, METHODS, dims, split=split, K=5)
        expected = [
            asdict(row) for row in reference_rows(data, METHODS, dims, split, K=5)
        ]
        assert [asdict(row) for row in report.rows] == expected
        rows = {(row.method, row.r): row for row in report.rows}
        if case == "three-classes":
            assert [rows["SIR", r].effective_r for r in dims] == [1, 2, 2, 2]
        if case.startswith("single-point"):
            save = [rows["SAVE", r] for r in dims if r < data.p]
            assert all(row.values == [] for row in save)
            (message,) = {m for row in save for m in row.failures.values()}
            label = "'c'" if case == "single-point-class" else "3"
            assert message == (
                f"DegenerateInputError: class {label} has a single point; "
                "within-slice covariance is undefined"
            )
            assert rows["PCA", 5].failures[0].endswith("r=5 must be smaller than p=5")

    def test_one_fit_per_baseline_and_split(self, monkeypatch, blobs_csv):
        calls = Counter()

        def counting(attr):
            fn = getattr(harness, attr)

            def wrapped(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(harness, attr, wrapped)

        for attr in ("_sir", "_save", "_pca", "potd_fit", "knn_predict"):
            counting(attr)
        data = load_csv_dataset(blobs_csv, "label")
        run_real_benchmark(
            data, METHODS, [2, 4, 6, 8], split=SplitConfig(replications=1, seed=3)
        )
        # binary SIR has one direction: its four bases are one basis, scored once
        assert calls == {
            "_sir": 1, "_save": 1, "_pca": 1, "potd_fit": 4, "knn_predict": 4 + 1 + 4 + 4
        }

    def test_r_at_least_p_recorded_as_failure(self):
        data = blob_dataset(n_per=30, p=4)
        report = run_real_benchmark(
            data,
            methods=["PCA"],
            dims=[4],
            split=SplitConfig(replications=2, seed=5),
            K=5,
        )
        (row,) = report.rows
        assert row.mean is None
        assert len(row.failures) == 2

    def test_report_serialization(self, tmp_path):
        data = blob_dataset(n_per=30, p=4)
        report = run_real_benchmark(
            data,
            methods=["PCA"],
            dims=[2],
            split=SplitConfig(replications=2, seed=5),
            K=5,
            setting="blobs",
        )
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        report.write_json(str(json_path), meta={"timestamp": "t"})
        report.write_csv(str(csv_path))
        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "real-benchmark"
        assert payload["config"]["K"] == 5
        (row,) = payload["rows"]
        # aggregates are recomputable from the persisted raw values
        assert row["mean"] == pytest.approx(np.mean(row["values"]), abs=1e-12)
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("schema_version,method,setting,r")
