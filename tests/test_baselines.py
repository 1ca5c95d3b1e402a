"""SIR / SAVE / PCA baseline tests."""

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from potd.baselines import pca_fit, save_fit, sir_fit
from potd.core import Basis, LabeledDataset, orthonormalize, potd_fit, potd_fit_continuous
from potd.errors import DegenerateInputError, InvalidInputError
from potd.ot import SolverConfig
from potd.synthetic import subspace_distance


def two_class_data(first, second):
    X = np.vstack([first, second])
    y = np.repeat([1, 2], [len(first), len(second)])
    return LabeledDataset(X, y)


class TestSir:
    def test_binary_single_informative_direction(self, rng):
        data = two_class_data(
            rng.normal(size=(60, 4)) + [2.0, 0.0, 0.0, 0.0],
            rng.normal(size=(50, 4)),
        )
        with pytest.warns(UserWarning, match="clamping"):
            basis = sir_fit(data, 3)
        assert basis.dim == 1
        # between-slice spectrum has exactly one nonzero value for k=2
        assert basis.singular_values[1] <= 1e-9 * basis.singular_values[0]

    def test_point_mass_classes_recover_shift(self, rng):
        d = np.array([3.0, -1.0, 2.0])
        # tiny jitter keeps the covariance invertible; the direction matches
        # d up to O(jitter) finite-sample error
        data = two_class_data(
            d + 0.01 * rng.standard_normal((200, 3)),
            -d + 0.01 * rng.standard_normal((200, 3)),
        )
        basis = sir_fit(data, 1)
        direction = basis.vectors[:, 0]
        assert abs(float(direction @ (d / np.linalg.norm(d)))) > 0.99

    def test_identical_point_sets_have_no_signal(self, rng):
        block = rng.normal(size=(50, 3))
        data = two_class_data(block, block[rng.permutation(50)])
        basis = sir_fit(data, 1)
        assert basis.singular_values[0] < 1e-6

    def test_rejects_single_class(self):
        data = LabeledDataset(np.eye(3), np.array([1, 1, 1]))
        with pytest.raises(InvalidInputError, match="^need at least 2 classes$"):
            sir_fit(data, 1)


class TestSave:
    def test_variance_difference_direction(self):
        rng = np.random.default_rng(np.random.SeedSequence([31]))
        first = rng.standard_normal((400, 4)) * [3.0, 1.0, 1.0, 1.0]
        second = rng.standard_normal((400, 4))
        basis = save_fit(two_class_data(first, second), 1)
        assert abs(float(basis.vectors[0, 0])) > 0.95

    def test_identical_point_sets_near_zero_spectrum(self, rng):
        block = rng.normal(size=(60, 3))
        data = two_class_data(block, block[rng.permutation(60)])
        basis = save_fit(data, 1)
        assert basis.singular_values[0] < 1e-6

    def test_rejects_single_class(self):
        data = LabeledDataset(np.eye(3), np.array(["a", "a", "a"]))
        with pytest.raises(InvalidInputError, match="^need at least 2 classes$"):
            save_fit(data, 1)

    def test_singleton_class_rejected(self, rng):
        X = np.vstack([rng.normal(size=(10, 3)), [[0.0, 0.0, 0.0]]])
        y = np.array([1] * 10 + [2])
        message = "^class 2 has a single point; within-slice covariance is undefined$"
        with pytest.raises(DegenerateInputError, match=message):
            save_fit(LabeledDataset(X, y), 1)

    def test_singleton_string_class_shows_the_plain_label(self, rng):
        X = np.vstack([rng.normal(size=(10, 3)), [[0.0, 0.0, 0.0]]])
        y = np.array(["a"] * 10 + ["c"])
        message = "^class 'c' has a single point; within-slice covariance is undefined$"
        with pytest.raises(DegenerateInputError, match=message):
            save_fit(LabeledDataset(X, y), 1)


class TestPca:
    def test_line_through_origin(self, rng):
        direction = np.array([1.0, -2.0, 2.0]) / 3.0
        X = np.outer(rng.uniform(-1, 1, 30), direction)
        basis = pca_fit(X, 1)
        assert subspace_distance(basis, direction[:, None]) <= 1e-8

    def test_isotropic_data_orthonormal_output(self, rng):
        basis = pca_fit(rng.normal(size=(100, 4)), 2)
        assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(2), atol=1e-10)

    def test_axis_aligned_variances(self):
        rng = np.random.default_rng(np.random.SeedSequence([32]))
        X = rng.standard_normal((2000, 3)) * [2.0, 1.0, 1.0]
        basis = pca_fit(X, 1)
        assert abs(float(basis.vectors[0, 0])) > 0.95

    def test_r_out_of_range(self, rng):
        with pytest.raises(InvalidInputError):
            pca_fit(rng.normal(size=(10, 3)), 4)

    @pytest.mark.parametrize("X", [np.zeros(5), np.zeros((1, 3))], ids=["vector", "one-row"])
    def test_rejects_a_non_matrix(self, X):
        with pytest.raises(InvalidInputError, match="^X must be a matrix with at least 2 rows$"):
            pca_fit(X, 1)

    def test_rejects_a_matrix_without_columns(self):
        with pytest.raises(InvalidInputError, match="^X has no predictor columns$"):
            pca_fit(np.zeros((4, 0)), 1)


class TestAffineInvariance:
    @pytest.mark.parametrize("fit", [sir_fit, save_fit])
    def test_diagonal_rescaling(self, fit, rng):
        first = rng.normal(size=(80, 3)) + [1.5, 0.0, 0.0]
        second = rng.normal(size=(70, 3)) * [1.0, 2.0, 1.0]
        data = two_class_data(first, second)
        scales = np.array([0.5, 4.0, 1.5])
        scaled = LabeledDataset(data.X * scales, data.y)
        base = fit(data, 1)
        refit = fit(scaled, 1)
        # directions transform inversely to the coordinates; mapping the
        # rescaled fit back must recover the original span
        mapped = orthonormalize(np.diag(scales) @ refit.vectors)
        assert subspace_distance(Basis(mapped, refit.singular_values), base.vectors) <= 1e-6


class TestSharedConventions:
    def test_sign_convention_everywhere(self, rng):
        data = two_class_data(
            rng.normal(size=(40, 3)) + [1.0, 0.0, 0.0], rng.normal(size=(40, 3))
        )
        for basis in (
            sir_fit(data, 1),
            save_fit(data, 2),
            pca_fit(data.X, 2),
            potd_fit(data, 2),
            potd_fit_continuous(data, 2, cuts=[1.5]),
        ):
            for j in range(basis.dim):
                col = basis.vectors[:, j]
                assert col[int(np.argmax(np.abs(col)))] > 0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 90),
        p=st.integers(2, 4),
        k=st.integers(2, 4),
    )
    def test_relabelling_the_classes_keeps_the_span(self, seed, n, p, k):
        # the label values only name the classes: permuting them reorders
        # the slices and the class pairs, never the fitted span
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(n) % k)
        X = rng.normal(size=(n, p)) + np.outer(labels, rng.normal(size=p))
        relabelled = rng.permutation(k)[labels]
        exact = SolverConfig(mode="exact")
        for fit in (partial(potd_fit, solver=exact), sir_fit, save_fit):
            base = fit(LabeledDataset(X, labels), 1)
            sv = base.singular_values
            # the leading direction is defined only across a gap
            assume(sv[0] - sv[1] > 1e-6 * sv[0])
            refit = fit(LabeledDataset(X, relabelled), 1)
            assert subspace_distance(base, refit.vectors) <= 1e-9
