"""Core fitting tests: whitening, displacements, the subspace fit and its
invariants."""

import re

import numpy as np
import pytest

import potd.core
import potd.ot
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from potd.core import (
    Basis,
    LabeledDataset,
    apply_sign_convention,
    displacement_matrix,
    potd_fit,
    potd_fit_continuous,
    project,
    second_order_displacement,
    whiten,
)
from potd.errors import DegenerateInputError, InvalidInputError
from potd.ot import (
    CouplingMatrix,
    DiscreteMeasure,
    SolverConfig,
    solve_coupling,
)
from potd.synthetic import SyntheticSpec, gen_model, model_signal, subspace_distance

from conftest import random_instance, traced_peak

EXACT = SolverConfig(mode="exact")


def make_basis(*cols):
    mat = np.array(cols, dtype=np.float64).T
    return Basis(mat, np.arange(mat.shape[1], 0, -1, dtype=np.float64))


class TestLabeledDataset:
    @pytest.mark.parametrize("dtype", [np.float64, object])
    def test_nan_label_rejected(self, rng, dtype):
        y = np.array(list(np.repeat([0.0, 1.0], [20, 19])) + [np.nan], dtype=dtype)
        with pytest.raises(InvalidInputError, match="NaN labels, first at row 39"):
            LabeledDataset(rng.normal(size=(40, 3)), y)

    ROWS = "X must be a matrix with at least 2 rows"
    ENTRIES = "y must be a vector with one entry per row of X"

    @pytest.mark.parametrize(
        "X, y, message",
        [
            (np.zeros(4), np.arange(4), ROWS),
            (np.zeros((1, 3)), np.arange(1), ROWS),
            ([[0.0, 1.0], [np.inf, 2.0]], [0, 1], "X contains non-finite entries"),
            (np.zeros((3, 2)), [0, 1], ENTRIES),
            (np.zeros((3, 2)), np.zeros((3, 1)), ENTRIES),
        ],
        ids=["vector", "one-row", "non-finite", "short-y", "matrix-y"],
    )
    def test_rejects_bad_arrays(self, X, y, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            LabeledDataset(X, y)

    @pytest.mark.parametrize(
        "y, classes",
        [(np.array(["b", "a", "c", "a"]), np.array(["a", "b", "c"])),
         (np.array([3, 1, 3, 2]), np.array([1, 2, 3]))],
        ids=["strings", "integers"],
    )
    def test_classes_are_the_sorted_distinct_labels(self, y, classes):
        got = LabeledDataset(np.arange(8.0).reshape(4, 2), y).classes()
        assert got.dtype == y.dtype
        assert np.array_equal(got, classes)


class TestReversedInstance:
    """Under the squared-Euclidean cost the reversed instance's plan is the
    transpose, so the fit solves each unordered class pair once."""

    @pytest.mark.parametrize("mode, tol", [("exact", 1e-12), ("sinkhorn", 1e-8)])
    def test_reversed_instance_gives_transposed_plan(self, rng, mode, tol):
        mu, nu = random_instance(rng, 5, 3)
        config = SolverConfig(mode=mode)
        forward = solve_coupling(mu, nu, config=config)
        reverse = solve_coupling(nu, mu, config=config)
        assert np.max(np.abs(reverse.plan - forward.plan.T)) <= tol


class TestWhiten:
    def test_identity_covariance_roundtrip(self, rng):
        X = rng.normal(size=(300, 4))
        Z, _ = whiten(X)
        Z2, W2 = whiten(Z)
        assert np.allclose(Z2, Z, atol=1e-8)
        assert np.allclose(W2, np.eye(4), atol=1e-6)

    def test_scale_removal(self, rng):
        X = rng.normal(size=(200, 3))
        X[:, 1] *= 10.0
        Z, _ = whiten(X)
        assert np.allclose(Z.var(axis=0), 1.0, atol=1e-8)

    def test_unit_covariance(self, rng):
        X = rng.normal(size=(200, 5)) @ rng.normal(size=(5, 5))
        Z, _ = whiten(X)
        assert np.allclose(Z.T @ Z / 200, np.eye(5), atol=1e-8)

    def test_back_transform_maps_directions(self, rng):
        X = rng.normal(size=(200, 3)) * [1.0, 3.0, 0.5]
        Z, W = whiten(X)
        # a direction fitted in whitened space corresponds to W @ v originally
        v = np.array([1.0, 0.0, 0.0])
        back = W @ v
        assert np.allclose(Z @ v, (X - X.mean(0)) @ back)

    def test_requires_more_rows_than_columns(self, rng):
        with pytest.raises(InvalidInputError):
            whiten(rng.normal(size=(3, 5)))

    def test_requires_a_matrix(self):
        with pytest.raises(InvalidInputError, match="^X must be a matrix$"):
            whiten(np.zeros(5))

    def test_constant_column_names_direction(self, rng):
        X = rng.normal(size=(50, 4))
        X[:, 2] = 7.0
        with pytest.raises(DegenerateInputError, match=r"\[2\]"):
            whiten(X)


class TestDisplacementMatrix:
    def test_self_transport_is_zero(self):
        mu = DiscreteMeasure.uniform([[1.0, 2.0]])
        coupling = CouplingMatrix([[1.0]], [1.0], [1.0])
        delta = displacement_matrix(mu, mu, coupling)
        assert np.allclose(delta, 0.0)

    def test_single_displacement(self):
        src = DiscreteMeasure.uniform([[0.0, 0.0]])
        tgt = DiscreteMeasure.uniform([[1.0, 0.0]])
        coupling = CouplingMatrix([[1.0]], [1.0], [1.0])
        delta = displacement_matrix(src, tgt, coupling)
        assert np.allclose(delta, [[-1.0, 0.0]])

    def test_two_point_permutation(self):
        src = DiscreteMeasure.uniform([[0.0, 0.0], [4.0, 0.0]])
        tgt = DiscreteMeasure.uniform([[0.0, 1.0], [4.0, 1.0]])
        coupling = CouplingMatrix(np.eye(2) / 2, [0.5, 0.5], [0.5, 0.5])
        delta = displacement_matrix(src, tgt, coupling)
        expected = 0.5 * (src.points - tgt.points)
        assert np.allclose(delta, expected)

    def test_column_sum_identity(self, rng):
        src = DiscreteMeasure.uniform(rng.normal(size=(9, 4)))
        w = rng.uniform(0.5, 1.0, 6)
        tgt = DiscreteMeasure(rng.normal(size=(6, 4)) + 1.0, w / w.sum())
        coupling = solve_coupling(src, tgt, config=EXACT)
        delta = displacement_matrix(src, tgt, coupling)
        mean_diff = src.weights @ src.points - tgt.weights @ tgt.points
        assert np.allclose(delta.sum(axis=0), mean_diff, atol=1e-8)

    def test_shape_mismatch(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        coupling = CouplingMatrix([[1.0]], [1.0], [1.0])
        with pytest.raises(InvalidInputError):
            displacement_matrix(mu, mu, coupling)

    def test_point_dimension_mismatch(self):
        src = DiscreteMeasure.uniform([[0.0, 0.0]])
        tgt = DiscreteMeasure.uniform([[1.0, 0.0, 0.0]])
        coupling = CouplingMatrix([[1.0]], [1.0], [1.0])
        with pytest.raises(InvalidInputError, match="^source and target point dimensions differ$"):
            displacement_matrix(src, tgt, coupling)


class TestStackedDisplacements:
    @pytest.mark.parametrize("mode", ["exact", "sinkhorn"])
    def test_three_classes_take_both_blocks_from_one_plan(self, rng, mode):
        sizes = {0: 7, 1: 9, 2: 8}
        Z = np.vstack([rng.normal(size=(n, 3)) + label for label, n in sizes.items()])
        y = np.repeat(list(sizes), list(sizes.values()))
        config = SolverConfig(mode=mode)
        measures = {c: DiscreteMeasure.uniform(Z[y == c]) for c in sizes}
        expected = []
        for ci in sizes:
            for cj in sizes:
                if ci == cj:
                    continue
                if ci < cj:
                    coupling = solve_coupling(measures[ci], measures[cj], config=config)
                else:
                    plan = solve_coupling(measures[cj], measures[ci], config=config).plan
                    coupling = CouplingMatrix(plan.T, measures[ci].weights, measures[cj].weights)
                expected.append(displacement_matrix(measures[ci], measures[cj], coupling))
        blocks = potd.core._stacked_displacements(Z, y, config)
        assert len(blocks) == len(expected) == 6
        assert all(np.array_equal(b, e) for b, e in zip(blocks, expected))

    def test_a_four_class_fit_holds_one_plan_at_a_time(self, rng):
        # four equal classes of 400 take the assignment path; all six
        # plans held to the end of the fit would peak above 6 plans
        X = np.vstack([rng.normal(size=(400, 3)) + c for c in range(4)])
        data = LabeledDataset(X, np.repeat([0, 1, 2, 3], 400))
        potd_fit(data, 2)  # this thread's solver buffers are held from here on
        assert traced_peak(potd_fit, data, 2) <= 1.5 * 8 * 400 * 400


class TestPotdFit:
    def test_two_single_point_classes(self):
        data = LabeledDataset([[0.0, 0.0], [3.0, 4.0]], [1, 2])
        basis = potd_fit(data, 1, solver=EXACT, whiten_flag=False)
        assert np.allclose(np.abs(basis.vectors.ravel()), [0.6, 0.8], atol=1e-12)

    def test_collinear_classes_recover_line(self, rng):
        direction = np.array([1.0, 2.0, -1.0])
        direction /= np.linalg.norm(direction)
        offsets = {1: 0.0, 2: 5.0, 3: -5.0}
        X, y = [], []
        for label, offset in offsets.items():
            t = rng.uniform(-1, 1, 10) + offset
            X.append(np.outer(t, direction))
            y.extend([label] * 10)
        data = LabeledDataset(np.vstack(X), np.array(y))
        basis = potd_fit(data, 1, solver=EXACT, whiten_flag=False)
        overlap = abs(float(basis.vectors[:, 0] @ direction))
        assert overlap > 1 - 1e-6

    def test_r_out_of_range(self):
        data = LabeledDataset([[0.0, 0.0], [1.0, 1.0]], [1, 2])
        with pytest.raises(InvalidInputError):
            potd_fit(data, 3, solver=EXACT, whiten_flag=False)

    def test_r_above_the_stack_rows_is_clamped(self):
        # two points stack two displacement rows, so an unwhitened fit in
        # 3-D has two directions
        data = LabeledDataset([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]], [1, 2])
        with pytest.warns(UserWarning, match="clamping r from 3 to 2"):
            basis = potd_fit(data, 3, solver=EXACT, whiten_flag=False)
        assert basis.dim == 2

    def test_single_class_rejected(self):
        data = LabeledDataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(InvalidInputError, match="^need at least 2 classes$"):
            potd_fit(data, 1, solver=EXACT, whiten_flag=False)

    @pytest.mark.parametrize("whiten_flag", [True, False])
    def test_single_class_is_reported_before_a_rank_deficient_covariance(
        self, rng, whiten_flag
    ):
        # whitening this X raises DegenerateInputError; the class count is
        # checked first
        x = rng.normal(size=(20, 2))
        data = LabeledDataset(np.column_stack([x, x[:, 0]]), ["a"] * 20)
        with pytest.raises(InvalidInputError, match="^need at least 2 classes$"):
            potd_fit(data, 1, whiten_flag=whiten_flag)

    def test_permutation_invariance(self, rng):
        spec = SyntheticSpec("I", 120, 5, seed=11)
        data, _ = gen_model(spec)
        base = potd_fit(data, 2, solver=EXACT)
        perm = rng.permutation(data.n)
        shuffled = LabeledDataset(data.X[perm], data.y[perm])
        refit = potd_fit(shuffled, 2, solver=EXACT)
        assert subspace_distance(base, refit.vectors) <= 1e-8

    def test_rotation_equivariance_whitened(self, rng):
        spec = SyntheticSpec("II", 150, 4, seed=12)
        data, _ = gen_model(spec)
        base = potd_fit(data, 2, solver=EXACT, whiten_flag=True)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = LabeledDataset(data.X @ q, data.y)
        refit = potd_fit(rotated, 2, solver=EXACT, whiten_flag=True)
        assert subspace_distance(Basis(q @ refit.vectors, refit.singular_values), base.vectors) <= 1e-6

    def test_singular_values_match_gram_eigenvalues(self, rng):
        spec = SyntheticSpec("I", 80, 4, seed=13)
        data, _ = gen_model(spec)
        basis = potd_fit(data, 2, solver=EXACT, whiten_flag=False)
        # reassemble the stacked displacement rows independently
        labels = np.unique(data.y)
        blocks = []
        measures = {
            c: DiscreteMeasure.uniform(data.X[data.y == c]) for c in labels
        }
        for ci in labels:
            for cj in labels:
                if ci == cj:
                    continue
                coupling = solve_coupling(measures[ci], measures[cj], config=EXACT)
                blocks.append(displacement_matrix(measures[ci], measures[cj], coupling))
        stacked = np.vstack(blocks)
        gram_evals = np.sort(np.linalg.eigvalsh(stacked.T @ stacked))[::-1]
        assert np.allclose(
            basis.singular_values**2, np.maximum(gram_evals, 0.0), atol=1e-8
        )

    def test_two_point_degenerate_spans_displacement(self):
        data = LabeledDataset([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]], [1, 2])
        basis = potd_fit(data, 1, solver=EXACT, whiten_flag=False)
        expected = np.array([1.0, 1.0, -2.0])
        expected /= np.linalg.norm(expected)
        assert abs(float(basis.vectors[:, 0] @ expected)) == pytest.approx(1.0, abs=1e-12)
        # only one informative direction exists
        assert basis.singular_values[1:] == pytest.approx(0.0, abs=1e-12)


    @pytest.mark.parametrize("unequal", [False, True])
    def test_identical_class_clouds_rejected(self, rng, monkeypatch, unequal):
        # equal-size clouds take the assignment path; a cloud against itself
        # stacked twice is the same measure at unequal sizes, so it takes the LP
        cloud = rng.normal(size=(20, 3))
        copies = 2 if unequal else 1
        data = LabeledDataset(
            np.vstack([cloud] * (1 + copies)), np.repeat([1, 2], [20, 20 * copies])
        )
        lp_calls = []
        transportation_lp = potd.ot._transportation_lp

        def counted_lp(*args):
            lp_calls.append(args)
            return transportation_lp(*args)

        monkeypatch.setattr(potd.ot, "_transportation_lp", counted_lp)
        with pytest.raises(DegenerateInputError, match="singular values are zero"):
            potd_fit(data, 1, solver=EXACT)
        assert len(lp_calls) == int(unequal)


class TestPotdFitContinuous:
    def test_median_cut_equals_binary_fit(self, rng):
        X = rng.uniform(-2, 2, (60, 4))
        y = X[:, 0] + 0.3 * rng.standard_normal(60)
        data = LabeledDataset(X, y)
        cut = float(np.median(y))
        cont = potd_fit_continuous(data, 2, cuts=[cut], solver=EXACT)
        binary = potd_fit(
            LabeledDataset(X, np.where(y < cut, 0, 1)), 2, solver=EXACT
        )
        assert np.array_equal(cont.vectors, binary.vectors)
        assert np.array_equal(cont.singular_values, binary.singular_values)

    def test_recovers_linear_direction(self):
        rng = np.random.default_rng(np.random.SeedSequence([21]))
        X = rng.uniform(-2, 2, (400, 5))
        y = X[:, 0] + 0.2 * rng.standard_normal(400)
        data = LabeledDataset(X, y)
        basis = potd_fit_continuous(data, 1, solver=EXACT)
        assert subspace_distance(basis, np.eye(5)[:, :1]) < 0.3

    def test_monotone_second_coordinate(self):
        rng = np.random.default_rng(np.random.SeedSequence([22]))
        X = rng.uniform(-2, 2, (300, 4))
        y = np.tanh(X[:, 1]) + 0.1 * rng.standard_normal(300)
        data = LabeledDataset(X, y)
        basis = potd_fit_continuous(data, 1, cuts=[float(np.median(y))], solver=EXACT)
        assert abs(float(basis.vectors[:, 0] @ np.eye(4)[:, 1])) > 0.9

    def test_empty_cut_side_rejected(self, rng):
        X = rng.uniform(-2, 2, (30, 3))
        y = rng.uniform(0, 1, 30)
        data = LabeledDataset(X, y)
        message = "cut 5.0 leaves one side of the split empty"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            potd_fit_continuous(data, 1, cuts=[5.0], solver=EXACT)

    def test_cut_below_every_response_rejected(self, rng):
        # the other empty side, after a cut that splits the sample
        data = LabeledDataset(rng.uniform(-2, 2, (30, 3)), rng.uniform(0, 1, 30))
        message = "cut -1.0 leaves one side of the split empty"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            potd_fit_continuous(data, 1, cuts=[0.5, -1.0], solver=EXACT)

    def test_no_cut_rejected(self, rng):
        data = LabeledDataset(rng.normal(size=(30, 3)), rng.uniform(0, 1, 30))
        with pytest.raises(InvalidInputError, match="^need at least one cut$"):
            potd_fit_continuous(data, 1, cuts=[], solver=EXACT)

    def test_non_numeric_response_rejected(self, rng):
        data = LabeledDataset(rng.normal(size=(30, 3)), np.repeat(["a", "b"], 15))
        with pytest.raises(InvalidInputError, match="numeric response"):
            potd_fit_continuous(data, 1, solver=EXACT)

    def test_identical_cut_sides_rejected(self, rng):
        cloud = rng.normal(size=(20, 3))
        data = LabeledDataset(np.vstack([cloud, cloud]), np.repeat([0.0, 1.0], 20))
        with pytest.raises(DegenerateInputError, match="singular values are zero"):
            potd_fit_continuous(data, 1, cuts=[0.5], solver=EXACT)


def fit_kind(kind, X, labels, r, whiten_flag):
    """Fit integer ``labels`` as classes, or as a continuous response cut
    midway between consecutive labels (one labelling per cut)."""
    if kind == "categorical":
        return potd_fit(LabeledDataset(X, labels), r, EXACT, whiten_flag)
    y = labels.astype(np.float64)
    present = np.unique(y)
    cuts = (present[:-1] + present[1:]) / 2
    return potd_fit_continuous(LabeledDataset(X, y), r, cuts, EXACT, whiten_flag)


FIT_PROPERTY_SETTINGS = settings(
    max_examples=30, deadline=None, derandomize=True, database=None
)


@pytest.mark.parametrize("kind", ["categorical", "continuous"])
class TestFitProperties:
    """Properties of the one fit pipeline behind both fit kinds, on small
    exact-solver instances: two or three classes (one or two cuts), equal
    sizes on the assignment path and unequal ones on the LP."""

    @FIT_PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 40),
        p=st.integers(2, 4),
        k=st.integers(2, 3),
        r=st.integers(1, 3),
        whiten_flag=st.booleans(),
    )
    def test_row_permutation_keeps_the_subspace(
        self, kind, seed, n, p, k, r, whiten_flag
    ):
        rng = np.random.default_rng(seed)
        r = min(r, p - 1)
        X = rng.normal(size=(n, p))
        labels = rng.permutation(np.arange(n) % k)
        base = fit_kind(kind, X, labels, r, whiten_flag)
        sv = base.singular_values
        # the span of the leading r vectors is defined only across a gap
        assume(sv[r - 1] - sv[r] > 1e-6 * sv[0])
        perm = rng.permutation(n)
        refit = fit_kind(kind, X[perm], labels[perm], r, whiten_flag)
        assert subspace_distance(base, refit.vectors) <= 1e-8
        assert np.allclose(refit.singular_values, sv, rtol=1e-9, atol=1e-12 * sv[0])

    @FIT_PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 4),
        extra=st.integers(1, 8),
        k=st.integers(2, 3),
        whiten_flag=st.booleans(),
    )
    def test_coincident_class_clouds_are_degenerate(
        self, kind, seed, p, extra, k, whiten_flag
    ):
        rng = np.random.default_rng(seed)
        cloud = rng.normal(size=(p + extra, p))
        X = np.vstack([cloud] * k)
        labels = np.repeat(np.arange(k), cloud.shape[0])
        with pytest.raises(DegenerateInputError, match="singular values are zero"):
            fit_kind(kind, X, labels, 1, whiten_flag)


@pytest.mark.parametrize("mode", ["exact", "sinkhorn"])
@pytest.mark.parametrize("kind", ["categorical", "continuous"])
class TestAffineEquivariance:
    """Whitening maps X' = XA + 1c' to Z' = ZQ with Q orthogonal, which
    leaves the squared-Euclidean costs, the default epsilon and so the plans
    unchanged; the fitted span therefore moves to A^-1 span(B). A fit that
    skips whitening misses it by a subspace distance of about 1."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 120), p=st.integers(2, 5))
    def test_affine_map_moves_the_span_by_its_inverse(self, kind, mode, seed, n, p):
        data, _ = gen_model(SyntheticSpec("II", n, p, seed))
        assume(np.unique(data.y).shape[0] == 2)
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(p, p)) + 2.0 * np.eye(p)
        shifted = data.X @ A + rng.normal(scale=5.0, size=p)
        config = SolverConfig(mode=mode)
        if kind == "categorical":
            base = potd_fit(data, 1, config)
            moved = potd_fit(LabeledDataset(shifted, data.y), 1, config)
        else:
            y = model_signal("II", data.X)
            base = potd_fit_continuous(LabeledDataset(data.X, y), 1, solver=config)
            moved = potd_fit_continuous(LabeledDataset(shifted, y), 1, solver=config)
        sv = base.singular_values
        # the leading direction is defined only across a gap
        assume(sv[0] - sv[1] > 1e-6 * sv[0])
        expected, _ = np.linalg.qr(np.linalg.solve(A, base.vectors))
        assert subspace_distance(moved, expected) <= 1e-9


class TestSecondOrderDisplacement:
    def test_identical_classes_zero_matrix(self):
        mu = DiscreteMeasure.uniform([[1.0, 0.0], [0.0, 1.0]])
        coupling = solve_coupling(mu, mu, config=EXACT)
        result = second_order_displacement(mu, mu, coupling)
        assert np.allclose(result.sigma, 0.0, atol=1e-12)
        assert np.allclose(result.eigenvalues, 0.0, atol=1e-12)

    def test_offset_point_masses_rank_one(self):
        d = np.array([2.0, -1.0, 0.5])
        mu = DiscreteMeasure.uniform([[0.0, 0.0, 0.0]])
        nu = DiscreteMeasure.uniform([d.tolist()])
        coupling = solve_coupling(mu, nu, config=EXACT)
        result = second_order_displacement(mu, nu, coupling)
        assert np.allclose(result.sigma, np.outer(d, d), atol=1e-12)
        top = result.eigenvectors[:, 0]
        assert abs(float(top @ (d / np.linalg.norm(d)))) == pytest.approx(1.0, abs=1e-10)
        assert result.eigenvalues[0] == pytest.approx(float(d @ d), abs=1e-10)
        assert result.eigenvalues[1:] == pytest.approx(0.0, abs=1e-10)

    def test_symmetry_and_psd(self, rng):
        mu = DiscreteMeasure.uniform(rng.normal(size=(12, 4)))
        nu = DiscreteMeasure.uniform(rng.normal(size=(9, 4)) + 1.0)
        coupling = solve_coupling(mu, nu, config=EXACT)
        result = second_order_displacement(mu, nu, coupling)
        assert np.allclose(result.sigma, result.sigma.T, atol=1e-12)
        assert result.eigenvalues.min() >= -1e-10
        assert np.all(np.diff(result.eigenvalues) <= 1e-12)

    def test_zero_weight_rejected(self):
        # a zero-weight source point has no transport image; the measure
        # that would carry it cannot be built
        with pytest.raises(InvalidInputError, match="finite and positive"):
            DiscreteMeasure([[0.0], [1.0]], [1.0, 0.0])


class TestProject:
    def test_axis_basis_selects_columns(self, rng):
        X = rng.normal(size=(10, 4))
        basis = make_basis([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
        assert np.allclose(project(X, basis), X[:, :2])

    def test_rotation_within_span_is_isometric(self, rng):
        X = rng.normal(size=(20, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        a = project(X, Basis(q, np.array([2.0, 1.0])))
        b = project(X, Basis(q @ rot, np.array([2.0, 1.0])))
        dist_a = np.linalg.norm(a[:, None] - a[None, :], axis=2)
        dist_b = np.linalg.norm(b[:, None] - b[None, :], axis=2)
        assert np.allclose(dist_a, dist_b, atol=1e-10)

    def test_zero_matrix(self):
        basis = make_basis([1.0, 0.0, 0.0])
        assert np.allclose(project(np.zeros((4, 3)), basis), 0.0)

    def test_dimension_mismatch(self):
        basis = make_basis([1.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError):
            project(np.zeros((4, 2)), basis)


class TestBasis:
    def test_sign_convention(self):
        vecs = np.array([[-0.6, 0.0], [-0.8, 0.0], [0.0, -1.0]])
        basis = Basis(vecs, np.array([2.0, 1.0]))
        assert basis.vectors[1, 0] > 0  # largest-magnitude entry flipped positive
        assert basis.vectors[2, 1] > 0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(0, 5)),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan]), st.floats(-2.0, 2.0)
            ),
        )
    )
    def test_sign_convention_matches_the_column_loop(self, vectors):
        # the per-column loop it replaced: flip a column whose first
        # largest-magnitude entry is negative; ties, signed zeros and NaN
        # keep their bits
        expected = vectors.copy()
        for j in range(expected.shape[1]):
            k = int(np.argmax(np.abs(expected[:, j])))
            if expected[k, j] < 0:
                expected[:, j] = -expected[:, j]
        assert apply_sign_convention(vectors).tobytes() == expected.tobytes()

    def test_vector_is_one_column(self):
        basis = Basis(np.array([-0.6, -0.8]), np.array([1.0]))
        assert basis.dim == 1
        assert np.array_equal(basis.vectors, [[0.6], [0.8]])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 2), (2, 2, 1)])
    def test_rejects_an_empty_or_three_dimensional_array(self, shape):
        message = "^basis vectors must be a nonempty p-by-r matrix$"
        with pytest.raises(InvalidInputError, match=message):
            Basis(np.zeros(shape), np.ones(1))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidInputError):
            Basis(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([1.0, 1.0]))

    # the rule is np.allclose(gram, I, atol=ORTHONORMAL_TOL): a diagonal
    # entry may be off by 1e-5 relative, an off-diagonal one by 1e-10
    @pytest.mark.parametrize("norm_error, accepted", [(2e-5, False), (5e-6, True)])
    def test_column_norm_tolerance(self, norm_error, accepted):
        vectors = np.eye(3)[:, :2]
        vectors[:, 1] *= 1.0 + norm_error
        if accepted:
            assert Basis(vectors, np.array([2.0, 1.0])).dim == 2
        else:
            with pytest.raises(InvalidInputError, match="^basis columns must be orthonormal$"):
                Basis(vectors, np.array([2.0, 1.0]))

    @pytest.mark.parametrize("entry", [2e-10, np.nan, np.inf])
    def test_rejects_an_off_diagonal_or_non_finite_entry(self, entry):
        vectors = np.eye(3)[:, :2]
        vectors[0, 1] = entry
        with pytest.raises(InvalidInputError, match="^basis columns must be orthonormal$"):
            Basis(vectors, np.array([2.0, 1.0]))

    def test_rejects_increasing_singular_values(self):
        with pytest.raises(InvalidInputError, match="^singular values must be nonincreasing$"):
            Basis(np.eye(2), np.array([1.0, 2.0]))
