"""Generator and subspace-metric tests."""

import numpy as np
import pytest

from potd import synthetic
from potd.core import Basis
from potd.errors import InvalidInputError
from potd.synthetic import (
    MODELS,
    SyntheticSpec,
    TrueSubspace,
    gen_cshape,
    gen_model,
    gen_svm3d,
    model_signal,
    sin_distance,
    subspace_distance,
)


class ZeroedFirstDraw:
    """A stand-in generator whose first uniform draw is exactly 0 in the
    first four coordinates of ``ZERO_ROWS``; it keeps every uniform draw."""

    ZERO_ROWS = [1, 4]

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def uniform(self, low, high, size):
        draw = self.rng.uniform(low, high, size)
        if not self.draws:
            draw[np.ix_(self.ZERO_ROWS, range(4))] = 0.0
        self.draws.append(draw.copy())
        return draw

    def standard_normal(self, size):
        return self.rng.standard_normal(size)


class TestModelSignal:
    def test_hand_computed_rows(self):
        X = np.array(
            [
                [0.5, 1.0, -1.0, 2.0],
                [-1.2, 0.4, 0.8, -0.3],
            ]
        )
        x1, x2, x3, x4 = X.T
        assert np.allclose(model_signal("I", X), np.sin(x1) / x2**2)
        assert np.allclose(model_signal("II", X), (x1 + 0.5) * (x2 - 0.5) ** 2)
        assert np.allclose(
            model_signal("III", X),
            np.log(x1**2) * (x2**2 + x3**2 / 2 + x4**2 / 4),
        )
        assert np.allclose(model_signal("IV", X), np.sin(x1) / (x2 * x3 * x4))

    def test_positive_signal_gives_positive_label(self):
        # first coordinate at pi/2 maximizes the sine; a large second
        # coordinate shrinks nothing but the magnitude, so the sign is +1
        X = np.array([[np.pi / 2, 1.9, 0.0, 0.0]])
        assert model_signal("I", X)[0] > 0

    def test_unknown_model_rejected_before_reading_X(self):
        # two columns are too few for any model; the name is checked first
        with pytest.raises(InvalidInputError, match="^unknown model 'V'$"):
            model_signal("V", np.zeros((3, 2)))


class TestGenModel:
    def test_deterministic_given_seed(self):
        spec = SyntheticSpec("II", 100, 6, seed=9)
        a, _ = gen_model(spec)
        b, _ = gen_model(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_predictor_range_and_labels(self):
        data, truth = gen_model(SyntheticSpec("I", 300, 8, seed=4))
        assert data.X.min() >= -2.0 and data.X.max() <= 2.0
        assert set(np.unique(data.y)) == {-1, 1}
        assert truth.basis.shape == (8, 2)

    def test_model_three_subspace_is_four_dimensional(self):
        _, truth = gen_model(SyntheticSpec("III", 100, 10, seed=1))
        assert truth.dim == 4
        assert np.allclose(truth.basis, np.eye(10)[:, :4])

    def test_class_balance_across_seeds(self):
        fractions = []
        for seed in range(100):
            data, _ = gen_model(SyntheticSpec("I", 400, 10, seed=seed))
            fractions.append(float(np.mean(data.y == 1)))
        assert 0.3 <= np.mean(fractions) <= 0.7

    def test_signals_always_finite(self):
        for model in ("I", "II", "III", "IV"):
            data, _ = gen_model(SyntheticSpec(model, 500, 6, seed=77))
            assert np.all(np.isfinite(model_signal(model, data.X)))

    @pytest.mark.parametrize("model", MODELS)
    def test_rows_with_undefined_signal_are_redrawn(self, monkeypatch, model):
        stand_in = ZeroedFirstDraw(9)
        monkeypatch.setattr(synthetic, "make_rng", lambda seed: stand_in)
        data, _ = gen_model(SyntheticSpec(model, 8, 5, seed=0, noise_scale=0.0))
        first = stand_in.draws[0]
        zero = np.zeros(8, dtype=bool)
        zero[ZeroedFirstDraw.ZERO_ROWS] = True
        assert np.all(np.isfinite(model_signal(model, data.X)))
        assert np.array_equal(data.X[~zero], first[~zero])
        if model == "II":
            # (x1 + 0.5) (x2 - 0.5)^2 is defined at the origin: nothing is redrawn
            assert len(stand_in.draws) == 1
            assert np.array_equal(data.X, first)
        else:
            assert len(stand_in.draws) == 2
            assert np.array_equal(data.X[zero], stand_in.draws[1])

    def test_noise_scale_zero_is_signal_sign(self):
        data, _ = gen_model(SyntheticSpec("II", 200, 4, seed=3, noise_scale=0.0))
        expected = np.where(model_signal("II", data.X) >= 0, 1, -1)
        assert np.array_equal(data.y, expected)

    def test_invalid_p_rejected(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec("III", 100, 3, seed=0)

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec("V", 100, 5, seed=0)

    @pytest.mark.parametrize(
        "n, noise_scale, message",
        [(1, 0.2, "n must be >= 2"), (100, -0.1, "noise_scale must be nonnegative")],
    )
    def test_bad_size_or_noise_rejected(self, n, noise_scale, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            SyntheticSpec("I", n, 5, seed=0, noise_scale=noise_scale)


class TestGenCshape:
    def test_shape_and_labels(self):
        data, truth = gen_cshape(50, seed=2)
        assert data.X.shape == (100, 10)
        assert np.array_equal(np.unique(data.y), [1, 2])
        counts = data.class_counts()
        assert counts[1] == counts[2] == 50
        assert truth.basis.shape == (10, 2)

    def test_per_class_standardization(self):
        data, _ = gen_cshape(200, seed=5)
        for label in (1, 2):
            block = data.X[data.y == label]
            assert np.allclose(block.mean(axis=0), 0.0, atol=1e-8)
            assert np.allclose(block.var(axis=0), 1.0, atol=1e-8)

    def test_raw_first_class_sits_left(self):
        # before standardization the first arc is centered at
        # 20*cos(pi)*exp(-sigma^2/2) + 1 with sigma = pi/4 (the Gaussian
        # expectation of the cosine carries the exp(-sigma^2/2) factor)
        sigma = 0.25 * np.pi
        expected = 20.0 * np.cos(np.pi) * np.exp(-(sigma**2) / 2) + 1.0
        data, _ = gen_cshape(3000, seed=8, standardize="none")
        mean_x1 = float(data.X[data.y == 1, 0].mean())
        assert mean_x1 == pytest.approx(expected, abs=0.5)
        assert mean_x1 < -10.0

    def test_pooled_standardization(self):
        data, _ = gen_cshape(100, seed=3, standardize="pooled")
        assert np.allclose(data.X.mean(axis=0), 0.0, atol=1e-8)
        assert np.allclose(data.X.var(axis=0), 1.0, atol=1e-8)

    def test_deterministic(self):
        a, _ = gen_cshape(40, seed=6)
        b, _ = gen_cshape(40, seed=6)
        assert np.array_equal(a.X, b.X)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_cshape(5, seed=0)

    def test_bad_standardize_rejected(self):
        message = "^standardize must be 'per-class', 'pooled' or 'none'$"
        with pytest.raises(InvalidInputError, match=message):
            gen_cshape(50, seed=0, standardize="sideways")


class TestGenSvm3d:
    def test_too_small_rejected(self):
        with pytest.raises(InvalidInputError, match="^n_per_class must be >= 2$"):
            gen_svm3d(1, seed=0)

    def test_moment_structure(self):
        data, truth = gen_svm3d(4000, seed=11)
        first = data.X[data.y == 1]
        second = data.X[data.y == 2]
        # same mean, different variance along axis 1
        assert abs(first[:, 0].mean() - second[:, 0].mean()) < 0.15
        assert first[:, 0].var() / second[:, 0].var() == pytest.approx(4.0, rel=0.15)
        # different mean, same variance along axis 2
        assert first[:, 1].mean() - second[:, 1].mean() == pytest.approx(1.0, abs=0.1)
        assert truth.basis.shape == (3, 2)


class TestSubspaceDistance:
    def test_identical_subspaces(self):
        b = np.eye(4)[:, :2]
        assert subspace_distance(b, b) == 0.0

    def test_orthogonal_subspaces(self):
        e = np.eye(4)
        assert subspace_distance(e[:, 2:], e[:, :2]) == pytest.approx(np.sqrt(2.0))

    def test_half_overlap(self):
        e = np.eye(4)
        mixed = np.stack([e[:, 0], (e[:, 1] + e[:, 2]) / np.sqrt(2)], axis=1)
        assert subspace_distance(mixed, e[:, :2]) == pytest.approx(1 / np.sqrt(2))

    def test_rotation_invariance(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        b_hat, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        b_true, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        base = subspace_distance(b_hat, b_true)
        assert subspace_distance(b_hat @ q, b_true) == pytest.approx(base, abs=1e-10)

    def test_range_bounds(self, rng):
        for _ in range(10):
            b_hat, _ = np.linalg.qr(rng.normal(size=(5, 2)))
            b_true, _ = np.linalg.qr(rng.normal(size=(5, 3)))
            d = subspace_distance(b_hat, b_true)
            assert 0.0 <= d <= np.sqrt(3) + 1e-12

    def test_accepts_basis_and_true_subspace_objects(self):
        basis = Basis(np.eye(3)[:, :1], np.array([1.0]))
        truth = TrueSubspace(np.eye(3)[:, :1])
        assert subspace_distance(basis, truth) == 0.0

    @pytest.mark.parametrize("entry", ["TrueSubspace", "estimated", "truth"])
    def test_vector_is_one_column(self, entry):
        vector, axis = np.array([0.0, -0.6, 0.8]), np.eye(3)[:, 1:2]
        if entry == "TrueSubspace":
            assert np.array_equal(TrueSubspace(vector).basis, vector[:, None])
        else:
            args = {"estimated": axis, "truth": axis, entry: vector}
            assert subspace_distance(**args) == pytest.approx(0.8, abs=1e-15)

    def test_non_orthonormal_truth_rejected(self):
        with pytest.raises(InvalidInputError, match="^true subspace basis must be orthonormal$"):
            TrueSubspace(np.full((3, 2), 0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="^ambient dimensions differ: 3 vs 4$"):
            subspace_distance(np.eye(3)[:, :1], np.eye(4)[:, :1])

    def test_non_orthonormal_estimate_rejected(self):
        with pytest.raises(InvalidInputError, match="^estimated basis must be orthonormal$"):
            subspace_distance(np.full((3, 2), 0.5), np.eye(3)[:, :2])

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(InvalidInputError, match="^estimated must be a p-by-r matrix$"):
            subspace_distance(np.zeros((2, 2, 2)), np.eye(2))


class TestSinDistance:
    def test_identical(self):
        v = np.eye(5)[:, :2]
        assert sin_distance(v, v) == 0.0

    def test_orthogonal_lines(self):
        e = np.eye(3)
        assert sin_distance(e[:, :1], e[:, 1:2]) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        for _ in range(5):
            a, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            b, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            assert sin_distance(a, b) == pytest.approx(sin_distance(b, a), abs=1e-10)

    def test_range_bound(self, rng):
        a, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        b, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        assert 0.0 <= sin_distance(a, b) <= np.sqrt(2) + 1e-12

    def test_unequal_dimensions_rejected(self):
        e = np.eye(4)
        with pytest.raises(InvalidInputError, match="^subspace dimensions differ: 1 vs 2$"):
            sin_distance(e[:, :1], e[:, :2])

    @pytest.mark.parametrize("name", ["V", "V_hat"])
    def test_non_orthonormal_input_rejected(self, name):
        e = np.eye(3)[:, :2]
        args = {"V": e, "V_hat": e, name: np.full((3, 2), 0.5)}
        with pytest.raises(InvalidInputError, match=f"^{name} must be orthonormal$"):
            sin_distance(**args)

    # the orthonormality check of Basis (TestBasis::test_column_norm_tolerance)
    # serves these too: a diagonal entry may be off by 1e-5 relative,
    # whatever the atol
    @pytest.mark.parametrize("norm_error, accepted", [(2e-5, False), (5e-6, True)])
    @pytest.mark.parametrize("entry", ["TrueSubspace", "subspace_distance", "sin_distance"])
    def test_shares_the_basis_norm_tolerance(self, entry, norm_error, accepted):
        vectors = np.eye(3)[:, :2]
        vectors[:, 1] *= 1.0 + norm_error
        axes = np.eye(3)[:, :2]
        check, message = {
            "TrueSubspace": (lambda: TrueSubspace(vectors), "true subspace basis"),
            "subspace_distance": (lambda: subspace_distance(vectors, axes), "estimated basis"),
            "sin_distance": (lambda: sin_distance(vectors, axes), "V"),
        }[entry]
        if accepted:
            check()
        else:
            with pytest.raises(InvalidInputError, match=f"^{message} must be orthonormal$"):
                check()

    @pytest.mark.parametrize("theta", [1e-6, 1e-9, 1e-12])
    def test_small_angle(self, theta):
        # r - |V^T V_hat|^2 cancels to 0 once cos(theta)^2 rounds to 1; the
        # residual off the span keeps the sine
        e = np.eye(3)
        v_hat = np.cos(theta) * e[:, :1] + np.sin(theta) * e[:, 1:2]
        assert sin_distance(e[:, :1], v_hat) == pytest.approx(np.sin(theta), rel=1e-6, abs=0)
