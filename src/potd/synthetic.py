"""Synthetic benchmark generators and subspace-distance metrics.

All generators draw from numpy's PCG64 generator seeded through
``SeedSequence``, so identical specs produce bit-identical datasets on
any platform.
"""

from dataclasses import dataclass

import numpy as np

from .core import Basis, LabeledDataset, _require_orthonormal
from .errors import InvalidInputError
from .ot import _columns

# each sign model's informative dimension and noise-free signal; the order
# fixes the seed codes 1-4. The signal reads exactly the leading coordinate
# axes, which span the informative subspace, so the dimension is its minimum p
MODELS = {
    "I": (2, lambda X: np.sin(X[:, 0]) / X[:, 1] ** 2),
    "II": (2, lambda X: (X[:, 0] + 0.5) * (X[:, 1] - 0.5) ** 2),
    "III": (4, lambda X: np.log(X[:, 0] ** 2)
            * (X[:, 1] ** 2 + X[:, 2] ** 2 / 2 + X[:, 3] ** 2 / 4)),
    "IV": (4, lambda X: np.sin(X[:, 0]) / (X[:, 1] * X[:, 2] * X[:, 3])),
}

STANDARDIZE_MODES = ("per-class", "pooled", "none")


def seed_sequence(seed, *key):
    """``SeedSequence([seed, *key])``; a negative seed raises :class:`InvalidInputError`."""
    if int(seed) < 0:
        raise InvalidInputError("seed must be a nonnegative integer")
    return np.random.SeedSequence([int(seed), *map(int, key)])


def make_rng(seed, *key):
    return np.random.default_rng(seed_sequence(seed, *key))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one draw from a sign model in ``MODELS``."""

    model: str
    n: int
    p: int
    seed: int
    noise_scale: float = 0.2

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidInputError(
                f"unknown model {self.model!r}; valid: {', '.join(MODELS)}"
            )
        if self.p < MODELS[self.model][0]:
            raise InvalidInputError(
                f"model {self.model} requires p >= {MODELS[self.model][0]}"
            )
        if self.n < 2:
            raise InvalidInputError("n must be >= 2")
        if self.noise_scale < 0:
            raise InvalidInputError("noise_scale must be nonnegative")


@dataclass(frozen=True)
class TrueSubspace:
    """Orthonormal basis of the informative subspace."""

    basis: np.ndarray

    def __post_init__(self):
        b = _columns(self.basis)
        _require_orthonormal(b, 1e-10, "true subspace basis must be orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis.shape[1]


def _leading_axes(p, r0):
    return TrueSubspace(np.eye(p)[:, :r0])


def model_signal(model, X):
    """Noise-free response surface of a synthetic model, one value per row."""
    if model not in MODELS:
        raise InvalidInputError(f"unknown model {model!r}")
    return MODELS[model][1](np.asarray(X, dtype=np.float64))


def gen_model(spec):
    """Binary-response draw from one of the synthetic models.

    Predictors are i.i.d. uniform on [-2, 2]; the label is the sign of the
    model signal plus ``noise_scale`` times standard normal noise, with
    sign(0) mapped to +1. Returns the dataset and the true subspace.
    """
    rng = make_rng(spec.seed)
    X = rng.uniform(-2.0, 2.0, (spec.n, spec.p))
    # rows whose signal is not finite (a zero divisor, the log of 0) are
    # redrawn; the uniform draws are multiples of 2**-51, so only a
    # coordinate of exactly 0, a measure-zero event, makes one
    with np.errstate(divide="ignore", invalid="ignore"):
        signal = model_signal(spec.model, X)
        while (bad := ~np.isfinite(signal)).any():
            X[bad] = rng.uniform(-2.0, 2.0, (int(bad.sum()), spec.p))
            signal = model_signal(spec.model, X)
    noise = rng.standard_normal(spec.n)
    vals = signal + spec.noise_scale * noise
    y = np.where(vals >= 0, 1, -1)
    r0 = MODELS[spec.model][0]
    return LabeledDataset(X, y), _leading_axes(spec.p, r0)


def _cshape_class(rng, n, theta_mean, x1_shift):
    theta = rng.normal(theta_mean, 0.25 * np.pi, n)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    block = np.empty((n, 10))
    block[:, 0] = 20.0 * np.cos(theta) + z1 + x1_shift
    block[:, 1] = 20.0 * np.sin(theta) + z2
    block[:, 2:] = rng.standard_normal((n, 8))
    return block


def gen_cshape(n_per_class=300, seed=0, standardize="per-class"):
    """Two interlocking C-shaped curves in the first two of ten coordinates.

    One arc is centered at angle pi and shifted right by one unit, the
    other at angle 0; the remaining eight coordinates are standard normal
    noise. ``standardize`` is ``"per-class"`` (each class to zero mean and
    unit variance, the default), ``"pooled"`` or ``"none"``.
    """
    if n_per_class < 10:
        raise InvalidInputError("n_per_class must be >= 10")
    if standardize not in STANDARDIZE_MODES:
        raise InvalidInputError(
            "standardize must be 'per-class', 'pooled' or 'none'"
        )
    rng = make_rng(seed)
    first = _cshape_class(rng, n_per_class, np.pi, 1.0)
    second = _cshape_class(rng, n_per_class, 0.0, 0.0)
    if standardize == "per-class":
        first = (first - first.mean(axis=0)) / first.std(axis=0)
        second = (second - second.mean(axis=0)) / second.std(axis=0)
    X = np.vstack([first, second])
    if standardize == "pooled":
        X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = np.repeat([1, 2], n_per_class)
    return LabeledDataset(X, y), _leading_axes(10, 2)


def gen_svm3d(n_per_class=200, seed=0):
    """Two 3-D Gaussian classes: equal means but 4:1 variance along the
    first axis, equal variance but means +-0.5 apart along the second,
    identical along the third. Informative subspace: first two axes."""
    if n_per_class < 2:
        raise InvalidInputError("n_per_class must be >= 2")
    rng = make_rng(seed)
    first = rng.standard_normal((n_per_class, 3)) * [2.0, 1.0, 1.0] + [0.0, 0.5, 0.0]
    second = rng.standard_normal((n_per_class, 3)) + [0.0, -0.5, 0.0]
    X = np.vstack([first, second])
    y = np.repeat([1, 2], n_per_class)
    return LabeledDataset(X, y), _leading_axes(3, 2)


# ---------------------------------------------------------------------------
# subspace metrics


def _residual_norm(b_hat, b_true):
    """``|b_true - b_hat b_hat^T b_true|_F`` for an orthonormal ``b_hat``, formed
    from the residual, which keeps the distance of near-coincident spans that
    ``r - |b_hat^T b_true|^2`` cancels to 0."""
    residual = b_true - b_hat @ (b_hat.T @ b_true)
    return float(np.linalg.norm(residual))


def _basis_matrix(obj, name):
    if isinstance(obj, Basis):
        mat = obj.vectors
    elif isinstance(obj, TrueSubspace):
        mat = obj.basis
    else:
        mat = _columns(obj)
    if mat.ndim != 2:
        raise InvalidInputError(f"{name} must be a p-by-r matrix")
    return mat


def _basis_matrices(first, second, names):
    a, b = _basis_matrix(first, names[0]), _basis_matrix(second, names[1])
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError(
            f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}"
        )
    return a, b


def subspace_distance(estimated, truth):
    """Frobenius norm of the true basis's residual off the estimated span.

    Equals 0 when the true subspace is contained in the estimate and
    sqrt(r0) when the two are orthogonal; invariant to rotations of
    either basis within its span.
    """
    b_hat, b_true = _basis_matrices(estimated, truth, ("estimated", "truth"))
    _require_orthonormal(b_hat, 1e-8, "estimated basis must be orthonormal")
    return _residual_norm(b_hat, b_true)


def sin_distance(V, V_hat):
    """Frobenius norm of the sines of the principal angles between two
    equal-dimension subspaces; 0 iff the spans coincide."""
    a, b = _basis_matrices(V, V_hat, ("V", "V_hat"))
    if a.shape[1] != b.shape[1]:
        raise InvalidInputError(
            f"subspace dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )
    for mat, name in ((a, "V"), (b, "V_hat")):
        _require_orthonormal(mat, 1e-8, f"{name} must be orthonormal")
    return _residual_norm(b, a)
