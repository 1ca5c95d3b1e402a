"""Subspace estimation from optimal-transport displacement directions.

For every ordered pair of response classes the mass-weighted displacement
rows ``diag(a_i) X_(i) - G_ij X_(j)`` are stacked into one matrix; its
leading right singular vectors span the estimated sufficient dimension
reduction subspace. Fits run in whitened coordinates by default and the
basis is mapped back to the original predictor scale.
"""

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .ot import DiscreteMeasure, _columns, solve_coupling

ORTHONORMAL_TOL = 1e-10
RANK_REL_TOL = 1e-10

# ratio of stacked rows to columns above which the SVD is taken through the
# p-by-p Gram matrix instead of the full row matrix; short stacks keep the
# SVD because squaring in the Gram matrix loses the trailing singular values
# (test_two_point_degenerate_spans_displacement pins them to 1e-12)
GRAM_PATH_ROW_FACTOR = 4

# this package's source directory, whose frames the clamp warning skips
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def apply_sign_convention(vectors):
    """Flip column signs so each column's largest-magnitude entry is positive."""
    vectors = np.array(vectors, dtype=np.float64)
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.negative(vectors, out=vectors, where=peaks < 0)


def _require_orthonormal(mat, atol, message):
    """Raise :class:`InvalidInputError` with ``message`` unless ``mat.T @ mat``
    is the identity by numpy's ``allclose`` rule (``atol``, rtol 1e-5; NaN and
    inf fail), without the overhead that is most of ``allclose``'s time."""
    eye = np.eye(mat.shape[1])
    if not np.all(np.abs(mat.T @ mat - eye) <= atol + 1e-5 * eye):
        raise InvalidInputError(message)


def orthonormalize(vectors):
    """Orthonormal basis of the column span, preserving column order.

    Column signs are left as the QR factorization gives them; :class:`Basis`
    fixes them by :func:`apply_sign_convention`.
    """
    return np.linalg.qr(np.asarray(vectors, dtype=np.float64))[0]


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of an estimated subspace, in predictor coordinates.

    ``singular_values`` is the full (nonincreasing) spectrum of the fit the
    basis was extracted from, not just the kept leading part.
    """

    vectors: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        vecs = _columns(self.vectors)
        if vecs.ndim != 2 or vecs.shape[0] < 1:
            raise InvalidInputError("basis vectors must be a nonempty p-by-r matrix")
        vecs = apply_sign_convention(vecs)
        _require_orthonormal(vecs, ORTHONORMAL_TOL, "basis columns must be orthonormal")
        sv = np.asarray(self.singular_values, dtype=np.float64).ravel()
        if np.any(np.diff(sv) > 1e-8):
            raise InvalidInputError("singular values must be nonincreasing")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "singular_values", sv)

    @property
    def dim(self):
        return self.vectors.shape[1]

    @property
    def ambient_dim(self):
        return self.vectors.shape[0]


def _distinct(values):
    """The sorted distinct entries of ``values``, as ``np.unique`` gives them.

    A plain ``np.unique`` (no ``return_*`` flag) checks its input with
    ``np.ma.is_masked``, whose first call imports ``numpy.ma``, a package
    nothing else here needs, into every process; asking for the counts
    takes the sorting path, which has no such check.
    """
    return np.unique(values, return_counts=True)[0]


@dataclass(frozen=True)
class LabeledDataset:
    """Predictor matrix with a response vector (categorical or real)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 2:
            raise InvalidInputError("X must be a matrix with at least 2 rows")
        if not np.all(np.isfinite(X)):
            raise InvalidInputError("X contains non-finite entries")
        y = np.asarray(self.y)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise InvalidInputError("y must be a vector with one entry per row of X")
        # NaN is the one label unequal to itself, for every dtype
        missing = np.flatnonzero(y != y)
        if missing.size:
            raise InvalidInputError(
                f"y has {missing.size} NaN labels, first at row {int(missing[0])}"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    def classes(self):
        return _distinct(self.y)

    def class_counts(self):
        labels, counts = np.unique(self.y, return_counts=True)
        return dict(zip(labels.tolist(), counts.tolist()))


@dataclass(frozen=True)
class SecondOrderDisplacement:
    """Expected outer product of displacement vectors with its spectrum."""

    sigma: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def basis(self, r):
        """Leading ``r`` eigenvectors as a Basis."""
        return Fit(self.eigenvectors, self.eigenvalues, None).basis(r)


def centered_covariance(X):
    """``(Xc, Xc.T @ Xc / n)``: the column-centered ``X`` and its covariance.

    Raises :class:`InvalidInputError` when the covariance is not finite,
    as when entries near the float range overflow it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        Xc = X - X.mean(axis=0)
        cov = Xc.T @ Xc / X.shape[0]
    if not np.all(np.isfinite(cov)):
        raise InvalidInputError("predictor covariance is not finite; rescale the columns")
    return Xc, cov


def whiten(X):
    """Center and whiten: returns ``(Z, W)`` with ``Z^T Z / n = I``.

    ``W`` is the inverse symmetric square root of the sample covariance;
    a basis ``B`` fitted on ``Z`` maps back to predictor coordinates as
    ``orthonormalize(W @ B)``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidInputError("X must be a matrix")
    n, p = X.shape
    if n <= p:
        raise InvalidInputError(f"whitening requires n > p (got n={n}, p={p})")
    Xc, cov = centered_covariance(X)
    evals, evecs = np.linalg.eigh(cov)
    bad = evals <= RANK_REL_TOL * max(evals.max(), 0.0)
    if np.any(bad):
        null_dirs = [int(np.argmax(np.abs(evecs[:, j]))) for j in np.nonzero(bad)[0]]
        raise DegenerateInputError(
            "covariance is rank deficient; null directions are dominated by "
            f"predictor columns {sorted(set(null_dirs))}"
        )
    W = (evecs * evals**-0.5) @ evecs.T
    return Xc @ W, W


def _check_plan_shape(source, target, coupling):
    if coupling.plan.shape != (source.size, target.size):
        raise InvalidInputError(
            f"coupling shape {coupling.plan.shape} does not match measures "
            f"({source.size}, {target.size})"
        )


def _displacements(source, plan, target):
    """Rows ``diag(a) X - plan @ Y``, ``a`` and ``X`` of ``source``, ``Y`` of ``target``."""
    return source.weights[:, None] * source.points - plan @ target.points


def displacement_matrix(source, target, coupling):
    """Weighted displacement rows ``diag(a_i) X_(i) - G_ij X_(j)``.

    The column sums equal the difference of the two weighted class means.
    """
    _check_plan_shape(source, target, coupling)
    if source.dim != target.dim:
        raise InvalidInputError("source and target point dimensions differ")
    return _displacements(source, coupling.plan, target)


def _pair_blocks(source, target, solver):
    """The displacement blocks of ``(source, target)`` and of the reverse pair.

    The plan for (j, i) is the transpose of the one for (i, j) — the cost
    matrix transposes — so one solve gives both blocks, and the plan is
    dropped when they are formed.
    """
    plan = solve_coupling(source, target, config=solver).plan
    return _displacements(source, plan, target), _displacements(target, plan.T, source)


def _stacked_displacements(Z, codes, solver):
    """Displacement blocks for every ordered class pair, in label order.

    ``codes`` numbers the classes of the rows 0, 1, ..., k - 1 in label
    order, each class present. Each class is the empirical measure of its
    rows, mass 1/n_class per point. Each unordered pair is solved once (see
    :func:`_pair_blocks`), so one plan is held at a time.
    """
    k = int(codes.max()) + 1
    measures = [DiscreteMeasure.uniform(Z[codes == c]) for c in range(k)]
    blocks = {}
    for i in range(k):
        for j in range(i + 1, k):
            blocks[i, j], blocks[j, i] = _pair_blocks(measures[i], measures[j], solver)
    return [blocks[i, j] for i in range(k) for j in range(k) if i != j]


def descending_eigh(matrix):
    """Eigenvalues and eigenvectors of a symmetric matrix, largest first."""
    evals, evecs = np.linalg.eigh(matrix)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order]


@dataclass(frozen=True)
class Fit:
    """A fit before ``r`` is chosen: its directions (leading first, in the
    coordinates it ran in), its full nonincreasing spectrum, and the
    whitening map ``W`` of those coordinates (``None``: raw predictors)."""

    vectors: np.ndarray
    spectrum: np.ndarray
    W: np.ndarray | None

    def basis(self, r):
        """Basis of the leading ``r`` directions, in predictor coordinates.

        ``r`` must be in [1, p]; above the fit's number of directions (SIR
        has ``k - 1``, unwhitened POTD one per stacked row) it is clamped with a warning.
        """
        p, found = self.vectors.shape
        if not 1 <= r <= p:
            raise InvalidInputError(f"r must be in [1, p={p}], got {r}")
        if found < r:
            # name the first frame outside the package, where r was chosen
            # (stacklevel 1 is this frame); skip_file_prefixes needs 3.12
            level, frame = 1, sys._getframe()
            while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
                level, frame = level + 1, frame.f_back
            message = f"the fit found {found} direction(s); clamping r from {r} to {found}"
            warnings.warn(message, stacklevel=level)
        vectors = self.vectors[:, :r]
        if self.W is not None:
            vectors = orthonormalize(self.W @ vectors)
        return Basis(vectors, self.spectrum)


def _fit(data, labelings, solver, whiten_flag):
    """The :class:`Fit` behind :func:`potd_fit` and :func:`potd_fit_continuous`.

    Every labelling of the rows (class codes, as
    :func:`_stacked_displacements` takes them) contributes the displacement
    blocks of its ordered class pairs; the blocks are stacked labelling by
    labelling and the right singular vectors of the stack are the fit's
    directions. The SVD is taken through the p-by-p Gram matrix when the
    stack is tall.
    Raises :class:`DegenerateInputError` when every singular value is zero
    relative to the data scale (e.g. classes with identical point clouds),
    since any basis would then be arbitrary.
    """
    Z, W = whiten(data.X) if whiten_flag else (data.X, None)
    stacked = np.vstack([b for y in labelings for b in _stacked_displacements(Z, y, solver)])
    if stacked.shape[0] > GRAM_PATH_ROW_FACTOR * data.p:
        evals, vecs = descending_eigh(stacked.T @ stacked)
        svals = np.sqrt(np.maximum(evals, 0.0))
    else:
        _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
        vecs = vt.T
    if svals[0] <= RANK_REL_TOL * np.linalg.norm(Z) / Z.shape[0]:
        raise DegenerateInputError(
            "all displacement singular values are zero: the class point "
            "clouds coincide, so no direction separates them"
        )
    return Fit(vecs, svals, W)


def _class_codes(y):
    """The sorted distinct labels of ``y`` and each row's index into them.

    Labels are plain Python values, so that a message shows 'c' and not
    np.str_('c'). Fewer than 2 classes raise :class:`InvalidInputError`.
    """
    labels, codes = np.unique(y, return_inverse=True)
    if labels.shape[0] < 2:
        raise InvalidInputError("need at least 2 classes")
    return labels.tolist(), codes


def _potd(data, solver=None, whiten_flag=True):
    """The :class:`Fit` behind :func:`potd_fit`, before ``r`` is chosen."""
    return _fit(data, [_class_codes(data.y)[1]], solver, whiten_flag)


def potd_fit(data, r, solver=None, whiten_flag=True):
    """Fit the transport-displacement subspace of a categorical dataset.

    Every ordered class pair contributes its displacement rows; the top
    ``r`` right singular vectors of the stack form the basis (mapped back
    to original coordinates when ``whiten_flag`` is on). Raises
    :class:`DegenerateInputError` when the displacement spectrum is all
    zero, e.g. for classes with identical point clouds.
    """
    return _potd(data, solver, whiten_flag).basis(r)


def potd_fit_continuous(data, r, cuts=None, solver=None, whiten_flag=True):
    """Continuous-response extension: slice at thresholds, pool displacements.

    Each cut ``c`` splits the sample into ``y < c`` and ``y >= c``; the
    displacement rows of all cuts are pooled before the SVD. Default cuts
    are the 1/3 and 2/3 quantiles of ``y``. An all-zero displacement
    spectrum raises :class:`DegenerateInputError`, as in :func:`potd_fit`.
    """
    try:
        y = np.asarray(data.y, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"continuous fit needs a numeric response, got dtype {data.y.dtype}"
        ) from None
    if cuts is None:
        cuts = np.quantile(y, [1 / 3, 2 / 3])
    cuts = np.atleast_1d(np.asarray(cuts, dtype=np.float64))
    if cuts.shape[0] < 1:
        raise InvalidInputError("need at least one cut")
    sides = [np.where(y < c, 0, 1) for c in cuts]
    for c, side in zip(cuts, sides):
        if side.all() or not side.any():
            raise InvalidInputError(f"cut {float(c)} leaves one side of the split empty")
    return _fit(data, sides, solver, whiten_flag).basis(r)


def second_order_displacement(source, target, coupling):
    """Weighted second moment of the per-point displacement vectors.

    Images of the source atoms are the barycentric projections rescaled by
    the atom masses; the result is the symmetric PSD matrix
    ``sum_l a_l (x_l - image_l)(x_l - image_l)^T`` with its spectrum.
    """
    _check_plan_shape(source, target, coupling)
    a = source.weights
    images = (coupling.plan @ target.points) / a[:, None]
    diffs = source.points - images
    sigma = diffs.T @ (diffs * a[:, None])
    sigma = 0.5 * (sigma + sigma.T)
    evals, evecs = descending_eigh(sigma)
    return SecondOrderDisplacement(sigma, evals, apply_sign_convention(evecs))


def project(X, basis):
    """Coordinates of the rows of X in the basis: ``X @ vectors``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != basis.ambient_dim:
        raise InvalidInputError(
            f"X must have {basis.ambient_dim} columns, got shape {X.shape}"
        )
    return X @ basis.vectors
