"""Reference linear reducers sharing the Basis output type.

SIR and SAVE slice by class and work on whitened predictors; PCA ignores
the response. All three return bases in original predictor coordinates
with the common sign convention.
"""

import warnings

import numpy as np

from .core import back_mapped_basis, centered_covariance, check_r, descending_eigh, whiten
from .errors import DegenerateInputError, InvalidInputError


def _slice_stats(Z, y):
    labels = np.unique(y)
    n = Z.shape[0]
    stats = []
    for label in labels:
        block = Z[y == label]
        stats.append((label, block, block.shape[0] / n))
    return stats


def sir_fit(data, r):
    """Sliced inverse regression with classes as slices.

    Binary data supports at most one direction, so ``r`` is clamped to
    ``k - 1`` (with a warning) when it exceeds the number of slices minus
    one.
    """
    labels = data.classes()
    k = labels.shape[0]
    if k < 2:
        raise InvalidInputError("need at least 2 classes")
    check_r(r, data.p)
    effective_r = min(r, k - 1)
    if effective_r < r:
        warnings.warn(
            f"SIR can estimate at most k-1={k - 1} directions; clamping r from "
            f"{r} to {effective_r}",
            stacklevel=2,
        )
    Z, W = whiten(data.X)
    between = np.zeros((data.p, data.p))
    for _, block, weight in _slice_stats(Z, data.y):
        mean = block.mean(axis=0)
        between += weight * np.outer(mean, mean)
    evals, evecs = descending_eigh(between)
    return back_mapped_basis(evecs[:, :effective_r], np.maximum(evals, 0.0), W)


def save_fit(data, r):
    """Sliced average variance estimation with classes as slices.

    Directions come from the slice-weighted sum of ``(I - cov_s)^2`` on
    whitened predictors, ``cov_s`` being the within-slice covariance.
    """
    labels = data.classes()
    if labels.shape[0] < 2:
        raise InvalidInputError("need at least 2 classes")
    check_r(r, data.p)
    Z, W = whiten(data.X)
    p = data.p
    eye = np.eye(p)
    accum = np.zeros((p, p))
    for label, block, weight in _slice_stats(Z, data.y):
        if block.shape[0] < 2:
            raise DegenerateInputError(
                f"class {label!r} has a single point; within-slice covariance "
                "is undefined"
            )
        diff = eye - centered_covariance(block)[1]
        accum += weight * (diff @ diff)
    evals, evecs = descending_eigh(accum)
    return back_mapped_basis(evecs[:, :r], np.maximum(evals, 0.0), W)


def pca_fit(X, r):
    """Top principal directions of the centered sample covariance."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InvalidInputError("X must be a matrix with at least 2 rows")
    check_r(r, X.shape[1])
    _, cov = centered_covariance(X)
    evals, evecs = descending_eigh(cov)
    return back_mapped_basis(evecs[:, :r], np.maximum(evals, 0.0), None)
