"""Reference linear reducers sharing the Basis output type.

SIR and SAVE slice by class and work on whitened predictors; PCA ignores
the response. All three return bases in original predictor coordinates
with the common sign convention. Each public ``*_fit(..., r)`` is the
r-independent :class:`~potd.core.Fit` of a private ``_sir``, ``_save`` or
``_pca`` followed by ``Fit.basis(r)``, so a caller scoring several ``r``
fits once.
"""

import numpy as np

from .core import Fit, _class_codes, centered_covariance, descending_eigh, whiten
from .errors import DegenerateInputError, InvalidInputError


def _slice_stats(Z, labels, codes):
    for c, label in enumerate(labels):
        block = Z[codes == c]
        yield label, block, block.shape[0] / Z.shape[0]


def _sir(data):
    labels, codes = _class_codes(data.y)
    Z, W = whiten(data.X)
    between = np.zeros((data.p, data.p))
    for _, block, weight in _slice_stats(Z, labels, codes):
        mean = block.mean(axis=0)
        between += weight * np.outer(mean, mean)
    evals, evecs = descending_eigh(between)
    return Fit(evecs[:, : len(labels) - 1], np.maximum(evals, 0.0), W)


def sir_fit(data, r):
    """Sliced inverse regression with classes as slices.

    ``k`` slices give at most ``k - 1`` directions (binary data one), so
    :meth:`~potd.core.Fit.basis` clamps a larger ``r`` to ``k - 1`` with a
    warning.
    """
    return _sir(data).basis(r)


def _save(data):
    labels, codes = _class_codes(data.y)
    Z, W = whiten(data.X)
    p = data.p
    eye = np.eye(p)
    accum = np.zeros((p, p))
    for label, block, weight in _slice_stats(Z, labels, codes):
        if block.shape[0] < 2:
            raise DegenerateInputError(
                f"class {label!r} has a single point; within-slice covariance "
                "is undefined"
            )
        diff = eye - centered_covariance(block)[1]
        accum += weight * (diff @ diff)
    evals, evecs = descending_eigh(accum)
    return Fit(evecs, np.maximum(evals, 0.0), W)


def save_fit(data, r):
    """Sliced average variance estimation with classes as slices.

    Directions come from the slice-weighted sum of ``(I - cov_s)^2`` on
    whitened predictors, ``cov_s`` being the within-slice covariance.
    """
    return _save(data).basis(r)


def _pca(X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InvalidInputError("X must be a matrix with at least 2 rows")
    _, cov = centered_covariance(X)
    evals, evecs = descending_eigh(cov)
    return Fit(evecs, np.maximum(evals, 0.0), None)


def pca_fit(X, r):
    """Top principal directions of the centered sample covariance."""
    return _pca(X).basis(r)
