import os
import tracemalloc

import numpy as np
import pytest

# hypothesis mixes literals of the loaded non-test modules into its draws,
# so a derandomized test draws other examples once a module is imported; the
# CLI imports every module of the package, so importing it here gives every
# subset of the tests the draws of the full suite
import potd.cli  # noqa: F401

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence([777]))


@pytest.fixture
def blobs_csv():
    return os.path.join(DATA_DIR, "blobs_n400_p10.csv")


def random_instance(rng, n, m, p=3, shift=0.5):
    """Two uniform clouds for coupling tests."""
    from potd.ot import DiscreteMeasure

    mu = DiscreteMeasure.uniform(rng.normal(size=(n, p)))
    nu = DiscreteMeasure.uniform(rng.normal(size=(m, p)) + shift)
    return mu, nu


def integer_weights(rng, size):
    """Normalized positive weights from the integers 1 to 3."""
    w = rng.integers(1, 4, size=size).astype(np.float64)
    return w / w.sum()


def memory_points(rng, points, n=1600, m=1600):
    """Query and reference clouds for the traced-memory tests, in the plane.

    ``"normal"`` draws Gaussian points; ``"grid"`` draws from the 49 integer
    points of [-3, 3]^2, so every query point has dozens of copies in the
    reference cloud and ties at its K-th distance. 1,600 by 1,600 is the
    shape of the ``large-auto`` benchmark's KNN step.
    """
    if points == "grid":
        return (rng.integers(-3, 4, size=(n, 2)).astype(np.float64),
                rng.integers(-3, 4, size=(m, 2)).astype(np.float64))
    return rng.normal(size=(n, 2)), rng.normal(size=(m, 2))


def traced_peak(func, *args):
    """Peak bytes traced while ``func(*args)`` runs.

    numpy reports its data buffers to ``tracemalloc``, so the peak counts
    every array the call allocates, whatever the allocator does with it.
    """
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
