import os

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
