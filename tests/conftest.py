import os

import numpy as np
import pytest

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


def integer_weights(rng, size, zeros):
    """Normalized weights from small integers; ``zeros`` allows zero masses."""
    w = rng.integers(0 if zeros else 1, 4, size=size).astype(np.float64)
    if w.sum() == 0:
        w[rng.integers(size)] = 1.0
    return w / w.sum()
