"""SHA-256 digests of the library's numbers on fixed instance sets, to compare two checkouts.

    PYTHONPATH=<checkout>/src python3 tools/bits_digest.py > bits.txt

Prints one line per instance set and quantity, each with the SHA-256 of the
bytes of every array and scalar it covers, in a fixed order:

- ``exact_ot-table``: plans, marginal errors and certificate fields
  (minimum reduced cost, duality gap) of ``exact_ot`` on the 24 table-shaped
  instances, the whitened sign-label classes of model I at p=10 and model III
  at p=30, n=400, over the first 12 seeds whose classes differ in size (the
  instances of ``benchmarks/bench_kernels.py``).
- ``solve_coupling-large``: plans, dual potentials and iteration counts of a
  default ``solve_coupling`` (Sinkhorn at this size) on the whitened
  sign-label classes of model I at n=1600, p=10, seeds 1-4.
- ``potd_fit-exact``, ``potd_fit_continuous``, ``sir_fit``, ``save_fit``
  and ``pca_fit``: basis vectors and spectra on models I-IV at n=400, p=10,
  seeds 1-4, at r the model's informative dimension. The continuous fit
  takes the model's noise-free signal as its response.
- ``potd_fit-auto``: the same for a default (``auto``) fit at n=1600, where
  every class pair has more plan entries than the exact size limit, so the
  line covers the entropic fit path. At n=400 ``auto`` would run the exact
  path and repeat the ``potd_fit-exact`` line.
- ``potd_fit-small-eps``: the same n=1600 fits at epsilon = median / 100 of
  their class pair's whitened cost, a fifth of the default. Most of their
  sweeps run in the log domain, where an entropic fit writes its cost again
  from the points.
- ``knn_predict-blobs``: KNN predictions (K=10) on 10 stratified half
  splits of the bundled ``tests/data/blobs_n400_p10.csv``.

Two checkouts compute the same bits when ``diff`` finds no difference
between their digest files. BLAS runs on one thread; the script takes a few
seconds.
"""

import hashlib
import os
import warnings
from pathlib import Path

# one BLAS thread, as the digests of two checkouts are compared; set before
# numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from potd.baselines import pca_fit, save_fit, sir_fit  # noqa: E402
from potd.core import LabeledDataset, potd_fit, potd_fit_continuous, whiten  # noqa: E402
from potd.harness import knn_predict, load_csv_dataset, stratified_split  # noqa: E402
from potd.ot import (  # noqa: E402
    DiscreteMeasure,
    SolverConfig,
    exact_ot,
    solve_coupling,
    squared_euclidean_cost,
)
from potd.synthetic import MODELS, SyntheticSpec, gen_model, model_signal  # noqa: E402

BLOBS_CSV = Path(__file__).resolve().parent.parent / "tests" / "data" / "blobs_n400_p10.csv"
TABLE_CELLS = (("I", 10), ("III", 30))
TABLE_SEEDS = 12
FIT_SEEDS = (1, 2, 3, 4)
# sample size of the auto fits: large enough that auto runs Sinkhorn
AUTO_FIT_N = 1600
KNN_SPLITS = 10


def digest(values):
    """SHA-256 of ``values``: each array's shape and bytes, each scalar's repr."""
    sha = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            sha.update(str(value.shape).encode())
            sha.update(value.tobytes())
        else:
            sha.update(repr(value).encode())
    return sha.hexdigest()


def sign_classes(model, n, p, seed):
    """The whitened sign-label classes of one draw, as uniform measures."""
    data, _ = gen_model(SyntheticSpec(model, n, p, seed))
    z, _ = whiten(data.X)
    return DiscreteMeasure.uniform(z[data.y == 1]), DiscreteMeasure.uniform(z[data.y == -1])


def table_couplings():
    for model, p in TABLE_CELLS:
        seed = found = 0
        while found < TABLE_SEEDS:
            mu, nu = sign_classes(model, 400, p, seed)
            if mu.size != nu.size:
                found += 1
                c = exact_ot(mu, nu, squared_euclidean_cost(mu.points, nu.points))
                yield from (c.plan, c.marginal_error, c.min_reduced_cost, c.duality_gap)
            seed += 1


def large_couplings():
    for seed in FIT_SEEDS:
        c = solve_coupling(*sign_classes("I", 1600, 10, seed))
        yield from (c.plan, c.dual_row, c.dual_col, c.iterations)


def small_epsilon(data):
    """Epsilon = median / 100 of the whitened cost of the two classes of
    ``data``, at instance sizes where ``auto`` runs Sinkhorn."""
    z, _ = whiten(data.X)
    labels = np.unique(data.y)
    cost = squared_euclidean_cost(z[data.y == labels[0]], z[data.y == labels[1]])
    return SolverConfig(epsilon=float(np.median(cost)) / 100)


def fits():
    """``{name: values}`` of every fit on every (model, seed) draw."""
    exact = SolverConfig(mode="exact")
    out = {}
    for model, (r, _) in MODELS.items():
        for seed in FIT_SEEDS:
            data, _ = gen_model(SyntheticSpec(model, 400, 10, seed))
            large, _ = gen_model(SyntheticSpec(model, AUTO_FIT_N, 10, seed))
            continuous = LabeledDataset(data.X, model_signal(model, data.X))
            bases = {
                "potd_fit-exact": potd_fit(data, r, solver=exact),
                "potd_fit-auto": potd_fit(large, r),
                "potd_fit-small-eps": potd_fit(large, r, solver=small_epsilon(large)),
                "potd_fit_continuous": potd_fit_continuous(continuous, r),
                "sir_fit": sir_fit(data, r),
                "save_fit": save_fit(data, r),
                "pca_fit": pca_fit(data.X, r),
            }
            for name, basis in bases.items():
                out.setdefault(name, []).extend((basis.vectors, basis.singular_values))
    return out


def knn_predictions():
    data = load_csv_dataset(str(BLOBS_CSV), "label")
    for split in range(KNN_SPLITS):
        rng = np.random.default_rng(np.random.SeedSequence([split]))
        train_idx, test_idx = stratified_split(data.y, 0.5, rng)
        train = LabeledDataset(data.X[train_idx], data.y[train_idx])
        yield knn_predict(train, data.X[test_idx], 10)


def main():
    print(f"{digest(table_couplings())}  exact_ot-table")
    print(f"{digest(large_couplings())}  solve_coupling-large")
    # SIR on binary labels has one direction and warns when r is clamped
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, values in fits().items():
            print(f"{digest(values)}  {name}")
    print(f"{digest(knn_predictions())}  knn_predict-blobs")


if __name__ == "__main__":
    main()
