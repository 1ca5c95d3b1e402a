"""Time the hot kernels of the coupling stage.

``sinkhorn_scaling`` is timed to a 1e-9 column-marginal error on n-by-n
scaled costs at epsilon = 0.01 times the largest cost, reporting the
sweep count and the time per sweep; ``pairwise_sqdist`` is timed on
n-by-n point clouds; ``exact_ot`` is timed on uniform unequal splits
(the shortlist transportation LP), reporting the nonzeros of the plan.
Each timing is the best of a few repeats.

Usage:
    python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from potd.ot import DiscreteMeasure, exact_ot, pairwise_sqdist, sinkhorn_scaling

REPEATS = 5


def best_of(func, *args):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_pairwise(rng):
    print("\npairwise squared distances (n x n, p=10)")
    print(f"{'n':>6} {'ms':>10}")
    for n in (200, 400, 800):
        x = rng.normal(size=(n, 10))
        y = rng.normal(size=(n, 10))
        print(f"{n:>6} {best_of(pairwise_sqdist, x, y) * 1e3:>10.3f}")


def sinkhorn_workload(rng, n, eps_factor=0.01):
    x = rng.normal(size=(n, 10))
    y = rng.normal(size=(n, 10)) + 0.5
    cost = pairwise_sqdist(x, y)
    neg_cost = -cost / (eps_factor * cost.max())
    log_marg = np.log(np.full(n, 1.0 / n))
    return neg_cost, log_marg


def bench_sinkhorn(rng):
    print("\nstabilized scaling to 1e-9 marginal error (n x n, eps = 0.01 max cost)")
    print(f"{'n':>6} {'sweeps':>7} {'ms':>10} {'ms/sweep':>10}")
    for n in (200, 400, 800):
        neg_cost, log_marg = sinkhorn_workload(rng, n)
        args = (neg_cost, log_marg, log_marg, 100_000, 1e-9)
        sweeps = sinkhorn_scaling(*args)[2]
        t = best_of(sinkhorn_scaling, *args)
        print(f"{n:>6} {sweeps:>7} {t * 1e3:>10.1f} {t * 1e3 / max(sweeps, 1):>10.3f}")


def bench_exact_lp(rng):
    print("\nexact coupling on uniform unequal splits (shortlist LP, p=10)")
    print(f"{'n x m':>9} {'ms':>10} {'nonzeros':>9}")
    for n, m in ((190, 210), (380, 420)):
        mu = DiscreteMeasure.uniform(rng.normal(size=(n, 10)))
        nu = DiscreteMeasure.uniform(rng.normal(size=(m, 10)) + 0.5)
        cost = pairwise_sqdist(mu.points, nu.points)
        nonzeros = np.count_nonzero(exact_ot(mu, nu, cost).plan)
        t = best_of(exact_ot, mu, nu, cost)
        print(f"{f'{n}x{m}':>9} {t * 1e3:>10.1f} {nonzeros:>9}")


def main():
    rng = np.random.default_rng(np.random.SeedSequence([123]))
    bench_pairwise(rng)
    bench_sinkhorn(rng)
    bench_exact_lp(rng)


if __name__ == "__main__":
    main()
