"""Kernel tests: pairwise distances and the stabilized scaling solver.

The scaling solver is checked against a plain log-domain Sinkhorn kept in
this file, which runs the same iterates with log-sum-exp passes.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, currently_in_test_context, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from potd import baselines, core, harness, ot
from potd.core import LabeledDataset
from potd.ot import SolverConfig, pairwise_sqdist, solve_coupling

from conftest import integer_weights, memory_points, random_instance, traced_peak


def reference_sqdist(x, y):
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)


def two_buffer_sqdist(x, y):
    """The expansion ``|x|^2 + |y|^2 - 2 x.y`` in two full n-by-m buffers,
    clamped at 0: the bits ``pairwise_sqdist`` must reproduce."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :]
        g = x @ y.T
        g *= 2.0
        d -= g
    np.maximum(d, 0.0, out=d)
    return d


def reference_scaling(
    neg_cost, log_a, log_b, max_iterations, tolerance, u0=None, v0=None,
    schedule=ot._overrelaxation,
):
    """Independent oracle: over-relaxed log-domain Sinkhorn, one log-sum-exp
    pass per update, with the kernel's omega schedule unless another one is
    given (``lambda history: 1.0`` runs plain sweeps)."""
    a, b = np.exp(log_a), np.exp(log_b)
    u = np.zeros(neg_cost.shape[0]) if u0 is None else np.array(u0, dtype=np.float64)
    v = np.zeros(neg_cost.shape[1]) if v0 is None else np.array(v0, dtype=np.float64)

    def relax(old, target, omega):
        if omega == 1.0:
            return target
        return np.where(np.isneginf(target), -np.inf, (1 - omega) * old + omega * target)

    def error():
        row = np.abs(np.exp(u + lse_rows) - a).sum()
        return max(row, np.abs(np.exp(v + lse_cols) - b).sum())

    with np.errstate(divide="ignore", invalid="ignore"):
        lse_rows = logsumexp(neg_cost + v[None, :], axis=1)
        lse_cols = logsumexp(neg_cost + u[:, None], axis=0)
        err = error()
        if err <= tolerance or max_iterations == 0:
            return u, v, 0, err
        omega, history = 1.0, []
        for sweeps in range(1, max_iterations + 1):
            v = relax(v, log_b - lse_cols, omega)
            lse_rows = logsumexp(neg_cost + v[None, :], axis=1)
            u = relax(u, log_a - lse_rows, omega)
            lse_cols = logsumexp(neg_cost + u[:, None], axis=0)
            err = error()
            if err <= tolerance:
                break
            history.append((omega, err))
            omega = schedule(history)
    return u, v, sweeps, err


def scaling_on_a_copy(neg_cost, log_a, log_b, max_iterations, tolerance, u0=None, v0=None):
    """``ot.sinkhorn_scaling`` on a copy of ``neg_cost``, which its ``refill``
    writes again; the copy becomes the returned plan, ``neg_cost`` is kept."""
    work = neg_cost.copy()
    return ot.sinkhorn_scaling(
        work, log_a, log_b, max_iterations, tolerance, u0, v0,
        lambda: np.copyto(work, neg_cost),
    )


def plan_of(neg_cost, u, v):
    return np.exp(neg_cost + u[:, None] + v[None, :])


def assert_plan_of_potentials(plan, neg_cost, u, v):
    """``plan`` equals ``exp(-C/eps + u + v)`` recomputed from the
    potentials, within 1e-12 relative per entry."""
    ref = plan_of(neg_cost, u, v)
    assert np.all(np.abs(plan - ref) <= 1e-12 * ref)


def assert_matches_reference(neg_cost, log_a, log_b, u0, v0):
    """``sinkhorn_scaling`` to 1e-9 gives the reference's plan within 1e-12
    and its sweeps within one."""
    budget, tol = 20_000, 1e-9
    ref_u, ref_v, ref_sweeps, ref_err = reference_scaling(
        neg_cost, log_a, log_b, budget, tol, u0, v0
    )
    # an instance the reference cannot solve within the budget says
    # nothing about the kernel; a drawn one is skipped rather than failed
    # and shrunk
    if currently_in_test_context():
        assume(ref_err <= tol)
    assert ref_err <= tol
    u, v, sweeps, err, _ = scaling_on_a_copy(neg_cost, log_a, log_b, budget, tol, u0, v0)
    assert abs(sweeps - ref_sweeps) <= 1
    plan = plan_of(neg_cost, u, v)
    assert np.max(np.abs(plan - plan_of(neg_cost, ref_u, ref_v))) <= 1e-12
    assert err <= tol
    row_err = np.abs(plan.sum(axis=1) - np.exp(log_a)).sum()
    col_err = np.abs(plan.sum(axis=0) - np.exp(log_b)).sum()
    assert row_err <= tol and col_err <= tol
    assert err == pytest.approx(max(row_err, col_err), abs=1e-12)


def walk_in_blocks(patch, rows, n, m):
    """Set ``SWEEP_BLOCK_BYTES`` so that an n-by-m kernel is walked ``rows``
    rows at a time, and check that this takes more than one block."""
    patch.setattr(ot, "SWEEP_BLOCK_BYTES", rows * m * np.dtype(np.float64).itemsize)
    assert len(ot._row_blocks(n, m)) == -(-n // rows) > 1


def walk_in_groups(patch, rows, n, m):
    """Set the two scratch constants so that ``_scratch_blocks`` walks an
    n-by-m matrix ``rows`` rows at a time (``None``: in one group, the whole
    matrix as its first part), and return its groups."""
    if rows is None:
        patch.setattr(ot, "SQDIST_SCRATCH_BYTES", 8)
        patch.setattr(ot, "SQDIST_SCRATCH_PARTS", 1)
    else:
        patch.setattr(ot, "SQDIST_SCRATCH_BYTES", 8 * rows * m)
        patch.setattr(ot, "SQDIST_SCRATCH_PARTS", 8 * n * m + 1)
    return ot._scratch_blocks(n, m)


def count_log_sum_exp(monkeypatch):
    """The axis of every ``ot._log_sum_exp`` pass, in call order."""
    axes = []
    log_sum_exp = ot._log_sum_exp

    def counted(neg_cost, pot, axis, work):
        axes.append(axis)
        return log_sum_exp(neg_cost, pot, axis, work)

    monkeypatch.setattr(ot, "_log_sum_exp", counted)
    return axes


def scaling_with_plan(neg_cost, log_a, log_b, max_iterations, u0=None, v0=None):
    """``sinkhorn_scaling`` to 1e-9, with the plan it returns listed first."""
    u, v, sweeps, err, plan = scaling_on_a_copy(
        neg_cost, log_a, log_b, max_iterations, 1e-9, u0, v0
    )
    return plan, u, v, sweeps, err


@st.composite
def scaling_instances(draw):
    """Scaled costs at epsilon from 1e-3 to 1 times the largest cost, with
    positive masses and cold, coarse-solve or random warm starts."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost = reference_sqdist(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)) + 0.5)
    eps = 10.0 ** draw(st.floats(-3.0, 0.0)) * (float(cost.max()) or 1.0)
    neg_cost = -cost / eps
    log_a = np.log(integer_weights(rng, n))
    log_b = np.log(integer_weights(rng, m))
    start = draw(st.sampled_from(["cold", "coarse", "random"]))
    u0 = v0 = None
    if start == "coarse":
        # potentials of the same instance at four times epsilon, rescaled
        u0, v0, _, _ = reference_scaling(neg_cost / 4.0, log_a, log_b, 200, 1e-6)
        u0, v0 = 4.0 * u0, 4.0 * v0
    elif start == "random":
        u0 = rng.normal(scale=5.0, size=n)
        v0 = rng.normal(scale=5.0, size=m)
    return neg_cost, log_a, log_b, u0, v0


class TestPairwiseSqdist:
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_bitwise_equal_to_the_out_of_place_expansion(self, n, m, p, seed):
        # points at scales from 1e-4 to 1e4, some shifted far from the origin
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1))
        y = rng.normal(size=(m, p)) * 10.0 ** rng.uniform(-4, 4, size=(m, 1))
        y[rng.random(m) < 0.3] += 10.0 ** rng.uniform(-4, 4)
        sq = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :]
        expected = np.maximum(sq - 2.0 * (x @ y.T), 0.0)
        assert np.array_equal(pairwise_sqdist(x, y), expected)

    @given(
        st.sampled_from([(0, 7), (6, 0), (0, 0), (1, 1), (6, 9), (300, 900)]),
        st.integers(1, 4),
        st.sampled_from([0, -4, 4, 154, 170, 200]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    # 300 by 900 spans several row blocks; from 1e154 on the squared norms
    # overflow to inf and the expansion to inf or NaN
    @example((300, 900), 3, 0, True, 0)
    @example((300, 900), 2, 200, False, 1)
    @example((300, 900), 4, 154, True, 2)
    @example((0, 900), 3, 0, False, 3)
    @example((300, 0), 3, 0, False, 4)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_bitwise_equal_to_the_two_buffer_expansion(self, shape, p, log_scale, duplicates,
                                                       seed):
        n, m = shape
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p)) * 10.0**log_scale
        y = rng.normal(size=(m, p)) * 10.0**log_scale
        if duplicates and n and m:
            # copies of query points among the references, and repeated references
            y[: m // 2] = x[rng.integers(0, n, size=m // 2)]
            y[m // 2:] = y[rng.integers(0, m, size=m - m // 2)]
        d = pairwise_sqdist(x, y)
        assert d.shape == (n, m)
        assert np.array_equal(d, two_buffer_sqdist(x, y), equal_nan=True)

    @pytest.mark.parametrize("points", ["normal", "grid"])
    def test_holds_one_n_by_m_array(self, rng, points):
        x, y = memory_points(rng, points)
        floats = x.shape[0] * y.shape[0]
        assert traced_peak(pairwise_sqdist, x, y) <= 1.15 * 8 * floats

    def test_a_matrix_of_one_row_block_holds_no_second_copy(self, rng):
        # the shape of one bench-real KNN block: the outer-sum scratch is a
        # few rows, not a block the size of the result
        x, y = memory_points(rng, "normal", 200, 200)
        assert traced_peak(pairwise_sqdist, x, y) <= 1.15 * 8 * 200 * 200

    def test_numpy_matches_reference(self, rng):
        x = rng.normal(size=(7, 4))
        y = rng.normal(size=(5, 4))
        assert np.allclose(pairwise_sqdist(x, y), reference_sqdist(x, y), atol=1e-12)

    def test_identical_points_are_exactly_zero(self):
        x = np.array([[1.25, -3.5]])
        assert pairwise_sqdist(x, x)[0, 0] == 0.0


class TestScratchRule:
    @pytest.mark.parametrize("rows, groups", [(1, 30), (7, 5), (None, 1)])
    def test_every_grouping_gives_the_same_bits(self, rng, monkeypatch, rows, groups):
        # points at scales from 1e-4 to 1e4; the column pass gets potentials
        n, m = 30, 17
        x = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1))
        y = rng.normal(size=(m, 3))
        neg_cost = -reference_sqdist(rng.normal(size=(n, 3)), y)
        u = rng.normal(size=n)
        full = ot._log_sum_exp(neg_cost, u, 0, np.empty_like(neg_cost))
        assert len(walk_in_groups(monkeypatch, rows, n, m)) == groups
        assert np.array_equal(pairwise_sqdist(x, y), two_buffer_sqdist(x, y))
        for value, reference in zip(ot._column_log_sum_exp(neg_cost, u), full):
            assert np.array_equal(value, reference)

    def test_column_pass_holds_one_group_and_a_few_rows(self, rng):
        # an 800-by-800 cost is walked in groups of 25 rows; the scratch
        # holds a group and the running sums, numpy takes a 64 KiB buffer
        # for each broadcasting call, and the pass keeps a few vectors
        n = m = 800
        neg_cost = -10.0 * rng.random((n, m))
        u = rng.normal(size=n)
        group = ot._scratch_blocks(n, m)[0]
        rows = group.stop - group.start
        assert rows == 25
        assert traced_peak(ot._column_log_sum_exp, neg_cost, u) <= 8 * m * (rows + 5) + (1 << 16)


class TestSinkhornScaling:
    def setup_instance(self, rng, n=6, m=5):
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(m, 2)) + 0.5
        cost = reference_sqdist(x, y)
        a = np.full(n, 1.0 / n)
        b = np.full(m, 1.0 / m)
        return -cost / (0.05 * cost.max()), np.log(a), np.log(b)

    def test_zero_mass_column_stays_empty(self, rng):
        # a measure cannot carry a zero mass; a mass of 1e-300 is the
        # nearest it comes, and its column stays empty on a finite potential
        neg_cost, log_a, _ = self.setup_instance(rng, 4, 3)
        log_b = np.log(np.array([0.5, 0.5, 1e-300]))
        u, v, _, err, _ = scaling_on_a_copy(neg_cost, log_a, log_b, 10_000, 1e-10)
        plan = plan_of(neg_cost, u, v)
        assert np.allclose(plan[:, 2], 0.0)
        assert plan[:, 2].sum() == pytest.approx(1e-300, rel=1e-6)
        assert np.isfinite(v[2]) and v[2] < np.log(1e-299)
        assert err <= 1e-10

    def test_warm_start_converges_faster(self, rng):
        neg_cost, log_a, log_b = self.setup_instance(rng, 10, 10)
        sharp = neg_cost * 20.0  # same instance at epsilon / 20
        _, _, cold_iters, _, _ = scaling_on_a_copy(sharp, log_a, log_b, 200_000, 1e-9)
        u, v, _, _, _ = scaling_on_a_copy(neg_cost, log_a, log_b, 200_000, 1e-9)
        _, _, warm_iters, _, _ = scaling_on_a_copy(
            sharp, log_a, log_b, 200_000, 1e-9, u0=u * 20.0, v0=v * 20.0
        )
        assert warm_iters <= cold_iters

    @given(scaling_instances())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_matches_log_domain_reference(self, instance):
        assert_matches_reference(*instance)

    @given(scaling_instances(), st.integers(1, 5))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_matches_log_domain_reference_in_row_blocks(self, instance, rows):
        # the drawn kernels are at most 40 by 40, one block at the module's
        # block size; a few rows per block walk them in several
        assume(instance[0].shape[0] > rows)
        with pytest.MonkeyPatch.context() as patch:
            walk_in_blocks(patch, rows, *instance[0].shape)
            assert_matches_reference(*instance)

    @pytest.mark.parametrize(
        "n, m, warm",
        [
            (10, 7, False),  # three blocks of 3 rows and one of 1
            (6, 6, False),  # two full blocks
            (8, 1, False),
            (11, 5, False),  # a last block of 2 rows
            (11, 5, True),
        ],
    )
    def test_row_blocks_of_three(self, n, m, warm, monkeypatch):
        rng = np.random.default_rng(np.random.SeedSequence([n, m]))
        cost = reference_sqdist(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)) + 0.5)
        neg_cost = -cost / (0.1 * cost.max())
        log_a = np.log(integer_weights(rng, n))
        log_b = np.log(np.full(m, 1.0 / m))
        u0 = v0 = None
        if warm:
            u0, v0 = rng.normal(scale=5.0, size=n), rng.normal(scale=5.0, size=m)
        walk_in_blocks(monkeypatch, 3, n, m)
        assert_matches_reference(neg_cost, log_a, log_b, u0, v0)

    def test_cold_start_makes_one_log_sum_exp_pass(self, rng, monkeypatch):
        neg_cost, log_a, log_b = self.setup_instance(rng, 30, 25)
        axes = count_log_sum_exp(monkeypatch)
        sweeps = scaling_on_a_copy(neg_cost, log_a, log_b, 20_000, 1e-9)[2]
        # the start's column pass; every sweep, the first included, scales
        assert sweeps > 1 and axes == [0]

    def test_outlier_row_takes_the_log_domain_row_pass(self, monkeypatch):
        rng = np.random.default_rng(np.random.SeedSequence([403]))
        x = rng.normal(size=(20, 2))
        x[7] += 12.0
        cost = reference_sqdist(x, rng.normal(size=(15, 2)) + 0.5)
        neg_cost = -cost / (0.05 * np.median(cost))
        log_a, log_b = np.log(np.full(20, 1 / 20)), np.log(np.full(15, 1 / 15))
        axes = count_log_sum_exp(monkeypatch)
        assert_matches_reference(neg_cost, log_a, log_b, None, None)
        # the far row's scaling factor leaves the bound in the first sweep,
        # whose row update then runs in the log domain after the start's
        # column pass, which is not repeated
        assert axes[:2] == [0, 1]

    @given(scaling_instances(), st.integers(1, 300))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_out_holds_the_plan_of_the_potentials(self, instance, budget):
        # the budget stops some solves unconverged; the plan must match anyway
        neg_cost, log_a, log_b, u0, v0 = instance
        plan, u, v, _, _ = scaling_with_plan(neg_cost, log_a, log_b, budget, u0, v0)
        assert_plan_of_potentials(plan, neg_cost, u, v)

    @given(scaling_instances(), st.integers(1, 300), st.integers(1, 5))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_out_holds_the_plan_in_row_blocks(self, instance, budget, rows):
        # the plan is scaled block by block on return; a few rows per block
        # walk the drawn kernels in several
        neg_cost, log_a, log_b, u0, v0 = instance
        assume(neg_cost.shape[0] > rows)
        with pytest.MonkeyPatch.context() as patch:
            walk_in_blocks(patch, rows, *neg_cost.shape)
            plan, u, v, _, _ = scaling_with_plan(neg_cost, log_a, log_b, budget, u0, v0)
        assert_plan_of_potentials(plan, neg_cost, u, v)

    def test_out_holds_the_plan_on_log_domain_exits(self, rng):
        # a solve that stops before any scaling sweep leaves the plan of the
        # log-domain column pass: converged at the warm start, or out of budget
        neg_cost, log_a, log_b = self.setup_instance(rng, 9, 7)
        _, u, v, _, _ = scaling_with_plan(neg_cost, log_a, log_b, 10_000)
        plan, u0, v0, sweeps, err = scaling_with_plan(neg_cost, log_a, log_b, 10, u, v)
        assert sweeps == 0 and err <= 1e-9
        assert_plan_of_potentials(plan, neg_cost, u0, v0)
        plan, u, v, sweeps, err = scaling_with_plan(neg_cost, log_a, log_b, 0)
        assert sweeps == 0 and err > 1e-9
        assert_plan_of_potentials(plan, neg_cost, u, v)
        # one sweep, then the budget
        plan, u, v, sweeps, err = scaling_with_plan(neg_cost, log_a, log_b, 1)
        assert sweeps == 1 and err > 1e-9
        assert_plan_of_potentials(plan, neg_cost, u, v)

    def test_sinkhorn_plan_is_the_plan_of_its_duals(self, rng):
        mu, nu = random_instance(rng, 12, 9)
        cost = pairwise_sqdist(mu.points, nu.points)
        coupling = solve_coupling(mu, nu, cost, SolverConfig(mode="sinkhorn"))
        eps = ot.default_epsilon(cost)
        assert_plan_of_potentials(
            coupling.plan, -cost / eps, coupling.dual_row / eps, coupling.dual_col / eps
        )

    def underflow_instance(self):
        """Epsilon 1e-3 times the largest cost: the plain kernel underflows,
        and plain sweeps need 1828 to reach 1e-9."""
        rng = np.random.default_rng(np.random.SeedSequence([401]))
        cost = reference_sqdist(rng.normal(size=(30, 3)), rng.normal(size=(40, 3)) + 0.5)
        neg_cost = -cost / (1e-3 * cost.max())
        return neg_cost, np.log(np.full(30, 1 / 30)), np.log(np.full(40, 1 / 40))

    def test_absorbs_where_the_plain_kernel_underflows(self, monkeypatch):
        neg_cost, log_a, log_b = self.underflow_instance()
        assert np.any(np.exp(neg_cost) == 0.0)
        axes = count_log_sum_exp(monkeypatch)
        u, v, sweeps, err, _ = scaling_on_a_copy(neg_cost, log_a, log_b, 20_000, 1e-9)
        # a log-domain row update is an absorption or the first sweep's
        # fallback; this instance absorbs in later sweeps
        assert axes.count(1) > 1
        ref_u, ref_v, ref_sweeps, _ = reference_scaling(neg_cost, log_a, log_b, 20_000, 1e-9)
        assert err <= 1e-9
        assert abs(sweeps - ref_sweeps) <= 1
        assert np.max(np.abs(plan_of(neg_cost, u, v) - plan_of(neg_cost, ref_u, ref_v))) <= 1e-12

    def test_in_place_kernel_matches_a_separate_one(self, monkeypatch):
        # the kernel is formed in the scaled cost's own array, which refill()
        # writes again and which becomes the plan; a solve in a separate
        # copy gives the same bits
        neg_cost, log_a, log_b = self.underflow_instance()
        expected = scaling_on_a_copy(neg_cost, log_a, log_b, 20_000, 1e-9)
        work = neg_cost.copy()
        refills = []

        def refill():
            refills.append(1)
            np.copyto(work, neg_cost)

        axes = count_log_sum_exp(monkeypatch)
        got = ot.sinkhorn_scaling(work, log_a, log_b, 20_000, 1e-9, None, None, refill)
        assert got[4] is work
        for value, reference in zip(got, expected):
            assert np.array_equal(value, reference)
        # one write per log-domain sweep: its column pass leaves K in place
        # for its row pass, which forms the kernel there
        assert len(refills) == axes.count(1) > 1

    @given(scaling_instances(), st.integers(1, 5), st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_blocked_column_pass_matches_the_full_pass(self, instance, rows, overflow):
        # a few rows per block walk the drawn costs in several, and the
        # running sums carry across them; an overflowed entry is -inf
        neg_cost, _, _, u, _ = instance
        n, m = neg_cost.shape
        if overflow:
            neg_cost[n // 2, m // 2] = -np.inf
        u = np.zeros(n) if u is None else u
        original = neg_cost.copy()
        with pytest.MonkeyPatch.context() as patch:
            walk_in_groups(patch, rows, n, m)
            blocked = ot._log_sum_exp(neg_cost, u, 0, None)
        assert np.array_equal(neg_cost, original)
        full = ot._log_sum_exp(neg_cost, u, 0, np.empty_like(neg_cost))
        for value, reference in zip(blocked, full):
            assert np.array_equal(value, reference, equal_nan=True)

    def test_needs_at_most_half_the_plain_sweeps(self):
        neg_cost, log_a, log_b = self.underflow_instance()
        *_, plain_sweeps, plain_err = reference_scaling(
            neg_cost, log_a, log_b, 20_000, 1e-9, schedule=lambda history: 1.0
        )
        assert plain_err <= 1e-9
        sweeps = scaling_on_a_copy(neg_cost, log_a, log_b, 20_000, 1e-9)[2]
        assert sweeps <= plain_sweeps / 2


def geometric(omega, ratio, count, start=1.0):
    """``count`` sweeps at ``omega`` whose errors fall by ``ratio`` each."""
    return [(omega, start * ratio**k) for k in range(1, count + 1)]


class TestOverrelaxation:
    def test_starts_with_plain_sweeps(self):
        assert ot._overrelaxation([(1.0, 0.5)]) == 1.0
        assert ot._overrelaxation([(1.0, 0.5), (1.0, 0.25)]) == 1.0

    def test_settled_plain_rate_gives_the_optimal_omega(self):
        # plain sweeps at rate kappa = 0.64: omega = 2 / (1 + sqrt(0.36))
        assert ot._overrelaxation(geometric(1.0, 0.64, 3)) == pytest.approx(1.25)
        assert ot._overrelaxation(geometric(1.0, 0.999, 3)) == ot.OMEGA_MAX

    def test_unsettled_ratios_keep_omega(self):
        # ratios 0.5 and then 0.8
        assert ot._overrelaxation([(1.0, 1.0), (1.0, 0.5), (1.0, 0.4)]) == 1.0
        # the ratio of the first sweep at a new omega says nothing of it yet
        assert ot._overrelaxation(geometric(1.0, 0.64, 3) + [(1.25, 0.64**4)]) == 1.25

    def test_the_optimum_is_a_fixed_point(self):
        # at the optimal omega the rate is omega - 1, from which the
        # estimate of kappa is the plain rate again
        history = geometric(1.0, 0.64, 3) + geometric(1.25, 0.25, 3, start=0.64**3)
        assert ot._overrelaxation(history) == pytest.approx(1.25)

    def test_a_rise_falls_back_to_plain_sweeps_after_the_grace(self):
        steady = geometric(1.5, 0.5, ot.RISE_GRACE - 1)
        assert ot._overrelaxation(steady + [(1.5, 1.0)]) == 1.0
        # within the first sweeps at a new omega a rise is its transient
        assert ot._overrelaxation([(1.0, 1.0)] + steady[1:] + [(1.5, 1.0)]) == 1.5

    def test_the_fallback_lasts_until_the_ratios_settle_again(self):
        history = geometric(1.5, 0.5, ot.RISE_GRACE - 1) + [(1.5, 1.0)]
        history += geometric(1.0, 0.64, 1)
        assert ot._overrelaxation(history) == 1.0
        history += [(1.0, 0.64**2)]
        assert ot._overrelaxation(history) == pytest.approx(1.25)

    def test_a_stalled_error_keeps_omega(self):
        # errors that move only by rounding give no rate and no rise
        stalled = [(1.0, 0.1), (1.0, 0.1 * (1 - 1e-15)), (1.0, 0.1 * (1 - 2e-15))]
        assert ot._overrelaxation(stalled) == 1.0
        steady = geometric(1.5, 0.5, ot.RISE_GRACE - 1)
        assert ot._overrelaxation(steady + [(1.5, steady[-1][1] * (1 + 1e-15))]) == 1.5

    def test_non_finite_errors(self):
        # a NaN error gives no rate; an infinite one is a rise
        steady = geometric(1.0, 0.64, 3) + geometric(1.3, 0.5, ot.RISE_GRACE - 1)
        assert ot._overrelaxation(steady + [(1.3, np.nan)]) == 1.3
        assert ot._overrelaxation(steady + [(1.3, np.inf)]) == 1.0


def test_traced_kernel_sites_are_called(monkeypatch, rng):
    """The benchmark tracer wraps these module attributes; a refactor that
    bypasses them (say, a method table bound to the functions at import)
    would silently drop their spans."""
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    sites = (
        (ot, "sinkhorn_scaling"), (ot, "pairwise_sqdist"), (harness, "pairwise_sqdist"),
        (harness, "potd_fit"), (harness, "sir_fit"), (harness, "save_fit"),
        (harness, "pca_fit"), (core, "potd_fit"), (core, "solve_coupling"),
        (core, "whiten"), (baselines, "whiten"),
    )
    for module, attr in sites:
        name = f"{module.__name__}.{attr}"
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    mu, nu = random_instance(rng, 6, 5)
    solve_coupling(mu, nu, config=SolverConfig(mode="sinkhorn"))
    train = LabeledDataset(rng.normal(size=(8, 3)), np.arange(8) % 2)
    harness.knn_predict(train, rng.normal(size=(4, 3)), K=3)
    assert calls == {
        "potd.ot.sinkhorn_scaling": 1,
        "potd.ot.pairwise_sqdist": 1,
        "potd.harness.pairwise_sqdist": 1,
    }

    calls.clear()
    exact = SolverConfig(mode="exact")
    data = LabeledDataset(rng.normal(size=(12, 3)), np.arange(12) % 2)
    for method in harness.METHODS:
        harness.fit_method(method, data, 1, solver=exact)
    y = rng.normal(size=12)
    core.potd_fit_continuous(
        LabeledDataset(data.X, y), 1, cuts=[float(np.median(y))], solver=exact
    )
    # one whitening and one coupling per POTD fit (two classes, one cut);
    # neither fit goes through the public core.potd_fit attribute
    assert calls == {
        "potd.harness.potd_fit": 1,
        "potd.harness.sir_fit": 1,
        "potd.harness.save_fit": 1,
        "potd.harness.pca_fit": 1,
        "potd.core.whiten": 2,
        "potd.core.solve_coupling": 2,
        "potd.baselines.whiten": 2,
        "potd.ot.pairwise_sqdist": 2,
    }


def potdbench_module(name):
    """``potdbench/<name>.py``, loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "potdbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"potdbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_sites_resolve():
    """Every site the benchmark tracer wraps names an attribute that exists;
    a missing one is skipped there and only shows as ``trace.sites_missing``."""
    spans = potdbench_module("spans")
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in spans.SITES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.SITES and missing == []


def test_benchmark_rounds_trace_and_time_their_fits(monkeypatch, tmp_path):
    """One tiny round of each benchmark workload, traced and timed as the
    benchmark runs it: no problems, every traced site present, and one timed
    fit per successful POTD fit."""
    spans, workloads = potdbench_module("spans"), potdbench_module("workloads")
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    for make in workloads.WORKLOADS.values():
        workload = make(tiny=True)
        timer, tracer = workloads.FitTimer(), spans.Tracer()
        try:
            with spans.Patches() as patches:
                patches.replace("potd.harness", "potd_fit", timer.wrap)
                tracer.install(patches)
                res = tracer.round_span(0, lambda: workload.run_round(1, 0, timer, False))
        finally:
            if hasattr(workload, "close"):
                workload.close()
        assert res.problems == [], workload.name
        assert tracer.sites_missing == [], workload.name
        assert len(timer.ms) == res.potd_ok > 0, workload.name
