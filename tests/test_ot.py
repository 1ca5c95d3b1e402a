"""Coupling solver tests, anchored on independent enumeration oracles."""

import itertools
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from potd import ot
from potd.errors import ConvergenceError, InvalidInputError, NumericError
from potd.ot import (
    CouplingMatrix,
    DiscreteMeasure,
    SolverConfig,
    default_epsilon,
    exact_ot,
    pairwise_sqdist,
    sinkhorn,
    solve_coupling,
    squared_euclidean_cost,
    transport_cost,
)

from conftest import integer_weights, random_instance, traced_peak


# entries that the finite-and-nonnegative checks of costs and plans, and
# the finite-and-positive check of weights, must each reject
BAD_ENTRIES = [np.nan, np.inf, -np.inf, -1.0]


def brute_force_assignment_cost(cost):
    """Independent oracle: minimum average cost over all permutations."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, j] for i, j in enumerate(perm)) / n
        best = min(best, total)
    return best


def greedy_feasible_plan(a, b, order_rows, order_cols):
    """Independent feasible-coupling builder (north-west corner variant)."""
    plan = np.zeros((len(a), len(b)))
    rem_a = a.copy()
    rem_b = b.copy()
    ci = 0
    cols = list(order_cols)
    for i in order_rows:
        while rem_a[i] > 1e-15:
            j = cols[ci]
            move = min(rem_a[i], rem_b[j])
            plan[i, j] += move
            rem_a[i] -= move
            rem_b[j] -= move
            if rem_b[j] <= 1e-15 and ci < len(cols) - 1:
                ci += 1
            elif rem_a[i] <= 1e-15:
                break
    return plan


def dense_lp(a, b, cost):
    """Independent oracle: optimal plan and cost of the full n*m-variable
    transportation LP.

    Solved on costs scaled to a unit maximum so the solver's absolute
    tolerances act relative to the cost range, then scaled back.
    """
    n, m = cost.shape
    scale = float(cost.max()) or 1.0
    a_eq = np.vstack(
        [np.kron(np.eye(n), np.ones((1, m))), np.kron(np.ones((1, n)), np.eye(m))[:-1]]
    )
    res = linprog(
        (cost / scale).ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([a, b[:-1]]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x.reshape(n, m), scale * res.fun


def dense_lp_cost(a, b, cost):
    return dense_lp(a, b, cost)[1]


@st.composite
def transport_instances(draw):
    """Weighted clouds with positive masses, duplicated points and cost scales
    from 1e-8 to 1e8; equal sizes are drawn often so the assignment path
    is exercised next to the LP."""
    n = draw(st.integers(1, 40))
    m = draw(st.one_of(st.just(n), st.integers(1, 40)))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.normal(size=(n, p))
    tgt = rng.normal(size=(m, p)) + rng.normal(size=p)
    duplicates = draw(st.sampled_from(["none", "across", "within", "all"]))
    if duplicates == "across":
        k = min(n, m)
        idx = rng.choice(k, size=rng.integers(1, k + 1), replace=False)
        tgt[idx] = src[idx]
    elif duplicates == "within":
        src[rng.integers(0, n, size=n // 2)] = src[0]
        tgt[rng.integers(0, m, size=m // 2)] = tgt[0]
    elif duplicates == "all":
        tgt[:] = src[0]
        src[:] = src[0]
    points_scale = 10.0 ** draw(st.integers(-4, 4))
    if draw(st.booleans()):
        a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    else:
        a, b = integer_weights(rng, n), integer_weights(rng, m)
    return DiscreteMeasure(points_scale * src, a), DiscreteMeasure(points_scale * tgt, b)


def assert_exact_and_certified(mu, nu):
    """``exact_ot`` takes the LP, matches the dense oracle in cost and
    carries a passing certificate."""
    cost = squared_euclidean_cost(mu.points, nu.points)
    tol = 1e-9 * float(cost.max())
    coupling = exact_ot(mu, nu, cost)
    assert coupling.min_reduced_cost is not None
    assert coupling.min_reduced_cost >= -tol and abs(coupling.duality_gap) <= tol
    reference = dense_lp_cost(mu.weights, nu.weights, cost)
    assert abs(transport_cost(coupling, cost) - reference) <= tol
    assert max(coupling.marginal_errors()) <= 1e-10


def assignment_plan(cost):
    """Plan of scipy's assignment solver run on ``cost`` itself."""
    from scipy.optimize import linear_sum_assignment

    n = cost.shape[0]
    rows, cols = linear_sum_assignment(cost)
    plan = np.zeros((n, n))
    plan[rows, cols] = 1.0 / n
    return plan


def solve_in_threads(instances, config):
    """Solve every instance twice in each of as many threads as instances,
    each thread starting at a different one, with a tiny switch interval.

    Returns each thread's ``(instance index, coupling)`` pairs.
    """
    count = len(instances)
    orders = [[(start + k) % count for k in range(2 * count)] for start in range(count)]
    results = [[] for _ in orders]

    def solve_all(order, out):
        for k in order:
            out.append((k, solve_coupling(*instances[k], config=config)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve_all, args=(order, out))
                   for order, out in zip(orders, results)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(out) == len(order) for order, out in zip(orders, results))
    return results


def spy_on_crash(monkeypatch):
    """Record what every crash start of the LP returns."""
    results = []
    crash = ot._crash_scaling

    def spy(*args):
        results.append(crash(*args))
        return results[-1]

    monkeypatch.setattr(ot, "_crash_scaling", spy)
    return results


class TestDiscreteMeasure:
    def test_uniform_weights(self):
        mu = DiscreteMeasure.uniform([[0.0, 1.0], [2.0, 3.0]])
        assert np.allclose(mu.weights, [0.5, 0.5])
        assert mu.size == 2 and mu.dim == 2

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidInputError):
            DiscreteMeasure([[0.0], [1.0]], [0.7, 0.7])
        with pytest.raises(InvalidInputError):
            DiscreteMeasure([[0.0], [1.0]], [-0.5, 1.5])

    def test_rejects_nonfinite_points(self):
        with pytest.raises(InvalidInputError):
            DiscreteMeasure([[np.nan], [1.0]], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [*BAD_ENTRIES, 0.0])
    def test_rejects_each_bad_weight(self, bad):
        with pytest.raises(InvalidInputError, match="^weights must be finite and positive$"):
            DiscreteMeasure([[0.0], [1.0]], [bad, 1.0])

    @pytest.mark.parametrize("build", ["constructor", "uniform"])
    @pytest.mark.parametrize("points, message", [
        (np.zeros((0, 2)), "points must be a nonempty n-by-p matrix"),
        ([], "points must be a nonempty n-by-p matrix"),
        (np.zeros((2, 2, 2)), "points must be a nonempty n-by-p matrix"),
        ([[0.0, 1.0], [np.inf, 2.0]], "points contains non-finite entries"),
        ([[0.0], [np.nan]], "points contains non-finite entries"),
    ])
    def test_rejects_bad_points(self, build, points, message):
        # the points are checked before the weights, so the constructor
        # reports them even next to weights of the wrong length
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            if build == "uniform":
                DiscreteMeasure.uniform(points)
            else:
                DiscreteMeasure(points, [0.5, 0.5])

    def test_rejects_a_weight_length_mismatch(self):
        with pytest.raises(InvalidInputError, match="^weights length 3 does not match 2 points$"):
            DiscreteMeasure([[0.0], [1.0]], [0.2, 0.3, 0.5])

    def test_rejects_weights_that_do_not_sum_to_one(self):
        weights = np.array([0.5, 0.6])
        message = f"weights must sum to 1 within 1e-12 (got {weights.sum()!r})"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            DiscreteMeasure([[0.0], [1.0]], weights)


class TestCostMatrix:
    def test_zero_self_distance(self):
        assert squared_euclidean_cost([[1.0, 2.0]], [[1.0, 2.0]]) == np.zeros((1, 1))

    def test_three_four_five(self):
        assert squared_euclidean_cost([[0.0, 0.0]], [[3.0, 4.0]]) == [[25.0]]

    def test_hand_computed_pair(self):
        # distances from (0,0) and (1,0) to (0,1): 1 and 2
        cost = squared_euclidean_cost([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]])
        assert np.allclose(cost, [[1.0], [2.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="^source has 2 columns but target has 3$"):
            squared_euclidean_cost([[0.0, 0.0]], [[1.0, 2.0, 3.0]])

    def test_solve_coupling_rejects_a_dimension_mismatch(self):
        mu = DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
        nu = DiscreteMeasure.uniform([[1.0, 2.0, 3.0]])
        with pytest.raises(InvalidInputError, match="^source has 2 columns but target has 3$"):
            solve_coupling(mu, nu)

    def test_nonfinite_entry(self):
        with pytest.raises(InvalidInputError):
            squared_euclidean_cost([[np.inf, 0.0]], [[1.0, 2.0]])

    def test_translation_equivariance(self, rng):
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(5, 4))
        shift = rng.normal(size=4)
        base = squared_euclidean_cost(x, y)
        shifted = squared_euclidean_cost(x + shift, y + shift)
        assert np.allclose(base, shifted, atol=1e-10)

    @pytest.mark.parametrize("mode", ["exact", "sinkhorn"])
    def test_solvers_reject_a_cost_of_the_wrong_shape(self, mode, rng):
        mu, nu = random_instance(rng, 3, 4)
        message = r"^cost shape \(4, 3\) does not match measure sizes \(3, 4\)$"
        with pytest.raises(InvalidInputError, match=message):
            solve_coupling(mu, nu, np.ones((4, 3)), SolverConfig(mode=mode))

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    @pytest.mark.parametrize("mode", ["exact", "sinkhorn"])
    def test_solvers_reject_each_bad_cost_entry(self, bad, mode, rng):
        mu, nu = random_instance(rng, 3, 4)
        cost = squared_euclidean_cost(mu.points, nu.points)
        cost[2, 1] = bad
        message = "^cost entries must be finite and nonnegative$"
        with pytest.raises(InvalidInputError, match=message):
            solve_coupling(mu, nu, cost, SolverConfig(mode=mode))


class TestCouplingMatrix:
    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_rejects_each_bad_entry(self, bad):
        plan = np.full((2, 3), 1.0 / 6.0)
        plan[1, 2] = bad
        with pytest.raises(
            InvalidInputError, match="^coupling entries must be finite and nonnegative$"
        ):
            CouplingMatrix(plan, [0.5, 0.5], np.full(3, 1.0 / 3.0))

    @pytest.mark.parametrize(
        "plan, row, col, message",
        [
            (np.full(2, 0.5), [1.0], [0.5, 0.5], "coupling plan must be a matrix"),
            (
                np.full((2, 2), 0.25), [0.5, 0.5], [1.0],
                "coupling shape does not match its marginals",
            ),
        ],
        ids=["vector", "shape"],
    )
    def test_rejects_a_bad_shape(self, plan, row, col, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            CouplingMatrix(plan, row, col)

    def test_empty_plan_is_accepted(self):
        assert CouplingMatrix(np.zeros((0, 0)), [], []).plan.shape == (0, 0)


class TestExactOT:
    @pytest.mark.parametrize("n, m, certified", [(9, 13, True), (8, 8, False)])
    def test_builds_one_coupling_per_solve(self, monkeypatch, n, m, certified):
        # the plan's entry scan in __post_init__ runs once, on both the LP
        # (unequal sizes) and the assignment (uniform equal sizes) paths
        calls = []
        post_init = CouplingMatrix.__post_init__

        def counted(self):
            calls.append(1)
            post_init(self)

        monkeypatch.setattr(CouplingMatrix, "__post_init__", counted)
        rng = np.random.default_rng(np.random.SeedSequence([74, n]))
        mu, nu = random_instance(rng, n, m)
        coupling = exact_ot(mu, nu, squared_euclidean_cost(mu.points, nu.points))
        assert len(calls) == 1
        assert (coupling.duality_gap is not None) == certified
        # Python floats: tools/bits_digest.py hashes the certificate's repr
        certificate = {type(coupling.duality_gap), type(coupling.min_reduced_cost)}
        assert certificate == {float if certified else type(None)}
        assert max(coupling.marginal_errors()) == coupling.marginal_error <= 1e-10

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 60),
        p=st.integers(1, 6),
        scale=st.integers(-4, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_assignment_matches_the_solver_on_raw_costs(self, n, p, scale, seed):
        # continuous clouds have one optimal permutation, and the reduction
        # moves every permutation's cost by the same constant
        rng = np.random.default_rng(seed)
        mu = DiscreteMeasure.uniform(10.0**scale * rng.normal(size=(n, p)))
        nu = DiscreteMeasure.uniform(10.0**scale * (rng.normal(size=(n, p)) + rng.normal(size=p)))
        cost = squared_euclidean_cost(mu.points, nu.points)
        assert np.array_equal(exact_ot(mu, nu, cost).plan, assignment_plan(cost))

    def test_assignment_solver_gets_reduced_costs(self, monkeypatch, rng):
        received = []
        solver = ot.linear_sum_assignment

        def capture(matrix):
            received.append((matrix, matrix.copy()))
            return solver(matrix)

        monkeypatch.setattr(ot, "linear_sum_assignment", capture)
        mu, nu = random_instance(rng, 30, 30)
        cost = squared_euclidean_cost(mu.points, nu.points)
        original = cost.copy()
        plans = [exact_ot(mu, nu, cost).plan, solve_coupling(mu, nu, cost).plan,
                 solve_coupling(mu, nu).plan]
        givens = [cost, ot._buffer("cost", mu.size, nu.size)]
        row_reduced = cost - cost.min(axis=1)[:, None]
        assert len(received) == 3
        for matrix, values in received:
            assert not any(np.shares_memory(matrix, given) for given in givens)
            assert values.min() >= 0.0
            assert (values == 0.0).any(axis=1).all() and (values == 0.0).any(axis=0).all()
            assert np.array_equal(values, row_reduced - row_reduced.min(axis=0))
        assert np.array_equal(cost, original)
        assert all(np.array_equal(plan, assignment_plan(cost)) for plan in plans)

    def test_repeat_lp_solve_allocates_only_its_plan(self, rng):
        # the LP's n-by-m temporaries live in this thread's buffers, which
        # the first solve has grown to this shape; a second n-by-m float
        # array would put the peak above 2
        mu, nu = random_instance(rng, 380, 420, p=10)
        cost = pairwise_sqdist(mu.points, nu.points)
        first = exact_ot(mu, nu, cost)
        buffers = dict(vars(ot._thread_buffers))
        assert {"unit", "reduced", "scratch", "support", "flags"} <= set(buffers)
        assert traced_peak(exact_ot, mu, nu, cost) <= 1.5 * 8 * mu.size * nu.size
        repeat = exact_ot(mu, nu, cost)
        assert all(vars(ot._thread_buffers)[name] is buffer for name, buffer in buffers.items())
        for field in ("plan", "min_reduced_cost", "duality_gap", "marginal_error"):
            assert np.array_equal(getattr(repeat, field), getattr(first, field))

    def test_single_point_forced_coupling(self):
        mu = DiscreteMeasure.uniform([[0.0]])
        nu = DiscreteMeasure.uniform([[1.0]])
        cost = squared_euclidean_cost(mu.points, nu.points)
        coupling = exact_ot(mu, nu, cost)
        assert np.allclose(coupling.plan, [[1.0]])
        assert transport_cost(coupling, cost) == pytest.approx(1.0)

    def test_two_point_identity_permutation(self):
        # sources 0, 10 and targets 1, 11: identity matching costs (1+1)/2,
        # the swap costs (121+81)/2
        mu = DiscreteMeasure.uniform([[0.0], [10.0]])
        nu = DiscreteMeasure.uniform([[1.0], [11.0]])
        cost = squared_euclidean_cost(mu.points, nu.points)
        coupling = exact_ot(mu, nu, cost)
        assert np.allclose(coupling.plan, [[0.5, 0.0], [0.0, 0.5]])
        assert transport_cost(coupling, cost) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_permutation_enumeration(self, n):
        rng = np.random.default_rng(np.random.SeedSequence([50, n]))
        mu, nu = random_instance(rng, n, n)
        cost = squared_euclidean_cost(mu.points, nu.points)
        coupling = exact_ot(mu, nu, cost)
        assert transport_cost(coupling, cost) == pytest.approx(
            brute_force_assignment_cost(cost), abs=1e-9
        )
        # vertex solution on a uniform equal-size instance is a permutation
        assert np.allclose(np.sort(coupling.plan.ravel())[-n:], 1.0 / n)
        row_err, col_err = coupling.marginal_errors()
        assert max(row_err, col_err) <= 1e-10

    @pytest.mark.parametrize("shape", [(4, 7), (9, 5), (8, 8)])
    def test_general_weights_marginals_and_optimality(self, shape, rng):
        n, m = shape
        w_a = rng.uniform(0.2, 1.0, n)
        w_b = rng.uniform(0.2, 1.0, m)
        mu = DiscreteMeasure(rng.normal(size=(n, 3)), w_a / w_a.sum())
        nu = DiscreteMeasure(rng.normal(size=(m, 3)) + 0.3, w_b / w_b.sum())
        cost = squared_euclidean_cost(mu.points, nu.points)
        coupling = exact_ot(mu, nu, cost)
        row_err, col_err = coupling.marginal_errors()
        assert max(row_err, col_err) <= 1e-10
        opt = transport_cost(coupling, cost)
        # never above any independently constructed feasible plan
        for trial in range(20):
            trial_rng = np.random.default_rng(np.random.SeedSequence([60, trial]))
            plan = greedy_feasible_plan(
                mu.weights,
                nu.weights,
                trial_rng.permutation(n),
                trial_rng.permutation(m),
            )
            assert opt <= float((plan * cost).sum()) + 1e-9

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(transport_instances())
    def test_matches_dense_lp_with_certificate(self, instance):
        mu, nu = instance
        cost = squared_euclidean_cost(mu.points, nu.points)
        tol = 1e-9 * float(cost.max())
        coupling = exact_ot(mu, nu, cost)
        # ties admit several optimal plans, so costs are compared, not plans
        reference = dense_lp_cost(mu.weights, nu.weights, cost)
        assert abs(transport_cost(coupling, cost) - reference) <= tol
        assert max(coupling.marginal_errors()) <= 1e-10
        assert coupling.dual_row is None and coupling.dual_col is None
        if coupling.min_reduced_cost is None:
            # only the assignment path, which exposes no duals, is uncertified
            assert mu.size == nu.size and coupling.duality_gap is None
            assert np.allclose(mu.weights, 1.0 / mu.size, rtol=0, atol=1e-12)
            assert np.allclose(nu.weights, 1.0 / nu.size, rtol=0, atol=1e-12)
        else:
            assert coupling.min_reduced_cost >= -tol
            assert abs(coupling.duality_gap) <= tol

    def test_suboptimal_plan_fails_certificate(self, monkeypatch, rng):
        w_a = rng.uniform(0.2, 1.0, 6)
        mu = DiscreteMeasure(rng.normal(size=(6, 3)), w_a / w_a.sum())
        nu = DiscreteMeasure.uniform(rng.normal(size=(5, 3)))
        cost = squared_euclidean_cost(mu.points, nu.points)
        # a feasible but not optimal plan, with duals that bound nothing
        plan = greedy_feasible_plan(mu.weights, nu.weights, range(6), range(5)[::-1])
        monkeypatch.setattr(
            ot, "_transportation_lp", lambda a, b, c: (plan, np.zeros(6), np.zeros(5))
        )
        with pytest.raises(NumericError, match="certificate"):
            exact_ot(mu, nu, cost)

    def test_pricing_rounds_match_dense_lp(self, monkeypatch):
        runs = []

        class CountingHighs(ot._Highs):
            def run(self):
                runs.append((self, self.getNumCol()))
                return super().run()

        monkeypatch.setattr(ot, "_Highs", CountingHighs)
        # the crash-seeded shortlist solves this instance in one round; the
        # smallest shortlist forces the multi-round warm-start path
        monkeypatch.setattr(ot, "SHORTLIST_K", 1)
        rng = np.random.default_rng(np.random.SeedSequence([70]))
        mu, nu = random_instance(rng, 38, 42, p=10)
        cost = squared_euclidean_cost(mu.points, nu.points)
        coupling = exact_ot(mu, nu, cost)
        # the shortlist alone is not optimal: entering columns were appended
        # to the one model and it was solved again
        models, columns = zip(*runs)
        assert len(runs) >= 2 and all(model is models[0] for model in models)
        assert list(columns) == sorted(set(columns))
        plan, reference = dense_lp(mu.weights, nu.weights, cost)
        # distinct random costs have a unique optimal plan
        assert np.abs(coupling.plan - plan).max() <= 1e-12
        assert transport_cost(coupling, cost) == pytest.approx(reference, rel=1e-12)

    def test_lp_status_other_than_optimal_raises(self, monkeypatch, rng):
        class StalledHighs(ot._Highs):
            def getModelStatus(self):
                return ot.HighsModelStatus.kIterationLimit

        monkeypatch.setattr(ot, "_Highs", StalledHighs)
        mu, nu = random_instance(rng, 6, 5)
        with pytest.raises(NumericError, match="transportation LP failed"):
            exact_ot(mu, nu, squared_euclidean_cost(mu.points, nu.points))

    def test_plan_off_its_marginals_raises(self, monkeypatch, rng):
        mu, nu = random_instance(rng, 6, 5)
        # a plan carrying half the mass: each marginal misses by 0.5 in L1
        plan = 0.5 * np.outer(mu.weights, nu.weights)
        monkeypatch.setattr(
            ot, "_transportation_lp", lambda a, b, c: (plan, np.zeros(6), np.zeros(5))
        )
        message = "^exact solver returned marginal error 5.000e-01 above 1e-10$"
        with pytest.raises(NumericError, match=message):
            exact_ot(mu, nu, squared_euclidean_cost(mu.points, nu.points))

    def test_rejected_star_basis_raises(self, monkeypatch, rng):
        class RejectingHighs(ot._Highs):
            def setBasis(self, basis):
                return ot.HighsStatus.kError

        monkeypatch.setattr(ot, "_Highs", RejectingHighs)
        mu, nu = random_instance(rng, 6, 5)
        cost = squared_euclidean_cost(mu.points, nu.points)
        with pytest.raises(NumericError, match="^transportation LP rejected its star basis$"):
            exact_ot(mu, nu, cost)
        monkeypatch.undo()
        # the thread holds the stand-in model; the next solve replaces it
        assert exact_ot(mu, nu, cost).duality_gap is not None
        assert type(ot._thread_buffers.highs) is ot._Highs

    def test_reused_model_solves_as_a_fresh_one(self, rng):
        # clearModel() empties the thread's model and keeps its options, so
        # a solve on it matches one on a model made for it alone
        mu, nu = random_instance(rng, 9, 11)
        exact_ot(mu, nu, squared_euclidean_cost(mu.points, nu.points))
        model = ot._thread_buffers.highs
        for _ in range(10):
            n = int(rng.integers(20, 60))
            m = n + int(rng.integers(1, 10))
            mu = DiscreteMeasure(rng.normal(size=(n, 4)), integer_weights(rng, n))
            nu = DiscreteMeasure(rng.normal(size=(m, 4)) + 0.5, integer_weights(rng, m))
            cost = squared_euclidean_cost(mu.points, nu.points)
            reused = exact_ot(mu, nu, cost)
            assert ot._thread_buffers.highs is model
            del ot._thread_buffers.highs
            fresh = exact_ot(mu, nu, cost)
            ot._thread_buffers.highs = model
            assert np.array_equal(reused.plan, fresh.plan)
            for field in ("min_reduced_cost", "duality_gap", "marginal_error"):
                assert getattr(reused, field) == getattr(fresh, field)
        for option, value in ot.HIGHS_OPTIONS.items():
            assert model.getOptionValue(option)[1] == value

    def test_lp_solve_is_silent(self, capfd, rng):
        mu, nu = random_instance(rng, 19, 21)
        exact_ot(mu, nu, squared_euclidean_cost(mu.points, nu.points))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("potentials", ["zeros", "random", "non-finite"])
    def test_exact_whatever_the_crash_potentials(self, monkeypatch, potentials):
        # the crash only picks the starting support; pricing and the
        # certificate make the result exact for any potentials
        rng = np.random.default_rng(np.random.SeedSequence([71]))

        def fake_crash(neg_cost, log_a, log_b, max_iterations, tolerance, *buffers):
            n, m = neg_cost.shape
            if potentials == "zeros":
                return np.zeros(n), np.zeros(m), 0, 1.0
            u, v = rng.normal(scale=50.0, size=n), rng.normal(scale=50.0, size=m)
            if potentials == "non-finite":
                # what a kernel that under- or overflowed can leave
                u[:3] = [np.nan, np.inf, -np.inf]
                v[:3] = [-np.inf, np.nan, np.inf]
            return u, v, 0, 1.0

        monkeypatch.setattr(ot, "_crash_scaling", fake_crash)
        mu = DiscreteMeasure(rng.normal(size=(30, 4)), integer_weights(rng, 30))
        nu = DiscreteMeasure(rng.normal(size=(37, 4)) + 0.5, integer_weights(rng, 37))
        assert_exact_and_certified(mu, nu)
        if potentials == "non-finite":
            # their lines fall back to raw cost instead of ranking at +inf or NaN
            cost = squared_euclidean_cost(mu.points, nu.points)
            reduced, u, v = ot._crash_reduced_cost(cost / cost.max(), mu.weights, nu.weights)
            assert np.all(np.isfinite(reduced))
            assert np.all(u[:3] == 0.0) and np.all(v[:3] == 0.0)

    def test_exact_when_the_crash_hits_its_sweep_budget(self, monkeypatch):
        # a tight cluster plus one far outlier on each side: the median cost
        # is tiny against the largest, so the default epsilon is too, and
        # the crash stops at its budget far above its tolerance
        rng = np.random.default_rng(np.random.SeedSequence([72]))
        src = 1e-3 * rng.normal(size=(24, 3))
        tgt = 1e-3 * rng.normal(size=(31, 3))
        src[0] = 50.0
        tgt[0] = -50.0
        mu = DiscreteMeasure(src, integer_weights(rng, 24))
        nu = DiscreteMeasure(tgt, integer_weights(rng, 31))
        crashes = spy_on_crash(monkeypatch)
        assert_exact_and_certified(mu, nu)
        (_, _, sweeps, err, _), = crashes
        assert sweeps == ot.CRASH_SWEEPS and err > ot.CRASH_TOL

    def test_exact_when_the_crash_cost_overflows(self):
        # a median cost of 1e-310 against a largest of 1: the crash's
        # epsilon is so small that unit cost over epsilon overflows
        cost = np.full((3, 4), 1e-310)
        cost[0, 0] = cost[2, 3] = 1.0
        mu = DiscreteMeasure.uniform(np.zeros((3, 1)))
        nu = DiscreteMeasure.uniform(np.zeros((4, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coupling = exact_ot(mu, nu, cost)
        assert coupling.duality_gap is not None

    def test_lp_starts_from_a_dual_feasible_star_basis(self, monkeypatch):
        bases, added = [], []

        class RecordingHighs(ot._Highs):
            def setBasis(self, basis):
                status = super().setBasis(basis)
                bases.append((basis, status))
                return status

            def addCols(self, k, costs, *args):
                added.append(np.array(costs))
                return super().addCols(k, costs, *args)

        monkeypatch.setattr(ot, "_Highs", RecordingHighs)
        # the smallest shortlist forces pricing rounds, whose entering
        # columns carry shifted costs too
        monkeypatch.setattr(ot, "SHORTLIST_K", 1)
        rng = np.random.default_rng(np.random.SeedSequence([74]))
        mu = DiscreteMeasure(rng.normal(size=(31, 4)), integer_weights(rng, 31))
        nu = DiscreteMeasure(rng.normal(size=(36, 4)) + 0.5, integer_weights(rng, 36))
        assert_exact_and_certified(mu, nu)
        (basis, status), = bases
        assert status == ot.HighsStatus.kOk
        n, m = mu.size, nu.size
        col_basic = np.array(basis.col_status) == ot.HighsBasisStatus.kBasic
        row_basic = np.array(basis.row_status) == ot.HighsBasisStatus.kBasic
        assert col_basic.sum() + row_basic.sum() == n + m - 1
        # the basic slacks are those of the column-sum constraints
        assert not row_basic[:n].any() and row_basic[n:].all()
        # the first columns are those the basis describes; later ones entered
        assert len(added) >= 2 and added[0].shape == col_basic.shape
        assert all(np.all(costs >= 0.0) for costs in added)
        assert np.all(added[0][col_basic] == 0.0)

    def test_exact_on_an_all_zero_cost(self):
        # one point against four copies of it: every cost is zero, so the
        # certificate tolerance is zero and the duals must be exactly zero
        mu = DiscreteMeasure.uniform([[0.3, -1.2]])
        nu = DiscreteMeasure([[0.3, -1.2]] * 4, [0.1, 0.2, 0.3, 0.4])
        cost = squared_euclidean_cost(mu.points, nu.points)
        assert not cost.any()
        coupling = exact_ot(mu, nu, cost)
        assert np.abs(coupling.plan - nu.weights).max() <= 1e-15
        assert coupling.min_reduced_cost == 0.0 and coupling.duality_gap == 0.0

    def test_lp_makes_no_traced_sinkhorn_calls(self, monkeypatch, rng):
        # the benchmark tracer wraps these names to time entropic solves and
        # cost matrices; the crash start is LP work and must bypass them
        mu, nu = random_instance(rng, 23, 29)
        cost = squared_euclidean_cost(mu.points, nu.points)
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        for attr in ("sinkhorn_scaling", "sinkhorn", "pairwise_sqdist"):
            monkeypatch.setattr(ot, attr, counting(attr, getattr(ot, attr)))
        assert exact_ot(mu, nu, cost).min_reduced_cost is not None
        assert calls == []


class TestSinkhorn:
    def config(self, **kw):
        base = dict(mode="sinkhorn", max_iterations=50_000, marginal_tolerance=1e-9)
        base.update(kw)
        return SolverConfig(**base)

    def test_single_point(self):
        mu = DiscreteMeasure.uniform([[1.0, 2.0]])
        coupling = sinkhorn(
            mu, mu, squared_euclidean_cost(mu.points, mu.points), self.config()
        )
        assert np.allclose(coupling.plan, [[1.0]])

    def test_small_epsilon_concentrates_on_diagonal(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        nu = DiscreteMeasure.uniform([[0.0], [1.0]])
        cost = squared_euclidean_cost(mu.points, nu.points)
        eps = 1e-3 * float(cost.max())
        coupling = sinkhorn(mu, nu, cost, self.config(epsilon=eps))
        exact = exact_ot(mu, nu, cost)
        assert np.allclose(exact.plan, np.eye(2) / 2)
        off_diag = coupling.plan[0, 1] + coupling.plan[1, 0]
        assert off_diag < 1e-3

    @pytest.mark.parametrize("shape", [(3, 3), (5, 9), (12, 7)])
    def test_marginal_feasibility(self, shape, rng):
        mu, nu = random_instance(rng, *shape)
        cost = squared_euclidean_cost(mu.points, nu.points)
        coupling = sinkhorn(
            mu, nu, cost, self.config(epsilon=0.05 * float(cost.max()))
        )
        row_err, col_err = coupling.marginal_errors()
        assert max(row_err, col_err) <= 1e-9
        assert coupling.plan.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_weight_atom_gets_zero_row(self):
        # a zero weight is rejected; the atom of weight 1e-300 that stands
        # in for it carries an empty row on a finite potential
        with pytest.raises(InvalidInputError, match="finite and positive"):
            DiscreteMeasure([[0.0], [5.0]], [1.0, 0.0])
        mu = DiscreteMeasure([[0.0], [5.0]], [1.0, 1e-300])
        nu = DiscreteMeasure.uniform([[0.5], [1.5]])
        cost = squared_euclidean_cost(mu.points, nu.points)
        coupling = sinkhorn(mu, nu, cost, self.config(epsilon=0.05 * float(cost.max())))
        assert np.allclose(coupling.plan[1], 0.0)
        assert np.all(np.isfinite(coupling.dual_row))
        row_err, col_err = coupling.marginal_errors()
        assert max(row_err, col_err) <= 1e-9

    def test_dominated_by_exact(self, rng):
        mu, nu = random_instance(rng, 10, 8)
        cost = squared_euclidean_cost(mu.points, nu.points)
        exact_cost = transport_cost(exact_ot(mu, nu, cost), cost)
        regularized = sinkhorn(mu, nu, cost, self.config())
        assert transport_cost(regularized, cost) >= exact_cost - 1e-6 * cost.max()

    def test_epsilon_convergence_to_exact(self):
        rng = np.random.default_rng(np.random.SeedSequence([61]))
        mu, nu = random_instance(rng, 12, 12)
        cost = squared_euclidean_cost(mu.points, nu.points)
        exact_cost = transport_cost(exact_ot(mu, nu, cost), cost)
        slack = 1e-9 + 1e-6 * exact_cost
        gaps = []
        init = None
        for factor in [0.5, 0.1, 0.02, 0.004, 0.002, 0.001]:
            # the gap check needs far less marginal precision than the solver
            # default, and tiny-epsilon sweeps converge slowly near degeneracy
            coupling = sinkhorn(
                mu,
                nu,
                cost,
                self.config(epsilon=factor * float(cost.max()), max_iterations=400_000,
                            marginal_tolerance=1e-6),
                init=init,
            )
            init = (coupling.dual_row, coupling.dual_col)
            gaps.append(transport_cost(coupling, cost) - exact_cost)
        assert all(g >= -slack for g in gaps)
        assert all(b <= a + slack for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.01 * exact_cost

    def test_convergence_error_reports_marginal_error(self):
        rng = np.random.default_rng(np.random.SeedSequence([62]))
        mu, nu = random_instance(rng, 10, 10)
        cost = squared_euclidean_cost(mu.points, nu.points)
        config = self.config(epsilon=1e-4 * float(cost.max()), max_iterations=3)
        with pytest.raises(ConvergenceError) as excinfo:
            sinkhorn(mu, nu, cost, config)
        assert excinfo.value.marginal_error > 0
        assert excinfo.value.iterations == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_overflowed_plan_is_a_numeric_error(self, bad, rng, monkeypatch):
        # the solver's plan goes through CouplingMatrix's entry check, which
        # reports the solver's failure, not bad input
        scaling = ot.sinkhorn_scaling

        def overflowing(*args):
            u, v, sweeps, err, plan = scaling(*args)
            plan[0, 0] = bad
            return u, v, sweeps, err, plan

        monkeypatch.setattr(ot, "sinkhorn_scaling", overflowing)
        mu, nu = random_instance(rng, 4, 3)
        cost = squared_euclidean_cost(mu.points, nu.points)
        with pytest.raises(NumericError, match="^transport plan overflowed; increase epsilon"):
            sinkhorn(mu, nu, cost, self.config())

    def test_underflow_advises_larger_epsilon(self, rng):
        from potd.errors import NumericError

        mu, nu = random_instance(rng, 4, 4)
        cost = squared_euclidean_cost(mu.points, nu.points)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="increase epsilon"):
                sinkhorn(
                    mu, nu, cost, self.config(epsilon=1e-300, max_iterations=50)
                )

    def test_degenerate_potentials_stop_the_sweeps(self, rng, monkeypatch):
        # at epsilon = 1e-307 the first log-domain sweep leaves potentials
        # near 1e307 while the marginal error stays finite; the sweeps stop
        # there instead of running the whole budget
        scaling = ot.sinkhorn_scaling
        sweeps = []

        def recorded(*args):
            out = scaling(*args)
            sweeps.append(out[2])
            return out

        monkeypatch.setattr(ot, "sinkhorn_scaling", recorded)
        mu, nu = random_instance(rng, 100, 100)
        cost = squared_euclidean_cost(mu.points, nu.points)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match=r"^scaling potentials degenerated; increase"):
                sinkhorn(mu, nu, cost, self.config(epsilon=1e-307))
        assert sweeps == [1]

    def test_init_of_wrong_length_is_rejected(self, rng):
        mu, nu = random_instance(rng, 4, 3)
        cost = squared_euclidean_cost(mu.points, nu.points)
        with pytest.raises(InvalidInputError, match="dual_col"):
            sinkhorn(mu, nu, cost, self.config(), init=(np.zeros(4), np.zeros(4)))
        with pytest.raises(InvalidInputError, match="dual_row"):
            sinkhorn(mu, nu, cost, self.config(), init=(None, np.zeros(3)))

    def test_init_with_nan_is_rejected(self, rng):
        mu, nu = random_instance(rng, 4, 3)
        cost = squared_euclidean_cost(mu.points, nu.points)
        for bad in (np.nan, np.inf, -np.inf):
            dual_row = np.array([0.0, bad, 0.0, 0.0])
            with pytest.raises(InvalidInputError, match="^init dual_row contains non-finite"):
                sinkhorn(mu, nu, cost, self.config(), init=(dual_row, np.zeros(3)))

    def test_warm_start_from_zero_mass_solve(self):
        # the potential of a 1e-300 atom lies some 690 epsilon below the
        # others, yet is finite, so a finer solve accepts it as a warm start
        mu = DiscreteMeasure([[0.0], [5.0]], [1.0, 1e-300])
        nu = DiscreteMeasure.uniform([[0.5], [1.5]])
        cost = squared_euclidean_cost(mu.points, nu.points)
        coarse_eps = 0.1 * float(cost.max())
        coarse = sinkhorn(mu, nu, cost, self.config(epsilon=coarse_eps))
        assert np.all(np.isfinite(coarse.dual_row))
        assert coarse.dual_row[1] - coarse.dual_row[0] < -600.0 * coarse_eps
        fine = sinkhorn(
            mu, nu, cost, self.config(epsilon=0.02 * float(cost.max())),
            init=(coarse.dual_row, coarse.dual_col),
        )
        assert np.allclose(fine.plan[1], 0.0)
        row_err, col_err = fine.marginal_errors()
        assert max(row_err, col_err) <= 1e-9

    def test_requires_sinkhorn_mode(self):
        mu = DiscreteMeasure.uniform([[0.0], [1.0]])
        cost = squared_euclidean_cost(mu.points, mu.points)
        with pytest.raises(InvalidInputError):
            sinkhorn(mu, mu, cost, SolverConfig(mode="exact"))

    def test_deterministic(self, rng):
        mu, nu = random_instance(rng, 6, 5)
        cost = squared_euclidean_cost(mu.points, nu.points)
        first = sinkhorn(mu, nu, cost, self.config())
        second = sinkhorn(mu, nu, cost, self.config())
        assert np.array_equal(first.plan, second.plan)
        assert first.iterations == second.iterations


class TestSolveCoupling:
    def test_auto_picks_exact_below_limit(self, rng):
        mu, nu = random_instance(rng, 5, 5)
        coupling = solve_coupling(mu, nu)
        # exact vertex: at most n + m - 1 nonzero entries
        assert (coupling.plan > 1e-12).sum() <= 9
        assert coupling.marginal_error <= 1e-10

    def test_auto_switches_to_regularized_above_limit(self, rng):
        mu, nu = random_instance(rng, 6, 6)
        config = SolverConfig(mode="auto", exact_size_limit=10, marginal_tolerance=1e-8)
        coupling = solve_coupling(mu, nu, config=config)
        # regularized plans are dense
        assert (coupling.plan > 1e-300).all()

    def test_cost_computed_when_omitted(self, rng):
        mu, nu = random_instance(rng, 4, 4)
        with_cost = solve_coupling(
            mu, nu, squared_euclidean_cost(mu.points, nu.points)
        )
        without = solve_coupling(mu, nu)
        assert np.allclose(with_cost.plan, without.plan)

    @pytest.mark.parametrize(
        "mode, epsilon", [("sinkhorn", None), ("sinkhorn", 0.3), ("exact", None)]
    )
    def test_computed_and_given_cost_solves_are_bitwise_equal(self, rng, mode, epsilon):
        config = SolverConfig(mode=mode, epsilon=epsilon)
        for n, m in ((30, 40), (41, 41), (90, 60)):
            mu, nu = random_instance(rng, n, m)
            given_cost = solve_coupling(mu, nu, pairwise_sqdist(mu.points, nu.points), config)
            computed = solve_coupling(mu, nu, config=config)
            for field in ("plan", "dual_row", "dual_col"):
                assert np.array_equal(
                    getattr(computed, field), getattr(given_cost, field)
                )
            assert computed.iterations == given_cost.iterations
            assert computed.marginal_error == given_cost.marginal_error

    def test_a_given_cost_is_never_written(self, rng):
        mu, nu = random_instance(rng, 30, 40)
        cost = pairwise_sqdist(mu.points, nu.points)
        original = cost.copy()
        config = SolverConfig(mode="sinkhorn")
        sinkhorn(mu, nu, cost, config)
        assert np.array_equal(cost, original)
        solve_coupling(mu, nu, cost=cost, config=config)
        assert np.array_equal(cost, original)

    def test_entropic_solve_holds_two_n_by_m_arrays(self, rng):
        # the large-auto benchmark's shape: the cost buffer and the plan on a
        # thread's first solve, the plan alone once the buffer is kept
        mu, nu = random_instance(rng, 822, 778, p=10)
        assert mu.size * nu.size > SolverConfig().exact_size_limit
        floats = 8 * mu.size * nu.size
        peaks = []
        thread = threading.Thread(target=lambda: peaks.append(traced_peak(solve_coupling, mu, nu)))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and len(peaks) == 1
        assert peaks[0] <= 2.1 * floats
        solve_coupling(mu, nu)
        assert traced_peak(solve_coupling, mu, nu) <= 1.1 * floats

    def test_threads_solving_different_shapes_match_sequential_solves(self, rng):
        # each thread holds its own cost buffer; growing shapes make every
        # thread drop and reallocate it while the others solve
        shapes = [(40, 50), (70, 60), (55, 90), (100, 80)]
        instances = [random_instance(rng, n, m) for n, m in shapes]
        config = SolverConfig(mode="sinkhorn")
        expected = [solve_coupling(mu, nu, config=config).plan for mu, nu in instances]
        for out in solve_in_threads(instances, config):
            for k, coupling in out:
                assert np.array_equal(coupling.plan, expected[k])

    def test_threads_solving_lps_of_growing_shapes_match_sequential_solves(self, rng):
        # unequal sizes take the LP, whose buffers each thread grows and
        # reuses while the others solve
        shapes = [(40, 50), (70, 60), (55, 90), (100, 80)]
        instances = [random_instance(rng, n, m) for n, m in shapes]
        config = SolverConfig(mode="exact")
        fields = ("plan", "min_reduced_cost", "duality_gap", "marginal_error")
        expected = [solve_coupling(mu, nu, config=config) for mu, nu in instances]
        for out in solve_in_threads(instances, config):
            for k, coupling in out:
                for field in fields:
                    assert np.array_equal(getattr(coupling, field), getattr(expected[k], field))


class TestTransportCost:
    def test_single_entry(self):
        coupling = CouplingMatrix([[1.0]], [1.0], [1.0])
        assert transport_cost(coupling, [[25.0]]) == 25.0

    def test_zero_cost(self, rng):
        mu, nu = random_instance(rng, 3, 4)
        coupling = solve_coupling(mu, nu)
        assert transport_cost(coupling, np.zeros((3, 4))) == 0.0

    def test_shape_mismatch(self):
        coupling = CouplingMatrix([[1.0]], [1.0], [1.0])
        with pytest.raises(InvalidInputError):
            transport_cost(coupling, np.zeros((2, 2)))


class TestSolverConfig:
    def test_rejects_bad_mode(self):
        message = "^mode must be 'auto', 'exact' or 'sinkhorn', got 'magic'$"
        with pytest.raises(InvalidInputError, match=message):
            SolverConfig(mode="magic")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iterations": 0}, "max_iterations must be a positive integer"),
            ({"marginal_tolerance": 0.0}, "marginal_tolerance must be positive"),
            ({"marginal_tolerance": np.nan}, "marginal_tolerance must be positive"),
        ],
    )
    def test_rejects_a_bad_budget_or_tolerance(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            SolverConfig(**kwargs)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(mode="sinkhorn", epsilon=0.0)

    def test_default_epsilon_rule(self):
        cost = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert default_epsilon(cost) == pytest.approx(0.05 * 2.5)

    def test_default_epsilon_when_the_median_underflows(self):
        # 0.05 times a median of 5e-324 underflows to zero; the rule then
        # falls back as for a zero median, and the solve divides by no zero
        cost = np.full((3, 4), 5e-324)
        assert default_epsilon(cost) == 1.0
        cost[0, 0] = 1.0
        assert default_epsilon(cost) == 0.05
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coupling = sinkhorn(
                DiscreteMeasure.uniform(np.zeros((3, 1))),
                DiscreteMeasure.uniform(np.zeros((4, 1))),
                cost,
                SolverConfig(mode="sinkhorn"),
            )
        assert coupling.marginal_error <= 1e-9

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.integers(1, 30)),
            elements=st.one_of(
                st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1e8, allow_subnormal=False)
            ),
        )
    )
    def test_median_matches_numpy_median(self, cost):
        # drawn sizes are odd and even, with ties and zero costs
        assert ot._median(cost) == np.median(cost)
