"""Discrete optimal transport between weighted point clouds.

The coupling between two classes can be computed two ways: an exact
solver (assignment fast path for uniform equal-size clouds, a shortlist
transportation LP grown by column generation and certified by its dual
potentials otherwise) and an entropic-regularized solver using
log-domain scaling iterations. The exact route doubles as the oracle for
the regularized one in the verification suite.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import ConvergenceError, InvalidInputError, NumericError
from .kernels import pairwise_sqdist, sinkhorn_scaling

WEIGHT_SUM_TOL = 1e-12
EXACT_MARGINAL_TOL = 1e-10
# dual-certificate tolerance of exact couplings, relative to the largest cost
CERTIFICATE_RTOL = 1e-9
# HiGHS primal/dual feasibility and pricing tolerance on unit-scaled costs
LP_TOL = 1e-10
# cheapest entries per row and per column in the initial shortlist support
SHORTLIST_K = 5


def _as_points(name, arr):
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidInputError(f"{name} must be a nonempty n-by-p matrix")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return pts


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud: one response class with per-point masses.

    Weights are nonnegative and must sum to one (L1-normalized); use
    :meth:`uniform` for equal masses.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _as_points("points", self.points)
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if w.shape[0] != pts.shape[0]:
            raise InvalidInputError(
                f"weights length {w.shape[0]} does not match {pts.shape[0]} points"
            )
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidInputError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL:g} (got {w.sum()!r})"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, points):
        pts = _as_points("points", points)
        n = pts.shape[0]
        return cls(pts, np.full(n, 1.0 / n))

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class CouplingMatrix:
    """Transport plan with its prescribed marginals and solve diagnostics.

    For regularized solves ``dual_row``/``dual_col`` hold the dual
    potentials (in cost units, independent of epsilon); they can seed a
    warm start at a smaller epsilon. Exact solves leave them ``None``; those
    from the transportation LP instead record their optimality certificate
    over the full cost matrix: ``min_reduced_cost`` (``min C_ij - u_i - v_j``,
    never below minus the tolerance) and ``duality_gap`` (primal minus dual
    objective). Both stay ``None`` on the assignment path and for entropic
    solves.
    """

    plan: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    iterations: int = 0
    marginal_error: float = 0.0
    dual_row: np.ndarray | None = None
    dual_col: np.ndarray | None = None
    min_reduced_cost: float | None = None
    duality_gap: float | None = None

    def __post_init__(self):
        plan = np.asarray(self.plan, dtype=np.float64)
        if plan.ndim != 2:
            raise InvalidInputError("coupling plan must be a matrix")
        if np.any(plan < 0) or not np.all(np.isfinite(plan)):
            raise InvalidInputError("coupling entries must be finite and nonnegative")
        r = np.asarray(self.row_marginal, dtype=np.float64).ravel()
        c = np.asarray(self.col_marginal, dtype=np.float64).ravel()
        if plan.shape != (r.shape[0], c.shape[0]):
            raise InvalidInputError("coupling shape does not match its marginals")
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "row_marginal", r)
        object.__setattr__(self, "col_marginal", c)

    def marginal_errors(self):
        """L1 violations of the row and column marginals."""
        row = float(np.abs(self.plan.sum(axis=1) - self.row_marginal).sum())
        col = float(np.abs(self.plan.sum(axis=0) - self.col_marginal).sum())
        return row, col


@dataclass(frozen=True)
class SolverConfig:
    """Coupling solver selection and tolerances.

    ``mode="auto"`` picks the exact solver when the instance has at most
    ``exact_size_limit`` plan entries and the regularized solver above
    that. ``epsilon=None`` applies the documented default of 0.05 times
    the median cost entry.
    """

    mode: str = "auto"
    epsilon: float | None = None
    max_iterations: int = 10_000
    marginal_tolerance: float = 1e-9
    exact_size_limit: int = 250_000

    def __post_init__(self):
        if self.mode not in ("auto", "exact", "sinkhorn"):
            raise InvalidInputError(
                f"mode must be 'auto', 'exact' or 'sinkhorn', got {self.mode!r}"
            )
        if self.epsilon is not None and not self.epsilon > 0:
            raise InvalidInputError("epsilon must be positive")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be a positive integer")
        if not self.marginal_tolerance > 0:
            raise InvalidInputError("marginal_tolerance must be positive")


def squared_euclidean_cost(source, target):
    """Pairwise squared Euclidean distances between two point matrices."""
    src = _as_points("source", source)
    tgt = _as_points("target", target)
    if src.shape[1] != tgt.shape[1]:
        raise InvalidInputError(
            f"source has {src.shape[1]} columns but target has {tgt.shape[1]}"
        )
    return pairwise_sqdist(src, tgt)


def default_epsilon(cost):
    """Documented default regularization: 0.05 times the median cost."""
    med = float(np.median(cost))
    if med <= 0.0:
        med = float(np.max(cost))
    return 0.05 * med if med > 0.0 else 1.0


def _check_cost(mu, nu, cost):
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape != (mu.size, nu.size):
        raise InvalidInputError(
            f"cost shape {cost.shape} does not match measure sizes "
            f"({mu.size}, {nu.size})"
        )
    if not np.all(np.isfinite(cost)) or np.any(cost < 0):
        raise InvalidInputError("cost entries must be finite and nonnegative")
    return cost


def sinkhorn(mu, nu, cost, config, init=None):
    """Entropic-regularized coupling via log-domain scaling iterations.

    ``init`` optionally warm-starts the solve from ``(dual_row, dual_col)``
    potentials of a previous coupling (typically one computed at a larger
    epsilon). Raises :class:`ConvergenceError` when the column-marginal L1
    error is still above ``config.marginal_tolerance`` after
    ``config.max_iterations`` sweeps, and :class:`NumericError` when the
    potentials degenerate (remedy: increase epsilon).
    """
    cost = _check_cost(mu, nu, cost)
    if config.mode != "sinkhorn":
        raise InvalidInputError("sinkhorn() requires a config with mode='sinkhorn'")
    eps = config.epsilon if config.epsilon is not None else default_epsilon(cost)
    neg_cost = -cost / eps
    with np.errstate(divide="ignore"):
        log_a = np.log(mu.weights)
        log_b = np.log(nu.weights)
    u0 = v0 = None
    if init is not None:
        dual_row, dual_col = init
        u0 = np.asarray(dual_row, dtype=np.float64) / eps
        v0 = np.asarray(dual_col, dtype=np.float64) / eps
    u, v, iterations, err = sinkhorn_scaling(
        neg_cost, log_a, log_b, config.max_iterations, config.marginal_tolerance,
        u0, v0,
    )
    # -inf potentials are legitimate only for zero-mass atoms; NaN, +inf or
    # astronomically large magnitudes mean the scaled costs underflowed
    # (legitimate potentials are bounded by the cost range over epsilon)
    live_u = u[mu.weights > 0]
    live_v = v[nu.weights > 0]
    degenerate = (
        np.any(np.isnan(u))
        or np.any(np.isnan(v))
        or not np.all(np.isfinite(live_u))
        or not np.all(np.isfinite(live_v))
        or max(np.abs(live_u).max(), np.abs(live_v).max()) > 1e150
    )
    if degenerate:
        raise NumericError(
            "scaling potentials degenerated; increase epsilon "
            f"(epsilon={eps:g})"
        )
    if err > config.marginal_tolerance:
        raise ConvergenceError(
            f"marginal error {err:.3e} above tolerance "
            f"{config.marginal_tolerance:.3e} after {iterations} iterations",
            iterations=iterations,
            marginal_error=err,
        )
    plan = np.exp(neg_cost + u[:, None] + v[None, :])
    if not np.all(np.isfinite(plan)):
        raise NumericError(
            f"transport plan overflowed; increase epsilon (epsilon={eps:g})"
        )
    return CouplingMatrix(
        plan,
        mu.weights,
        nu.weights,
        iterations,
        float(err),
        dual_row=eps * u,
        dual_col=eps * v,
    )


def _is_uniform(weights):
    n = weights.shape[0]
    return np.max(np.abs(weights - 1.0 / n)) <= 1e-12


def exact_ot(mu, nu, cost):
    """Exact optimal coupling (vertex of the transportation polytope).

    Uniform equal-size instances go through the assignment solver and
    return a scaled permutation; everything else solves the transportation
    LP on a shortlist support grown by column generation. LP results carry
    a dual certificate over the full cost matrix: the minimum reduced cost
    and the duality gap. The assignment solver exposes no duals, so its
    results carry none. Raises :class:`NumericError` when the marginals or
    the certificate miss their tolerance.
    """
    cost = _check_cost(mu, nu, cost)
    a, b = mu.weights, nu.weights
    if abs(a.sum() - b.sum()) > 1e-9:
        raise InvalidInputError(
            f"infeasible weights: sums {a.sum()!r} and {b.sum()!r} differ"
        )
    n, m = cost.shape
    if n == m and _is_uniform(a) and _is_uniform(b):
        rows, cols = linear_sum_assignment(cost)
        plan = np.zeros((n, m))
        plan[rows, cols] = 1.0 / n
        u = v = None
    else:
        plan, u, v = _transportation_lp(a, b, cost)
    coupling = CouplingMatrix(plan, a, b, iterations=0, marginal_error=0.0)
    row_err, col_err = coupling.marginal_errors()
    err = max(row_err, col_err)
    if err > EXACT_MARGINAL_TOL:
        raise NumericError(
            f"exact solver returned marginal error {err:.3e} above "
            f"{EXACT_MARGINAL_TOL:g}"
        )
    coupling = replace(coupling, marginal_error=err)
    return coupling if u is None else _certified(coupling, cost, u, v)


def _certified(coupling, cost, u, v):
    """``coupling`` with its dual certificate over the full cost matrix.

    Raises :class:`NumericError` when the minimum reduced cost is below, or
    the duality gap off zero by, more than ``CERTIFICATE_RTOL`` times the
    largest cost.
    """
    min_reduced = float((cost - u[:, None] - v[None, :]).min())
    gap = float(
        np.sum(coupling.plan * cost)
        - coupling.row_marginal @ u
        - coupling.col_marginal @ v
    )
    tol = CERTIFICATE_RTOL * float(cost.max())
    if min_reduced < -tol or abs(gap) > tol:
        raise NumericError(
            f"exact solver failed its optimality certificate: minimum reduced "
            f"cost {min_reduced:.3e}, duality gap {gap:.3e}, tolerance {tol:.3e}"
        )
    return replace(coupling, min_reduced_cost=min_reduced, duality_gap=gap)


def _northwest_corner_support(a, b):
    """Cells of the north-west-corner plan of ``(a, b)``.

    The staircase from ``(0, 0)`` to ``(n-1, m-1)`` advances a row at each
    interior row boundary of the cumulative masses and a column at each
    column boundary; a feasible plan lives on it for any weights.
    """
    n, m = a.shape[0], b.shape[0]
    bounds = np.concatenate([np.cumsum(a)[:-1], np.cumsum(b)[:-1]])
    is_row = np.arange(n + m - 2) < n - 1
    steps = is_row[np.argsort(bounds, kind="stable")]
    return (
        np.concatenate([[0], np.cumsum(steps)]),
        np.concatenate([[0], np.cumsum(~steps)]),
    )


def _shortlist_mask(cost, a, b):
    """Initial support: cheapest entries per row and column plus a feasible plan."""
    n, m = cost.shape
    mask = np.zeros((n, m), dtype=bool)
    k_col = min(SHORTLIST_K, m)
    k_row = min(SHORTLIST_K, n)
    mask[np.arange(n)[:, None], np.argpartition(cost, k_col - 1, axis=1)[:, :k_col]] = True
    mask[np.argpartition(cost, k_row - 1, axis=0)[:k_row], np.arange(m)[None, :]] = True
    mask[_northwest_corner_support(a, b)] = True
    return mask


def _transportation_lp(a, b, cost):
    """Exact transportation plan by the shortlist method.

    The LP is solved on a sparse candidate support (Gottschlich &
    Schuhmacher 2014). Its duals price every excluded entry; entries with
    negative reduced cost join the support and the LP is solved again,
    until none is left, which makes the duals feasible for the full
    problem and the restricted plan optimal for it. Costs are scaled to a
    unit maximum so the solver tolerances are relative to the cost range.

    Returns ``(plan, u, v)`` with dual potentials in cost units.
    """
    n, m = cost.shape
    scale = float(cost.max())
    if scale <= 0.0:
        scale = 1.0
    unit = cost / scale
    mask = _shortlist_mask(unit, a, b)
    b_eq = np.concatenate([a, b[:-1]])
    while True:
        rows, cols = np.nonzero(mask)
        # row-sum constraints for every source atom, column-sum constraints for
        # all but the last target atom (the dropped one is implied by mass balance)
        in_col = cols < m - 1
        con = np.concatenate([rows, n + cols[in_col]])
        var = np.concatenate([np.arange(rows.shape[0]), np.flatnonzero(in_col)])
        a_eq = sparse.csc_matrix(
            (np.ones(con.shape[0]), (con, var)), shape=(n + m - 1, rows.shape[0])
        )
        res = linprog(
            unit[rows, cols],
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs-ds",
            # presolve finds nothing to remove in a transportation LP; turning
            # it off cut the solve time by about a third at n = 400
            options={
                "presolve": False,
                "primal_feasibility_tolerance": LP_TOL,
                "dual_feasibility_tolerance": LP_TOL,
            },
        )
        if res.status != 0:
            raise NumericError(f"transportation LP failed: {res.message}")
        u = res.eqlin.marginals[:n]
        v = np.concatenate([res.eqlin.marginals[n:], [0.0]])
        entering = (unit - u[:, None] - v[None, :] < -LP_TOL) & ~mask
        if not entering.any():
            break
        mask |= entering
    plan = np.zeros((n, m))
    plan[rows, cols] = np.maximum(res.x, 0.0)
    return plan, scale * u, scale * v


def solve_coupling(mu, nu, cost=None, config=None):
    """Compute a coupling, resolving mode ``auto`` by instance size."""
    if config is None:
        config = SolverConfig()
    if cost is None:
        cost = squared_euclidean_cost(mu.points, nu.points)
    else:
        cost = _check_cost(mu, nu, cost)
    mode = config.mode
    if mode == "auto":
        mode = "exact" if mu.size * nu.size <= config.exact_size_limit else "sinkhorn"
    if mode == "exact":
        return exact_ot(mu, nu, cost)
    return sinkhorn(mu, nu, cost, replace(config, mode="sinkhorn"))


def barycentric_projection(coupling, target_points):
    """Plan-weighted image of each source atom: ``plan @ target_points``.

    Row ``l`` is the mass-weighted average of the targets that atom ``l``
    ships to, scaled by the atom's own mass.
    """
    tgt = _as_points("target_points", target_points)
    if coupling.plan.shape[1] != tgt.shape[0]:
        raise InvalidInputError(
            f"coupling has {coupling.plan.shape[1]} columns but "
            f"{tgt.shape[0]} target points were given"
        )
    return coupling.plan @ tgt


def transport_cost(coupling, cost):
    """Frobenius inner product of the plan with the cost matrix."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape != coupling.plan.shape:
        raise InvalidInputError(
            f"cost shape {cost.shape} does not match plan shape "
            f"{coupling.plan.shape}"
        )
    return float(np.sum(coupling.plan * cost))
