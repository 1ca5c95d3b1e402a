"""Discrete optimal transport between weighted point clouds.

The coupling between two classes can be computed two ways: an exact
solver (assignment fast path for uniform equal-size clouds, otherwise a
shortlist transportation LP solved by a warm-started dual simplex grown by
pricing and certified by its dual potentials) and an entropic-regularized
solver using over-relaxed, log-stabilized scaling iterations. The LP's
starting shortlist is seeded by a loose run of the same scaling kernel (a
crash start), and the dual simplex starts at those entropic duals: the LP
runs on costs shifted by them (which moves every feasible plan's objective
by the same constant) from a dual-feasible star basis. The crash only
chooses where the LP starts, never whether its result is optimal. The
exact route doubles as the oracle for the regularized one in the
verification suite.
"""

import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, replace
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import ConvergenceError, InvalidInputError, NumericError

# the exact solver's compiled solvers, by the scipy extension module that
# holds them: the assignment solver and the HiGHS binding. Each path of the
# exact solver loads only its own module on its first solve, from the file
# and without the rest of scipy (see _load_solvers); until then the module
# __getattr__ serves the names to outside readers
_SOLVER_MODULES = {
    "scipy.optimize._lsap": ("linear_sum_assignment",),
    "scipy.optimize._highspy._core": (
        "HighsBasis", "HighsBasisStatus", "HighsModelStatus", "HighsStatus", "_Highs",
    ),
}

SOLVER_MODES = ("auto", "exact", "sinkhorn")
WEIGHT_SUM_TOL = 1e-12
EXACT_MARGINAL_TOL = 1e-10
# dual-certificate tolerance of exact couplings, relative to the largest cost
CERTIFICATE_RTOL = 1e-9
# HiGHS primal/dual feasibility and pricing tolerance on unit-scaled costs
LP_TOL = 1e-10
# smallest crash reduced costs per row and per column in the initial
# shortlist support
SHORTLIST_K = 8
# sweep budget and marginal tolerance of the entropic crash start
# that picks the initial support; the budget bounds its cost, and whatever
# potentials it reaches are used
CRASH_SWEEPS = 200
CRASH_TOL = 1e-3
# dual simplex without presolve (presolve finds nothing to remove in a
# transportation LP; turning it off cut the solve time by about a third at
# n = 400), silent so the CLI's stdout stays byte-deterministic
HIGHS_OPTIONS = {
    "output_flag": False,
    "presolve": "off",
    "solver": "simplex",
    "simplex_strategy": 1,  # dual
    "primal_feasibility_tolerance": LP_TOL,
    "dual_feasibility_tolerance": LP_TOL,
}
# scaling factors may drift into [1/SCALING_BOUND, SCALING_BOUND] before
# they are absorbed into the log-domain potentials
SCALING_BOUND = 1e3
# log-domain potentials beyond this magnitude, or NaN, mean the scaled costs
# under- or overflowed (legitimate ones are bounded by the cost range over
# epsilon); the sweeps stop on them and sinkhorn() reports them
POTENTIAL_BOUND = 1e150
# bytes of kernel rows per block of a scaling sweep: a block read for its
# row sums is still in cache (L2 of a current x86 core) for its column sums.
# A log-domain column pass walks the scaled cost in blocks of the same size
SWEEP_BLOCK_BYTES = 1 << 20
# bytes of the outer-sum scratch of pairwise_sqdist: a few rows, reused
# down the matrix, so that a small matrix (one KNN block of 200 by 200)
# holds no second copy of itself. A matrix of more than SQDIST_SCRATCH_PARTS
# times that (an entropic cost) takes that fraction of itself, so that its
# row groups stay few: at 822 by 778 one call took 1.86 against 2.30 ms
SQDIST_SCRATCH_BYTES = 1 << 15
SQDIST_SCRATCH_PARTS = 32
# the over-relaxation schedule of the scaling sweeps (see _overrelaxation)
OMEGA_MAX = 1.8
SETTLE_RTOL = 0.1
RISE_GRACE = 6
STALL_RTOL = 1e-6


def _load_solvers(*modules):
    """Load the solver names of the given ``_SOLVER_MODULES`` into this module.

    Each module is loaded from its file (see :func:`_load_extension`), so
    neither ``scipy/__init__.py`` nor ``scipy/optimize/__init__.py``, which
    imports many times more than this package does, runs. The latter's
    public ``linprog`` could not serve anyway: it builds a fresh model on
    every call and loops in Python over every column to fill bound
    marginals, so each pricing round of the shortlist LP would pay a cold
    solve plus that loop.

    Only names not set yet are filled, so one replaced from outside (a
    stand-in ``_Highs`` class, say) stays in place.
    """
    names = globals()
    for dotted in modules:
        if not all(name in names for name in _SOLVER_MODULES[dotted]):
            module = _load_extension(dotted)
            for name in _SOLVER_MODULES[dotted]:
                names.setdefault(name, getattr(module, name))


def _load_extension(dotted):
    """The extension module ``dotted`` of scipy, loaded from its file.

    The file is found by the interpreter's own finder for extension
    modules, in the directory that the dotted name gives under scipy's
    package directory, which ``find_spec`` reports without running
    ``scipy/__init__.py``; the module is registered in ``sys.modules``
    under that name. One already there is reused, so a later ``import
    scipy.optimize`` hands back the same objects (and pybind11 never
    registers the HiGHS types twice). Raises :class:`ImportError` when no
    such file exists.
    """
    module = sys.modules.get(dotted)
    if module is not None:
        return module
    subdirs = dotted.split(".")[1:-1]
    for root in importlib.util.find_spec("scipy").submodule_search_locations:
        finder = FileFinder(os.path.join(root, *subdirs), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(dotted)
        if spec is not None:
            break
    else:
        raise ImportError(f"scipy has no extension module {dotted}", name=dotted)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[dotted] = module
    return module


def __getattr__(name):
    # PEP 562: reached only for names not yet in the module
    for dotted, names in _SOLVER_MODULES.items():
        if name in names:
            _load_solvers(dotted)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _finite_nonnegative(values):
    """Whether every entry is finite and nonnegative, in two reductions.

    NaN fails both comparisons, so no n-by-m boolean temporary is needed.
    """
    return values.min() >= 0.0 and values.max() < np.inf


def _columns(arr):
    """``arr`` as a float64 array, a vector as a matrix of one column."""
    mat = np.asarray(arr, dtype=np.float64)
    return mat[:, None] if mat.ndim == 1 else mat


def _as_points(name, arr):
    pts = _columns(arr)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidInputError(f"{name} must be a nonempty n-by-p matrix")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return pts


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud: one response class with per-point masses.

    Weights are finite and positive and must sum to one (L1-normalized);
    use :meth:`uniform` for equal masses.
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
        # min and max propagate NaN, which fails both comparisons
        if not (w.min() > 0.0 and w.max() < np.inf):
            raise InvalidInputError("weights must be finite and positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL:g} (got {w.sum()!r})"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, points):
        """Equal masses on the points, which the constructor checks once."""
        pts = np.asarray(points, dtype=np.float64)
        n = pts.shape[0] if pts.ndim else 0
        # no points get no weights; the constructor then rejects the points
        return cls(pts, np.full(n, 1.0 / n if n else 0.0))

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
    solves. ``marginal_error`` is the larger row or column L1 error of the
    plan, for every solver.
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
        if plan.size and not _finite_nonnegative(plan):
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
        return _marginal_errors(self.plan, self.row_marginal, self.col_marginal)


def _marginal_errors(plan, a, b):
    """Row and column L1 errors of ``plan`` against the marginals ``a``, ``b``."""
    row = float(np.abs(plan.sum(axis=1) - a).sum())
    col = float(np.abs(plan.sum(axis=0) - b).sum())
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
        if self.mode not in SOLVER_MODES:
            raise InvalidInputError(
                f"mode must be 'auto', 'exact' or 'sinkhorn', got {self.mode!r}"
            )
        if self.epsilon is not None and not self.epsilon > 0:
            raise InvalidInputError("epsilon must be positive")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be a positive integer")
        if not self.marginal_tolerance > 0:
            raise InvalidInputError("marginal_tolerance must be positive")


def pairwise_sqdist(x, y, out=None):
    """All-pairs squared Euclidean distances, shape (len(x), len(y)).

    The result is the only array of that shape the call holds; it is
    written into ``out`` (a C-contiguous float64 array of that shape) when
    one is given. :func:`_buffer_cost` passes its thread's cost buffer
    there, and :func:`potd.harness.knn_predict` passes part of it for one
    row block of test points at a time. Its other temporaries are a
    scratch of a few rows (``SQDIST_SCRATCH_BYTES``, or a
    ``SQDIST_SCRATCH_PARTS``-th of a large result) and a few vectors.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    # coordinates near the float range overflow the expansion to inf or
    # NaN; knn_predict and the coupling solvers reject such distances with
    # one error, so numpy's warnings would only add noise to it
    with np.errstate(over="ignore", invalid="ignore"):
        # |x|^2 + |y|^2 - 2 x.y in one n-by-m array: the product is one BLAS
        # call on the whole matrices, doubled in place (exactly); the outer
        # sum is formed a few rows at a time in one reused scratch, as the
        # product [|x|^2, 1] [1, |y|^2]^T, whose entries add two exact
        # products to zero and so are |x_i|^2 + |y_j|^2 rounded once, as
        # numpy's add rounds them. The bits are those of the out-of-place
        # expression; a broadcast add would cost two more calls per group of
        # rows and a numpy buffer the size of the scratch
        d = np.matmul(x, y.T, out=out)
        d *= 2.0
        xx1 = np.ones((x.shape[0], 2))
        (x * x).sum(axis=1, out=xx1[:, 0])
        yy1 = np.ones((2, y.shape[0]))
        (y * y).sum(axis=1, out=yy1[1])
        blocks = _row_blocks(*d.shape, max(SQDIST_SCRATCH_BYTES, d.nbytes // SQDIST_SCRATCH_PARTS))
        # the first group is the largest; later groups use leading rows of
        # its scratch
        scratch = np.empty_like(d[blocks[0]]) if blocks else None
        for rows in blocks:
            block = d[rows]
            sums = np.matmul(xx1[rows], yy1, out=scratch[: block.shape[0]])
            np.subtract(sums, block, out=block)
            # the expansion can go slightly negative for near-coincident
            # points; squared distances are nonnegative by definition, and
            # the clamp is elementwise, so it runs while the rows are in cache
            np.maximum(block, 0.0, out=block)
    return d


# an entropic solve writes a lent cost again through this name, bound at
# import: the writes are part of the solve, and their number varies with its
# log-domain sweeps, so tracers that wrap the module attribute
# ``pairwise_sqdist`` to count distance matrices must not see them
_rewrite_sqdist = pairwise_sqdist


def _log_sum_exp(neg_cost, pot, axis, work):
    """``log(sum(exp(neg_cost + pot), axis))``, shifted by each line's maximum.

    ``pot`` is the potential of the other axis (``u`` for the column sums at
    ``axis=0``, ``v`` for the row sums at ``axis=1``); ``None`` stands for
    zero potentials, whose add is skipped. Returns the sums and the per-line
    shift; the n-by-m buffer ``work`` is left holding
    ``exp(neg_cost + pot - shift)``. With ``work=None`` (column sums of a
    given ``pot`` only) ``neg_cost`` is left as it is, and the sums, with the
    same bits, are taken in row blocks (see :func:`_column_log_sum_exp`).
    """
    if work is None:
        if neg_cost.shape[1] > 1:
            return _column_log_sum_exp(neg_cost, pot)
        # numpy sums a single column pairwise, not row by row; it is small
        work = np.empty_like(neg_cost)
    values = neg_cost if pot is None else np.add(neg_cost, np.expand_dims(pot, 1 - axis), out=work)
    shift = values.max(axis=axis, keepdims=True)
    np.subtract(values, shift, out=work)
    np.exp(work, out=work)
    lse = shift + np.log(work.sum(axis=axis, keepdims=True))
    return lse.ravel(), shift.ravel()


def _column_log_sum_exp(neg_cost, u):
    """The column pass of :func:`_log_sum_exp` in the row blocks of a
    scaling sweep, held in one scratch, without writing ``neg_cost``.

    A first walk takes each column's maximum of ``neg_cost + u[:, None]``,
    a second the sums of its shifted exponentials. numpy sums a C-contiguous
    matrix of two or more columns over axis 0 row by row, in order; each
    block is summed with the running sums as its first row, so the sums are
    added in that order too and have the bits of the pass over the whole
    matrix.
    """
    n, m = neg_cost.shape
    blocks = _row_blocks(n, m)
    # row 0 carries the running sums into each block's sum
    scratch = np.empty((neg_cost[blocks[0]].shape[0] + 1, m))
    shift = np.full(m, -np.inf)
    for rows in blocks:
        block = neg_cost[rows]
        part = np.add(block, u[rows, None], out=scratch[1 : 1 + block.shape[0]])
        np.maximum(shift, part.max(axis=0), out=shift)
    sums = np.zeros(m)
    for rows in blocks:
        block = neg_cost[rows]
        part = scratch[: 1 + block.shape[0]]
        part[0] = sums
        np.add(block, u[rows, None], out=part[1:])
        part[1:] -= shift
        np.exp(part[1:], out=part[1:])
        part.sum(axis=0, out=sums)
    return shift + np.log(sums), shift


def _in_bounds(factors):
    # min and max propagate NaN, so NaN and infinite factors are out of bounds
    return 1.0 / SCALING_BOUND < factors.min() and factors.max() < SCALING_BOUND


def _degenerate(u, v):
    # numpy's max propagates NaN, which fails the comparison
    return not (np.abs(u).max() <= POTENTIAL_BOUND and np.abs(v).max() <= POTENTIAL_BOUND)


def _overrelaxation(history):
    """Omega of the next scaling sweep from ``(omega, err)`` of each sweep so far.

    Starts at 1. Two error ratios ``lam`` at one omega within ``SETTLE_RTOL``
    move it up to ``2 / (1 + sqrt(1 - kappa))``, ``kappa = (lam + omega - 1)**2
    / (lam * omega**2)`` (Thibault et al. 2021; Hageman & Young 1981), at most
    ``OMEGA_MAX``. A rise after ``RISE_GRACE`` sweeps at one omega falls back to
    1 (Lehmann et al. 2022); earlier ones are its transient. An error that
    moves by less than ``STALL_RTOL`` of itself gives neither a rise nor a rate.
    """
    omega, err = history[-1]
    if len(history) < 3:
        return omega
    (_, e2), (w1, e1) = history[-3:-1]
    if err > e1 * (1.0 + STALL_RTOL):
        return 1.0 if {w for w, _ in history[-RISE_GRACE:]} == {omega} else omega
    lam1, lam = e1 / e2, err / e1
    settled = lam < 1.0 - STALL_RTOL and abs(lam - lam1) <= SETTLE_RTOL * lam
    if w1 != omega or not settled:
        return omega
    kappa = (lam + omega - 1.0) ** 2 / (lam * omega**2)
    return min(OMEGA_MAX, 2.0 / (1.0 + (1.0 - kappa) ** 0.5)) if kappa < 1.0 else omega


def _row_blocks(n, m, block_bytes=None):
    """Slices of consecutive rows of an n-by-m float64 array, about
    ``block_bytes`` each (at least one row; default ``SWEEP_BLOCK_BYTES``,
    read at the call)."""
    if block_bytes is None:
        block_bytes = SWEEP_BLOCK_BYTES
    step = max(1, block_bytes // (8 * max(m, 1)))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _row_sweep(kernel, beta, a, alpha, omega, col_scale=None):
    """Row half of a scaling sweep, with the column sums of its result.

    Returns ``row = kernel @ beta``, the relaxed row factors ``new_alpha =
    alpha * (a / row / alpha)**omega`` and ``col = kernel.T @ new_alpha``.
    The kernel is walked in row blocks of about ``SWEEP_BLOCK_BYTES``, and
    each block's column sums are taken right after its row sums, while the
    block is still in cache, so the sweep reads the kernel from memory once
    instead of twice. A ``col_scale`` first scales the kernel's columns in
    place, each block just before its products.
    """
    n, m = kernel.shape
    row = np.empty(n)
    new_alpha = np.empty(n)
    col = np.zeros(m)
    for rows in _row_blocks(n, m):
        block = kernel[rows]
        if col_scale is not None:
            block *= col_scale
        np.matmul(block, beta, out=row[rows])
        factors = np.divide(a[rows], row[rows], out=new_alpha[rows])
        factors /= alpha[rows]
        factors **= omega
        factors *= alpha[rows]
        col += factors @ block
    return row, new_alpha, col


def sinkhorn_scaling(neg_cost, log_a, log_b, max_iterations, tolerance, u0, v0, refill):
    """Over-relaxed Sinkhorn iterations on the scaled negative cost ``K = -C/eps``.

    Returns ``(u, v, sweeps, err, plan)``: log-domain dual potentials, the
    number of sweeps, the larger of the row and column L1 marginal errors of
    ``plan = exp(K + u[:, None] + v[None, :])``, measured on the returned
    potentials, and that plan. The sweeps stop once the error is at most
    ``tolerance``, or once a log-domain sweep leaves potentials beyond
    ``POTENTIAL_BOUND``.

    The iterates are those of the log-domain updates ``v = (1 - w) v +
    w (log b - LSE_i(K + u))``, ``u = (1 - w) u + w (log a - LSE_j(K + v))``
    at the ``w`` that :func:`_overrelaxation` picks for each sweep, computed
    by the log-stabilized scaling algorithm (Schmitzer, SIAM J. Sci.
    Comput. 2019): with the potentials absorbed into the kernel
    ``Kt = exp(K + u[:, None] + v[None, :])``, a sweep takes
    ``beta *= (b / (Kt.T @ alpha) / beta)**w``, then ``alpha *= (a / (Kt @
    beta) / alpha)**w``; live potentials are ``u + log(alpha)`` and
    ``v + log(beta)``. A sweep reads the kernel once, in row blocks (see
    :func:`_row_sweep`). When a live factor would leave
    ``[1/SCALING_BOUND, SCALING_BOUND]`` or stop being finite (underflow at
    tiny epsilon), the factors are folded into the potentials, that sweep
    runs in the log domain and the kernel is formed again.

    The start makes one log-sum-exp pass, over the columns. It measures the
    start's error, and the first sweep's column update (``w = 1``) is folded
    into the kernel it leaves, block by block in the first sweep's row pass.
    The row half of the first sweep is then a scaling step under the same
    bound; if a factor leaves it, only the row update runs in the log domain,
    since the column update is already exact. On return the kernel, scaled in
    place to ``diag(alpha) Kt diag(beta)`` in one blocked pass, is the
    returned plan, so no fresh ``exp`` pass forms it.

    The call allocates no n-by-m array: the kernel is formed in
    ``neg_cost`` itself (a writable C-contiguous float64 array), which
    becomes the returned plan. ``refill()`` must write the same ``K`` into
    ``neg_cost`` again; it runs before each log-domain sweep, whose column
    sums are taken in row blocks that leave ``K`` for its row pass (see
    :func:`_column_log_sum_exp`). ``u0``/``v0`` warm-start the potentials
    (``None``: zero).
    """
    kernel = neg_cost
    n, m = neg_cost.shape
    a = np.exp(log_a)
    b = np.exp(log_b)
    u = np.zeros(n) if u0 is None else np.array(u0, dtype=np.float64)
    v = np.zeros(m) if v0 is None else np.array(v0, dtype=np.float64)
    alpha = np.ones(n)
    beta = np.ones(m)
    # degenerate potentials (NaN, infinite) are reported by the caller
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lse_cols, col_shift = _log_sum_exp(neg_cost, None if u0 is None else u, 0, kernel)
        col_scale = np.exp(v + col_shift)  # kernel * col_scale: the start's plan
        row_err = np.abs(kernel @ col_scale - a).sum()
        err = np.maximum(row_err, np.abs(np.exp(v + lse_cols) - b).sum())
        if err <= tolerance or max_iterations == 0:
            kernel *= col_scale[None, :]
            return u, v, 0, err, kernel
        # the first sweep's column update, at omega = 1, absorbed into the
        # kernel of the start's pass by that sweep's row pass, whose factors
        # beta are all 1 and so always in bounds
        v = log_b - lse_cols
        col_scale = np.exp(v + col_shift)
        omega, history, new_beta = 1.0, [], beta
        for sweeps in range(1, max_iterations + 1):
            if sweeps > 1:
                new_beta = beta * (b / col / beta) ** omega
            in_bounds = _in_bounds(new_beta)
            if in_bounds:
                row, new_alpha, new_col = _row_sweep(
                    kernel, new_beta, a, alpha, omega, col_scale if sweeps == 1 else None
                )
                in_bounds = _in_bounds(new_alpha)
            if in_bounds:
                alpha, beta, col = new_alpha, new_beta, new_col
                row_err = np.abs(alpha * row - a).sum()
            else:
                u += np.log(alpha)
                v += np.log(beta)
                refill()  # the kernel has overwritten K
                if sweeps > 1:  # the first sweep's column update is done
                    # in row blocks, which leave K for the row pass
                    lse_cols, _ = _log_sum_exp(neg_cost, u, 0, None)
                    v = (1.0 - omega) * v + omega * (log_b - lse_cols)
                lse_rows, shift = _log_sum_exp(neg_cost, v, 1, kernel)
                u = (1.0 - omega) * u + omega * (log_a - lse_rows)
                row_err = np.abs(np.exp(u + lse_rows) - a).sum()
                # the row pass left exp(neg_cost + v - shift) in the kernel;
                # scaling its rows by exp(u + shift) absorbs the new potentials
                kernel *= np.exp(u + shift)[:, None]
                alpha, beta = np.ones(n), np.ones(m)
                col = kernel.sum(axis=0)
            err = np.maximum(row_err, np.abs(beta * col - b).sum())
            # only a log-domain sweep moves the potentials; once they
            # degenerate, further sweeps cannot bring them back
            if err <= tolerance or (not in_bounds and _degenerate(u, v)):
                break
            history.append((omega, float(err)))
            omega = _overrelaxation(history)
        u += np.log(alpha)
        v += np.log(beta)
        # diag(alpha) Kt diag(beta) in one walk over the kernel: each block
        # is still in cache for its column scaling
        for rows in _row_blocks(n, m):
            block = kernel[rows]
            block *= alpha[rows, None]
            block *= beta
        return u, v, sweeps, err, kernel


# the crash start of the exact LP runs the scaling kernel through this name,
# bound at import: it is LP work, and tracers that wrap the module attribute
# ``sinkhorn_scaling`` to time entropic solves must not see it
_crash_scaling = sinkhorn_scaling


def _scale_into(out, cost, eps):
    """Write the scaled negative cost ``-cost / eps`` into ``out``.

    A cost over a tiny epsilon can overflow to -inf without a warning: the
    potentials then degenerate, which :func:`sinkhorn` reports as one error
    and the crash start counts as zero.
    """
    with np.errstate(over="ignore"):
        np.divide(cost, -eps, out=out)


def _check_same_dim(src, tgt):
    if src.shape[1] != tgt.shape[1]:
        raise InvalidInputError(
            f"source has {src.shape[1]} columns but target has {tgt.shape[1]}"
        )


def squared_euclidean_cost(source, target):
    """Pairwise squared Euclidean distances between two point matrices.

    Both must be nonempty and finite, with the same number of columns; the
    distances are those of :func:`pairwise_sqdist`.
    """
    src = _as_points("source", source)
    tgt = _as_points("target", target)
    _check_same_dim(src, tgt)
    return pairwise_sqdist(src, tgt)


# the reused n-by-m arrays of each thread (see _buffer), and its HiGHS
# model (see _highs_model)
_thread_buffers = threading.local()


def _buffer(name, n, m, dtype=np.float64):
    """This thread's buffer ``name``, as an n-by-m array of ``dtype``.

    The solvers hold their n-by-m work here: ``"cost"`` is the cost that
    :func:`_buffer_cost` writes (an entropic solve lent it holds its
    scaled negative cost, its kernel and its plan there in turn); the exact
    solver keeps its unit-scaled cost in ``"unit"``, its reduced costs in
    ``"reduced"``, its other float temporaries in ``"scratch"`` and its
    boolean masks in ``"support"`` and ``"flags"``.
    :func:`potd.harness.knn_predict` borrows ``"cost"`` and ``"flags"``
    between solves: one half of ``"cost"`` holds a row block's distances,
    the other the copy it partitions for their K-th values, and ``"flags"``
    its candidate mask. Each is kept between solves and grows only: a
    larger shape drops it before allocating the larger one, and it is freed
    when its thread ends. Reuse is the point: glibc hands a freed array of
    this size back to the operating system, and the next solve then faults
    every page of a fresh one in again.
    """
    flat = getattr(_thread_buffers, name, None)
    if flat is None or flat.shape[0] < n * m:
        setattr(_thread_buffers, name, None)
        flat = np.empty(n * m, dtype)
        setattr(_thread_buffers, name, flat)
    return flat[: n * m].reshape(n, m)


def _buffer_cost(mu, nu):
    """The squared Euclidean cost of the points of ``mu`` and ``nu``, in
    this thread's ``"cost"`` buffer (see :func:`_buffer`).

    A cost from here is lent to the solve it is given to: an entropic solve
    of the same ``mu`` and ``nu`` works in it and writes it again from
    those points when it needs it back (see :func:`sinkhorn`).
    """
    # the measures checked their points when they were built
    _check_same_dim(mu.points, nu.points)
    return pairwise_sqdist(mu.points, nu.points, _buffer("cost", mu.size, nu.size))


def _in_cost_buffer(cost):
    return cost.base is not None and cost.base is getattr(_thread_buffers, "cost", None)


def _median(values, work=None):
    """Median of all entries of a nonnegative array, equal to ``np.median``.

    One ``partition`` of a flat copy, made in ``work`` (a C-contiguous
    float64 array of as many entries, left partitioned) when it is given;
    ``work`` may be ``values`` itself, which is then partitioned in place.
    The lower middle value of an even size is the largest entry below the
    split. ``np.median`` partitions around both middle positions, which
    took 13.7 ms against 2.6 ms on an 822-by-778 cost (one core of a 2-vCPU
    x86 VM). The partition compares the entries' int64 bit patterns, which
    order nonnegative doubles as their values do (a -0.0 sorts below
    0.0): 0.52 against 1.03 ms for the float partition there.
    """
    values = np.asarray(values, dtype=np.float64)
    flat = np.empty(values.size) if work is None else work.reshape(-1)
    if work is not values:
        np.copyto(flat.reshape(values.shape), values)
    k = flat.shape[0] // 2
    flat.view(np.int64).partition(k)
    if flat.shape[0] % 2:
        return float(flat[k])
    return float((flat[:k].max() + flat[k]) / 2)


def default_epsilon(cost, work=None):
    """Documented default regularization: 0.05 times the median cost.

    When that is zero (a zero median, or one so small that the product
    underflows) it is 0.05 times the largest cost, and 1 for an all-zero
    cost. ``cost`` is nonnegative. ``work`` is the median's scratch, and
    may be ``cost`` itself, which is then left partitioned (see
    :func:`_median`).
    """
    eps = 0.05 * _median(cost, work)
    if eps <= 0.0:
        eps = 0.05 * float(np.max(cost))
    return eps if eps > 0.0 else 1.0


def _check_cost(mu, nu, cost):
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape != (mu.size, nu.size):
        raise InvalidInputError(
            f"cost shape {cost.shape} does not match measure sizes "
            f"({mu.size}, {nu.size})"
        )
    if not _finite_nonnegative(cost):
        raise InvalidInputError("cost entries must be finite and nonnegative")
    return cost


def _check_init(name, potential, size):
    """Warm-start potential as a finite float vector of length ``size``."""
    pot = np.asarray(potential, dtype=np.float64)
    if pot.shape != (size,):
        raise InvalidInputError(
            f"init {name} has shape {pot.shape}, expected ({size},)"
        )
    if not np.all(np.isfinite(pot)):
        raise InvalidInputError(f"init {name} contains non-finite entries")
    return pot


def sinkhorn(mu, nu, cost, config, init=None):
    """Entropic-regularized coupling via log-stabilized scaling iterations.

    ``init`` optionally warm-starts the solve from ``(dual_row, dual_col)``
    potentials of a previous coupling (typically one computed at a larger
    epsilon); potentials of the wrong length or with non-finite entries raise
    :class:`InvalidInputError`. Raises :class:`ConvergenceError` when the
    larger row or column L1 error is still above ``config.marginal_tolerance``
    after ``config.max_iterations`` sweeps, and :class:`NumericError` when
    the potentials degenerate (remedy: increase epsilon).

    The solve works in one n-by-m array, which holds in turn the median's
    copy for the default epsilon, the scaled negative cost ``-cost / eps``,
    the kernel of :func:`sinkhorn_scaling` and the returned plan. For a
    cost the caller gives, which is never written, the solve allocates
    that array. A cost lent from this thread's cost buffer (see
    :func:`_buffer_cost`) is that array itself, so the solve allocates
    none: the median partitions the cost in place, and the cost is written
    again from the points of ``mu`` and ``nu``, with the same bits,
    whenever the scaled cost is needed back. The plan is then the buffer,
    valid until the thread's next solve or KNN call.
    """
    cost = _check_cost(mu, nu, cost)
    if config.mode != "sinkhorn":
        raise InvalidInputError("sinkhorn() requires a config with mode='sinkhorn'")
    lent = _in_cost_buffer(cost)
    neg_cost = cost if lent else np.empty(cost.shape)

    def refill():
        # the median or the kernel has overwritten a lent cost; its points
        # give it back
        _scale_into(neg_cost, _rewrite_sqdist(mu.points, nu.points, cost) if lent else cost, eps)

    if config.epsilon is None:
        eps = default_epsilon(cost, neg_cost)
        refill()
    else:
        eps = config.epsilon
        _scale_into(neg_cost, cost, eps)
    log_a = np.log(mu.weights)
    log_b = np.log(nu.weights)
    u0 = v0 = None
    if init is not None:
        dual_row, dual_col = init
        u0 = _check_init("dual_row", dual_row, mu.size) / eps
        v0 = _check_init("dual_col", dual_col, nu.size) / eps
    # all positional: wrappers that replace sinkhorn_scaling may take ``*args`` only
    u, v, iterations, err, plan = sinkhorn_scaling(
        neg_cost, log_a, log_b, config.max_iterations, config.marginal_tolerance, u0, v0, refill
    )
    if _degenerate(u, v):
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
    # the plan's entry check is the one CouplingMatrix makes; a scaled
    # kernel is never negative, so only overflow can fail it
    try:
        return CouplingMatrix(
            plan,
            mu.weights,
            nu.weights,
            iterations,
            float(err),
            dual_row=eps * u,
            dual_col=eps * v,
        )
    except InvalidInputError:
        raise NumericError(
            f"transport plan overflowed; increase epsilon (epsilon={eps:g})"
        ) from None


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
    results carry none. The marginal error and the certificate are measured
    on the raw plan before the one :class:`CouplingMatrix` is built, so its
    entry scan runs once per solve. Raises :class:`NumericError` when the
    marginals or the certificate miss their tolerance.

    The assignment solver runs on reduced costs: the cost minus each row's
    minimum, then minus each column's minimum of that (the reduction that
    opens the Hungarian and Jonker-Volgenant methods; Jonker & Volgenant,
    Computing 1987). Every permutation's cost moves by the same constant,
    the sum of the subtracted minima, so the optimal permutations do not
    change. The solver (scipy's shortest augmenting path, which starts
    from zero duals) then starts from a matrix with a zero in every row and
    column, and needs fewer augmentations. The subtracted minima are a
    dual-feasible start for a certificate of this path.

    The reduced copy and all n-by-m temporaries of the LP live in this
    thread's reused buffers (see :func:`_buffer`): after an n-by-m exact
    solve a thread holds about ``3 * 8 * n * m`` bytes of float buffers
    and two n-by-m boolean masks, and the returned plan is the one n-by-m
    array a solve allocates. A given ``cost`` is never written.
    """
    cost = _check_cost(mu, nu, cost)
    a, b = mu.weights, nu.weights
    n, m = cost.shape
    if n == m and _is_uniform(a) and _is_uniform(b):
        _load_solvers("scipy.optimize._lsap")
        reduced = np.subtract(cost, cost.min(axis=1)[:, None], out=_buffer("reduced", n, m))
        reduced -= reduced.min(axis=0)
        rows, cols = linear_sum_assignment(reduced)
        plan = np.zeros((n, m))
        plan[rows, cols] = 1.0 / n
        u = v = None
    else:
        plan, u, v = _transportation_lp(a, b, cost)
    err = max(_marginal_errors(plan, a, b))
    if err > EXACT_MARGINAL_TOL:
        raise NumericError(
            f"exact solver returned marginal error {err:.3e} above "
            f"{EXACT_MARGINAL_TOL:g}"
        )
    certificate = {} if u is None else _certificate(plan, a, b, cost, u, v)
    return CouplingMatrix(plan, a, b, marginal_error=err, **certificate)


def _reduced_cost(cost, u, v, out):
    """Reduced costs ``cost_ij - u_i - v_j`` of the duals ``u, v``, written into ``out``."""
    np.subtract(cost, u[:, None], out=out)
    out -= v
    return out


def _certificate(plan, a, b, cost, u, v):
    """The dual certificate of ``plan`` over the full cost matrix.

    Returns the :class:`CouplingMatrix` fields ``min_reduced_cost`` and
    ``duality_gap``. Raises :class:`NumericError` when the minimum reduced
    cost is below, or the duality gap off zero by, more than
    ``CERTIFICATE_RTOL`` times the largest cost.
    """
    work = _reduced_cost(cost, u, v, _buffer("scratch", *cost.shape))
    min_reduced = float(work.min())
    gap = float(_plan_cost(plan, cost, work) - a @ u - b @ v)
    tol = CERTIFICATE_RTOL * float(cost.max())
    if min_reduced < -tol or abs(gap) > tol:
        raise NumericError(
            f"exact solver failed its optimality certificate: minimum reduced "
            f"cost {min_reduced:.3e}, duality gap {gap:.3e}, tolerance {tol:.3e}"
        )
    return {"min_reduced_cost": min_reduced, "duality_gap": gap}


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


def _crash_reduced_cost(unit, a, b):
    """Reduced costs ``unit - u - v`` of loose entropic duals, with ``u, v``.

    Scaling sweeps at the default epsilon, stopped at the marginal
    tolerance ``CRASH_TOL`` or after ``CRASH_SWEEPS`` sweeps, already
    locate the sparse optimal support (Schmitzer, SIAM J. Sci. Comput. 2019), which
    raw costs miss. The potentials are returned in the units of ``unit``
    (epsilon times the log-domain ones). Non-finite potentials, which a
    kernel that under- or overflowed can leave, count as zero, so those
    lines fall back to raw cost. An all-zero cost has nothing to rank and
    zero is its exact dual, so it gets zero potentials without a crash: its
    certificate tolerance is zero, and any rounding in nonzero duals would
    fail it. The reduced costs are this thread's ``"reduced"`` buffer.
    """
    n, m = unit.shape
    reduced = _buffer("reduced", n, m)
    if not unit.any():
        np.copyto(reduced, unit)
        return reduced, np.zeros(n), np.zeros(m)
    eps = default_epsilon(unit, reduced)
    refill = partial(_scale_into, reduced, unit, eps)
    # the sweeps form their kernel in the scaled cost's buffer, which the
    # reduced costs take once they are done; all positional, as in sinkhorn()
    refill()
    u, v = _crash_scaling(
        reduced, np.log(a), np.log(b), CRASH_SWEEPS, CRASH_TOL, None, None, refill
    )[:2]
    u = np.where(np.isfinite(u), eps * u, 0.0)
    v = np.where(np.isfinite(v), eps * v, 0.0)
    return _reduced_cost(unit, u, v, reduced), u, v


def _shortlist_mask(reduced, a, b):
    """Initial support: smallest reduced costs per row and column plus a feasible plan.

    An entry is kept when it is at most the ``SHORTLIST_K``-th smallest
    reduced cost of its row or of its column. On tied reduced costs that
    keeps every entry of the tie, so a line may hold more than
    ``SHORTLIST_K`` entries; a larger support is still a valid start, since
    pricing and the certificate decide optimality. The mask is this
    thread's ``"support"`` buffer; the partitions run in its scratch.
    """
    n, m = reduced.shape
    k_col = min(SHORTLIST_K, m)
    k_row = min(SHORTLIST_K, n)
    scratch = _buffer("scratch", n, m)
    np.copyto(scratch, reduced)
    scratch.partition(k_col - 1, axis=1)
    row_kth = scratch[:, k_col - 1].copy()
    np.copyto(scratch, reduced)
    scratch.partition(k_row - 1, axis=0)
    col_kth = scratch[k_row - 1].copy()
    mask = np.less_equal(reduced, row_kth[:, None], out=_buffer("support", n, m, bool))
    mask |= np.less_equal(reduced, col_kth, out=_buffer("flags", n, m, bool))
    mask[_northwest_corner_support(a, b)] = True
    return mask


def _add_lp_columns(highs, costs, rows, cols):
    """Append the plan entries ``(rows[k], cols[k])`` as LP columns.

    Each entry costs ``costs[rows[k], cols[k]]`` and has a unit coefficient
    in the row-sum constraint of its source atom and, unless it lies in the
    last target column (whose constraint is implied by mass balance), in the
    column-sum constraint of its target atom.
    """
    n, m = costs.shape
    k = rows.shape[0]
    in_col = cols < m - 1
    nnz = 1 + in_col
    starts = np.zeros(k, dtype=np.int32)
    np.cumsum(nnz[:-1], out=starts[1:])
    index = np.empty(int(nnz.sum()), dtype=np.int32)
    index[starts] = rows
    index[starts[in_col] + 1] = n + cols[in_col]
    highs.addCols(
        k, costs[rows, cols], np.zeros(k), np.full(k, np.inf),
        index.shape[0], starts, index, np.ones(index.shape[0]),
    )


def _star_basis(n, m, flat, star):
    """Basis of the LP columns ``flat`` (row-major entry indices, sorted).

    Basic: the entry ``(i, star[i])`` of each source row and the slacks of
    the ``m - 1`` column-sum constraints, ``n + m - 1`` variables in all.
    Each row-sum constraint holds exactly one basic entry and each other
    basic variable is a slack, so the basis matrix is a permuted triangle
    and nonsingular. All other columns and the row-sum slacks are
    nonbasic at their lower bounds.
    """
    status = np.full(flat.shape[0], HighsBasisStatus.kLower, dtype=object)
    status[np.searchsorted(flat, np.arange(n) * m + star)] = HighsBasisStatus.kBasic
    basis = HighsBasis()
    basis.col_status = status.tolist()
    basis.row_status = (
        [HighsBasisStatus.kLower] * n + [HighsBasisStatus.kBasic] * (m - 1)
    )
    # one basic variable per constraint by construction, so HiGHS takes the
    # basis as it is instead of repairing it as an alien one
    basis.alien = False
    return basis


def _highs_model():
    """This thread's HiGHS model, empty, with ``HIGHS_OPTIONS`` set.

    One model per thread is kept beside its buffers and emptied by
    ``clearModel()``, which keeps the options, before each solve, so
    HiGHS's own memory stays resident instead of being freed and faulted
    in again by the next solve. A model is reused only when ``_Highs`` is
    exactly its class, so a stand-in class set from outside takes effect
    on the next solve, and a real model replaces it once it is gone.
    """
    highs = getattr(_thread_buffers, "highs", None)
    if type(highs) is _Highs:
        highs.clearModel()
        return highs
    highs = _Highs()
    for option, value in HIGHS_OPTIONS.items():
        highs.setOptionValue(option, value)
    _thread_buffers.highs = highs
    return highs


def _transportation_lp(a, b, cost):
    """Exact transportation plan by the shortlist method.

    The LP is solved on a sparse candidate support (Gottschlich &
    Schuhmacher 2014). Its duals price every excluded entry; entries with
    negative reduced cost join the support and the LP is solved again,
    until none is left, which makes the duals feasible for the full
    problem and the restricted plan optimal for it. The support starts
    from the ``SHORTLIST_K`` smallest reduced costs per row and column of
    a crash start's loose entropic duals (see :func:`_crash_reduced_cost`)
    plus a north-west-corner plan; the crash only chooses where the LP
    starts, while pricing and the caller's certificate decide optimality.

    The LP runs on shifted costs: each entry costs its crash reduced cost
    minus the smallest one of its row, so every cost is nonnegative and
    each row has a zero. On a feasible plan the shift changes the
    objective by a constant, so the optimal plans are those of the
    original costs, and the true duals are the LP's plus the shifts. The
    first run starts from a star basis (:func:`_star_basis`): the zero
    entry of each row and the column-sum slacks. Its duals are zero and
    every shifted cost is nonnegative, so it is dual feasible and the dual
    simplex (Huangfu & Hall, Math. Prog. Comp. 2018) starts at the crash
    duals instead of at zero. One HiGHS model, this thread's (see
    :func:`_highs_model`), holds the LP for the whole solve: each pricing
    round appends only the entering columns, so the dual simplex restarts
    from the basis of the previous round. Costs are scaled to a unit
    maximum so the solver tolerances are relative to the cost range.

    Returns ``(plan, u, v)`` with dual potentials in cost units.
    """
    _load_solvers("scipy.optimize._highspy._core")
    n, m = cost.shape
    scale = float(cost.max())
    if scale <= 0.0:
        scale = 1.0
    unit = np.divide(cost, scale, out=_buffer("unit", n, m))
    shifted, u_shift, v_shift = _crash_reduced_cost(unit, a, b)
    # the mask holds each row's smallest entry, star, which the basis needs
    mask = _shortlist_mask(shifted, a, b)
    star = shifted.argmin(axis=1)
    row_min = shifted[np.arange(n), star]
    shifted -= row_min[:, None]
    u_shift += row_min
    highs = _highs_model()
    # row-sum constraints for every source atom, column-sum constraints for
    # all but the last target atom (the dropped one is implied by mass balance)
    b_eq = np.concatenate([a, b[:-1]])
    no_entries = np.zeros(0, dtype=np.int32)
    highs.addRows(n + m - 1, b_eq, b_eq, 0, no_entries, no_entries, np.zeros(0))
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, m)
    _add_lp_columns(highs, shifted, rows, cols)
    if highs.setBasis(_star_basis(n, m, flat, star)) != HighsStatus.kOk:
        raise NumericError("transportation LP rejected its star basis")
    # each pricing round's reduced costs and entering entries
    work = _buffer("scratch", n, m)
    entering = _buffer("flags", n, m, bool)
    while True:
        highs.run()
        status = highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise NumericError(
                f"transportation LP failed: {highs.modelStatusToString(status)}"
            )
        solution = highs.getSolution()
        # row duals price entry (i, j) at unit[i, j] - u[i] - v[j] once the
        # shifts are added back; the dropped last column constraint has
        # dual zero
        duals = np.asarray(solution.row_dual)
        u = duals[:n] + u_shift
        v = np.append(duals[n:], 0.0) + v_shift
        _reduced_cost(unit, u, v, work)
        np.less(work, -LP_TOL, out=entering)
        # on booleans, entering > mask is entering and not mask
        np.greater(entering, mask, out=entering)
        if not entering.any():
            break
        mask |= entering
        entering_rows, entering_cols = np.nonzero(entering)
        _add_lp_columns(highs, shifted, entering_rows, entering_cols)
        rows = np.concatenate([rows, entering_rows])
        cols = np.concatenate([cols, entering_cols])
    plan = np.zeros((n, m))
    plan[rows, cols] = np.maximum(solution.col_value, 0.0)
    return plan, scale * u, scale * v


def solve_coupling(mu, nu, cost=None, config=None):
    """Compute a coupling, resolving mode ``auto`` by instance size.

    Without ``cost``, the squared Euclidean cost is computed into this
    thread's cost buffer, which is reused across solves (see
    :func:`_buffer_cost`), and an entropic solve works in that buffer (see
    :func:`sinkhorn`); its plan is returned as a copy, so the solve holds
    two n-by-m arrays. A given ``cost`` is never written, unless it is lent
    from that buffer: an entropic plan is then the buffer itself, which the
    thread's next solve or KNN call overwrites.
    """
    if config is None:
        config = SolverConfig()
    computed = cost is None
    if computed:
        cost = _buffer_cost(mu, nu)
    mode = config.mode
    if mode == "auto":
        mode = "exact" if mu.size * nu.size <= config.exact_size_limit else "sinkhorn"
    if mode == "exact":
        return exact_ot(mu, nu, cost)
    coupling = sinkhorn(mu, nu, cost, replace(config, mode="sinkhorn"))
    return replace(coupling, plan=coupling.plan.copy()) if computed else coupling


def transport_cost(coupling, cost):
    """Frobenius inner product of the plan with the cost matrix."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape != coupling.plan.shape:
        raise InvalidInputError(
            f"cost shape {cost.shape} does not match plan shape "
            f"{coupling.plan.shape}"
        )
    return float(_plan_cost(coupling.plan, cost))


def _plan_cost(plan, cost, out=None):
    """``<plan, cost>``, with the entrywise product formed in ``out`` if given."""
    return np.multiply(plan, cost, out=out).sum()
