"""Span recording around potd's layer entry points, and the per-layer metrics.

The wrappers are installed on module attributes at the sites where one
layer calls into the next (``potd.core.solve_coupling`` is the name
``potd_fit`` looks up, ``potd.harness.knn_predict`` the one
``evaluate_split`` looks up, and so on), so the library itself is not
edited. A site whose attribute no longer exists is skipped and counted in
``trace.sites_missing``.

Every span is a list ``[name, start, end, parent, round, attrs]`` kept in
memory until the run ends. Spans nest strictly (one thread), so a span's
self time is its duration minus the durations of its direct children.
"""

import importlib
from time import perf_counter

import numpy as np

# a float64 plan or cost entry, for the computed-bytes counts
FLOAT_BYTES = 8


def _is_uniform(weights):
    # same rule as the assignment fast path in potd.ot.exact_ot
    n = weights.shape[0]
    return bool(np.max(np.abs(weights - 1.0 / n)) <= 1e-12)


def _exact_path(args, kwargs):
    mu, nu = args[0], args[1]
    if mu.size == nu.size and _is_uniform(mu.weights) and _is_uniform(nu.weights):
        return "ot.assignment"
    return "ot.exact_lp"


def _exact_attrs(args, kwargs, out):
    return {"vars": args[0].size * args[1].size}


def _coupling_attrs(args, kwargs, out):
    # entropic couplings carry dual potentials, exact ones do not
    return {
        "exact": out.dual_row is None,
        "marginal_error": float(out.marginal_error),
    }


def _sinkhorn_attrs(args, kwargs, out):
    return {"iterations": int(out.iterations)}


def _scaling_attrs(args, kwargs, out):
    n, m = args[0].shape
    sweeps = int(out[2])
    # one log-sum-exp pass over the n-by-m scaled cost per column update
    # (sweeps + 1 of them, the last one measures the error) and one per
    # row update (sweeps of them); temporaries and cache misses not counted
    return {"sweeps": sweeps, "bytes": (2 * sweeps + 1) * n * m * FLOAT_BYTES}


# (module, attribute, span name or classifier, attribute recorder)
SITES = (
    ("potd.core", "potd_fit", "core.potd_fit", None),
    ("potd.harness", "potd_fit", "core.potd_fit", None),
    ("potd.core", "potd_fit_continuous", "core.potd_fit_continuous", None),
    ("potd.core", "whiten", "core.whiten", None),
    ("potd.baselines", "whiten", "core.whiten", None),
    ("potd.core", "solve_coupling", "ot.solve_coupling", _coupling_attrs),
    ("potd.ot", "exact_ot", _exact_path, _exact_attrs),
    ("potd.ot", "sinkhorn", "ot.sinkhorn", _sinkhorn_attrs),
    ("potd.ot", "sinkhorn_scaling", "kernels.sinkhorn_scaling", _scaling_attrs),
    ("potd.ot", "pairwise_sqdist", "kernels.pairwise_sqdist", None),
    ("potd.harness", "pairwise_sqdist", "kernels.pairwise_sqdist", None),
    ("potd.harness", "knn_predict", "harness.knn_predict", None),
    ("potd.harness", "stratified_split", "harness.stratified_split", None),
    ("potd.cli", "load_csv_dataset", "harness.load_csv_dataset", None),
    ("potd.harness", "sir_fit", "baselines.sir_fit", None),
    ("potd.harness", "save_fit", "baselines.save_fit", None),
    ("potd.harness", "pca_fit", "baselines.pca_fit", None),
    ("potd.synthetic", "gen_model", "synthetic.gen_model", None),
    ("potd.harness", "gen_model", "synthetic.gen_model", None),
    ("potd.synthetic", "subspace_distance", "synthetic.subspace_distance", None),
    ("potd.harness", "subspace_distance", "synthetic.subspace_distance", None),
    ("potd.cli", "main", "cli.main", None),
)

ROUND = "bench.round"

# layers whose self time is reported, in report order
TIMED_LAYERS = (
    "ot.solve_coupling",
    "ot.exact_lp",
    "ot.assignment",
    "ot.sinkhorn",
    "kernels.sinkhorn_scaling",
    "kernels.pairwise_sqdist",
    "core.whiten",
    "core.potd_fit",
    "core.potd_fit_continuous",
    "harness.knn_predict",
    "harness.stratified_split",
    "harness.load_csv_dataset",
    "baselines.sir_fit",
    "baselines.save_fit",
    "baselines.pca_fit",
    "cli.main",
    "synthetic.gen_model",
    "synthetic.subspace_distance",
    ROUND,
)

FITS = ("core.potd_fit", "core.potd_fit_continuous")


class Patches:
    """Replace module attributes and put the originals back on close."""

    def __init__(self):
        self._saved = []

    def replace(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))
        return True

    def close(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Tracer:
    """In-memory span recorder; ``round`` tags spans with the loop round."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.round = -1
        self.sites_missing = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.round, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self, patches):
        self.sites_missing = [
            f"{module_name}.{attr}"
            for module_name, attr, name, attrs in SITES
            if not patches.replace(
                module_name, attr, lambda fn, n=name, a=attrs: self.wrap(n, fn, a)
            )
        ]

    def round_span(self, index, body):
        """Run ``body()`` as the root span of loop round ``index``."""
        self.round = index
        try:
            return self.wrap(ROUND, body)()
        finally:
            self.round = -1


def span_cost_s(calls=20000):
    """Seconds one traced call adds around a call that does nothing."""
    bare = lambda: None  # noqa: E731
    traced = Tracer().wrap("cost", bare)
    t0 = perf_counter()
    for _ in range(calls):
        bare()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def layer_metrics(tracer, rounds, quality_rounds):
    """Per-layer metrics from the recorded spans.

    Self times are milliseconds per round over every traced round. Counts
    and ratios of counts cover only the first ``quality_rounds`` rounds,
    whose inputs are fixed by the seed, so they repeat exactly.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    self_s, total_s, calls = {}, {}, {}
    counted = {"vars": 0, "iterations": 0, "sweeps": 0, "bytes": 0}
    exact_solves = 0
    max_marginal = 0.0
    for i, (name, start, end, _, rnd, attrs) in enumerate(spans):
        dur = end - start
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        total_s[name] = total_s.get(name, 0.0) + dur
        if attrs and "marginal_error" in attrs:
            max_marginal = max(max_marginal, attrs["marginal_error"])
        if rnd >= quality_rounds:
            continue
        calls[name] = calls.get(name, 0) + 1
        if attrs:
            if name == "ot.solve_coupling":
                exact_solves += attrs["exact"]
            for key in counted:
                if key in attrs and (key != "vars" or name == "ot.exact_lp"):
                    counted[key] += attrs[key]
    fits = sum(calls.get(name, 0) for name in FITS)
    fit_s = sum(total_s.get(name, 0.0) for name in FITS)
    solves = calls.get("ot.solve_coupling", 0)
    round_s = total_s.get(ROUND, 0.0)

    def share(part, whole):
        return part / whole if whole > 0 else 0.0

    out = {}
    for name in TIMED_LAYERS:
        out[f"{name}.self_ms"] = (1e3 * self_s.get(name, 0.0) / rounds, "ms/round")
    out.update(
        {
            "bench.round_ms": (1e3 * round_s / rounds, "ms"),
            "ot.solve_coupling.calls": (solves, "count"),
            "ot.solve_coupling.calls_per_fit": (share(solves, fits), "count"),
            "ot.solve_coupling.round_share": (
                share(total_s.get("ot.solve_coupling", 0.0), round_s), "frac"
            ),
            "ot.exact.share": (share(exact_solves, solves), "frac"),
            "ot.marginal_error.max": (max_marginal, "l1"),
            "ot.exact_lp.calls": (calls.get("ot.exact_lp", 0), "count"),
            "ot.exact_lp.vars": (counted["vars"], "count"),
            "ot.exact_lp.fit_share": (share(self_s.get("ot.exact_lp", 0.0), fit_s), "frac"),
            "ot.assignment.calls": (calls.get("ot.assignment", 0), "count"),
            "ot.sinkhorn.calls": (calls.get("ot.sinkhorn", 0), "count"),
            "ot.sinkhorn.iterations": (counted["iterations"], "count"),
            "kernels.sinkhorn_scaling.sweeps": (counted["sweeps"], "count"),
            "kernels.sinkhorn_scaling.computed_bytes": (counted["bytes"], "B"),
            "kernels.sinkhorn_scaling.fit_share": (
                share(self_s.get("kernels.sinkhorn_scaling", 0.0), fit_s), "frac"
            ),
            "kernels.pairwise_sqdist.calls": (
                calls.get("kernels.pairwise_sqdist", 0), "count"
            ),
            "core.potd_fit.calls": (calls.get("core.potd_fit", 0), "count"),
            "core.potd_fit_continuous.calls": (
                calls.get("core.potd_fit_continuous", 0), "count"
            ),
            "trace.spans_per_round": (len(spans) / rounds, "count"),
            "trace.sites_missing": (len(tracer.sites_missing), "count"),
        }
    )
    return out

