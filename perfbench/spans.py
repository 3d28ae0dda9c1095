"""In-memory spans around dpptails layer calls, recorded from outside the library.

`instrument(tracer)` replaces selected public functions of the dpptails
modules with wrappers that record one span per call: name, start, end,
parent span and job id.  Every module attribute bound to the wrapped
function object is replaced, so calls made through `from .x import f`
aliases are caught as well.  The library files are not edited; only a
traced worker process calls `instrument`.
"""

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

# (module, function); a span is named "<module>.<function>"
TRACED = (
    ("specfun", "gauss_legendre"),
    ("kernels", "make_kernel"),
    ("kernels", "kernel_matrix"),
    ("kernels", "growth_envelope"),
    ("exact", "discretize"),
    ("exact", "spectrum"),
    ("exact", "eigensystem"),
    ("exact", "count_distribution"),
    ("exact", "tail"),
    ("exact", "exp_moment_sq"),
    ("exact", "exp_moment_sq_bracket"),
    ("bounds", "build_bound_report"),
    ("bounds", "b_constant"),
    ("bounds", "c_constant"),
    ("bounds", "tail_log_bound"),
    ("bounds", "tail_log_bound_function"),
    ("sampler", "make_pair_functional"),
    ("sampler", "sample"),
    ("sampler", "mc_exp_moment"),
    ("sampler", "negative_association_probe"),
)

# calls whose arguments and result `Tracer.drain` reads after the job
_KEPT = {"kernels.kernel_matrix", "exact.discretize", "exact.spectrum",
         "exact.eigensystem", "bounds.build_bound_report", "sampler.sample",
         "sampler.to_jsonl"}

# per-layer metric -> span name whose inclusive durations it sums
SPAN_TOTALS = {
    "specfun.gauss_legendre_s": "specfun.gauss_legendre",
    "kernels.kernel_matrix_cold_s": "kernels.kernel_matrix",
    "kernels.growth_envelope_s": "kernels.growth_envelope",
    "exact.discretize_s": "exact.discretize",
    "exact.spectrum_s": "exact.spectrum",
    "exact.eigensystem_s": "exact.eigensystem",
    "exact.count_distribution_s": "exact.count_distribution",
    "exact.exp_moment_bracket_s": "exact.exp_moment_sq_bracket",
    "bounds.build_bound_report_s": "bounds.build_bound_report",
    "bounds.b_constant_s": "bounds.b_constant",
    "bounds.c_constant_s": "bounds.c_constant",
    "bounds.tail_table_s": "bounds.tail_log_bound",
    "sampler.sample_s": "sampler.sample",
    "sampler.mc_exp_moment_s": "sampler.mc_exp_moment",
    "sampler.na_probe_s": "sampler.negative_association_probe",
    "sampler.to_jsonl_s": "sampler.to_jsonl",
}

# eigenvalues above this count towards the numerical rank
RANK_FLOOR = 1e-15


class Tracer:
    """Spans of one worker process, kept in memory until the worker ends."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.tail_fn_s = 0.0
        self._stack = []
        self._kept = []

    def call(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        rec = {"id": len(self.spans), "name": name, "job": self.job,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        if name in _KEPT:
            self._kept.append((name, fn, args, kwargs, result))
        return result

    def drain(self, stats):
        """Fold the kept calls of the finished job into `stats`.

        Runs between jobs, outside every span: the warm re-call of each
        Gram assembly, the eigvalsh comparison and the work counts.
        """
        for name, fn, args, kwargs, result in self._kept:
            if name == "kernels.kernel_matrix":
                t0 = time.perf_counter()
                fn(*args, **kwargs)
                stats["kernels.kernel_matrix_warm_s"] += time.perf_counter() - t0
            elif name == "exact.discretize":
                stats["exact.matrix_order_sum"] += _argument(fn, args, kwargs, "order")
            elif name in ("exact.spectrum", "exact.eigensystem"):
                ev = (result[0] if name == "exact.eigensystem" else result).eigenvalues
                ref = np.clip(np.linalg.eigvalsh(args[0].matrix), 0.0, 1.0)[::-1]
                stats["exact.eig_max_abs_err"] = max(
                    stats["exact.eig_max_abs_err"], float(np.max(np.abs(ev - ref))))
                stats["exact.rank"] = max(stats["exact.rank"],
                                          int(np.count_nonzero(ev > RANK_FLOOR)))
            elif name == "bounds.build_bound_report":
                stats["bounds.n_max_sum"] += _argument(fn, args, kwargs, "n_max")
            elif name == "sampler.sample":
                stats["configurations"] += len(result.configurations)
                stats["points"] += sum(len(c) for c in result.configurations)
            elif name == "sampler.to_jsonl":
                stats["sampler.jsonl_bytes"] += len(result.encode())
        self._kept.clear()


def _argument(fn, args, kwargs, key):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[key]


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def _timed_tail_factory(tracer, factory):
    # the lazy tail closure is called thousands of times per bracket, so its
    # time is summed into one counter instead of one span per call
    @functools.wraps(factory)
    def tail_log_bound_function(*args, **kwargs):
        fn = factory(*args, **kwargs)

        def timed(n):
            t0 = time.perf_counter()
            try:
                return fn(n)
            finally:
                tracer.tail_fn_s += time.perf_counter() - t0
        return timed
    return tail_log_bound_function


def instrument(tracer):
    """Route the TRACED functions and SampleBatch.to_jsonl through `tracer`."""
    import dpptails
    from dpptails import bounds, cli, exact, kernels, sampler, specfun
    modules = {"specfun": specfun, "kernels": kernels, "bounds": bounds,
               "exact": exact, "sampler": sampler}
    everywhere = (dpptails, cli, *modules.values())
    for mod_name, attr in TRACED:
        orig = getattr(modules[mod_name], attr)
        target = (_timed_tail_factory(tracer, orig)
                  if attr == "tail_log_bound_function" else orig)
        wrapper = _wrap(tracer, f"{mod_name}.{attr}", target)
        for mod in everywhere:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
    sampler.SampleBatch.to_jsonl = _wrap(tracer, "sampler.to_jsonl",
                                         sampler.SampleBatch.to_jsonl)


def new_stats():
    return defaultdict(float, {"exact.eig_max_abs_err": 0.0, "exact.rank": 0})


def layer_metrics(spans, stats, tail_fn_s):
    """Per-layer metrics of one traced rep from its spans and drained stats.

    A layer time sums the durations of the outermost spans of that name.
    Self time is a span's duration minus its direct children's durations
    (one thread, so children never overlap).
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]

    def outermost(s):
        p = s["parent"]
        while p is not None:
            if spans[p]["name"] == s["name"]:
                return False
            p = spans[p]["parent"]
        return True

    totals = defaultdict(float)
    self_s = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        if outermost(s):
            totals[s["name"]] += dur
        self_s[s["name"]] += dur - child[s["id"]]
    cli_names = [n for n in totals if n.startswith("cli.")]
    out = {metric: totals[name] for metric, name in SPAN_TOTALS.items()}
    configs = stats["configurations"]
    out.update({
        "bounds.tail_fn_s": tail_fn_s,
        "kernels.kernel_matrix_warm_s": stats["kernels.kernel_matrix_warm_s"],
        "sampler.draw_us": 1e6 * self_s["sampler.sample"] / configs if configs else 0.0,
        "sampler.points_per_config": stats["points"] / configs if configs else 0.0,
        "sampler.jsonl_bytes": stats["sampler.jsonl_bytes"],
        "exact.matrix_order_sum": stats["exact.matrix_order_sum"],
        "exact.rank": stats["exact.rank"],
        "exact.eig_max_abs_err": stats["exact.eig_max_abs_err"],
        "bounds.n_max_sum": stats["bounds.n_max_sum"],
        "cli.self_s": sum(self_s[n] for n in cli_names),
        "traced_total_s": sum(totals[n] for n in cli_names),
    })
    return out
