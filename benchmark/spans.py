"""In-memory span recorder that wraps the package's functions from outside.

`Tracer.install()` replaces every public function of the traced modules, and
`pipeline.Report.to_json`, by a wrapper that records one span per call:
name, start, end, parent span and op id. It patches every module namespace
that binds the function object, not only the defining one, because `cli`
and `pipeline` import `parse_csv`, `write_csv`, `yoy_growth` and `demean`
by name. Calls inside the package (`fit_mle -> log_likelihood`) resolve
through module globals and so reach the wrappers too. A named function that
a later version removes is reported as absent, not as an error.

Spans stay in memory until `per_layer()` and `dump()` at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

PACKAGE = "tvelast"
MODULES = ("series", "unitroot", "regress", "sspace", "_optim", "simlab", "pipeline", "cli")
METHODS = (("pipeline", "Report", "to_json"),)

# Functions whose per-layer metrics are reported, with the quantities
# reported for each; every other wrapped function appears only in the span
# dump. Metric names drop the leading underscore (`optim.minimize.self_s`).
REPORTED = {
    "sspace.fit_mle": ("calls", "self_s", "failed"),
    "sspace.log_likelihood": ("calls", "self_s"),
    "sspace.kalman_filter": ("self_s",),
    "sspace.kalman_smoother": ("self_s",),
    "_optim.minimize": ("self_s",),
    "_optim.fd_gradient": ("calls",),
    "_optim.fd_hessian": ("self_s",),
    "unitroot.adf": ("calls", "self_s", "failed"),
    "pipeline.adf_battery": ("self_s",),
    "regress.cusum": ("self_s",),
    "regress.recursive_residuals": ("self_s",),
    "regress.recursive_coefficients": ("self_s",),
    "regress.ols_no_intercept": ("self_s",),
    "series.parse_csv": ("self_s",),
    "series.write_csv": ("self_s",),
    "series.yoy_growth": ("self_s",),
    "pipeline.run_pipeline": ("self_s",),
    "pipeline.subsample_final_states": ("self_s",),
    "pipeline.write_report": ("self_s",),
    "pipeline.Report.to_json": ("self_s",),
    "cli.main": ("self_s",),
    "simlab.monte_carlo": ("self_s",),
    "simlab.gen_tvp": ("self_s",),
    "simlab.gen_unit_root": ("self_s",),
    "simlab.gen_ar1": ("self_s",),
    "simlab.gen_break_regression": ("self_s",),
}


def metric_name(function: str, quantity: str) -> str:
    return f"{function.lstrip('_')}.{quantity}"


# every metric per_layer() returns, with its unit
UNITS = {metric_name(f, q): "s" if q == "self_s" else "count"
         for f, quantities in REPORTED.items() for q in quantities}
UNITS.update({"sspace.fit_mle.iters": "count", "sspace.lik_evals_per_fit": "count",
              "sspace.filter_steps": "count", "sspace.step_ns": "ns",
              "pipeline.write_report.bytes": "B"})


# span fields
NAME, START, END, PARENT, OP, FAILED, ATTR = range(7)
LIKELIHOOD_PASSES = ("sspace.log_likelihood", "sspace.kalman_filter")


def _model_length(args, kwargs, result, exc):
    return len(args[0] if args else kwargs["model"])


def _n_iter(args, kwargs, result, exc):
    fit = result if exc is None else getattr(exc, "result", None)
    return None if fit is None else fit.n_iter


def _bytes_written(args, kwargs, result, exc):
    return None if result is None else sum(os.path.getsize(p) for p in result)


# name -> f(args, kwargs, result, exception) giving the span's attribute
ATTRIBUTES = {
    "sspace.log_likelihood": _model_length,
    "sspace.kalman_filter": _model_length,
    "sspace.fit_mle": _n_iter,
    "pipeline.write_report": _bytes_written,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attribute = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                span[FAILED] = True
                if attribute is not None:
                    span[ATTR] = attribute(args, kwargs, None, exc)
                raise
            span[END] = clock()
            stack.pop()
            if attribute is not None:
                span[ATTR] = attribute(args, kwargs, result, None)
            return result

        return traced

    def targets(self) -> dict[str, object]:
        """name -> function for every function to wrap that exists now."""
        found = {}
        for short in MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    found[f"{short}.{attr}"] = value
        for short, cls, method in METHODS:
            owner = getattr(sys.modules.get(f"{PACKAGE}.{short}"), cls, None)
            value = getattr(owner, method, None)
            if inspect.isfunction(value):
                found[f"{short}.{cls}.{method}"] = value
        self.absent = sorted(set(REPORTED) - set(found))
        return found

    def install(self) -> None:
        if self._patches:
            return
        targets = self.targets()
        wrappers = {name: self.wrap(name, fn) for name, fn in targets.items()}
        names = {id(fn): name for name, fn in targets.items()}
        for key, module in sorted(sys.modules.items()):
            if module is None or not (key == PACKAGE or key.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                name = names.get(id(value))
                if name is not None and targets[name] is value:
                    self._patch(module, attr, wrappers[name])
        for short, cls, method in METHODS:
            name = f"{short}.{cls}.{method}"
            if name in targets:
                self._patch(getattr(sys.modules[f"{PACKAGE}.{short}"], cls), method,
                            wrappers[name])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "failed",
                                            "attr"], "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def _under(spans: list, i: int, ancestor: str) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


def per_layer(spans: list, n_ops: int) -> dict[str, float]:
    """The reported per-layer metrics of n_ops traced ops.

    Calls, failures, self time, filter steps and bytes are per op; `iters`
    and `lik_evals_per_fit` are per fit. A function with no spans, absent
    ones included, reports 0.
    """
    selfs = self_times(spans)
    totals = {q: {} for q in ("calls", "self_s", "failed")}
    for span, s in zip(spans, selfs):
        name = span[NAME]
        totals["calls"][name] = totals["calls"].get(name, 0) + 1
        totals["self_s"][name] = totals["self_s"].get(name, 0.0) + s
        totals["failed"][name] = totals["failed"].get(name, 0) + span[FAILED]

    metrics = {}
    for function, quantities in REPORTED.items():
        for q in quantities:
            metrics[metric_name(function, q)] = totals[q].get(function, 0) / n_ops

    iters = [s[ATTR] for s in spans if s[NAME] == "sspace.fit_mle" and s[ATTR] is not None]
    metrics["sspace.fit_mle.iters"] = sum(iters) / len(iters) if iters else 0.0
    # likelihood passes made while fitting, as seen from outside the package
    in_fits = [i for i, s in enumerate(spans)
               if s[NAME] in LIKELIHOOD_PASSES and _under(spans, i, "sspace.fit_mle")]
    n_fits = totals["calls"].get("sspace.fit_mle", 0)
    metrics["sspace.lik_evals_per_fit"] = len(in_fits) / n_fits if n_fits else 0.0
    metrics["sspace.filter_steps"] = sum(spans[i][ATTR] for i in in_fits) / n_ops
    lik_steps = sum(s[ATTR] for s in spans if s[NAME] == "sspace.log_likelihood")
    lik_self = totals["self_s"].get("sspace.log_likelihood", 0.0)
    metrics["sspace.step_ns"] = 1e9 * lik_self / lik_steps if lik_steps else 0.0
    metrics["pipeline.write_report.bytes"] = sum(
        s[ATTR] or 0 for s in spans if s[NAME] == "pipeline.write_report") / n_ops
    return metrics
