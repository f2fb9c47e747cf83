"""Per-layer tracing for a traced benchmark run, installed from outside the program.

``Tracer.install`` wraps the public functions of each qlidstone module and the
``SymPoly``/``Series`` arithmetic methods, and rebinds every name that refers
to an original (including the ``from .x import y`` copies in other modules and
the ``__radd__``/``__rmul__`` aliases).  A layer is one module.

A span is recorded where a call crosses from one layer into another (or enters
the program from the benchmark): name, start, end, parent span and job.  A
layer's self time is the time of its spans minus the time of their child
spans.  Calls inside one layer are counted but not recorded as spans.  At
every recorded span the returned ``SymPoly``, ``Series`` or ``Fraction`` is
probed for its coefficient height (max numerator/denominator bits).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("qcore", "symlaurent", "fps", "qpolys", "qspecial", "lidstone", "guichard", "cli")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__")

# metric -> functions whose inclusive time (outermost calls only) it sums
TIMED = {
    "symlaurent.change_basis_s": ("symlaurent.change_basis",),
    "symlaurent.q_translate_s": ("symlaurent.q_translate",),
    "symlaurent.aw_derivative_s": ("symlaurent.aw_derivative",),
    "fps.series_mul_s": ("fps.Series.__mul__",),
    "fps.series_div_s": ("fps.Series.__truediv__",),
    "qpolys.build_family_s": ("qpolys.build_family",),
    "qspecial.refine_zero_exact_s": ("qspecial.refine_zero_exact",),
    "qspecial.float_zero_s": ("qspecial.smallest_positive_zero", "qspecial.positive_zeros",
                              "qspecial.jackson_bessel_zeros"),
    "lidstone.boundary_data_s": ("lidstone.aw_boundary_data",),
    "lidstone.residual_grid_s": ("lidstone.residual_on_grid",),
    "guichard.solve_s": ("guichard.solve_difference",),
    "guichard.verify_s": ("guichard.verify_solution",),
    "guichard.growth_s": ("guichard.growth_bound_check",),
    "cli.render_s": ("cli.render_report",),
}
TIMED_NAMES = tuple(name for fns in TIMED.values() for name in fns)
HEIGHT_LAYERS = ("symlaurent", "fps")
# function -> Tracer method that reads its return value
OBSERVED = {
    "qspecial.refine_zero_exact": "_observe_zero",
    "qcore.q_pochhammer_inf": "_observe_factors",
    "cli.render_report": "_observe_render",
}


def coeff_bits(value) -> int:
    """Max numerator/denominator bit length of a Fraction, SymPoly or Series."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    coeffs = getattr(value, "coeffs", None)
    if isinstance(coeffs, tuple):
        return max((coeff_bits(c) for c in coeffs), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.names = []        # function id -> "layer.qualname"
        self.layer_of = []     # function id -> layer index
        self.calls = []        # function id -> call count
        self.timed_of = {}     # function id -> metric name
        self.depth = {}        # metric name -> nesting depth
        self.timed = dict.fromkeys(TIMED, 0.0)
        self.self_s = [0.0] * len(LAYERS)
        self.max_bits = dict.fromkeys(HEIGHT_LAYERS, 0)
        self.refined_zero_bits = 0
        self.pochhammer_inf_factors = 0
        self.output_bytes = 0
        self.stack = []        # [layer, span id, child time] per open span
        self.next_span = 0
        self.job = -1
        self.span_id, self.span_fn, self.span_parent, self.span_job = (array("q") for _ in range(4))
        self.span_start, self.span_end = array("d"), array("d")

    # -- installation ------------------------------------------------------

    def install(self):
        import qlidstone
        from qlidstone.symlaurent import SymPoly
        from qlidstone.fps import Series

        modules = {name: sys.modules[f"qlidstone.{name}"] for name in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for layer, cls in (("symlaurent", SymPoly), ("fps", Series)):
            for attr in ARITHMETIC:
                obj = cls.__dict__.get(attr)
                if obj is not None and id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{cls.__name__}.{attr}", layer)
        missing = (set(TIMED_NAMES) | set(OBSERVED)) - set(self.names)
        if missing:
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")
        for ns in [qlidstone, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
        for cls in (SymPoly, Series):
            for attr, obj in list(cls.__dict__.items()):
                if id(obj) in wrappers:
                    setattr(cls, attr, wrappers[id(obj)])

    def _wrap(self, fn, name, layer):
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        for metric, fns in TIMED.items():
            if name in fns:
                self.timed_of[fid] = metric
                self.depth[metric] = 0
        observe = getattr(self, OBSERVED[name]) if name in OBSERVED else None
        probe = layer in HEIGHT_LAYERS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(fid, fn, probe, observe, args, kwargs)

        return wrapper

    # -- the wrapped call --------------------------------------------------

    def call(self, fid, fn, probe, observe, args, kwargs):
        self.calls[fid] += 1
        layer = self.layer_of[fid]
        stack = self.stack
        boundary = not stack or stack[-1][0] != layer
        metric = self.timed_of.get(fid)
        if not boundary and metric is None and observe is None:
            return fn(*args, **kwargs)
        if metric is not None:
            self.depth[metric] += 1
        if boundary:
            frame = [layer, self.next_span, 0.0]
            self.next_span += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if metric is not None:
                self.depth[metric] -= 1
                if self.depth[metric] == 0:
                    self.timed[metric] += t1 - t0
            if boundary:
                stack.pop()
                duration = t1 - t0
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self.span_id.append(frame[1])
                self.span_fn.append(fid)
                self.span_parent.append(parent)
                self.span_job.append(self.job)
                self.span_start.append(t0)
                self.span_end.append(t1)
        if boundary and probe:
            name = LAYERS[layer]
            self.max_bits[name] = max(self.max_bits[name], coeff_bits(result))
        if observe is not None:
            observe(result)
        return result

    def _observe_zero(self, result):
        self.refined_zero_bits = max(self.refined_zero_bits, coeff_bits(result))

    def _observe_factors(self, result):
        self.pochhammer_inf_factors += result[1]

    def _observe_render(self, result):
        self.output_bytes += len(result.encode())

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        from qlidstone import qpolys

        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = sum(c for c, l in zip(self.calls, self.layer_of) if l == i)
            out[f"{layer}.self_s"] = self.self_s[i]
        out.update(self.timed)
        out["qcore.pochhammer_inf_factors"] = self.pochhammer_inf_factors
        out["symlaurent.mul_calls"] = self.calls[self.names.index("symlaurent.SymPoly.__mul__")]
        for layer in HEIGHT_LAYERS:
            out[f"{layer}.max_coeff_bits"] = self.max_bits[layer]
        info = qpolys._family_series.cache_info()
        lookups = info.hits + info.misses
        out["qpolys.family_cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["qspecial.refined_zero_bits"] = self.refined_zero_bits
        out["cli.output_bytes"] = self.output_bytes
        return out

    def write_spans(self, path):
        """Write the recorded spans as gzipped JSON with one array per field."""
        doc = {
            "clock": "time.perf_counter seconds",
            "functions": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "id": self.span_id.tolist(),
            "function": self.span_fn.tolist(),
            "parent": self.span_parent.tolist(),
            "job": self.span_job.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
        return len(self.span_id)

