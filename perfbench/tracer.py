"""Spans around the public calls of every horoflow module, from outside.

The tracer patches each traced name where it is looked up: a function is
replaced in every loaded ``horoflow`` module that binds it (``cli``
imports kernels by name), and a method on its class.  Spans nest through
a per-thread stack; a span opened in a ``map_indexed`` worker thread takes
the ``map_indexed`` span as its parent.  A span's self time is its
duration minus the union of its children's intervals, so overlapping
worker spans are not subtracted twice.  Spans are aggregated by name as
they close, so memory stays flat however many calls a pass makes.
"""

import dataclasses
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "seeding", "cocycle", "lyapunov", "operator_cone", "deepnet",
          "spaces", "core")

# span name -> (module, attribute path, parameters whose product is the
# step count of one call, or None)
SPANS = {
    "cli.run": ("cli", "run", None),
    "cli.map_indexed": ("cli", "map_indexed", None),
    "seeding.trial_rng": ("seeding", "trial_rng", None),
    "cocycle.elements": ("cocycle", "ErgodicDriver.elements", None),
    "cocycle.orbit_at": ("cocycle", "orbit_at", None),
    "cocycle.estimate_top_exponent": ("cocycle", "estimate_top_exponent", None),
    "cocycle.hyperbolic_walk_gap": ("cocycle", "hyperbolic_walk_gap", ("n",)),
    "lyapunov.qr_spectrum": ("lyapunov", "qr_spectrum", ("n",)),
    "lyapunov.vector_growth_rate": ("lyapunov", "vector_growth_rate", ("n",)),
    "operator_cone.tau_estimate": ("operator_cone", "tau_estimate", ("n", "trials")),
    "operator_cone.squared_positive_part_lognorm":
        ("operator_cone", "squared_positive_part_lognorm", None),
    "operator_cone.segal_check": ("operator_cone", "segal_check", None),
    "operator_cone.expm_symmetric": ("operator_cone", "expm_symmetric", None),
    "deepnet.resnet_drift": ("deepnet", "resnet_drift", ("n", "trials")),
    "deepnet.apply_chain": ("deepnet", "apply_chain", None),
    "deepnet.max_stretch": ("deepnet", "max_stretch", ("n",)),
    "deepnet.jacobian_cocycle_dist": ("deepnet", "jacobian_cocycle_dist", ("n",)),
    "spaces.euclidean_dist": ("spaces", "euclidean_dist", None),
    "spaces.poincare_dist": ("spaces", "poincare_dist", None),
    "spaces.thompson_dist": ("spaces", "thompson_dist", None),
    "spaces.funk_dist": ("spaces", "funk_dist", None),
    "spaces.stretch_dist": ("spaces", "stretch_dist", None),
    "spaces.jacobian_dist": ("spaces", "jacobian_dist", None),
    "core.distance": ("core", "WeakMetricSpace.distance", None),
    "core.check_weak_metric_axioms": ("core", "check_weak_metric_axioms", None),
    "core.check_functional_bounds": ("core", "check_functional_bounds", None),
}


class _Frame:
    __slots__ = ("children",)

    def __init__(self):
        self.children = []      # (start, end) of child spans, any thread


def _union_length(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class Tracer:
    """Install with :meth:`install`, read :meth:`metrics`, then :meth:`uninstall`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.steps = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, steps_of=None, on_call=None, is_error=None):
        """Wrap fn in a span; on_call(frame, args, kwargs) may replace the args,
        and is_error(result) counts a returned failure as an error."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = _Frame()
            if on_call is not None:
                args, kwargs = on_call(frame, args, kwargs)
            stack.append(frame)
            failed = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = is_error is not None and is_error(result)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                covered = _union_length(frame.children)
                if stack:
                    stack[-1].children.append((t0, t1))
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += (t1 - t0) - covered
                    self.errors[name] += failed
                    if steps_of is not None:
                        self.steps[name] += steps_of(args, kwargs)
        return wrapper

    def _count(self, name, k=1):
        with self._lock:
            self.counts[name] += k

    # -- patching ----------------------------------------------------------

    def _resolve(self, module, path):
        """(owner, attribute, value) of a dotted path, or None if absent."""
        try:
            owner = importlib.import_module(f"horoflow.{module}")
        except ImportError:
            return None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        value = owner.__dict__.get(attr) if inspect.isclass(owner) \
            else getattr(owner, attr, None)
        return None if value is None else (owner, attr, value)

    def _patch(self, name, module, path, make):
        found = self._resolve(module, path)
        if found is None:
            self.absent.append(name)
            return
        owner, attr, orig = found
        new = make(orig)
        if inspect.isclass(owner):
            targets = [(owner, attr)]
        else:
            # every loaded horoflow module that binds the same object
            targets = [(m, a) for mname, m in list(sys.modules.items())
                       if m is not None and (mname == "horoflow" or mname.startswith("horoflow."))
                       for a, v in list(vars(m).items()) if v is orig]
        for obj, a in targets:
            self._undo.append((obj, a, orig))
            setattr(obj, a, new)

    def install(self):
        importlib.import_module("horoflow.cli")
        special = {
            "cli.run": lambda orig: self._span("cli.run", orig, is_error=lambda code: code != 0),
            "cli.map_indexed": lambda orig: self._span("cli.map_indexed", orig,
                                                       on_call=self._adopt_workers),
            "cocycle.orbit_at": self._orbit_at,
            "cocycle.elements": self._elements,
        }
        for name, (module, path, params) in SPANS.items():
            make = special.get(name) or (
                lambda orig, name=name, params=params:
                self._span(name, orig, _step_reader(orig, params) if params else None))
            self._patch(name, module, path, make)
        # counted without a span: cheap, very frequent calls
        for name, module, path, make in (
                ("deepnet.layermap_built", "deepnet", "LayerMap.__init__", self._counted_init),
                ("spaces.sdf_matrix", "spaces", "SampledDistanceFunction.matrix",
                 self._sdf_matrix),
                ("cocycle.orbit_at.useful_frac", "cocycle", "apply_element",
                 self._apply_element),
                # sample_point is a per-space field, wrapped on the spaces returned
                ("spaces.sample_point", "spaces", "registered_spaces",
                 self._registered_spaces)):
            self._patch(name, module, path, make)

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- special targets ---------------------------------------------------

    def _adopt_workers(self, frame, args, kwargs):
        """Run map_indexed's fn so its spans take the map_indexed span as parent."""
        if not args:
            return args, kwargs
        fn = args[0]

        def in_span(*a, **kw):
            stack = self._stack()
            if stack and stack[-1] is frame:
                return fn(*a, **kw)
            stack.append(frame)
            try:
                return fn(*a, **kw)
            finally:
                stack.pop()

        return (in_span,) + tuple(args[1:]), kwargs

    def _elements(self, orig):
        span = self._span("cocycle.elements", orig)

        def elements(driver, trial, n, *a, **kw):
            out = span(driver, trial, n, *a, **kw)
            self._count("cocycle.elements.items", len(out))
            return out
        return elements

    def _orbit_at(self, orig):
        span = self._span("cocycle.orbit_at", orig)
        sig = inspect.signature(orig)

        def orbit_at(*args, **kwargs):
            local = self._local
            outer = getattr(local, "applies", None)
            local.applies = 0
            try:
                return span(*args, **kwargs)
            finally:
                ks = sig.bind(*args, **kwargs).arguments.get("ks", ())
                self._count("cocycle.orbit_at.applies", local.applies)
                self._count("cocycle.orbit_at.useful", max((int(k) for k in ks), default=0))
                local.applies = outer
        return orbit_at

    def _apply_element(self, orig):
        local = self._local

        def apply_element(g, x):
            if getattr(local, "applies", None) is not None:
                local.applies += 1
            return orig(g, x)
        return apply_element

    def _counted_init(self, orig):
        def __init__(obj, *a, **kw):
            self._count("deepnet.layermap_built")
            orig(obj, *a, **kw)
        return __init__

    def _sdf_matrix(self, orig):
        def matrix(sdf):
            cache = getattr(sdf, "_cache", None)
            self._count("spaces.sdf_matrix.calls")
            if cache is not None and "matrix" in cache:
                self._count("spaces.sdf_matrix.hits")
            return orig(sdf)
        return matrix

    def _registered_spaces(self, orig):
        def registered_spaces(*a, **kw):
            spaces = orig(*a, **kw)
            return {k: dataclasses.replace(sp, sample_point=self._span(
                        "spaces.sample_point", sp.sample_point))
                    if getattr(sp, "sample_point", None) is not None else sp
                    for k, sp in spaces.items()}
        return registered_spaces

    # -- report ------------------------------------------------------------

    def metrics(self, passes, traced_seconds):
        """Per-pass means over ``passes`` traced passes: name -> (value, unit).

        Layer shares are self time over the traced passes' wall time.
        """
        per = 1.0 / passes
        m = {}

        def span_metrics(name, *fields):
            for f in fields:
                if f == "calls":
                    m[f"{name}.calls"] = (self.calls[name] * per, "count")
                elif f == "self_s":
                    m[f"{name}.self_s"] = (self.self_s[name] * per, "s")
                elif f == "errors":
                    m[f"{name}.errors"] = (self.errors[name] * per, "count")
                elif f == "us_per_step":
                    steps = self.steps[name]
                    m[f"{name}.us_per_step"] = (
                        1e6 * self.self_s[name] / steps if steps else 0.0, "us")

        span_metrics("cli.run", "calls", "self_s", "errors")
        span_metrics("cli.map_indexed", "calls", "self_s")
        span_metrics("seeding.trial_rng", "calls", "self_s")
        span_metrics("cocycle.elements", "calls", "self_s")
        m["cocycle.elements.items"] = (self.counts["cocycle.elements.items"] * per, "count")
        span_metrics("cocycle.orbit_at", "self_s")
        applies = self.counts["cocycle.orbit_at.applies"]
        m["cocycle.orbit_at.useful_frac"] = (
            self.counts["cocycle.orbit_at.useful"] / applies if applies else 0.0, "ratio")
        span_metrics("cocycle.estimate_top_exponent", "self_s")
        span_metrics("cocycle.hyperbolic_walk_gap", "calls", "self_s", "us_per_step")
        span_metrics("lyapunov.qr_spectrum", "self_s", "us_per_step")
        span_metrics("lyapunov.vector_growth_rate", "calls", "self_s", "us_per_step")
        span_metrics("operator_cone.tau_estimate", "self_s", "us_per_step")
        for name in ("squared_positive_part_lognorm", "segal_check", "expm_symmetric"):
            span_metrics(f"operator_cone.{name}", "calls", "self_s")
        span_metrics("deepnet.resnet_drift", "self_s", "us_per_step")
        m["deepnet.layermap_built"] = (self.counts["deepnet.layermap_built"] * per, "count")
        span_metrics("deepnet.apply_chain", "calls", "self_s")
        span_metrics("deepnet.max_stretch", "self_s", "us_per_step")
        span_metrics("deepnet.jacobian_cocycle_dist", "self_s", "us_per_step")
        for space in ("euclidean", "poincare", "thompson", "funk", "stretch", "jacobian"):
            span_metrics(f"spaces.{space}_dist", "calls", "self_s")
        span_metrics("spaces.sample_point", "calls", "self_s")
        sdf_calls = self.counts["spaces.sdf_matrix.calls"]
        m["spaces.sdf_matrix.calls"] = (sdf_calls * per, "count")
        m["spaces.sdf_matrix.hit_frac"] = (
            self.counts["spaces.sdf_matrix.hits"] / sdf_calls if sdf_calls else 0.0, "ratio")
        span_metrics("core.distance", "calls", "self_s", "errors")
        span_metrics("core.check_weak_metric_axioms", "self_s")
        span_metrics("core.check_functional_bounds", "self_s")
        for layer in LAYERS:
            busy = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            m[f"layer.{layer}.share"] = (busy / traced_seconds, "ratio")
        return m


def _step_reader(fn, params):
    """steps_of(args, kwargs): product of the named arguments of one call."""
    sig = inspect.signature(fn)
    if any(p not in sig.parameters for p in params):
        return lambda args, kwargs: 0

    def steps_of(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        out = 1
        for p in params:
            out *= int(bound.arguments[p])
        return out
    return steps_of
