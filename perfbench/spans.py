"""Spans around calls into heiskit's modules, recorded from outside the package.

The tracer replaces every public function of the seven heiskit modules with a
wrapper that records a span (name, layer, parent, thread, start, end), in
every module that holds a reference to it: ``beta.osc`` and
``riesz.surface_sample`` are rebound names of ``oscillation.osc`` and
``domains.surface_sample`` and are wrapped as well.  A few methods are wrapped
too, because the layers' work passes through them: graph and oracle
indicators, ``WeightedSample.in_ball`` and the integrand callbacks handed to
``quadrature``.  Spans stay in memory; :meth:`Tracer.write` saves them when the
run ends, and :meth:`Tracer.metrics` reduces them to the per-layer numbers.

Self time of a span is its duration minus the part of its interval covered
by its child spans.  Quadrature evaluates chunks on worker threads; spans
opened on such a thread outside any other span take the running quadrature
call as their parent.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("core", "quadrature", "domains", "oscillation", "beta", "riesz", "cli")

# The per-layer metrics, in the order they are reported, with their units.
PER_LAYER = {
    "core.points": "count",
    "core.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.samples": "count",
    "quadrature.self_s": "s",
    "quadrature.integrand_s": "s",
    "domains.indicator_points": "count",
    "domains.indicator_s": "s",
    "domains.surface_sample.calls": "count",
    "domains.surface_sample.samples": "count",
    "domains.surface_sample.self_s": "s",
    "domains.gradient_points": "count",
    "oscillation.osc.calls": "count",
    "oscillation.profile.calls": "count",
    "oscillation.self_s": "s",
    "oscillation.osc.efficiency": "1/s",
    "beta.fit.calls": "count",
    "beta.fit.points": "count",
    "beta.fit.self_s": "s",
    "beta.in_ball_fraction": "ratio",
    "beta.scan.self_s": "s",
    "riesz.scan.rows": "count",
    "riesz.scan.self_s": "s",
    "riesz.kernel_points": "count",
    "riesz.kernel_s": "s",
    "riesz.bump_points": "count",
    "riesz.divergence.self_s": "s",
    "riesz.scan.efficiency": "1/s",
    "cli.run.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "count",
}

_INDICATOR = "domains.indicator"
_INTEGRAND = "quadrature.integrand"
_QUADRATURE_CALLS = ("quadrature.integrate_ball", "quadrature.integrate_box",
                     "quadrature.integrate_1d", "quadrature.sample_ball")
_BETA_FITS = ("beta.beta_p", "beta.beta_inf")
_BETA_SCANS = ("beta.osc_beta_compare", "beta.perimeter_beta_bound", "beta.carleson_scan")


def _npoints(value) -> int:
    """Points in an argument: rows of a (..., 2) or (..., 3) array, else its size."""
    if isinstance(value, np.ndarray):
        if value.ndim and value.shape[-1] in (2, 3):
            return value.size // value.shape[-1]
        return max(value.size, 1)
    return 1


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "group", "thread", "points", "info", "t0", "t1")

    def __init__(self, sid, parent, name, layer, group, points):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.group = group
        self.thread = threading.get_ident()
        self.points = points
        self.info = None
        self.t1 = None
        self.t0 = time.perf_counter()


class Tracer:
    """Records spans around heiskit calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()
        self._pool_parent = None

    # -- span stack -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _enter(self, name, layer, points=1, group=None, parent=None):
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main:
                parent = self._pool_parent
        span = Span(next(self._ids), parent.sid if parent else 0, name, layer, group, points)
        stack.append(span)
        return span

    def _exit(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, layer, group=None, before=None, after=None):
        """Span around fn.  A call made inside a span of the same group is not
        traced again, so nested core calls, and indicators that delegate to
        other indicators, are counted once."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur = tracer.current()
            if group is not None and cur is not None and cur.group == group:
                return fn(*args, **kwargs)
            span = tracer._enter(name, layer, max((_npoints(a) for a in args), default=1), group)
            try:
                if before is not None:
                    args = before(span, args)
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if after is not None:
                after(span, result)
            return result

        wrapper.__heiskit_traced__ = True
        return wrapper

    def _wrap_generator(self, fn, name, layer):
        """Generators do their work on iteration, so each step gets a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = tracer._enter(name, layer)
            tracer._exit(call)
            call.info = 0
            it = fn(*args, **kwargs)
            while True:
                step = tracer._enter(name + ".next", layer)
                try:
                    chunk = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(step)
                call.info += len(chunk)
                yield chunk

        wrapper.__heiskit_traced__ = True
        return wrapper

    def _integrand(self, f):
        """Wrap a quadrature integrand.  Its own work belongs to the layer
        that defined it."""
        tracer = self
        layer = (getattr(f, "__module__", "") or "").rpartition(".")[2]

        def integrand(pts):
            span = tracer._enter(_INTEGRAND, layer, _npoints(pts))
            try:
                return f(pts)
            finally:
                tracer._exit(span)

        return integrand

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install --------------------------------------------------------------

    def install(self) -> "Tracer":
        from heiskit import beta, cli, core, domains, oscillation, quadrature, riesz

        modules = {"core": core, "quadrature": quadrature, "domains": domains,
                   "oscillation": oscillation, "beta": beta, "riesz": riesz, "cli": cli}
        tracer = self

        def quadrature_before(span, args):
            tracer._pool_parent = span
            return (tracer._integrand(args[0]),) + tuple(args[1:])

        def quadrature_after(span, result):
            tracer._pool_parent = None
            span.info = result.n

        def keep(attr):
            def after(span, result):
                span.info = attr(result)
            return after

        def in_ball_after(span, mask):
            # an in-ball mask taken inside a plane fit tells how many of the
            # sample points handed to the fit were used
            fit = tracer.current()
            if fit is not None and fit.name in _BETA_FITS:
                inside, total = fit.info or (0, 0)
                fit.info = (inside + int(np.count_nonzero(mask)), total + int(np.size(mask)))

        hooks = {
            "quadrature.integrate_ball": dict(before=quadrature_before, after=quadrature_after),
            "quadrature.integrate_box": dict(before=quadrature_before, after=quadrature_after),
            "domains.surface_sample": dict(after=keep(lambda r: r.n)),
            "oscillation.osc": dict(after=keep(lambda r: r.stderr)),
            "riesz.testing_scan": dict(after=keep(lambda r: [row.op_stderr for row in r.rows])),
            "cli.render_csv": dict(after=keep(lambda r: len(r.encode()))),
            "cli.render_json": dict(after=keep(lambda r: len(r.encode()))),
        }

        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapped[fn] = self._wrap_generator(fn, name, layer)
                else:
                    group = "core" if layer == "core" else None
                    wrapped[fn] = self._wrap(fn, name, layer, group, **hooks.get(name, {}))
        # rebind every reference, including the names imported into other modules
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])

        self._patch(domains.IntrinsicGraph, "indicator",
                    self._wrap(domains.IntrinsicGraph.indicator, _INDICATOR, "domains", _INDICATOR))
        self._patch(domains.WeightedSample, "in_ball",
                    self._wrap(domains.WeightedSample.in_ball, "domains.WeightedSample.in_ball",
                               "domains", after=in_ball_after))
        oracle_init = domains.DomainOracle.__init__

        def init(oracle, indicator, label):
            if not getattr(indicator, "__heiskit_traced__", False):
                indicator = tracer._wrap(indicator, _INDICATOR, "domains", _INDICATOR)
            oracle_init(oracle, indicator, label)

        self._patch(domains.DomainOracle, "__init__", init)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write(self, path: str):
        """Save every span as one JSON array per line, gzip-compressed:
        [id, parent id, name, layer, thread, start s, end s, points]."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.parent, s.name, s.layer, s.thread, s.t0, s.t1, s.points]))
                fh.write("\n")

    @staticmethod
    def self_times(spans) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in spans:
            if s.parent:
                children[s.parent].append((s.t0, s.t1))
        out = {}
        for s in spans:
            covered = 0.0
            end = s.t0
            for a, b in sorted(children.get(s.sid, ())):
                a, b = max(a, end), min(b, s.t1)
                if b > a:
                    covered += b - a
                    end = b
            out[s.sid] = (s.t1 - s.t0) - covered
        return out

    @classmethod
    def metrics(cls, spans) -> dict[str, float]:
        """Per-layer metrics of a list of spans."""
        own = cls.self_times(spans)
        m = Counter()
        osc_eff, scan_eff = [], []
        inside = total = 0
        for s in spans:
            dur = s.t1 - s.t0
            m[f"{s.layer}.self_s"] += own[s.sid]
            if s.layer == "core":
                m["core.points"] += s.points
            elif s.name == _INTEGRAND:
                m["quadrature.integrand_s"] += dur
            elif s.name in _QUADRATURE_CALLS:
                m["quadrature.calls"] += 1
                m["quadrature.samples"] += s.info or 0
            elif s.name == _INDICATOR:
                m["domains.indicator_points"] += s.points
                m["domains.indicator_s"] += dur
            elif s.name == "domains.surface_sample":
                m["domains.surface_sample.calls"] += 1
                m["domains.surface_sample.samples"] += s.info or 0
                m["domains.surface_sample.self_s"] += own[s.sid]
            elif s.name == "domains.intrinsic_gradient":
                m["domains.gradient_points"] += s.points
            elif s.name == "oscillation.osc":
                m["oscillation.osc.calls"] += 1
                if s.info:
                    osc_eff.append(1.0 / (s.info**2 * dur))
            elif s.name == "oscillation.perimeter_profile":
                m["oscillation.profile.calls"] += 1
            elif s.name in _BETA_FITS:
                a, b = s.info or (0, 0)
                m["beta.fit.calls"] += 1
                m["beta.fit.points"] += a
                m["beta.fit.self_s"] += own[s.sid]
                inside += a
                total += b
            elif s.name in _BETA_SCANS:
                m["beta.scan.self_s"] += own[s.sid]
            elif s.name == "riesz.testing_scan":
                m["riesz.scan.rows"] += len(s.info)
                m["riesz.scan.self_s"] += own[s.sid]
                var = statistics.fmean(e * e for e in s.info) if s.info else 0.0
                if var > 0.0:
                    scan_eff.append(1.0 / (var * dur))
            elif s.name == "riesz.eval_kernel":
                m["riesz.kernel_points"] += s.points
                m["riesz.kernel_s"] += dur
            elif s.name in ("riesz.bump", "riesz.bump_dt"):
                m["riesz.bump_points"] += s.points
            elif s.name == "riesz.divergence_check":
                m["riesz.divergence.self_s"] += own[s.sid]
            elif s.name == "cli.run":
                m["cli.run.calls"] += 1
            elif s.name in ("cli.render_csv", "cli.render_json"):
                m["cli.output_bytes"] += s.info
        m["oscillation.osc.efficiency"] = statistics.median(osc_eff) if osc_eff else 0.0
        m["riesz.scan.efficiency"] = statistics.median(scan_eff) if scan_eff else 0.0
        m["beta.in_ball_fraction"] = inside / total if total else 0.0
        return {k: float(m[k]) for k in PER_LAYER}
