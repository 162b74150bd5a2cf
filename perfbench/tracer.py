"""Span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of the library's layers from the
outside: nothing in ``maassperiods`` knows about it.  Each wrapped call
records one span (name, start, end, parent span, transform id, batch size
and one layer-specific integer) in flat arrays; the spans stay in memory
until the run ends, when :func:`layer_metrics` reduces them and
:meth:`Tracer.save` writes them out.

Layers and the spans that stand for them:

* ``periods``: ``PeriodFunction.eval`` and ``NearlyPeriodicFunction.eval``
  (the transforms; ``__call__`` goes through ``eval``), and the classical
  ``eichler_polynomial`` / ``eichler_f``;
* ``quadrature``: ``integrate_form`` and ``integrate_ray``; the integrand
  they receive is wrapped too, so every integrand call is a child span;
* ``forms``: ``MaassForm.eval_many/raise_many/lower_many`` and
  ``reduce_to_fundamental_domain``;
* ``specfun``: ``WhittakerTable.__call__`` and ``__init__`` (table builds);
* ``kernel``: ``RKernel.eval_many`` and ``RKernel.eval_ray``;
* ``verify``: each suite function of ``verify.SUITES``.

Module-level functions are imported by name across the package
(``periods`` and ``verify`` bind ``integrate_form`` and friends), so a
function is replaced in every ``maassperiods`` module that holds it.  The
suite functions are replaced both in ``SUITES`` and as module globals, with
one wrapper object, so ``verify._call_suite``'s ``fn is suite_...``
dispatch keeps working.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

__all__ = ["Tracer", "install", "self_times", "layer_metrics", "BUCKETS", "PER_LAYER"]

# batch-size buckets for the per-point costs; b4096 holds only the fixed
# 4096-point probe (transform id PROBE_TID)
BUCKETS = ("b1", "b64", "b4096")
PROBE_TID = -1
TRANSFORM_SPANS = ("periods.P", "periods.f")
FORM_OPS = ("eval_many", "raise_many", "lower_many")
VERIFY_SUITES = ("branch", "group", "multiplier", "kernel", "ms", "quad", "periods", "classical")

# form labels stored with each forms.* span
EMBEDDING, ONE_SIDED, TWO_SIDED = 0, 1, 2


class Tracer:
    """Spans in flat arrays; ``enter``/``exit`` keep a stack for parents."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.tid = array("q")
        self.points = array("q")
        self.extra = array("q")
        self.stack: list = []
        self.transform_id = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int, points: int = 0, extra: int = 0) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_id)
        self.tid.append(self.transform_id)
        self.points.append(points)
        self.extra.append(extra)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def arrays(self) -> dict:
        floats = {k: np.array(getattr(self, k), dtype=float) for k in ("start", "end")}
        ints = {k: np.array(getattr(self, k), dtype=np.int64) for k in ("parent", "name", "tid", "points", "extra")}
        return {**floats, **ints}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# wrappers


def _size(value) -> int:
    return int(np.size(value))


def _form_label(form) -> int:
    backend = getattr(form, "backend", None)
    if getattr(form, "is_embedding", False):
        return EMBEDDING
    return TWO_SIDED if getattr(backend, "negative_coefficients", ()) else ONE_SIDED


def _span(tracer, fn, name, points=None, extra=None):
    """Wrap ``fn`` so each call is a span; ``points``/``extra`` read its arguments."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.enter(
            nid,
            points(*args, **kwargs) if points else 0,
            extra(*args, **kwargs) if extra else 0,
        )
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(idx)

    return traced


def _integrand(tracer, fn):
    nid = tracer.name_id("quadrature.integrand")

    def traced(arg):
        idx = tracer.enter(nid, _size(arg))
        try:
            return fn(arg)
        finally:
            tracer.exit(idx)

    return traced


def _quadrature(tracer, fn, name):
    """integrate_form / integrate_ray: wrap the integrand and keep the
    library's own evaluation count (``QuadratureResult.evaluations`` or the
    count a ``NonconvergenceError`` carries) in the span's extra slot."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(integrand, *args, **kwargs):
        idx = tracer.enter(nid)
        try:
            result = fn(_integrand(tracer, integrand), *args, **kwargs)
        except Exception as exc:
            tracer.extra[idx] = int(getattr(exc, "evaluations", 0) or 0)
            raise
        finally:
            tracer.exit(idx)
        tracer.extra[idx] = int(result.evaluations)
        return result

    return traced


def _transform(tracer, fn, name, seen):
    """P / f evaluation; extra = 1 when the (object, point) pair was asked
    for before, which together with "no quadrature inside" marks a cache hit."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(self, zeta, *args, **kwargs):
        key = (id(self), complex(zeta))
        repeat = key in seen
        seen.add(key)
        idx = tracer.enter(nid, 1, int(repeat))
        try:
            return fn(self, zeta, *args, **kwargs)
        finally:
            tracer.exit(idx)

    return traced


class Installation:
    """The attribute replacements made by :func:`install`; apply/undo are cheap."""

    def __init__(self):
        self._patches: list = []  # (target, attr, original, wrapper, is_dict)

    def add(self, target, attr, original, wrapper, is_dict=False):
        self._patches.append((target, attr, original, wrapper, is_dict))

    def apply(self):
        for target, attr, _, wrapper, is_dict in self._patches:
            if is_dict:
                target[attr] = wrapper
            else:
                setattr(target, attr, wrapper)

    def undo(self):
        for target, attr, original, _, is_dict in reversed(self._patches):
            if is_dict:
                target[attr] = original
            else:
                setattr(target, attr, original)


def install(tracer: Tracer) -> Installation:
    """Build the wrappers for every layer (not yet applied)."""
    from maassperiods import forms, kernel, periods, quadrature, specfun, verify

    inst = Installation()
    modules = [m for n, m in sorted(sys.modules.items()) if n == "maassperiods" or n.startswith("maassperiods.")]

    def rebind(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    inst.add(module, attr, original, wrapper)

    def method(cls, attr, wrapper):
        inst.add(cls, attr, cls.__dict__[attr], wrapper)

    seen: set = set()
    method(periods.PeriodFunction, "eval", _transform(tracer, periods.PeriodFunction.eval, "periods.P", seen))
    method(
        periods.NearlyPeriodicFunction,
        "eval",
        _transform(tracer, periods.NearlyPeriodicFunction.eval, "periods.f", seen),
    )
    for fn in (periods.eichler_polynomial, periods.eichler_f):
        rebind(fn, _span(tracer, fn, "periods.eichler"))

    rebind(quadrature.integrate_form, _quadrature(tracer, quadrature.integrate_form, "quadrature.integrate_form"))
    rebind(quadrature.integrate_ray, _quadrature(tracer, quadrature.integrate_ray, "quadrature.integrate_ray"))

    for op in FORM_OPS:
        original = getattr(forms.MaassForm, op)
        method(
            forms.MaassForm,
            op,
            _span(tracer, original, f"forms.{op}", points=lambda self, zs, *a, **k: _size(zs),
                  extra=lambda self, *a, **k: _form_label(self)),
        )
    reduce_fn = forms.reduce_to_fundamental_domain
    rebind(reduce_fn, _span(tracer, reduce_fn, "forms.reduce", points=lambda *a, **k: 1))

    table = specfun.WhittakerTable
    method(table, "__call__", _span(tracer, table.__call__, "specfun.table", points=lambda self, t: _size(t)))
    method(table, "__init__", _span(tracer, table.__init__, "specfun.table_build"))

    rk = kernel.RKernel
    method(rk, "eval_many", _span(tracer, rk.eval_many, "kernel.eval_many", points=lambda self, zs, zeta: _size(zs)))
    method(rk, "eval_ray", _span(tracer, rk.eval_ray, "kernel.eval_ray", points=lambda self, base, ts, zeta: _size(ts)))

    for name, fn in list(verify.SUITES.items()):
        wrapper = _span(tracer, fn, f"verify.{name}")
        inst.add(verify.SUITES, name, fn, wrapper, is_dict=True)
        rebind(fn, wrapper)
    return inst


# ---------------------------------------------------------------------------
# reduction


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the durations of its child spans.

    :class:`Tracer` records spans in one thread through a strict enter/exit
    stack, so children lie inside their parent and siblings never overlap.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = parent >= 0
    out -= np.bincount(parent[kids], weights=out[kids], minlength=len(out))
    return out


def _layer(name: str) -> str:
    if name == "quadrature.integrand":
        # the integrand closures are built by periods (and by verify for its
        # own closed-form checks); their glue arithmetic is periods self time
        return "periods"
    return name.split(".", 1)[0]


def _bucket(points: np.ndarray, tid: np.ndarray) -> np.ndarray:
    """Bucket index per span: 0 = b1, 1 = b64 (2..64 points), 2 = probe, -1 = none."""
    out = np.full(points.shape, -1, dtype=np.int64)
    workload = tid != PROBE_TID
    out[workload & (points == 1)] = 0
    out[workload & (points >= 2) & (points <= 64)] = 1
    out[~workload] = 2
    return out


def _nearest(parent: np.ndarray, is_target: np.ndarray) -> np.ndarray:
    """Index of the nearest ancestor-or-self span with ``is_target``, or -1."""
    out = np.where(is_target, np.arange(len(parent)), -1)
    cur = parent.copy()
    todo = (out < 0) & (cur >= 0)
    while np.any(todo):
        idx = np.nonzero(todo)[0]
        hit = is_target[cur[idx]]
        out[idx[hit]] = cur[idx[hit]]
        cur[idx] = parent[cur[idx]]
        todo = (out < 0) & (cur >= 0)
    return out


def _has_ancestor_in(parent: np.ndarray, layer: np.ndarray) -> np.ndarray:
    """True where some strict ancestor has the span's own layer code."""
    out = np.zeros(len(parent), dtype=bool)
    cur = parent.copy()
    todo = cur >= 0
    while np.any(todo):
        idx = np.nonzero(todo)[0]
        out[idx] |= layer[cur[idx]] == layer[idx]
        cur[idx] = parent[cur[idx]]
        todo = (cur >= 0) & ~out
    return out


def layer_metrics(tracer: Tracer, clock=None) -> dict:
    """Every per-layer metric of one traced run except ``trace.overhead_frac``.

    Workload spans are those outside the 4096-point probe; the roots among
    them (transforms, or verify suites) give the time the fractions divide.
    ``clock`` maps raw ``perf_counter`` times to another monotone time axis
    (the reference-speed axis of ``calibration.Normalizer.clock``).
    """
    arr = tracer.arrays()
    start, end = arr["start"], arr["end"]
    if clock is not None and len(start):
        start, end = clock(start), clock(end)
    names = np.array(tracer.names + ["<none>"], dtype=object)
    name_of = names[arr["name"]]
    dur = end - start
    self_t = self_times(start, end, arr["parent"])
    parent, tid, points, extra = arr["parent"], arr["tid"], arr["points"], arr["extra"]
    layers = sorted({_layer(n) for n in tracer.names})
    layer_of = np.array([layers.index(_layer(n)) for n in name_of], dtype=np.int64)
    workload = tid != PROBE_TID
    bucket = _bucket(points, tid)
    n = len(dur)

    is_transform = np.isin(name_of, TRANSFORM_SPANS)
    is_form_op = np.isin(name_of, [f"forms.{op}" for op in FORM_OPS])
    transform_of = _nearest(parent, is_transform)
    form_of = _nearest(parent, is_form_op)
    nested_in_same = _has_ancestor_in(parent, layer_of)
    root_time = float(np.sum(dur[workload & (parent < 0)]))

    def frac(seconds) -> float:
        return seconds / root_time if root_time > 0 else 0.0

    def total(mask) -> float:
        return float(np.sum(dur[mask]))

    def busy(layer) -> float:
        if layer not in layers:
            return 0.0
        return frac(total(workload & (layer_of == layers.index(layer)) & ~nested_in_same))

    def self_sum(layer) -> float:
        if layer not in layers:
            return 0.0
        return float(np.sum(self_t[workload & (layer_of == layers.index(layer))]))

    def per_point(mask) -> dict:
        out = {}
        for k, label in enumerate(BUCKETS):
            sel = mask & (bucket == k)
            pts = int(np.sum(points[sel]))
            out[label] = total(sel) / pts * 1e6 if pts else 0.0
        return out

    def ratio(num, den) -> float:
        return float(num) / den if den else 0.0

    m: dict = {}
    transforms = workload & is_transform
    quad = workload & np.isin(name_of, ("quadrature.integrate_form", "quadrature.integrate_ray"))
    integrand = workload & (name_of == "quadrature.integrand")
    quad_in_transform = quad & (transform_of >= 0)
    computed = np.zeros(n, dtype=bool)
    computed[transform_of[quad_in_transform]] = True
    n_computed = int(np.sum(computed))

    m["periods.transforms"] = int(np.sum(transforms))
    m["periods.self_frac"] = frac(self_sum("periods"))
    m["periods.cache_hits"] = int(np.sum(transforms & (extra == 1) & ~computed))

    n_calls = int(np.sum(integrand))
    quad_self = float(np.sum(self_t[quad]))
    m["quadrature.evals_per_transform"] = ratio(np.sum(extra[quad_in_transform]), n_computed)
    m["quadrature.calls_per_transform"] = ratio(np.sum(integrand & (transform_of >= 0)), n_computed)
    m["quadrature.points_per_call"] = ratio(np.sum(points[integrand]), n_calls)
    m["quadrature.self_us_per_call"] = ratio(quad_self * 1e6, n_calls)
    m["quadrature.self_frac"] = frac(quad_self)

    for op in FORM_OPS:
        mask = name_of == f"forms.{op}"
        m[f"forms.{op}.calls"] = int(np.sum(workload & mask))
        for label, value in per_point(mask).items():
            m[f"forms.{op}.us_per_pt.{label}"] = value
    m["forms.busy_frac"] = busy("forms")
    reduce_mask = workload & (name_of == "forms.reduce")
    m["forms.reduce.calls"] = int(np.sum(reduce_mask))
    m["forms.reduce.us_per_call"] = ratio(total(reduce_mask) * 1e6, m["forms.reduce.calls"])

    table = workload & (name_of == "specfun.table")
    m["specfun.table.calls"] = int(np.sum(table))
    table_parent_form = np.where(table, form_of, -1)
    for key, labels in (("", (ONE_SIDED, TWO_SIDED)), (".one_sided", (ONE_SIDED,)), (".two_sided", (TWO_SIDED,))):
        calls = workload & is_form_op & np.isin(extra, labels)
        under = int(np.sum(calls[table_parent_form[table_parent_form >= 0]]))
        m[f"specfun.table.calls_per_form_call{key}"] = ratio(under, int(np.sum(calls)))
    for label, value in per_point(name_of == "specfun.table").items():
        m[f"specfun.table.us_per_pt.{label}"] = value
    m["specfun.table.busy_frac"] = busy("specfun")
    builds = name_of == "specfun.table_build"
    m["specfun.table.build_ms"] = ratio(total(builds) * 1e3, int(np.sum(builds)))

    kern = np.isin(name_of, ("kernel.eval_many", "kernel.eval_ray"))
    m["kernel.calls"] = int(np.sum(workload & kern))
    for label, value in per_point(kern).items():
        m[f"kernel.us_per_pt.{label}"] = value
    m["kernel.busy_frac"] = busy("kernel")

    for suite in VERIFY_SUITES:
        m[f"verify.{suite}_s"] = total(workload & (name_of == f"verify.{suite}"))
    return m


PER_LAYER = (
    ["periods.transforms", "periods.self_frac", "periods.cache_hits"]
    + [
        "quadrature.evals_per_transform",
        "quadrature.calls_per_transform",
        "quadrature.points_per_call",
        "quadrature.self_us_per_call",
        "quadrature.self_frac",
    ]
    + [f"forms.{op}.calls" for op in FORM_OPS]
    + [f"forms.{op}.us_per_pt.{b}" for op in FORM_OPS for b in BUCKETS]
    + ["forms.busy_frac", "forms.reduce.calls", "forms.reduce.us_per_call"]
    + [
        "specfun.table.calls",
        "specfun.table.calls_per_form_call",
        "specfun.table.calls_per_form_call.one_sided",
        "specfun.table.calls_per_form_call.two_sided",
    ]
    + [f"specfun.table.us_per_pt.{b}" for b in BUCKETS]
    + ["specfun.table.busy_frac", "specfun.table.build_ms"]
    + ["kernel.calls"] + [f"kernel.us_per_pt.{b}" for b in BUCKETS] + ["kernel.busy_frac"]
    + [f"verify.{s}_s" for s in VERIFY_SUITES]
    + ["trace.overhead_frac"]
)
