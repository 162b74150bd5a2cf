"""Integration of 1-forms along hyperbolic geodesics and polylines.

A path is a chain of points, and each edge compiles to a parametrised
piece by its ends: a geodesic arc in hyperbolic-angle parametrisation
between two real points, a vertical ray up to INFINITY, and a straight
segment otherwise.  Every piece takes one
nested double-exponential rule (Takahasi & Mori, Publ. RIMS 9, 1974; Mori &
Sugihara, J. Comput. Appl. Math. 127, 2001), the trapezoid rule in w after
a map x(w) under which the integrand decays double exponentially at both
ends: exp-sinh t = exp(pi/2 sinh w) on a ray over (0, inf), sinh-sinh
s = sinh(pi/2 sinh w) on an arc between real points, tanh-sinh
t = 1 / (1 + exp(-pi sinh w)) on a segment.

Level 0 is one call, at step 1/16 over a range whose start the endpoint
mode sets (:func:`_start_floor`) and whose far end moves out from
t = ``_CUSP_HEIGHT`` (|s| = 4 on an arc) as the integrand's decay requires
(:func:`_extended`); its every other node gives the step-1/8 sum.  The
level-0 terms fix the truncation, and each further level is one call on
the new midpoints.  The reported error is the last level difference, plus
the truncated tails, plus ``_ACCURACY`` times the integral of |phi| for the
integrand's own accuracy.  An end that cannot be truncated below the
target raises NonconvergenceError: a truncation never passes silently.
Each piece's target is ``quad_tol`` times the integral of |phi| its first
call sees.

Many integrands of one shape run in lockstep (:func:`_lockstep`): each
integrand's rule is a generator that yields the nodes it needs next, and
each round is one call over the new nodes of every integrand not yet done.
Every integrand keeps its own budget, target, truncation, level, error and
note, and sums its own terms in its own order, so its result is the one it
has alone.  :func:`_integrate` is the one entry; :func:`integrate_form`
and :func:`integrate_ray` are its one-integrand case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULTS, Settings
from .errors import DivergentIntegralError, DomainError, NonconvergenceError
from .modgroup import INFINITY, GroupElement, moebius

__all__ = [
    "GeodesicPath",
    "QuadratureResult",
    "integrate_form",
    "geodesic_image",
]


@dataclass(frozen=True)
class QuadratureResult:
    """An integral and how it was taken.

    ``abs_error`` is the reported error bound, ``evaluations`` counts every
    integrand point, ``contour`` joins the pieces' notes with ``;`` and
    ``tol`` sums the absolute targets the pieces used.
    """

    value: complex
    abs_error: float
    evaluations: int
    contour: str
    tol: float


@dataclass(frozen=True)
class GeodesicPath:
    """A chain of ``points``, each edge typed by its ends.

    An edge between two real points is the geodesic arc, an edge to
    :data:`INFINITY` the vertical ray up from its finite end, and every
    other edge a straight segment.  INFINITY may only be the first or the
    last point, not both.  An edge from it (the image of a ray under
    :func:`geodesic_image`) raises DomainError when integrated.
    """

    points: tuple

    def __post_init__(self):
        pts = self.points
        if len(pts) < 2 or any(p is INFINITY for p in pts[1:-1]) or pts[0] is pts[-1] is INFINITY:
            raise DomainError("a path needs two points, and INFINITY at one end at most")


def geodesic_image(path: GeodesicPath, g: GroupElement) -> GeodesicPath:
    """The image of a path under a fractional linear map.

    Only a path between boundary points (real or INFINITY), whose edges are
    arcs and rays, maps to a path; a point of the half-plane, as on a
    straight edge, raises DomainError.
    """
    if any(p is not INFINITY and complex(p).imag != 0.0 for p in path.points):
        raise DomainError("only paths between boundary points are geodesics; map their points instead")
    return GeodesicPath(tuple(moebius(g, p) for p in path.points))


# ---------------------------------------------------------------------------
# evaluation budget


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int):
        self.used += n
        if self.used > self.limit:
            raise NonconvergenceError(0.0, float("inf"), self.used)


# ---------------------------------------------------------------------------
# the double-exponential core

_H0 = 0.0625  # level-0 step in w
_CUSP_HEIGHT = 12.0  # where level 0 of a ray first ends
_MAX_LEVEL = 9
# relative accuracy of the integrands' own evaluation (Delta's reduction and
# q-series, the surrogate's Whittaker tables), as a share of int |phi|
_ACCURACY = 2.0**-40
_EPS = np.finfo(float).eps
_sum = np.add.reduce  # np.sum of a 1-d array without its wrapper: the same pairwise sum


class _Map(NamedTuple):
    """A double-exponential map: ``nodes(w) -> (x, dx/dw)`` and its inverse."""

    name: str
    var: str
    nodes: Callable
    w_of: Callable


def _exp_sinh(w):
    t = np.exp(0.5 * np.pi * np.sinh(w))
    return t, t * (0.5 * np.pi) * np.cosh(w)


def _sinh_sinh(w):
    u = 0.5 * np.pi * np.sinh(w)
    return np.sinh(u), np.cosh(u) * (0.5 * np.pi) * np.cosh(w)


def _tanh_sinh(w):
    # t and 1 - t each from its own exponential, so both ends keep their
    # relative accuracy
    u = np.pi * np.sinh(w)
    t, rest = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))
    return t, t * rest * np.pi * np.cosh(w)


_EXP_SINH = _Map("exp-sinh", "t", _exp_sinh, lambda t: math.asinh(2.0 * math.log(t) / math.pi))
_SINH_SINH = _Map("sinh-sinh", "s", _sinh_sinh, lambda s: math.asinh(2.0 * math.asinh(s) / math.pi))
_TANH_SINH = _Map("tanh-sinh", "t", _tanh_sinh, lambda t: math.asinh(math.log(t / (1.0 - t)) / math.pi))


def _start_floor(mode) -> float:
    """The smallest parameter level 0 reaches at a start in this endpoint mode.

    For |phi| ~ t^alpha the level-0 term there is about t^(1 + Re alpha); the
    floor puts it near 1e-40 of the integrand's scale (a regular start has
    alpha = 0).  Cusp decay e^(-c/t) stops at 1e-8, below which
    fundamental-domain reduction loses its integer matrices; a power law of
    unknown exponent ("log") at 1e-30.  Level 0 cuts what it does not need.
    """
    if mode is None:
        mode = ("power", 0.0)
    tag = mode[0]
    if tag == "power":
        a = 1.0 + complex(mode[1]).real
        if a <= 0.0:
            raise DivergentIntegralError(f"endpoint exponent {mode[1]} has real part <= -1")
        return 10.0 ** max(-300.0, -40.0 / a)
    if tag == "exp":
        return 1e-8
    if tag == "log":
        return 1e-30
    raise ValueError(f"unknown endpoint mode {mode!r}")


def _terms(w, budget: _Budget):
    """(x(w), phi(x(w)) dx/dw) at the nodes w, spent from the budget and
    asked of :func:`_lockstep` in one yield."""
    budget.spend(w.size)
    return (yield w)


def _extended(rule: _Map, node, j, x, g, side: int, cap: float, tau: float, budget: _Budget):
    """Level-0 indices, parameters and terms, moved out past the ``side``
    end (+1 the far end, -1 the start, for an odd map) until its term is
    below tau and below its neighbour's, one call per move: as far as the
    decay rate of |phi| between the last two nodes says, or by 1/2 in w
    where |phi| does not decay yet.  Raises NonconvergenceError past
    |w| = ``cap``.
    """
    while True:
        end, inner = (-1, -2) if side > 0 else (0, 1)
        m_end, m_inner = abs(g[end]), abs(g[inner])
        if _H0 * m_end <= tau and m_end <= m_inner:
            return j, x, g
        w_end = node(0, j[end])
        room = math.floor((cap - side * w_end) / _H0 + 1e-9)
        if room < 1:
            raise NonconvergenceError(0.0, float("inf"), budget.used)
        (x_end, x_inner), (dx_end, dx_inner) = rule.nodes(node(0, j[[end, inner]]))
        p_end, p_inner = m_end / abs(dx_end), m_inner / abs(dx_inner)
        steps = round(0.5 / _H0)
        if p_end < p_inner:
            rate = math.log(p_inner / p_end) / abs(x_end - x_inner)
            reach = rule.w_of(abs(x_end) + math.log(_H0 * m_end / tau) / rate)
            steps = max(1, math.ceil((reach - side * w_end) / _H0))
        steps = min(room, steps)
        j_new = j[end] + side * np.arange(1, steps + 1)
        x_new, g_new = yield from _terms(node(0, j_new), budget)
        if side > 0:
            j, x, g = (np.concatenate([old, new]) for old, new in ((j, j_new), (x, x_new), (g, g_new)))
        else:
            j, x, g = (np.concatenate([new[::-1], old]) for old, new in ((j, j_new), (x, x_new), (g, g_new)))


def _double_exponential(rule: _Map, w_lo: float, level0: tuple, caps, quad_tol: float, budget: _Budget):
    """Integrate phi(x) dx over the map's whole range, for one integrand of
    a batch: a generator that yields the nodes w of each call and is sent
    their terms (see :func:`_lockstep`), and returns (value, error, note, tol).

    Level 0 evaluates w = w_lo + j/16 at the indices j = 0, 1, ... up to the
    first node at or past where level 0 ends, ``level0`` = (j, w) for every
    integrand of the piece; its integral of |phi|, the mass, sets
    tol = quad_tol * max(mass, 1e-50) (see :func:`integrate_form`).  An end
    with a ``caps`` entry (|w| bound, or None for a fixed end) may then move
    out (see :func:`_extended`).  Every node of level L, at the start, the far
    ends and the midpoints alike, is w_lo + (1/16) m / 2^L for an integer
    m: the same float in every call with this w_lo, whatever the
    truncation.
    """
    node = lambda level, m: w_lo + (_H0 / 2**level) * m
    j, w = level0
    x, g = yield from _terms(w, budget)
    mag = np.abs(g)
    mass = _H0 * float(_sum(mag))
    if not math.isfinite(mass):
        raise NonconvergenceError(0.0, float("inf"), budget.used)
    tol = quad_tol * max(mass, 1e-50)
    tau = tol / 8.0
    for side, cap in zip((-1, +1), caps):
        if cap is not None:
            j, x, g = yield from _extended(rule, node, j, x, g, side, cap, tau, budget)
    if mag.size != g.size:  # an end moved out; the mass vouched for the rest
        mag = np.abs(g)
        if not np.isfinite(mag).all():
            raise NonconvergenceError(0.0, float("inf"), budget.used)
    m = _H0 * mag
    # the outermost nodes whose terms sum to at most tau on each side are
    # cut; the sum up to the kept range's end node bounds the mass beyond it
    lo_mass, hi_mass = m.cumsum(), m[::-1].cumsum()
    cut_lo = int(lo_mass.searchsorted(tau, "right"))
    cut_hi = int(hi_mass.searchsorted(tau, "right"))
    for cut, outer, inner in ((cut_lo, 0, 1), (cut_hi, -1, -2)):
        if cut == 0 or m[outer] > m[inner]:
            raise NonconvergenceError(0.0, float("inf"), budget.used)
    n = j.size
    a, b = cut_lo - 1, n - cut_hi
    if a >= b:  # every level-0 term is in a tail
        return _H0 * complex(_sum(g)), float(_sum(m)), f"{rule.name} level 0 (negligible)", tol
    # the bookkeeping from here on in Python floats: the same IEEE arithmetic,
    # without numpy's scalar overhead
    tails = float(lo_mass[a]) + float(hi_mass[n - 1 - b])
    x_lo, x_hi = float(x[a]), float(x[b])
    total = complex(_sum(g[a : b + 1]))
    size = float(_sum(mag[a : b + 1]))
    h, level = _H0, 0
    # the step 1/8 sum drops node b when b - a is odd: at most 2 tau more
    # level difference, since that node's term counts in the tail
    previous, value = 2.0 * _H0 * complex(_sum(g[a : b + 1 : 2])), _H0 * total
    while True:
        diff = abs(value - previous)
        # the target must hold above the rounding of the sum itself; the
        # integrand's own accuracy is reported on top of it
        if diff + tails + _EPS * h * size <= tol:
            note = f"{rule.name} level {level} {rule.var} in [{x_lo:.3g}, {x_hi:.3g}]"
            return value, diff + tails + _ACCURACY * h * size, note, tol
        if level == _MAX_LEVEL:
            raise NonconvergenceError(value, diff + tails, budget.used)
        level += 1
        h = _H0 / 2**level
        try:
            _, g_new = yield from _terms(node(level, np.arange(j[a] * 2**level + 1, j[b] * 2**level, 2)), budget)
        except NonconvergenceError as exc:
            raise NonconvergenceError(value, float("inf"), budget.used) from exc
        total += complex(_sum(g_new))
        size += float(_sum(np.abs(g_new)))
        previous, value = value, h * total


# ---------------------------------------------------------------------------
# lockstep rounds


def _lockstep(phi, rule: _Map, runs: dict) -> dict:
    """Drive the :func:`_double_exponential` generators of one piece, keyed
    by integrand: each round is one call ``phi(x, owners)`` on the
    concatenated new nodes of every run not yet done, ``owners`` naming
    each node's run (the one key when one run is left), and each run is
    sent its own contiguous slices of the parameters x and the terms.
    Returns each run's return value or the exception it raised.

    An integrand call that raises goes back into its run when that run is
    alone, as into a one-integrand quadrature; with several runs it is
    raised, since the node that failed has no one run to go to.
    """
    out, asked = {}, {}

    def step(key, resume, arg):
        try:
            asked[key] = resume(arg)
        except StopIteration as stop:
            out[key] = stop.value
        except Exception as exc:
            out[key] = exc

    for key, run in runs.items():
        step(key, run.send, None)
    while asked:
        keys, ws = list(asked), list(asked.values())
        asked.clear()
        sizes = [w.size for w in ws]
        x, dx = rule.nodes(ws[0] if len(ws) == 1 else np.concatenate(ws))
        owners = keys[0] if len(keys) == 1 else np.repeat(keys, sizes)
        try:
            g = np.asarray(phi(x, owners), dtype=complex) * dx
        except Exception as exc:
            if len(keys) > 1:
                raise
            step(keys[0], runs[keys[0]].throw, exc)
            continue
        end = 0
        for key, size in zip(keys, sizes):
            end += size
            step(key, runs[key].send, (x[end - size : end], g[end - size : end]))
    return out


# ---------------------------------------------------------------------------
# pieces


class _Piece(NamedTuple):
    """One edge of every path of a batch.

    ``w_lo(start_mode)`` is where level 0 starts, ``w_hi`` where it first
    ends, ``caps`` the bounds of its movable ends; ``point(t, owners) ->
    (z, dz/dt)`` takes the pulled-back integrand to the plane (None for a
    bare parameter), and ``signs`` orient the arcs.
    """

    name: str
    rule: _Map
    w_lo: Callable
    w_hi: float
    caps: tuple
    point: Callable | None = None
    signs: list | None = None


def _pullback(omega, point):
    """phi(t, owners) = A z' + B conj(z') along a piece, ``point(t, owners) -> (z, z')``."""

    def phi(t, owners):
        z, velocity = point(np.asarray(t, dtype=float), owners)
        av, bv = omega(z, owners)
        return av * velocity + bv * np.conj(velocity)

    return phi


def _ray_piece(bases=None) -> _Piece:
    """exp-sinh over (0, inf) up from each base, the far end starting at
    ``_CUSP_HEIGHT``; without bases the integrand takes t itself."""
    point = None if bases is None else (lambda t, o: (bases[o] + 1j * t, 1j))
    w_lo = lambda smode: _EXP_SINH.w_of(_start_floor(smode))
    return _Piece("ray", _EXP_SINH, w_lo, _EXP_SINH.w_of(_CUSP_HEIGHT), (None, _EXP_SINH.w_of(1e7)), point)


_BARE_RAY = _ray_piece()


def _compile(paths) -> list:
    """One piece per edge, the edges of each index of one kind across the paths."""
    return [_edge_piece(edges) for edges in zip(*(zip(p.points[:-1], p.points[1:]) for p in paths))]


def _edge_kind(p, q) -> str:
    if p is INFINITY:
        raise DomainError("an edge from INFINITY is not integrated; integrate its reverse and negate")
    if q is INFINITY:
        return "ray"
    p, q = complex(p), complex(q)
    if p.imag == 0.0 and q.imag == 0.0:
        if p == q:
            raise DomainError("degenerate geodesic")
        return "arc"
    return "segment"


def _edge_piece(edges) -> _Piece:
    kinds = {_edge_kind(p, q) for p, q in edges}
    if len(kinds) > 1:
        raise ValueError(f"one edge of a batch of paths is of several kinds: {sorted(kinds)}")
    (kind,) = kinds
    if kind == "ray":
        return _ray_piece(np.array([complex(p) for p, _ in edges]))
    p, q = (np.array([complex(e[i]) for e in edges]) for i in (0, 1))
    if kind == "segment":
        # the far end t = 1 is regular, and the map is odd in w: it ends where a
        # regular start would
        d = q - p
        w_lo = lambda smode: _TANH_SINH.w_of(_start_floor(smode))
        return _Piece(kind, _TANH_SINH, w_lo, -w_lo(None), (None, None), lambda t, o: (p[o] + t * d[o], d[o]))
    a, b = p.real, q.real
    c, r = 0.5 * (a + b), 0.5 * np.abs(b - a)

    def point(s, o):
        # the geodesic c + r tanh s + i r sech s, s in R, and its velocity
        sech, tanh = 1.0 / np.cosh(s), np.tanh(s)
        return c[o] + r[o] * tanh + 1j * r[o] * sech, r[o] * sech * (sech - 1j * tanh)

    # level 0 starts at |s| <= 4, where a cusp's decay has long set in; its
    # ends may move out to |s| = 700, short of the underflow of sech s; the
    # parametrisation runs left to right
    w_start, w_cap = _SINH_SINH.w_of(4.0), _SINH_SINH.w_of(700.0)
    signs = [-1.0 if x > y else 1.0 for x, y in zip(a.tolist(), b.tolist())]
    return _Piece(kind, _SINH_SINH, lambda smode: -w_start, w_start, (w_cap, w_cap), point, signs)


# ---------------------------------------------------------------------------
# entry points


def integrate_form(
    omega,
    path: GeodesicPath,
    start_mode=None,
    settings: Settings = DEFAULTS,
) -> QuadratureResult:
    """Integrate a 1-form A dz + B dzbar along a path.

    ``omega`` maps a z-array to the coefficient arrays (A, B).
    ``start_mode`` describes the integrand at the path's first point and
    sets where level 0 starts there: ``("power", alpha)`` for an integrable
    |t|^alpha endpoint (Re alpha <= -1 raises DivergentIntegralError),
    ``("exp",)`` for cusp decay e^(-c/t), ``("log",)`` for a power law of
    unknown exponent at a boundary point (see :func:`_start_floor`).
    Segments take tanh-sinh, rays exp-sinh from their base and arcs
    between real points sinh-sinh.  Each piece aims at ``settings.quad_tol``
    times its own integral of |phi|, at least 1e-50 of it: the Whittaker
    tables return W below 1e-60 as zero, and a target relative to what is
    left would chase that cutoff.  The result's ``tol`` sums the targets
    the pieces used.  ``settings.max_evals`` caps the evaluations of the
    whole path.
    """
    return _one(_integrate(lambda zs, owners: omega(zs), _compile([path]), 1, start_mode, settings))


def integrate_ray(
    phi,
    start_mode=None,
    settings: Settings = DEFAULTS,
) -> QuadratureResult:
    """Integrate a pulled-back integrand phi(t) over t in (0, infinity).

    For transforms whose contour starts at a point of the half-plane the
    caller keeps the parametrisation, so the integrand can form its
    differences in exact offset coordinates where base + i t would lose
    the offset to rounding.  ``start_mode`` and ``settings`` are as in
    :func:`integrate_form`.
    """
    return _one(_integrate(lambda ts, owners: phi(ts), [_BARE_RAY], 1, start_mode, settings))


def _one(outcomes: list) -> QuadratureResult:
    (out,) = outcomes
    if isinstance(out, Exception):
        raise out
    return out


@lru_cache(maxsize=64)
def _level0(w_lo: float, w_hi: float) -> tuple:
    """(j, w) of level 0 from w_lo to the first node at or past w_hi, built
    once per pair and shared by every integral that starts there, so both
    arrays are read-only."""
    j = np.arange(math.ceil((w_hi - w_lo) / _H0) + 1)
    w = w_lo + _H0 * j
    j.flags.writeable = w.flags.writeable = False
    return j, w


def _integrate(integrand, pieces, count: int, start_mode, settings: Settings) -> list:
    """``count`` integrals in lockstep, over ``_compile(paths)`` for paths of
    one shape (``integrand(zs, owners) -> (A, B)``) or over ``[_BARE_RAY]``
    (``integrand(ts, owners) -> phi``), ``owners[i]`` the integral node i
    belongs to.  The pieces run in turn, the start mode on the first, and
    sum per integral, each with its own budget, target and note.  Returns
    one QuadratureResult per integral, or the exception it raised."""
    budgets = [_Budget(settings.max_evals) for _ in range(count)]
    totals, errors, tols = [0.0 + 0.0j] * count, [0.0] * count, [0.0] * count
    notes = [[] for _ in range(count)]
    failed = {}
    for k, piece in enumerate(pieces):
        w_lo = piece.w_lo(start_mode if k == 0 else None)
        level0 = _level0(w_lo, piece.w_hi)
        runs = {
            i: _double_exponential(piece.rule, w_lo, level0, piece.caps, settings.quad_tol, budgets[i])
            for i in range(count)
            if i not in failed
        }
        phi = integrand if piece.point is None else _pullback(integrand, piece.point)
        for i, got in _lockstep(phi, piece.rule, runs).items():
            if isinstance(got, NonconvergenceError):
                failed[i] = NonconvergenceError(totals[i] + got.partial, float("inf"), budgets[i].used)
                failed[i].__cause__ = got
            elif isinstance(got, Exception):
                failed[i] = got
            else:
                val, err, note, piece_tol = got
                totals[i] += val if piece.signs is None else piece.signs[i] * val
                errors[i] += err
                tols[i] += piece_tol
                notes[i].append(f"{piece.name} {note}")
    return [
        failed[i] if i in failed else QuadratureResult(totals[i], errors[i], budgets[i].used, ";".join(notes[i]), tols[i])
        for i in range(count)
    ]
