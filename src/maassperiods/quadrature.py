"""Integration of 1-forms along hyperbolic geodesics and polylines.

Paths compile to parametrised pieces: straight segments, vertical rays and
geodesic arcs in hyperbolic-angle parametrisation.  Every piece takes one
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
call sees; an explicit ``tol`` is absolute, split evenly between pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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
    value: complex
    abs_error_estimate: float
    evaluations: int
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GeodesicPath:
    """A vertical ray, a geodesic arc, or a polyline of straight pieces.

    Arc endpoints are real numbers or :data:`INFINITY`, and mean the full
    geodesic into that point; an interior endpoint raises DomainError
    (transforms from an interior point pull their integrand back along
    their own contour and call ``integrate_ray``).
    Polyline vertices are finite (the first may be real); an
    :data:`INFINITY` final vertex appends a vertical ray.
    """

    kind: str
    points: tuple

    @classmethod
    def vertical_ray(cls, base: complex) -> "GeodesicPath":
        """The upward ray from ``base`` to :data:`INFINITY`."""
        return cls("vertical_ray", (complex(base), INFINITY))

    @classmethod
    def arc(cls, e1, e2) -> "GeodesicPath":
        return cls("arc", (e1, e2))

    @classmethod
    def polyline(cls, vertices: Sequence) -> "GeodesicPath":
        vertices = tuple(vertices)
        if any(v is INFINITY for v in vertices[:-1]):
            raise DomainError("INFINITY may only terminate a polyline")
        return cls("polyline", vertices)


def geodesic_image(path: GeodesicPath, g: GroupElement) -> GeodesicPath:
    """The image geodesic under a fractional linear map (rays and arcs only)."""
    if path.kind == "polyline":
        raise DomainError("polylines are not geodesics; map their vertices instead")
    e1, e2 = path.points
    return GeodesicPath.arc(moebius(g, e1), moebius(g, e2))


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
        return 10.0 ** max(-300.0, -40.0 / min(1.0, a))
    if tag == "exp":
        return 1e-8
    if tag == "log":
        return 1e-30
    raise ValueError(f"unknown endpoint mode {mode!r}")


def _terms(phi, rule: _Map, w, budget: _Budget) -> np.ndarray:
    """phi(x(w)) dx/dw at the nodes w, from one call to phi."""
    budget.spend(w.size)
    x, dx = rule.nodes(w)
    return np.asarray(phi(x), dtype=complex) * dx


def _extended(phi, rule: _Map, w, g, side: int, cap: float, tau: float, budget: _Budget):
    """Level-0 nodes and terms, moved out past the ``side`` end (+1 the far
    end, -1 the start, for an odd map) until its term is below tau and
    below its neighbour's, one call per move: as far as the decay rate of
    |phi| between the last two nodes says, or by 1/2 in w where |phi| does
    not decay yet.  Raises NonconvergenceError past |w| = ``cap``.
    """
    while True:
        end, inner = (-1, -2) if side > 0 else (0, 1)
        m_end, m_inner = abs(g[end]), abs(g[inner])
        if _H0 * m_end <= tau and m_end <= m_inner:
            return w, g
        room = math.floor((cap - side * w[end]) / _H0 + 1e-9)
        if room < 1:
            raise NonconvergenceError(0.0, float("inf"), budget.used)
        (x_end, x_inner), (dx_end, dx_inner) = rule.nodes(w[[end, inner]])
        p_end, p_inner = m_end / abs(dx_end), m_inner / abs(dx_inner)
        steps = round(0.5 / _H0)
        if p_end < p_inner:
            rate = math.log(p_inner / p_end) / abs(x_end - x_inner)
            reach = rule.w_of(abs(x_end) + math.log(_H0 * m_end / tau) / rate)
            steps = max(1, math.ceil((reach - side * w[end]) / _H0))
        steps = min(room, steps)
        w_new = w[end] + side * _H0 * np.arange(1, steps + 1)
        g_new = _terms(phi, rule, w_new, budget)
        if side > 0:
            w, g = np.concatenate([w, w_new]), np.concatenate([g, g_new])
        else:
            w, g = np.concatenate([w_new[::-1], w]), np.concatenate([g_new[::-1], g])


def _double_exponential(phi, rule: _Map, w_lo: float, w_hi: float, caps, target, budget: _Budget):
    """Integrate phi(x) dx over the map's whole range.

    Level 0 evaluates w = w_lo + j/16 up to the first node at or past w_hi;
    its integral of |phi| sets tol = ``target(mass)``.  An end with a
    ``caps`` entry (|w| bound, or None for a fixed end) may then move out
    (see :func:`_extended`).  Returns (value, error, note, tol).
    """
    w = w_lo + _H0 * np.arange(math.ceil((w_hi - w_lo) / _H0) + 1)
    g = _terms(phi, rule, w, budget)
    mass = _H0 * float(np.sum(np.abs(g)))
    if not math.isfinite(mass):
        raise NonconvergenceError(0.0, float("inf"), budget.used)
    tol = target(mass)
    tau = tol / 8.0
    for side, cap in zip((-1, +1), caps):
        if cap is not None:
            w, g = _extended(phi, rule, w, g, side, cap, tau, budget)
    m = _H0 * np.abs(g)
    if not np.all(np.isfinite(m)):
        raise NonconvergenceError(0.0, float("inf"), budget.used)
    # the outermost nodes whose terms sum to at most tau on each side are
    # cut; the sum up to the kept range's end node bounds the mass beyond it
    lo_mass, hi_mass = np.cumsum(m), np.cumsum(m[::-1])
    cut_lo = int(np.searchsorted(lo_mass, tau, side="right"))
    cut_hi = int(np.searchsorted(hi_mass, tau, side="right"))
    for cut, outer, inner in ((cut_lo, 0, 1), (cut_hi, -1, -2)):
        if cut == 0 or m[outer] > m[inner]:
            raise NonconvergenceError(0.0, float("inf"), budget.used)
    n = w.size
    a, b = cut_lo - 1, n - cut_hi
    if a >= b:  # every level-0 term is in a tail
        return _H0 * complex(np.sum(g)), float(np.sum(m)), f"{rule.name} level 0 (negligible)", tol
    tails = lo_mass[a] + hi_mass[n - 1 - b]
    x_lo, x_hi = rule.nodes(w[[a, b]])[0]
    total = complex(np.sum(g[a : b + 1]))
    size = float(np.sum(np.abs(g[a : b + 1])))
    h, level = _H0, 0
    # the step 1/8 sum drops node b when b - a is odd: at most 2 tau more
    # level difference, since that node's term counts in the tail
    previous, value = 2.0 * _H0 * complex(np.sum(g[a : b + 1 : 2])), _H0 * total
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
        w_new = w[a] + h * (2 * np.arange((b - a) * 2 ** (level - 1)) + 1)
        try:
            g_new = _terms(phi, rule, w_new, budget)
        except NonconvergenceError as exc:
            raise NonconvergenceError(value, float("inf"), budget.used) from exc
        total += complex(np.sum(g_new))
        size += float(np.sum(np.abs(g_new)))
        previous, value = value, h * total


# ---------------------------------------------------------------------------
# pieces


def _pullback(omega, point):
    """phi(t) = A z' + B conj(z') along a piece, ``point(t) -> (z, z')``."""

    def phi(t):
        z, velocity = point(np.asarray(t, dtype=float))
        av, bv = omega(z)
        return av * velocity + bv * np.conj(velocity)

    return phi


def _arc_point(c: float, r: float):
    """The geodesic c + r tanh s + i r sech s, s in R, and its velocity."""

    def point(s):
        sech, tanh = 1.0 / np.cosh(s), np.tanh(s)
        return c + r * tanh + 1j * r * sech, r * sech * (sech - 1j * tanh)

    return point


# ---------------------------------------------------------------------------
# public entry point


def integrate_form(
    omega,
    path: GeodesicPath,
    tol: float | None = None,
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
    between real points sinh-sinh.  With ``tol`` None each piece aims at
    ``quad_tol`` times its own integral of |phi|, at least 1e-50 of it: the
    Whittaker tables return W below 1e-60 as zero, and a target relative to
    what is left would chase that cutoff.  An explicit tol is absolute and
    split evenly between the pieces.  ``metadata["tol"]`` sums the targets
    the pieces used.  ``settings.max_evals`` caps the evaluations of the
    whole path.
    """
    return _integrate(omega, _compile(path), tol, start_mode, settings)


def integrate_ray(
    phi,
    tol: float | None = None,
    start_mode=None,
    settings: Settings = DEFAULTS,
) -> QuadratureResult:
    """Integrate a pulled-back integrand phi(t) over t in (0, infinity).

    For transforms whose contour starts at a point of the half-plane the
    caller keeps the parametrisation, so the integrand can form its
    differences in exact offset coordinates where base + i t would lose
    the offset to rounding.  ``tol`` and ``start_mode`` are as in
    :func:`integrate_form`.
    """
    return _integrate(phi, [_ray], tol, start_mode, settings)


def _integrate(integrand, pieces, tol, start_mode, settings: Settings) -> QuadratureResult:
    """Run the pieces in turn, the start mode on the first, and sum what they return."""
    budget = _Budget(settings.max_evals)
    relative = lambda mass: settings.quad_tol * max(mass, 1e-50)
    target = relative if tol is None else lambda mass: tol / len(pieces)
    total = 0.0 + 0.0j
    total_err = total_tol = 0.0
    notes = []
    try:
        for i, piece in enumerate(pieces):
            val, err, note, piece_tol = piece(integrand, target, budget, start_mode if i == 0 else None)
            total += val
            total_err += err
            total_tol += piece_tol
            notes.append(note)
    except NonconvergenceError as exc:
        raise NonconvergenceError(total + exc.partial, float("inf"), budget.used) from exc
    return QuadratureResult(total, total_err, budget.used, {"pieces": notes, "tol": total_tol})


def _ray(phi, target, budget, smode):
    """exp-sinh over (0, inf), the far end starting at ``_CUSP_HEIGHT``."""
    w_lo = _EXP_SINH.w_of(_start_floor(smode))
    w_far = _EXP_SINH.w_of(_CUSP_HEIGHT)
    val, err, note, tol = _double_exponential(phi, _EXP_SINH, w_lo, w_far, (None, _EXP_SINH.w_of(1e7)), target, budget)
    return val, err, f"ray {note}", tol


def _compile(path: GeodesicPath) -> list:
    """One runner per piece: (omega, target, budget, start_mode) -> (value, error, note, tol)."""
    if path.kind == "vertical_ray":
        return [_make_ray(path.points[0])]
    if path.kind == "arc":
        return [_make_arc(*path.points)]
    pts = path.points
    return [
        _make_ray(complex(p)) if q is INFINITY else _make_segment(complex(p), complex(q))
        for p, q in zip(pts[:-1], pts[1:])
    ]


def _make_segment(z0: complex, z1: complex) -> Callable:
    d = z1 - z0
    point = lambda t: (z0 + t * d, d)
    # the far end t = 1 is regular, and the map is odd in w: it ends where a
    # regular start would
    w_hi = -_TANH_SINH.w_of(_start_floor(None))

    def run(omega, target, budget, smode):
        phi = _pullback(omega, point)
        w_lo = _TANH_SINH.w_of(_start_floor(smode))
        val, err, note, tol = _double_exponential(phi, _TANH_SINH, w_lo, w_hi, (None, None), target, budget)
        return val, err, f"segment {note}", tol

    return run


def _make_ray(base: complex) -> Callable:
    point = lambda t: (base + 1j * t, 1j)
    return lambda omega, target, budget, smode: _ray(_pullback(omega, point), target, budget, smode)


def _make_arc(e1, e2) -> Callable:
    if any(e is not INFINITY and complex(e).imag != 0.0 for e in (e1, e2)):
        raise DomainError(
            "arc endpoints must be real or INFINITY; a transform from an "
            "interior point integrates its own pulled-back integrand"
        )
    if e1 is INFINITY and e2 is INFINITY:
        raise DomainError("a geodesic needs a finite endpoint")
    if e2 is INFINITY:
        return _make_ray(complex(e1))
    if e1 is INFINITY:
        inner = _make_ray(complex(e2))

        def run(omega, target, budget, smode):
            val, err, note, tol = inner(omega, target, budget, smode)
            return -val, err, note + " reversed", tol

        return run
    a, b = complex(e1).real, complex(e2).real
    if a == b:
        raise DomainError("degenerate geodesic")
    point = _arc_point(0.5 * (a + b), 0.5 * abs(b - a))
    sign = -1.0 if a > b else 1.0  # the parametrisation runs left to right
    # level 0 starts at |s| <= 4, where a cusp's decay has long set in; its
    # ends may move out to |s| = 700, short of the underflow of sech s
    w_start, w_cap = _SINH_SINH.w_of(4.0), _SINH_SINH.w_of(700.0)

    def run(omega, target, budget, smode):
        phi = _pullback(omega, point)
        val, err, note, tol = _double_exponential(phi, _SINH_SINH, -w_start, w_start, (w_cap, w_cap), target, budget)
        return sign * val, err, f"arc {note}", tol

    return run
