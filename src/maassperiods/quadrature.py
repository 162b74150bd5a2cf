"""Adaptive integration of 1-forms along hyperbolic geodesics and polylines.

Paths compile to smooth parametrised pieces (straight segments, vertical
rays, geodesic arcs in hyperbolic-angle parametrisation).  Cusp ends are
truncated by magnitude walks with a tail estimate folded into the error
budget; endpoint singularities of exponent in (-1, 0) are removed by a
power substitution; power-law-oscillatory approaches to the real axis use
a logarithmic substitution.  The core rule is an embedded Gauss pair
(15/31 nodes) with bisection of the worst interval.  Every adaptive piece
starts from 4 panels (8 on an arc) in one integrand call, and bisection
places the rest; the log-substituted start piece refines from there like
any other.  Each bisection is one call, on both rules of both halves (92
points).  The walks send their probes in blocks of 2, 4, 8, ... points,
one call per block, and stop where a probe-by-probe walk would.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULTS, Settings
from .errors import DivergentIntegralError, DomainError, NonconvergenceError
from .modgroup import INFINITY, GroupElement, moebius
from .specfun import _gauss_rule

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
    def vertical_ray(cls, base: complex, toward: int = +1) -> "GeodesicPath":
        return cls("vertical_ray", (complex(base), int(toward)))

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
    if path.kind == "vertical_ray":
        base, toward = path.points
        if toward < 0:
            raise DomainError("images of downward rays are not needed on H")
        e1, e2 = base, INFINITY
    elif path.kind == "arc":
        e1, e2 = path.points
    else:
        raise DomainError("polylines are not geodesics; map their vertices instead")
    return GeodesicPath.arc(moebius(g, e1), moebius(g, e2))


# ---------------------------------------------------------------------------
# evaluation budget and the adaptive core


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int):
        self.used += n
        if self.used > self.limit:
            raise NonconvergenceError(0.0, float("inf"), self.used)


def _adaptive(phi, a: float, b: float, tol: float, budget: _Budget, initial: int = 4):
    """Integrate phi over [a, b] to tol, bisecting the interval of largest error.

    Each interval gets the embedded 15/31-point Gauss pair, and ``phi``
    sees the nodes of several intervals in one call: all ``initial`` panels
    at once, then both halves of each bisection together (92 points).
    Raises NonconvergenceError, with the partial value and its error, when
    the total error still exceeds tol but the worst interval has reached
    the width floor or an error below tol * 1e-3.
    """
    x15, w15 = _gauss_rule(15)
    x31, w31 = _gauss_rule(31)
    nodes = np.concatenate([x31, x15])

    def gauss(lo, hi):
        """(integral, error estimate) on each [lo[i], hi[i]], from one call to phi."""
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        budget.spend(half.size * nodes.size)
        vals = phi((mid[:, None] + half[:, None] * nodes).ravel())
        out = []
        for h, v in zip(half, np.reshape(vals, (half.size, nodes.size))):
            i31 = h * np.sum(w31 * v[:31])
            i15 = h * np.sum(w15 * v[31:])
            out.append((complex(i31), abs(i31 - i15)))
        return out

    edges = np.linspace(a, b, initial + 1)
    los, his = edges[:-1], edges[1:]
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0
    for lo, hi, (val, err) in zip(los, his, gauss(los, his)):
        total += val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val))
    width_floor = 5e-15 * (abs(a) + abs(b) + 1.0)
    while total_err > tol:
        neg_err, lo, hi, val = heapq.heappop(heap)
        err = -neg_err
        if err <= tol * 1e-3 or hi - lo < width_floor:
            raise NonconvergenceError(total, total_err, budget.used)
        try:
            mid = 0.5 * (lo + hi)
            (v1, e1), (v2, e2) = gauss(np.array([lo, mid]), np.array([mid, hi]))
        except NonconvergenceError as exc:
            raise NonconvergenceError(total, total_err, budget.used) from exc
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
    return total, max(total_err, 0.0)


# ---------------------------------------------------------------------------
# truncation walks and substitutions


def _probes(phi, budget, ts):
    """Yield (t, |phi(t)|) for the probe points ts, in order.

    The probes go to phi in blocks of 2, 4, 8, ... points, one call per
    block, and the walk reading them stops wherever its own rule says.  A
    probe past that point may leave phi's domain (on an arc y = r sech(s)
    underflows), so a block whose call raises DomainError is replayed one
    probe per call: the walk then raises, or stops, exactly where a
    probe-by-probe walk would.  The budget is spent before each call, and a
    block never takes more than the budget has left (at least one probe),
    so the budget runs out at the same probe as well.
    """
    i, size = 0, 2
    while i < len(ts):
        block = ts[i : i + min(size, max(1, budget.limit - budget.used))]
        i += len(block)
        size *= 2
        budget.spend(len(block))
        try:
            values = phi(np.array(block))
        except DomainError:
            values = None
        if values is None:
            for t in block:
                budget.spend(1)
                yield t, abs(complex(phi(np.array([t]))[0]))
        else:
            yield from zip(block, (abs(complex(v)) for v in values))


def _walk_out(phi, budget, start: float, tol: float, factor: float = 1.7, cap: float = 1e7):
    """Find T beyond which the exponential tail is below tol; (T, tail).

    Probes t = start, start * factor, ... (see :func:`_probes`).  Raises
    NonconvergenceError when the tail estimate is still above tol at
    t = cap: the integrand then decays too slowly for truncation.
    """
    ts = []
    t = start
    while t < cap:
        ts.append(t)
        t *= factor
    prev = None
    for t, m in _probes(phi, budget, ts):
        if m == 0.0:
            return t, 0.0
        if prev is not None:
            pt, pm = prev
            if m < pm:
                rate = (math.log(pm) - math.log(m)) / (t - pt)
                tail = m / max(rate, 1e-6)
                if tail < tol:
                    return t, tail
        prev = (t, m)
    raise NonconvergenceError(0.0, float("inf"), budget.used)


def _walk_in(phi, budget, t1: float, tol: float):
    """Find t_min near a parameter-0 endpoint with remaining mass below tol.

    Probes t = t1/4, t1/24, ... (see :func:`_probes`) and stops at the
    first with m t < tol, m = |phi(t)|, and a > -1.  For |phi| ~ t^a the
    mass below t is m t / (1 + a), so the reported tail is
    m t max(1, 1/(1 + a)), with a the local exponent through that probe and
    the one before it (the one after it at the first probe).  A probe with
    a <= -1 is passed over: before the asymptotic regime |phi| can still
    grow steeply as t falls, through a form's decay factor
    e^{-2 pi lambda t}, with no singularity at 0.  Raises
    NonconvergenceError when two consecutive exponents, each through two
    probes with m t < tol, are <= -1: the mass below is then unbounded.
    Also raises when the mass has not fallen below tol by t = 1e-280: the
    integrand is then too singular for a truncated start.
    """
    ts = []
    t = t1 / 4.0
    while t > 1e-280:
        ts.append(t)
        t /= 6.0
    probes = _probes(phi, budget, ts)
    prev = None
    diverging = False  # the last exponent was <= -1 through two probes below tol
    for t, m in probes:
        if m == 0.0:
            return t, 0.0
        if m * t < tol:
            upper, lower = (prev, (t, m)) if prev is not None else ((t, m), next(probes, None))
            a = _local_exponent(upper, lower)
            if a > -1.0:
                return t, m * t * max(1.0, 1.0 / (1.0 + a))
            below = upper[0] * upper[1] < tol and lower[0] * lower[1] < tol
            if below and diverging:
                raise NonconvergenceError(0.0, float("inf"), budget.used)
            diverging = below
            prev = lower
        else:
            diverging = False
            prev = (t, m)
    raise NonconvergenceError(0.0, float("inf"), budget.used)


def _local_exponent(upper, lower) -> float:
    """The a with |phi| ~ t^a through two probes (t, m), upper t first;
    +inf when the lower probe is zero or missing (no slower decay seen)."""
    if lower is None or lower[1] == 0.0:
        return math.inf
    (tu, mu), (tl, ml) = upper, lower
    return (math.log(mu) - math.log(ml)) / (math.log(tu) - math.log(tl))


def _power_substituted(phi, alpha: float):
    p = 1.0 / (1.0 + alpha)

    def phi_s(s):
        s = np.asarray(s, dtype=float)
        return phi(s**p) * p * s ** (p - 1.0)

    return phi_s


def _log_substituted(phi):
    def phi_u(u):
        t = np.exp(np.asarray(u, dtype=float))
        return phi(t) * t

    return phi_u


def _start_handled(phi, t_hi: float, mode, tol, budget):
    """Integrate phi over (0, t_hi] honouring a start-singularity mode."""
    if mode is None:
        val, err = _adaptive(phi, 0.0, t_hi, tol, budget)
        return val, err, "plain"
    tag = mode[0]
    if tag == "power":
        alpha = complex(mode[1])
        if alpha.real <= -1.0:
            raise DivergentIntegralError(f"endpoint exponent {alpha} <= -1")
        if alpha.imag != 0.0:
            # |t|^alpha with complex alpha oscillates in log t all the way
            # down; in the log variable the modulus decays like
            # e^{(1+Re alpha) u} and the oscillation has fixed frequency
            tag = "log"
        elif alpha.real >= 0.0:
            val, err = _adaptive(phi, 0.0, t_hi, tol, budget)
            return val, err, "plain"
        else:
            val, err = _adaptive(
                _power_substituted(phi, alpha.real), 0.0, t_hi ** (1.0 + alpha.real), tol, budget
            )
            return val, err, f"power({alpha.real:.3g})"
    if tag == "log":
        t_min, tail = _walk_in(phi, budget, t_hi, tol / 10.0)
        val, err = _adaptive(_log_substituted(phi), math.log(t_min), math.log(t_hi), tol, budget)
        return val, err + tail, "log"
    if tag == "exp":
        t_min, tail = _walk_in(phi, budget, t_hi, tol / 10.0)
        val, err = _adaptive(phi, t_min, t_hi, tol, budget)
        return val, err + tail, "exp"
    raise ValueError(f"unknown endpoint mode {mode!r}")


# ---------------------------------------------------------------------------
# pieces


def _segment_phi(omega, z0: complex, z1: complex):
    d = z1 - z0

    def phi(t):
        t = np.asarray(t, dtype=float)
        av, bv = omega(z0 + t * d)
        return av * d + bv * np.conj(d)

    return phi


def _ray_phi(omega, base: complex, toward: int):
    step = 1j * toward

    def phi(t):
        t = np.asarray(t, dtype=float)
        av, bv = omega(base + step * t)
        return av * step + bv * np.conj(step)

    return phi


def _arc_phi(omega, c: float, r: float):
    def phi(s):
        s = np.asarray(s, dtype=float)
        sech = 1.0 / np.cosh(s)
        z = c + r * np.tanh(s) + 1j * r * sech
        vel = r * sech * (sech - 1j * np.tanh(s))
        av, bv = omega(z)
        return av * vel + bv * np.conj(vel)

    return phi


# ---------------------------------------------------------------------------
# public entry point


def integrate_form(
    omega,
    path: GeodesicPath,
    tol: float | None = None,
    max_evals: int | None = None,
    start_mode=None,
    end_mode=None,
    settings: Settings = DEFAULTS,
) -> QuadratureResult:
    """Integrate a 1-form A dz + B dzbar along a path.

    ``omega`` maps a z-array to the coefficient arrays (A, B).
    ``start_mode`` / ``end_mode`` control endpoint handling:
    ``("power", alpha)`` for an integrable |t|^alpha singularity,
    ``("log",)`` for a power-law approach to the real axis, ``("exp",)``
    for cusp decay (walk truncation); boundary endpoints default to
    ``("exp",)``.
    """
    if tol is None:
        tol = settings.quad_tol
    if max_evals is None:
        max_evals = settings.max_evals
    budget = _Budget(max_evals)
    pieces = _compile(path, settings)
    n = len(pieces)
    total = 0.0 + 0.0j
    total_err = 0.0
    notes = []
    try:
        for i, piece in enumerate(pieces):
            smode = start_mode if i == 0 else None
            emode = end_mode if i == n - 1 else None
            val, err, note = piece(omega, tol / n, budget, smode, emode)
            total += val
            total_err += err
            notes.append(note)
    except NonconvergenceError as exc:
        raise NonconvergenceError(total + exc.partial, float("inf"), budget.used) from exc
    return QuadratureResult(
        value=total,
        abs_error_estimate=total_err,
        evaluations=budget.used,
        metadata={"pieces": notes, "tol": tol},
    )


def _compile(path: GeodesicPath, settings: Settings) -> list:
    """One runner per piece: (omega, tol, budget, smode, emode) -> (value, error, note)."""
    if path.kind == "vertical_ray":
        base, toward = path.points
        return [_make_ray(complex(base), toward, settings)]
    if path.kind == "arc":
        return [_make_arc(path.points[0], path.points[1], settings)]
    pieces = []
    pts = path.points
    for p, q in zip(pts[:-1], pts[1:]):
        if q is INFINITY:
            pieces.append(_make_ray(complex(p), +1, settings))
        else:
            pieces.append(_make_segment(complex(p), complex(q)))
    return pieces


def _make_segment(z0: complex, z1: complex) -> Callable:
    def run(omega, tol, budget, smode, emode):
        phi = _segment_phi(omega, z0, z1)
        if emode is not None:
            raise DomainError("singular handling is start-side only; reverse the path")
        val, err, tag = _start_handled(phi, 1.0, smode, tol, budget)
        return val, err, f"segment {tag}"

    return run


def _ray_core(phi, tol, budget, smode, settings):
    t_far, tail = _walk_out(phi, budget, max(1.0, settings.cusp_height), tol / 10.0)
    anchor = min(1.0, 0.5 * t_far)
    val0, err0, tag = _start_handled(phi, anchor, smode, 0.5 * tol, budget)
    val1, err1 = _adaptive(phi, anchor, t_far, 0.5 * tol, budget)
    return val0 + val1, err0 + err1 + tail, f"ray[{tag}] to {t_far:.3g}"


def integrate_ray(
    phi,
    tol: float | None = None,
    max_evals: int | None = None,
    start_mode=None,
    settings: Settings = DEFAULTS,
) -> QuadratureResult:
    """Integrate a pulled-back integrand phi(t) over t in (0, infinity).

    For transforms whose contour starts at a point of the half-plane the
    caller keeps the parametrisation, so the integrand can form its
    differences in exact offset coordinates where base + i t would lose
    the offset to rounding.
    """
    if tol is None:
        tol = settings.quad_tol
    if max_evals is None:
        max_evals = settings.max_evals
    budget = _Budget(max_evals)
    val, err, note = _ray_core(phi, tol, budget, start_mode, settings)
    return QuadratureResult(val, err, budget.used, {"pieces": [note], "tol": tol})


def _make_ray(base: complex, toward: int, settings: Settings) -> Callable:
    def run(omega, tol, budget, smode, emode):
        if emode is not None:
            raise DomainError("ray far ends are truncated automatically")
        phi = _ray_phi(omega, base, toward)
        return _ray_core(phi, tol, budget, smode, settings)

    return run


def _make_arc(e1, e2, settings: Settings) -> Callable:
    if any(e is not INFINITY and complex(e).imag != 0.0 for e in (e1, e2)):
        raise DomainError(
            "arc endpoints must be real or INFINITY; a transform from an "
            "interior point integrates its own pulled-back integrand"
        )
    if e1 is INFINITY and e2 is INFINITY:
        raise DomainError("a geodesic needs a finite endpoint")
    if e2 is INFINITY:
        return _make_ray(complex(e1), +1, settings)
    if e1 is INFINITY:
        inner = _make_ray(complex(e2), +1, settings)

        def run(omega, tol, budget, smode, emode):
            val, err, note = inner(omega, tol, budget, smode, emode)
            return -val, err, note + " reversed"

        return run
    a, b = complex(e1).real, complex(e2).real
    if a == b:
        raise DomainError("degenerate geodesic")
    c = 0.5 * (a + b)
    r = 0.5 * abs(b - a)
    flip = a > b  # standard parametrisation runs left to right

    def run(omega, tol, budget, smode, emode):
        phi = _arc_phi(omega, c, r)
        far_l, tail_l = _walk_out(lambda s: phi(-s), budget, 4.0, tol / 10.0)
        far_r, tail_r = _walk_out(phi, budget, 4.0, tol / 10.0)
        val, err = _adaptive(phi, -far_l, far_r, tol, budget, initial=8)
        if flip:
            val = -val
        return val, err + tail_l + tail_r, "arc"

    return run
