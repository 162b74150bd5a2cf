"""Nearly periodic functions, period functions, and the classical comparison.

For a form u of weight k and spectral parameter nu, the period function is

    P(zeta) = int_0^{i infinity} eta_{-k}( R_{-k,nu}(., zeta), u )

over the imaginary axis.  The nearly periodic function integrates the same
Maass-Selberg pairing along the ray from zeta (resp. conj(zeta)) to
i*infinity.  Left of the axis P of an S-equivariant form comes from f
through the bridge P(zeta) = f(zeta) - v(S)^{-1} zeta^{2 nu - 1} f(-1/zeta);
any other form deforms the contour to the left of zeta and conj(zeta).

The kernel (see ``kernel``) continues analytically across the vertical
line below zeta, which the deformed contours cross.

One pairing builds every integrand, with a ``ladder`` that picks the raised
slot: -1 raises the kernel (``eta_{-k}(R, u)``), +1 raises the form
(``eta_k(u, R)``, taken with an overall minus sign).  The two differ by an
exact differential, so they integrate identically whenever both
converge - but at the moving endpoint z -> zeta the raising operator must
not fall on the factor that vanishes there, or the integrand picks up a
non-integrable power for small weights.  Accordingly the upper-half-plane
branch of f raises the form (kernel singularity (zeta-z)^{nu-1/2+k/2}) and
the lower branch raises the kernel and integrates from conj(zeta), where
the roles of the two kernel factors swap.  For a holomorphic form (E^- u = 0)
both converge and agree; f and P raise the kernel, which collapses the
pairing to the classical Eichler integrand.  Each contour supplies only its
points, its kernel values and its velocity.

Both transforms return the quadrature's own ``QuadratureResult``, with
their route prefixed to its ``contour``; only the f <-> P bridge, which
combines two values of f, and a form whose transforms vanish identically
build a new one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .branch import finite, on_cut, principal_pow
from .config import DEFAULTS, Settings
from .errors import (
    DegenerateBijectionError,
    DomainError,
    UnsupportedParameterError,
    UnsupportedSpectralParameterError,
)
from .forms import MaassForm
from .kernel import RKernel, kernel_eigen_apply
from .modgroup import INFINITY
from .multiplier import MultiplierSystem
from .quadrature import GeodesicPath, QuadratureResult, integrate_form, integrate_ray

__all__ = [
    "BijectionConstants",
    "NearlyPeriodicFunction",
    "PeriodFunction",
    "f_to_P",
    "P_to_f",
    "eichler_polynomial",
    "eichler_f",
    "growth_check",
    "GrowthReport",
    "eta_integrand",
    "ray_integrand",
    "arc_ray_integrand",
    "synthetic_nearly_periodic",
    "period_polynomial",
]


# ---------------------------------------------------------------------------
# bijection constants


@dataclass(frozen=True)
class BijectionConstants:
    """c*+- = 1 - e^{i pi k} e^{+- i pi (2 nu - 1)}; both must be nonzero."""

    weight: float
    nu: complex
    c_plus: complex = field(init=False)
    c_minus: complex = field(init=False)

    def __post_init__(self):
        k = float(self.weight)
        nu = complex(self.nu)
        phase = cmath.exp(1j * math.pi * k)
        object.__setattr__(
            self, "c_plus", 1.0 - phase * cmath.exp(1j * math.pi * (2 * nu - 1))
        )
        object.__setattr__(
            self, "c_minus", 1.0 - phase * cmath.exp(-1j * math.pi * (2 * nu - 1))
        )
        if min(abs(self.c_plus), abs(self.c_minus)) < 1e-12:
            raise DegenerateBijectionError(
                f"c*+- vanishes for weight {k}, nu {nu}: the correspondence "
                "between nearly periodic and period functions degenerates"
            )

    def for_half_plane(self, zeta: complex) -> complex:
        return self.c_plus if zeta.imag > 0 else self.c_minus


# ---------------------------------------------------------------------------
# integrand builders: one pairing, pulled back along each contour


def _pairing(form: MaassForm, ladder: int, form_pass=None):
    """The Maass-Selberg pairing of R = R_{-k,nu}(., zeta) with u, as
    ``pair(zs, y, kernel_at, quotient) -> (A, B)``.

    ``ladder`` -1 is eta_{-k}(R, u), with the kernel raised; +1 is
    eta_k(u, R), with the form raised.  Each contour supplies its own exact
    differences: ``kernel_at`` evaluates an RKernel at its points, and
    ``quotient`` = (zeta - z)/(zeta - conj z) there turns that one kernel into
    the operator's, R_{-k-2 ladder} = R quotient^ladder.  A factor that
    vanishes identically - a zero kernel coefficient, or E^- u of a
    holomorphic form - is skipped.  ``form_pass(zs) -> (u, E u)`` replaces the
    form's own ``eval_ladder_many`` at the ladder's sign, as a memo does.
    """
    kernel = RKernel(-form.k, form.nu)
    coefficient, _ = kernel_eigen_apply(kernel, -ladder, -form.k)
    form_op_vanishes = ladder < 0 and form.backend.holomorphic
    if form_pass is None:
        form_pass = lambda zs: form.eval_ladder_many(zs, ladder)

    def pair(zs, y, kernel_at, quotient):
        u, op_u = form_pass(zs)
        r = kernel_at(kernel) / y
        zero = np.zeros(np.shape(y), dtype=complex)
        # eta_k(f, g) = ((E+_k f) g dz - f (E-_{-k} g) dzbar) / y: each slot
        # pairs one side's operator with the other side's values
        shifted = r * quotient if ladder > 0 else r / quotient
        kernel_op = zero if coefficient == 0 else coefficient * shifted * u
        form_op = zero if form_op_vanishes else r * op_u
        return (kernel_op, -form_op) if ladder < 0 else (form_op, -kernel_op)

    return pair


def eta_integrand(form: MaassForm, zeta: complex, ladder: int = -1, form_pass=None):
    """The pairing as an array integrand z -> (A, B) for ``integrate_form``;
    ``form_pass`` as in :func:`_pairing`."""
    zeta = complex(zeta)
    pair = _pairing(form, ladder, form_pass)

    def omega(zs):
        zs = np.asarray(zs, dtype=complex)
        return pair(zs, zs.imag, lambda kernel: kernel.eval_many(zs, zeta), (zeta - zs) / (zeta - np.conj(zs)))

    return omega


def ray_integrand(form: MaassForm, zeta: complex, base: complex, ladder: int):
    """Pullback of the pairing along z = base + i t, with exact offsets."""
    zeta = complex(zeta)
    base = complex(base)
    pair = _pairing(form, ladder)

    def phi(ts):
        ts = np.asarray(ts, dtype=float)
        quotient = ((zeta - base) - 1j * ts) / ((zeta - base.conjugate()) + 1j * ts)
        a, b = pair(base + 1j * ts, base.imag + ts, lambda kernel: kernel.eval_ray(base, ts, zeta), quotient)
        return 1j * a - 1j * b

    return phi


def arc_ray_integrand(form: MaassForm, zeta: complex, endpoint: float):
    """Pullback of eta_{-k}(R(., zeta), u) along the geodesic from zeta to a
    real boundary point, in arclength offset from zeta with exact kernel
    differences (tanh/sech differences formed stably near the start)."""
    zeta = complex(zeta)
    endpoint = float(endpoint)
    c = (abs(zeta) ** 2 - endpoint**2) / (2.0 * (zeta.real - endpoint))
    r = abs(endpoint - c)
    s0 = math.atanh(max(-1 + 1e-15, min(1 - 1e-15, (zeta.real - c) / r)))
    d = 1.0 if endpoint > c else -1.0
    two_im = zeta - zeta.conjugate()
    pair = _pairing(form, -1)

    def phi(ts):
        ts = np.asarray(ts, dtype=float)
        s = s0 + d * ts
        cosh_s = np.cosh(s)
        sech = 1.0 / cosh_s
        scale = 1.0 / (cosh_s * math.cosh(s0))
        dz = r * np.sinh(d * ts) * scale - 2j * r * np.sinh(0.5 * (s + s0)) * np.sinh(0.5 * d * ts) * scale
        y = r * sech
        vel = d * r * sech * (sech - 1j * np.tanh(s))
        diffs = (-dz, two_im - np.conj(dz))
        a, b = pair(zeta + dz, y, lambda kernel: kernel._from_pieces(*diffs, y), diffs[0] / diffs[1])
        return a * vel + b * np.conj(vel)

    return phi


def _vanishes_identically(form: MaassForm) -> bool:
    """A holomorphic form whose kernel coefficient 1 - 2 nu - k vanishes (to
    the embedding's 1e-12 in nu): the pairing, so f and P, vanish identically."""
    return form.backend.holomorphic and abs(1.0 - 2.0 * form.nu - form.k) < 2e-12


def _ray_start(form: MaassForm, zeta: complex) -> tuple:
    """(base, ladder, alpha) of f's ray, as the module docstring picks them; the power at
    its start is alpha = nu - 1/2 + s (k/2 - h), s = sgn Im zeta, h = 1 if holomorphic, else 0."""
    s, h = (1 if zeta.imag > 0 else -1), form.backend.holomorphic
    ladder = 1 if s > 0 and not h else -1
    return (zeta if s > 0 else zeta.conjugate()), ladder, form.nu - 0.5 + s * (0.5 * form.k - h)


def _require_strip(form: MaassForm) -> None:
    """Both transforms of a form that is not holomorphic need |Re nu| < 1/2."""
    if not form.backend.holomorphic and abs(form.nu.real) >= 0.5:
        raise UnsupportedSpectralParameterError(
            f"nu = {form.nu}: |Re nu| = {abs(form.nu.real)} is not below 1/2"
        )


_ZERO = QuadratureResult(0.0 + 0.0j, 0.0, 0, "identically zero", 0.0)


# ---------------------------------------------------------------------------
# the nearly periodic function


class NearlyPeriodicFunction:
    """The ray transform of a form, defined off the real axis."""

    def __init__(self, form: MaassForm, settings: Settings = DEFAULTS):
        self.form = form
        self.settings = settings
        _require_strip(form)

    def __call__(self, zeta: complex) -> complex:
        return self.eval(zeta).value

    def eval(self, zeta: complex) -> QuadratureResult:
        """The quadrature's result, its value signed and its route prefixed."""
        zeta = finite(zeta, "zeta")
        if zeta.imag == 0.0:
            raise DomainError("the nearly periodic function lives off the real axis")
        if _vanishes_identically(self.form):
            return _ZERO
        base, ladder, alpha = _ray_start(self.form, zeta)
        phi = ray_integrand(self.form, zeta, base, ladder)
        result = integrate_ray(phi, start_mode=("power", alpha), settings=self.settings)
        # the form-raised pairing integrates to minus the kernel-raised one
        return replace(result, value=-ladder * result.value, contour=f"ray {base:.4g} -> i*inf {result.contour}")


# ---------------------------------------------------------------------------
# the period function


class PeriodFunction:
    """The cusp-to-cusp transform, holomorphic on the cut plane.

    On the route up the imaginary axis from 0 (every P of a holomorphic form
    right of the axis, and of any other form where Re zeta >= |Im zeta|)
    the contour does not depend on zeta, only the kernel does: the
    quadrature's nodes lie on one grid fixed by the start mode, so
    (u, E^- u) at every node evaluated once is kept for good.  A kept value
    is bitwise the one a fresh evaluation gives (the form is evaluated point
    by point), so P does not depend on the points before it.  The grid
    bounds that memo: 2^9 m + 1 nodes (9 levels of midpoints over m level-0
    steps from the start floor to the ray's far cap), so 50,177 for an
    equivariant form's exp start (m = 98) and 61,441 for the log start
    (m = 120); in practice about a hundred are used.  The split route, the
    deformed polyline, the f <-> P bridge and f evaluate the form afresh.
    """

    def __init__(self, form: MaassForm, settings: Settings = DEFAULTS):
        self.form = form
        self.settings = settings
        _require_strip(form)
        self._axis = {}
        self._f = NearlyPeriodicFunction(form, settings) if form.backend.equivariant else None

    def __call__(self, zeta: complex) -> complex:
        return self.eval(zeta).value

    def eval(self, zeta: complex) -> QuadratureResult:
        """The quadrature's result with its route prefixed, or the bridge's
        combination of two values of f."""
        zeta = finite(zeta, "zeta")
        if on_cut(zeta):
            raise DomainError(f"{zeta} lies on the cut (-inf, 0]")
        if _vanishes_identically(self.form):
            return _ZERO
        form = self.form
        form_pass = None
        if zeta.real <= 0 and self._f is not None:
            # the bridge: both rays start in the half-plane of zeta
            near, far = self._f.eval(zeta), self._f.eval(-1.0 / zeta)
            factor = _inversion_factor(form.multiplier, form.nu, zeta)
            return QuadratureResult(
                near.value - factor * far.value,
                near.abs_error + abs(factor) * far.abs_error,
                near.evaluations + far.evaluations,
                f"f <-> P bridge: {near.contour} | {far.contour}",
                near.tol + abs(factor) * far.tol,
            )
        if zeta.real > 0:
            # unless E^- u = 0 the pairing branches at zeta or its conjugate:
            # near the axis, split it level with them, where nodes cluster
            split = not form.backend.holomorphic and zeta.real < abs(zeta.imag)
            path = GeodesicPath((0.0, 1j * abs(zeta.imag), INFINITY) if split else (0.0, INFINITY))
            form_pass = None if split else self._axis_pass
            note = "imaginary axis"
        else:
            # the ray runs at least 0.25 left of zeta, where the kernel
            # branches: tanh-sinh clusters nodes only at a segment's ends
            eps = -zeta.real + max(0.25, 0.25 * abs(zeta))
            h0 = min(eps, 0.5 * abs(zeta.imag))
            path = GeodesicPath((0.0, complex(-eps, h0), INFINITY))
            note = f"deformed polyline eps={eps:.3g}"
        result = integrate_form(
            eta_integrand(form, zeta, form_pass=form_pass),
            path,
            # full automorphy decays exponentially at every cusp, anything else by a power law
            start_mode=("exp",) if form.backend.equivariant else ("log",),
            settings=self.settings,
        )
        return replace(result, contour=f"{note} {result.contour}")

    def _axis_pass(self, zs: np.ndarray) -> tuple:
        """(u, E^- u) at a quadrature call's nodes on the imaginary axis,
        the memo's misses from one form pass."""
        memo = self._axis
        keys = zs.tolist()
        missing = [z for z in keys if z not in memo]
        if missing:
            u, op_u = self.form.eval_ladder_many(np.array(missing), -1)
            memo.update(zip(missing, zip(u.tolist(), op_u.tolist())))
        u, op_u = np.array([memo[z] for z in keys], dtype=complex).T
        return u, op_u


# ---------------------------------------------------------------------------
# the algebraic bridge between f and P


def _inversion_factor(multiplier: MultiplierSystem, nu, zeta: complex) -> complex:
    """v(S)^{-1} zeta^{2 nu - 1}, the weight of the value at S zeta = -1/zeta
    in both directions of the bridge."""
    return principal_pow(zeta, 2 * complex(nu) - 1) / multiplier.v_s


def _parameters(obj, **given) -> tuple:
    """Each named parameter as given, else the transform's own; a bare callable has none."""
    if isinstance(obj, (NearlyPeriodicFunction, PeriodFunction)):
        own = {"weight": obj.form.k, "nu": obj.form.nu, "multiplier": obj.form.multiplier}
        return tuple(own[name] if value is None else value for name, value in given.items())
    missing = [name for name, value in given.items() if value is None]
    if missing:
        raise TypeError(f"a bare callable carries no {', '.join(missing)}: pass them")
    return tuple(given.values())


def f_to_P(f, zeta: complex, nu=None, multiplier=None) -> complex:
    """P(zeta) = f(zeta) - v(S)^{-1} zeta^{2 nu - 1} f(S zeta) on P's own
    domain, the cut plane: at zeta > 0 through f's values on the real axis,
    where f is defined there."""
    n, v = _parameters(f, nu=nu, multiplier=multiplier)
    zeta = complex(zeta)
    if on_cut(zeta):
        raise DomainError(f"{zeta} lies on the cut (-inf, 0]")
    return f(zeta) - _inversion_factor(v, n, zeta) * f(-1.0 / zeta)


def P_to_f(P, zeta: complex, weight=None, nu=None, multiplier=None) -> complex:
    """c*+- f(zeta) = P(zeta) + v(S)^{-1} zeta^{2 nu - 1} P(S zeta), sign by Im."""
    k, n, v = _parameters(P, weight=weight, nu=nu, multiplier=multiplier)
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise DomainError("the inverse transform needs Im zeta != 0")
    num = P(zeta) + _inversion_factor(v, n, zeta) * P(-1.0 / zeta)
    return num / BijectionConstants(k, n).for_half_plane(zeta)


def synthetic_nearly_periodic():
    """A closed-form nearly periodic function: e^{2 pi i zeta} above the
    real axis and e^{-2 pi i conj(zeta)} below (period 1, so a = 1)."""

    def f(zeta: complex) -> complex:
        zeta = complex(zeta)
        if zeta.imag >= 0:
            return cmath.exp(2j * math.pi * zeta)
        return cmath.exp(-2j * math.pi * zeta.conjugate())

    return f


# ---------------------------------------------------------------------------
# classical Eichler transforms


def _classical_input(coefficients, weight) -> tuple:
    """The coefficients a_1, a_2, ... as complex numbers, and the weight k."""
    k = int(weight)
    if k != weight or k < 4 or k % 2 != 0:
        raise DomainError(f"classical transforms need an even weight >= 4, got {weight}")
    coefficients = tuple(complex(c) for c in coefficients)
    if not coefficients or coefficients[0] != 0:
        raise DomainError("the coefficients must start with a vanishing constant term")
    return coefficients[1:], k


def _check_truncation(terms: np.ndarray, where: str) -> None:
    """Raise unless the last supplied term (axis 0) is below 2^-53 of the
    largest: the rule of ``forms._horner_rows`` at the series' own height."""
    size = np.abs(terms).reshape(len(terms), -1).max(axis=1)
    if size[-1] >= 2.0**-53 * size.max():
        raise UnsupportedParameterError(
            f"q-series truncated {where}: last term {size[-1] / size.max():.1e} of the largest"
        )


def eichler_f(coefficients, weight, zeta: complex) -> complex:
    """f_h(zeta) = int_zeta^{i inf} (zeta - z)^{k-2} u_h(z) dz on the upper half-plane.

    ``coefficients`` a_0 = 0, a_1, ... of u_h = sum a_n e(n z) start at q^0.
    Along z = zeta + i t each term integrates in closed form,

        int_0^inf (-i t)^{k-2} e(n zeta) e^{-2 pi n t} i dt
            = i (-i)^{k-2} (k-2)! / (2 pi n)^{k-1} e(n zeta),

    so f_h is a q-series in q = e(zeta).  Raises UnsupportedParameterError
    when zeta lies too close to the real axis for the supplied terms.
    """
    coeffs, k = _classical_input(coefficients, weight)
    zeta = complex(zeta)
    if zeta.imag <= 0:
        raise DomainError("the periodic Eichler transform needs Im zeta > 0")
    n = np.arange(1, len(coeffs) + 1)
    # e(n zeta) from the fractional part of Re zeta, an exact subtraction
    w = complex(zeta.real - math.floor(zeta.real), zeta.imag)
    terms = np.asarray(coeffs) * np.exp(2j * math.pi * n * w) / (2.0 * math.pi * n) ** (k - 1)
    _check_truncation(terms, f"at Im zeta = {zeta.imag:.3g}")
    return 1j * (-1j) ** (k - 2) * math.factorial(k - 2) * complex(np.sum(terms))


def period_polynomial(coefficients, weight) -> tuple:
    """The k-1 coefficients, in ascending degree, of the period polynomial
    p(zeta) = int_0^{i inf} (zeta - z)^{k-2} u_h(z) dz; cached.

    Binomially, p(zeta) = sum_m C(k-2, m) zeta^{k-2-m} (-1)^m i^{m+1} Lambda(m+1)
    with Lambda(s) = int_0^inf t^{s-1} u_h(i t) dt.  Splitting at t = 1 and
    folding (0, 1) onto (1, inf) by u_h(i/t) = i^k t^k u_h(i t) gives
    Lambda(s) = sum_n a_n [G(s) + i^k G(k-s)], G(s) = Gamma(s, 2 pi n) / (2 pi n)^s,
    where Gamma(s, x) = (s-1)! e^{-x} sum_{j<s} x^j / j! (DLMF 8.4.8).  The
    terms decay as e^{-2 pi n}: the truncation check runs at height 1.
    """
    return _period_coefficients(*_classical_input(coefficients, weight))


@lru_cache(maxsize=16)
def _period_coefficients(coeffs: tuple, k: int) -> tuple:
    a = np.asarray(coeffs)
    x = 2.0 * math.pi * np.arange(1, a.size + 1)
    # g[s] = Gamma(s, x) / x^s, termwise in n; g[0] is never used
    g = [
        np.exp(-x) * sum(math.factorial(s - 1) / math.factorial(j) * x ** (j - s) for j in range(s))
        for s in range(k)
    ]
    i_pow = (1, 1j, -1, -1j)
    # terms[n - 1, s - 1] is the n-th term of Lambda(s), s = 1 .. k-1
    terms = np.stack([a * (g[s] + i_pow[k % 4] * g[k - s]) for s in range(1, k)], 1)
    _check_truncation(terms, "at height 1")
    lam = terms.sum(axis=0)
    # m runs from k-2 down to 0: the coefficient of zeta^{k-2-m}, degree ascending
    by_m = lambda m: math.comb(k - 2, m) * (-1) ** m * i_pow[(m + 1) % 4] * lam[m]
    return tuple(complex(by_m(m)) for m in range(k - 2, -1, -1))


def eichler_polynomial(coefficients, weight, zeta: complex) -> complex:
    """p(zeta) = int_0^{i inf} (zeta - z)^{k-2} u_h(z) dz  (a degree <= k-2 polynomial),
    by Horner's rule over :func:`period_polynomial`; ``coefficients`` start at
    q^0 and must be cuspidal."""
    return complex(np.polyval(period_polynomial(coefficients, weight)[::-1], complex(zeta)))


# ---------------------------------------------------------------------------
# growth report


@dataclass(frozen=True)
class GrowthReport:
    slope_at_zero: float
    slope_at_infinity: float
    bound_at_zero: float
    bound_at_infinity: float
    slack: float
    passes_at_zero: bool
    passes_at_infinity: bool
    samples: dict

    @property
    def passes(self) -> bool:
        return self.passes_at_zero and self.passes_at_infinity


def growth_check(period: PeriodFunction) -> GrowthReport:
    """Log-log slopes of |P| on dyadic rays toward 0 and infinity.

    The exponent 2 Re nu - 1 bounds the decay at infinity when it is
    negative and gives the polynomial degree when positive; at zero the
    bound is max(0, 2 Re nu - 1).  Slopes are fitted at zeta = 2^{-j} and
    2^j, j = 3..10, and compared with a slack of 0.15.
    """
    slack = 0.15
    js = np.arange(3, 11)
    small = 2.0 ** (-js)
    large = 2.0**js
    p_small = np.array([abs(period(z)) for z in small])
    p_large = np.array([abs(period(z)) for z in large])
    slope_zero = float(np.polyfit(np.log(small), np.log(p_small), 1)[0])
    slope_inf = float(np.polyfit(np.log(large), np.log(p_large), 1)[0])
    two_nu = 2.0 * period.form.nu.real - 1.0
    bound_zero = max(0.0, two_nu)
    bound_inf = two_nu if two_nu > 0 else min(0.0, two_nu)
    passes_zero = slope_zero >= bound_zero - slack
    if two_nu > 0:
        passes_inf = abs(slope_inf - bound_inf) <= slack
    else:
        passes_inf = slope_inf <= bound_inf + slack
    return GrowthReport(
        slope_at_zero=slope_zero,
        slope_at_infinity=slope_inf,
        bound_at_zero=bound_zero,
        bound_at_infinity=bound_inf,
        slack=slack,
        passes_at_zero=passes_zero,
        passes_at_infinity=passes_inf,
        samples={
            "zeta_small": small.tolist(),
            "p_small": p_small.tolist(),
            "zeta_large": large.tolist(),
            "p_large": p_large.tolist(),
        },
    )
