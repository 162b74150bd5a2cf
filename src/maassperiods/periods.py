"""Nearly periodic functions, period functions, and the classical comparison.

For a form u of weight k and spectral parameter nu, the period function is

    P(zeta) = int_0^{i infinity} eta_{-k}( R_{-k,nu}(., zeta), u )

over the imaginary axis.  The nearly periodic function integrates the same
Maass-Selberg pairing along the ray from zeta (resp. conj(zeta)) to
i*infinity.  Left of the axis P of an S-equivariant form comes from f
through the bridge P(zeta) = f(zeta) - v(S)^{-1} zeta^{2 nu - 1} f(-1/zeta);
any other form deforms the contour to the left of zeta and conj(zeta)
(factored kernel branch).

One pairing builds every integrand, with a ``ladder`` that picks the raised
slot: -1 raises the kernel (``eta_{-k}(R, u)``), +1 raises the form
(``eta_k(u, R)``, taken with an overall minus sign).  The two differ by an
exact differential, so they integrate identically whenever both
converge - but at the moving endpoint z -> zeta the raising operator must
not fall on the factor that vanishes there, or the integrand picks up a
non-integrable power for small weights.  Accordingly the upper-half-plane
branch of f raises the form (kernel singularity (zeta-z)^{nu-1/2+k/2}) and
the lower branch raises the kernel and integrates from conj(zeta), where
the roles of the two kernel factors swap.  For the holomorphic embedding
both converge and agree; f and P raise the kernel, which collapses the
pairing to the classical Eichler integrand because the lowering operator
kills the form.  Each contour supplies only its points, its kernel values
and its velocity.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .branch import on_cut, principal_pow
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
from .quadrature import GeodesicPath, integrate_form, integrate_ray

__all__ = [
    "BijectionConstants",
    "PeriodEvaluation",
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
    "derived_period",
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


@dataclass(frozen=True)
class PeriodEvaluation:
    """A transform value together with the contour used and the error budget.

    ``evaluations`` counts every integrand point.
    """

    value: complex
    contour: str
    abs_error: float
    evaluations: int


# ---------------------------------------------------------------------------
# integrand builders: one pairing, pulled back along each contour


def _pairing(form: MaassForm, ladder: int, mode: str = "combined"):
    """The Maass-Selberg pairing of R = R_{-k,nu}(., zeta) with u, as
    ``pair(zs, y, kernel_at, quotient) -> (A, B)``.

    ``ladder`` -1 is eta_{-k}(R, u), with the kernel raised; +1 is
    eta_k(u, R), with the form raised.  Each contour supplies its own exact
    differences: ``kernel_at`` evaluates an RKernel at its points, and
    ``quotient`` = (zeta - z)/(zeta - conj z) there turns that one kernel into
    the operator's, R_{-k-2 ladder} = R quotient^ladder.  A factor that
    vanishes identically - a zero kernel coefficient, or E^- u of the
    embedding - is skipped.
    """
    kernel = RKernel(-form.k, form.nu, mode)
    coefficient, _ = kernel_eigen_apply(kernel, -ladder, -form.k)
    form_op_vanishes = ladder < 0 and form.is_embedding

    def pair(zs, y, kernel_at, quotient):
        u, op_u = form.eval_ladder_many(zs, ladder)
        r = kernel_at(kernel) / y
        zero = np.zeros(np.shape(y), dtype=complex)
        # eta_k(f, g) = ((E+_k f) g dz - f (E-_{-k} g) dzbar) / y: each slot
        # pairs one side's operator with the other side's values
        shifted = r * quotient if ladder > 0 else r / quotient
        kernel_op = zero if coefficient == 0 else coefficient * shifted * u
        form_op = zero if form_op_vanishes else r * op_u
        return (kernel_op, -form_op) if ladder < 0 else (form_op, -kernel_op)

    return pair


def eta_integrand(form: MaassForm, zeta: complex, ladder: int = -1, mode: str = "combined"):
    """The pairing as an array integrand z -> (A, B) for ``integrate_form``."""
    zeta = complex(zeta)
    pair = _pairing(form, ladder, mode)

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
    """The embedding at nu = (1-k)/2, where f and P vanish identically."""
    return form.is_embedding and abs(form.nu - (1.0 - form.k) / 2.0) < 1e-12


# ---------------------------------------------------------------------------
# the nearly periodic function


class NearlyPeriodicFunction:
    """The ray transform of a form, defined off the real axis."""

    def __init__(self, form: MaassForm, settings: Settings = DEFAULTS):
        self.form = form
        self.settings = settings
        self._degenerate_zero = _vanishes_identically(form)
        if not form.is_embedding and abs(form.nu.real) >= 0.5:
            raise UnsupportedSpectralParameterError(
                f"|Re nu| = {abs(form.nu.real)} is not below 1/2"
            )

    def __call__(self, zeta: complex) -> complex:
        return self.eval(zeta).value

    def eval(self, zeta: complex) -> PeriodEvaluation:
        zeta = complex(zeta)
        if zeta.imag == 0.0:
            raise DomainError("the nearly periodic function lives off the real axis")
        if self._degenerate_zero:
            return PeriodEvaluation(0.0 + 0.0j, "identically zero", 0.0, 0)
        form = self.form
        k, nu = form.k, form.nu
        if zeta.imag > 0:
            base = zeta
            if form.is_embedding:
                ladder = -1
                alpha = nu - 1.5 + 0.5 * k  # kernel-raised dz singularity
            else:
                ladder = +1
                alpha = nu - 0.5 + 0.5 * k
        else:
            base = zeta.conjugate()
            ladder = -1
            # dzbar part dominates at the conjugate endpoint unless it vanishes
            if form.is_embedding:
                alpha = nu + 0.5 - 0.5 * k
            else:
                alpha = nu - 0.5 - 0.5 * k
        phi = ray_integrand(form, zeta, base, ladder)
        result = integrate_ray(phi, start_mode=("power", alpha), settings=self.settings)
        # the form-raised pairing integrates to minus the kernel-raised one
        return PeriodEvaluation(
            -ladder * result.value,
            f"ray {base:.4g} -> i*inf " + ";".join(result.metadata["pieces"]),
            result.abs_error_estimate,
            result.evaluations,
        )


# ---------------------------------------------------------------------------
# the period function


class PeriodFunction:
    """The cusp-to-cusp transform, holomorphic on the cut plane."""

    # least-recently-used memo of evaluated points; verify asks for a point
    # again at most 13 other points later
    MEMO_SIZE = 64

    def __init__(self, form: MaassForm, settings: Settings = DEFAULTS):
        self.form = form
        self.settings = settings
        self._degenerate_zero = _vanishes_identically(form)
        self._cache = OrderedDict()
        self._f = NearlyPeriodicFunction(form, settings) if form.is_embedding else None

    def __call__(self, zeta: complex) -> complex:
        return self.eval(zeta).value

    def eval(self, zeta: complex) -> PeriodEvaluation:
        zeta = complex(zeta)
        if on_cut(zeta):
            raise DomainError(f"{zeta} lies on the cut (-inf, 0]")
        if zeta in self._cache:
            self._cache.move_to_end(zeta)
            return self._cache[zeta]
        if self._degenerate_zero:
            return self._remember(zeta, PeriodEvaluation(0.0 + 0.0j, "identically zero", 0.0, 0))
        form = self.form
        if zeta.real <= 0 and self._f is not None:
            # the bridge: both rays start in the half-plane of zeta
            near, far = self._f.eval(zeta), self._f.eval(-1.0 / zeta)
            factor = _inversion_factor(form.multiplier, form.nu, zeta)
            out = PeriodEvaluation(
                near.value - factor * far.value,
                f"f <-> P bridge: {near.contour} | {far.contour}",
                near.abs_error + abs(factor) * far.abs_error,
                near.evaluations + far.evaluations,
            )
            return self._remember(zeta, out)
        if zeta.real > 0:
            # a non-embedded form's kernel branches at zeta or its conjugate:
            # near the axis, split it level with them, where nodes cluster
            split = not form.is_embedding and zeta.real < abs(zeta.imag)
            path = GeodesicPath.polyline([0.0, 1j * abs(zeta.imag), INFINITY] if split else [0.0, INFINITY])
            note = "imaginary axis"
        else:
            # the ray runs at least 0.25 left of zeta, where the kernel
            # branches: tanh-sinh clusters nodes only at a segment's ends
            eps = -zeta.real + max(0.25, 0.25 * abs(zeta))
            h0 = min(eps, 0.5 * abs(zeta.imag))
            path = GeodesicPath.polyline([0.0, complex(-eps, h0), INFINITY])
            note = f"deformed polyline eps={eps:.3g}"
        result = integrate_form(
            eta_integrand(form, zeta, mode="factored"),
            path,
            # full automorphy decays exponentially at every cusp, the surrogate by a power law
            start_mode=("exp",) if form.is_embedding else ("log",),
            settings=self.settings,
        )
        out = PeriodEvaluation(
            result.value,
            note + " " + ";".join(result.metadata["pieces"]),
            result.abs_error_estimate,
            result.evaluations,
        )
        return self._remember(zeta, out)

    def _remember(self, zeta: complex, out: PeriodEvaluation) -> PeriodEvaluation:
        self._cache[zeta] = out
        if len(self._cache) > self.MEMO_SIZE:
            self._cache.popitem(last=False)
        return out


# ---------------------------------------------------------------------------
# the algebraic bridge between f and P


def _inversion_factor(multiplier, nu, zeta: complex) -> complex:
    """v(S)^{-1} zeta^{2 nu - 1}, the weight of the value at S zeta = -1/zeta
    in both directions of the bridge."""
    v_s = multiplier.v_s if isinstance(multiplier, MultiplierSystem) else complex(multiplier)
    return principal_pow(zeta, 2 * complex(nu) - 1) / v_s


def _parameters(obj, weight, nu, multiplier) -> tuple:
    """(k, nu, multiplier): each as given, else the transform's own."""
    transform = isinstance(obj, (NearlyPeriodicFunction, PeriodFunction))
    own = (obj.form.k, obj.form.nu, obj.form.multiplier) if transform else (None,) * 3
    return tuple(mine if given is None else given for mine, given in zip(own, (weight, nu, multiplier)))


def f_to_P(f, zeta: complex, weight=None, nu=None, multiplier=None) -> complex:
    """P(zeta) = f(zeta) - v(S)^{-1} zeta^{2 nu - 1} f(S zeta)."""
    _, n, v = _parameters(f, weight, nu, multiplier)
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise DomainError("f is only defined off the real axis")
    return f(zeta) - _inversion_factor(v, n, zeta) * f(-1.0 / zeta)


def P_to_f(P, zeta: complex, weight=None, nu=None, multiplier=None) -> complex:
    """c*+- f(zeta) = P(zeta) + v(S)^{-1} zeta^{2 nu - 1} P(S zeta), sign by Im."""
    k, n, v = _parameters(P, weight, nu, multiplier)
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


def derived_period(f, weight, nu, multiplier):
    """The period function attached to a nearly periodic evaluatable.

    Same combination as :func:`f_to_P` but packaged as a callable and
    without the off-axis domain guard, so three-term residuals can be
    sampled at positive reals through the boundary values of ``f``.
    """

    def period(zeta: complex) -> complex:
        zeta = complex(zeta)
        return f(zeta) - _inversion_factor(multiplier, nu, zeta) * f(-1.0 / zeta)

    return period


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
