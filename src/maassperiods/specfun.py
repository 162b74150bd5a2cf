"""K-Bessel with complex order and Whittaker W functions.

Both are evaluated from real-axis integral representations by composite
Gauss-Legendre panels sized to the oscillation frequency of the integrand,
so everything vectorises over the argument.  These are the building blocks
for the Fourier terms of the half-integral-weight surrogate forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedParameterError

__all__ = ["WhittakerParams", "gamma_complex", "bessel_k", "whittaker_w", "WhittakerTable"]

# Lanczos approximation, g = 7 with 9 coefficients; relative error < 1e-13
# on the right half-plane, extended by reflection.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_complex(s: complex) -> complex:
    """Gamma function for complex argument (Lanczos, reflection for Re s < 1/2)."""
    s = complex(s)
    if s.real < 0.5:
        if s.imag == 0.0 and s.real == round(s.real):
            raise DomainError(f"gamma pole at {s}")
        return math.pi / (cmath.sin(math.pi * s) * gamma_complex(1.0 - s))
    z = s - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


@lru_cache(maxsize=64)
def _gauss_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_nodes(a: float, b: float, width: float, order: int):
    """Composite Gauss-Legendre nodes/weights on [a, b] with bounded panels."""
    n_panels = max(1, int(math.ceil((b - a) / width)))
    edges = np.linspace(a, b, n_panels + 1)
    x, w = _gauss_rule(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def bessel_k(nu: complex, x: float, truncation: float | None = None) -> complex:
    """Modified Bessel K of complex order via the cosh integral.

    Integrates exp(-x cosh t) cosh(nu t) over [0, T] where T is chosen so
    the dropped tail is below 1e-18 relative to the value scale.
    """
    nu = complex(nu)
    x = float(x)
    if x <= 0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    if truncation is None:
        t_cut = 1.0
        for _ in range(8):
            target = (42.0 + abs(nu.real) * t_cut) / x
            t_cut = math.acosh(max(target, 1.0 + 1e-9))
        truncation = t_cut
    width = min(1.0, 6.0 / (1.0 + abs(nu)))
    nodes, weights = _panel_nodes(0.0, float(truncation), width, 20)
    vals = np.exp(-x * np.cosh(nodes)) * np.cosh(nu * nodes)
    return complex(np.sum(weights * vals))


@dataclass(frozen=True)
class WhittakerParams:
    """Index pair for W_{kappa, mu}; kappa is real in all uses here."""

    kappa: float
    mu: complex


def whittaker_w(params: WhittakerParams, y) -> complex | np.ndarray:
    """Whittaker W function from its real-axis integral representation.

        W(y) = e^{-y/2} y^kappa / Gamma(mu - kappa + 1/2)
               * int_0^inf e^{-t} t^{mu-kappa-1/2} (1 + t/y)^{mu+kappa-1/2} dt

    The representation needs Re(mu - kappa + 1/2) > 0; since W is symmetric
    in mu, the reflection mu -> -mu is tried first when that fails.  Accepts
    a scalar y > 0 or an array of them (shared quadrature grid).
    """
    kappa = float(params.kappa)
    mu = complex(params.mu)
    scalar = np.isscalar(y)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(ys <= 0):
        raise DomainError("whittaker_w requires y > 0")

    alpha = mu - kappa + 0.5
    if alpha == 0 or -mu - kappa + 0.5 == 0:
        # first index mu + 1/2: the integral collapses and W = e^{-y/2} y^kappa
        out = np.exp(-ys / 2.0) * ys**kappa
        return complex(out[0]) if scalar else out.astype(complex)
    small = ys <= 0.5
    if np.any(small) and _series_applicable(mu):
        out = np.empty(ys.shape, dtype=complex)
        out[small] = _whittaker_series(kappa, mu, ys[small])
        if np.any(~small):
            out[~small] = np.asarray(whittaker_w(params, ys[~small]), dtype=complex)
        return complex(out[0]) if scalar else out
    if alpha.real <= 0:
        mu = -mu
        alpha = mu - kappa + 0.5
    if alpha.real <= 0:
        out = _whittaker_recurrence(kappa, complex(params.mu), ys)
        return complex(out[0]) if scalar else out
    if alpha.imag == 0.0 and alpha.real == round(alpha.real) and alpha.real < 0:
        raise UnsupportedParameterError(
            f"degenerate index pair kappa={kappa}, mu={params.mu}"
        )
    beta = mu + kappa - 0.5

    # substitute t = e^u: integrand exp(-e^u) e^{u alpha} (1 + e^u/y)^beta
    lower = -min(max(42.0 / alpha.real, 8.0), 2000.0)
    upper = math.log(60.0 + 15.0 * (abs(beta) + 1.0))
    width = min(1.5, 6.0 / (1.0 + abs(alpha.imag) + abs(beta.imag)))
    nodes, weights = _panel_nodes(lower, upper, width, 24)

    eu = np.exp(nodes)
    base = np.exp(-eu + nodes * alpha)
    out = np.empty(ys.shape, dtype=complex)
    chunk = max(1, 2**15 // nodes.size)  # rows per block of at most 2**15 factor entries
    for i in range(0, ys.size, chunk):
        yy = ys[i : i + chunk]
        factor = (1.0 + eu[None, :] / yy[:, None]) ** beta
        out[i : i + chunk] = factor @ (weights * base)
    out *= np.exp(-ys / 2.0) * ys**kappa / gamma_complex(alpha)
    return complex(out[0]) if scalar else out


def _whittaker_recurrence(kappa: float, mu: complex, ys: np.ndarray) -> np.ndarray:
    """Step the first index up from the region where the integral applies.

        W_{k+1,m}(y) = (y - 2k) W_{k,m}(y) - (k - 1/2 - m)(k - 1/2 + m) W_{k-1,m}(y)

    The step count is the smallest shift giving both base evaluations a
    positive-real integrand exponent with margin 1/4.  The recurrence
    cancels catastrophically as y -> 0, so small arguments take the
    convergent series instead when the connection formula is available.
    """
    out = np.empty(ys.shape, dtype=complex)
    rest = ys > 0.5 if _series_applicable(mu) else np.ones(ys.shape, dtype=bool)
    if not np.all(rest):
        out[~rest] = _whittaker_series(kappa, mu, ys[~rest])
    if np.any(rest):
        yr = ys[rest]
        need = 0.25 - max((mu - kappa + 0.5).real, (-mu - kappa + 0.5).real)
        n = int(math.ceil(need))
        prev = np.asarray(whittaker_w(WhittakerParams(kappa - n - 1, mu), yr), dtype=complex)
        curr = np.asarray(whittaker_w(WhittakerParams(kappa - n, mu), yr), dtype=complex)
        for j in range(n):
            kj = kappa - n + j
            nxt = (yr - 2.0 * kj) * curr - (kj - 0.5 - mu) * (kj - 0.5 + mu) * prev
            prev, curr = curr, nxt
        out[rest] = curr
    return out


def _series_applicable(mu: complex) -> bool:
    """The two-term connection formula needs 2 mu away from the integers."""
    two_mu = 2.0 * complex(mu)
    if abs(two_mu.imag) > 0.05:
        return True
    return abs(two_mu.real - round(two_mu.real)) > 0.05


def _kummer_m(a: complex, b: complex, ts: np.ndarray, terms: int = 80) -> np.ndarray:
    total = np.ones(ts.shape, dtype=complex)
    term = np.ones(ts.shape, dtype=complex)
    for n in range(terms):
        term = term * (a + n) / ((b + n) * (n + 1.0)) * ts
        total += term
        if np.max(np.abs(term)) < 1e-18 * max(np.max(np.abs(total)), 1e-300):
            break
    return total


def _whittaker_series(kappa: float, mu: complex, ts: np.ndarray) -> np.ndarray:
    """W from the M-function connection, accurate for small arguments."""
    pref = np.exp(-ts / 2.0)
    out = np.zeros(ts.shape, dtype=complex)
    for sign in (+1.0, -1.0):
        m = sign * mu
        coeff = gamma_complex(-2.0 * m) / gamma_complex(0.5 - m - kappa)
        out += coeff * ts ** (0.5 + m) * _kummer_m(0.5 + m - kappa, 1.0 + 2.0 * m, ts)
    return pref * out


class WhittakerTable:
    """Chebyshev cache of t -> W_{kappa,mu}(t) on log-spaced panels.

    The cached quantity is the slowly varying factor W(t) e^{t/2} t^{-kappa},
    whose dynamic range per panel is tame, so the fit keeps relative
    accuracy even where W decays through dozens of orders; the exponential
    and the power are restored at lookup.  Built once per (kappa, mu) pair in
    one pass: one :func:`whittaker_w` call on all panels' Chebyshev points and
    one fixed interpolation matrix.  ``DEGREE`` is where every panel's
    coefficients reach the integral's noise on the pairs in use (about 1e-15
    of the largest, by degree 11-13): a higher degree only fits noise and
    lengthens every lookup's Clenshaw loop.  A pair the degree does not
    resolve raises :class:`UnsupportedParameterError`.  Lookups are
    vectorised, and every lookup also forms t W'(t) from the derivative of
    the same series (:meth:`with_log_derivative` returns it).  Beyond
    ``T_MAX`` W is below 1e-60 and is returned as exactly zero; t below
    ``T_MIN``, NaN, zero and negative t included, raises :class:`DomainError`.

    For mu real or purely imaginary W is real (DLMF 13.14.31 and
    conjugation): the table keeps real coefficients, and lookups their dtype;
    an imaginary part to drop above ``TAIL_TOL`` of a panel's largest raises.
    """

    DEGREE = 14
    # values at the Chebyshev points x_j of the second kind -> coefficients, inverting
    # T_k(x_j) = cos(k arccos x_j) directly: numpy.polynomial would load at import
    _NODES = np.cos(np.pi * np.arange(DEGREE + 1) / DEGREE)
    _FIT = np.linalg.inv(np.cos(np.arange(DEGREE + 1) * np.arccos(_NODES)[:, None]))
    # last over largest coefficient of a panel: <= 40 eps on the pairs in use, 3e6 at mu = 5i
    TAIL_TOL = 1024 * np.finfo(float).eps
    T_MIN = 1e-40
    T_MAX = 320.0
    # log-spaced panel edges, about one unit of log t wide
    _S_LO, _S_HI = math.log(T_MIN), math.log(T_MAX)
    _EDGES = np.linspace(_S_LO, _S_HI, int(math.ceil(_S_HI - _S_LO)) + 1)

    def __init__(self, kappa: float, mu: complex):
        self.params = WhittakerParams(kappa, mu)
        self.kappa = float(kappa)
        # nodes as the lookup maps them back, s = mid + half x; the end nodes
        # x = 1 and x = -1 are the shared edges, each evaluated once
        mid = 0.5 * (self._EDGES[1:] + self._EDGES[:-1])
        half = 0.5 * (self._EDGES[1:] - self._EDGES[:-1])
        inner = np.exp(mid[:, None] + half[:, None] * self._NODES[1:-1])
        t_edges = np.exp(self._EDGES)
        w = np.asarray(whittaker_w(self.params, np.concatenate([inner.ravel(), t_edges])))
        w_edges = w[inner.size :]
        vals = np.column_stack([w_edges[1:], w[: inner.size].reshape(inner.shape), w_edges[:-1]])
        t_nodes = np.column_stack([t_edges[1:], inner, t_edges[:-1]])
        vals *= np.exp(t_nodes / 2.0) * t_nodes ** (-self.kappa)
        # degree-major, so a lookup gathers one contiguous row per degree
        self.coeffs = self._FIT @ vals.T
        real = complex(mu).real == 0.0 or complex(mu).imag == 0.0
        # the last coefficient and, where W is real, the imaginary part to drop
        noise = np.maximum(np.abs(self.coeffs[-1]), real * np.max(np.abs(self.coeffs.imag), axis=0))
        noise /= np.max(np.abs(self.coeffs), axis=0)
        if not np.all(noise <= self.TAIL_TOL):
            raise UnsupportedParameterError(
                f"a degree-{self.DEGREE} Chebyshev table does not resolve W_{{{kappa}, {mu}}}: a panel's "
                f"last coefficient or dropped imaginary part is {np.max(noise):.1e} of its largest"
            )
        if real:
            self.coeffs = np.ascontiguousarray(self.coeffs.real)

    def __call__(self, t) -> np.ndarray:
        return self._lookup(t)[0]

    def with_log_derivative(self, t) -> tuple:
        """(W(t), t W'(t)) from one lookup; W equals ``__call__`` bit for bit.

        With s = log t and g(s) = W e^{t/2} t^{-kappa} the tabulated factor,
        t W'(t) = e^{-t/2} t^kappa [g'(s) + (kappa - t/2) g(s)], and g' comes
        from the derivative of the Clenshaw recurrence, run beside it on the
        same coefficients.
        """
        return self._lookup(t)

    def _lookup(self, t) -> tuple:
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all(ts >= self.T_MIN):  # NaN, zero and negative t fail too
            raise DomainError(f"table lookup requires t >= {self.T_MIN}, got {ts.min()}")
        c = self.coeffs
        outs = np.zeros((2,) + ts.shape, dtype=c.dtype)
        s = np.log(ts)
        inside = s <= self._S_HI
        idx = np.searchsorted(self._EDGES, s[inside], side="right") - 1
        idx = np.clip(idx, 0, len(self._EDGES) - 2)
        lo = self._EDGES[idx]
        hi = self._EDGES[idx + 1]
        x = (2.0 * s[inside] - (hi + lo)) / (hi - lo)
        # Clenshaw with per-point coefficients, vectorised over points; one
        # degree is gathered at a time, so no (points x degree) copy is made.
        # d1, d2 are the x-derivatives of b1, b2:
        # d_j = 2 b_{j+1} + 2x d_{j+1} - d_{j+2}
        b1 = b2 = d1 = d2 = np.zeros(x.shape, dtype=c.dtype)  # rebound, never written
        two_x = 2.0 * x
        for j in range(self.DEGREE, 0, -1):
            d1, d2 = 2.0 * b1 + two_x * d1 - d2, d1
            b1, b2 = c[j][idx] + two_x * b1 - b2, b1
        vals = c[0][idx] + x * b1 - b2
        t_in = ts[inside]
        decay = np.exp(-t_in / 2.0)
        power = t_in**self.kappa
        slope = (b1 + x * d1 - d2) * (2.0 / (hi - lo))
        outs[0][inside] = vals * decay * power
        outs[1][inside] = (slope + (self.kappa - t_in / 2.0) * vals) * decay * power
        return tuple(out if np.ndim(t) else out.reshape(())[()] for out in outs)
