"""Whittaker W functions and their tables, with the complex Gamma function.

W is evaluated from its real-axis integral representation by composite
Gauss-Legendre panels sized to the oscillation frequency of the integrand,
so it vectorises over the argument; small arguments use the M-function
connection, and indices outside the integral's range a recurrence.
``WhittakerTable`` caches W of one index pair in Chebyshev panels for fast
lookups, and ``WhittakerStack`` looks up several tables of one nu as one.
These are the building blocks for the Fourier terms of the
half-integral-weight surrogate forms.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedParameterError

__all__ = ["gamma_complex", "whittaker_w", "WhittakerTable", "WhittakerStack"]

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
    """Gauss-Legendre nodes (ascending) and weights 2 / ((1 - x^2) P_n'(x)^2): Newton on
    the three-term recurrence from Tricomi's estimates, so numpy.polynomial never loads."""
    k = np.arange(n, 0, -1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(6):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        x = x - p / dp
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


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


def whittaker_w(kappa: float, mu: complex, y) -> complex | np.ndarray:
    """Whittaker W_{kappa, mu} from its real-axis integral representation.

        W(y) = e^{-y/2} y^kappa / Gamma(mu - kappa + 1/2)
               * int_0^inf e^{-t} t^{mu-kappa-1/2} (1 + t/y)^{mu+kappa-1/2} dt

    The representation needs Re(mu - kappa + 1/2) > 0; since W is symmetric
    in mu, the reflection mu -> -mu is tried first when that fails.  kappa
    is real in all uses here.  Accepts a scalar y > 0 or an array of them
    (shared quadrature grid).

    With t = e^u the nodes reach down to u = -42 / Re alpha.  Where e^u < 2^-54 min y,
    e^u/y is below half an ulp of 1 for every y, so 1 + e^u/y rounds to exactly 1: that
    far tail is one y-independent sum, formed once.  Other factors are exp(beta log1p(e^u/y)).
    """
    kappa = float(kappa)
    mu = given = complex(mu)  # the recursive calls take the index as given
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
            out[~small] = np.asarray(whittaker_w(kappa, given, ys[~small]), dtype=complex)
        return complex(out[0]) if scalar else out
    if alpha.real <= 0:
        mu = -mu
        alpha = mu - kappa + 0.5
    if alpha.real <= 0:
        out = _whittaker_recurrence(kappa, given, ys)
        return complex(out[0]) if scalar else out
    beta = mu + kappa - 0.5

    # substitute t = e^u: integrand exp(-e^u) e^{u alpha} (1 + e^u/y)^beta
    lower = -min(max(42.0 / alpha.real, 8.0), 2000.0)
    upper = math.log(60.0 + 15.0 * (abs(beta) + 1.0))
    width = min(1.5, 6.0 / (1.0 + abs(alpha.imag) + abs(beta.imag)))
    nodes, weights = _panel_nodes(lower, upper, width, 24)

    eu = np.exp(nodes)
    base = weights * np.exp(-eu + nodes * alpha)
    # the nodes ascend, so the far tail is a prefix
    cut = np.searchsorted(eu, 2.0**-54 * ys.min(initial=np.inf))
    tail = np.sum(base[:cut])
    eu, base = eu[cut:], base[cut:]
    out = np.empty(ys.shape, dtype=complex)
    chunk = max(1, 2**15 // max(eu.size, 1))  # rows per block of at most 2**15 factor entries
    for i in range(0, ys.size, chunk):
        yy = ys[i : i + chunk]
        factor = np.exp(beta * np.log1p(eu[None, :] / yy[:, None]))
        out[i : i + chunk] = factor @ base + tail
    out *= np.exp(-ys / 2.0) * ys**kappa / gamma_complex(alpha)
    return complex(out[0]) if scalar else out


def _whittaker_recurrence(kappa: float, mu: complex, ys: np.ndarray) -> np.ndarray:
    """Step the first index up from the region where the integral applies.

        W_{k+1,m}(y) = (y - 2k) W_{k,m}(y) - (k - 1/2 - m)(k - 1/2 + m) W_{k-1,m}(y)

    The step count is the smallest shift giving both base evaluations a
    positive-real integrand exponent with margin 1/4.
    """
    need = 0.25 - max((mu - kappa + 0.5).real, (-mu - kappa + 0.5).real)
    n = int(math.ceil(need))
    prev = np.asarray(whittaker_w(kappa - n - 1, mu, ys), dtype=complex)
    curr = np.asarray(whittaker_w(kappa - n, mu, ys), dtype=complex)
    for j in range(n):
        kj = kappa - n + j
        nxt = (ys - 2.0 * kj) * curr - (kj - 0.5 - mu) * (kj - 0.5 + mu) * prev
        prev, curr = curr, nxt
    return curr


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
        self.kappa, self.mu = float(kappa), complex(mu)
        # nodes as the lookup maps them back, s = mid + half x; the end nodes
        # x = 1 and x = -1 are the shared edges, each evaluated once
        mid = 0.5 * (self._EDGES[1:] + self._EDGES[:-1])
        half = 0.5 * (self._EDGES[1:] - self._EDGES[:-1])
        inner = np.exp(mid[:, None] + half[:, None] * self._NODES[1:-1])
        t_edges = np.exp(self._EDGES)
        w = np.asarray(whittaker_w(self.kappa, self.mu, np.concatenate([inner.ravel(), t_edges])))
        w_edges = w[inner.size :]
        vals = np.column_stack([w_edges[1:], w[: inner.size].reshape(inner.shape), w_edges[:-1]])
        t_nodes = np.column_stack([t_edges[1:], inner, t_edges[:-1]])
        vals *= np.exp(t_nodes / 2.0) * t_nodes ** (-self.kappa)
        # degree-major, so a lookup gathers one contiguous row per degree
        self.coeffs = self._FIT @ vals.T
        real = self.mu.real == 0.0 or self.mu.imag == 0.0
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

    # a table is the one-table case of :class:`WhittakerStack`: no panel offset, one run
    offset = 0

    def __call__(self, t) -> np.ndarray:
        return _lookup(self, t)[0]

    def with_log_derivative(self, t) -> tuple:
        """(W(t), t W'(t)) from one lookup; W equals ``__call__`` bit for bit.

        With s = log t and g(s) = W e^{t/2} t^{-kappa} the tabulated factor,
        t W'(t) = e^{-t/2} t^kappa [g'(s) + (kappa - t/2) g(s)], and g' comes
        from the derivative of the Clenshaw recurrence, run beside it on the
        same coefficients.
        """
        return _lookup(self, t)

    @property
    def runs(self) -> tuple:
        """(rows, kappa) for the power t^kappa: every row, this table's kappa."""
        return ((slice(None), self.kappa),)


class WhittakerStack:
    """Tables of one nu looked up together, row r of a (rows x points)
    argument matrix through ``tables[which[r]]``.

    The tables share their panel edges, so their degree-major coefficients
    sit side by side in one block, and each row carries its panel offset into
    it and its kappa as (rows x 1) columns: one Clenshaw run covers the whole
    matrix, however many indices the rows use.  Every element goes through
    the recurrence of its own table's lookup, so (W, t W') are bitwise what
    ``tables[which[r]].with_log_derivative`` gives row r.  The power t^kappa
    is taken per run of rows with one table, with a scalar exponent as the
    table's own lookup takes it: numpy rounds an exponent of 1/2, -1 or 2
    differently when it comes as a column.
    """

    def __init__(self, tables, which):
        if len({table.mu for table in tables}) != 1:
            raise ValueError("a stack joins the tables of one nu")
        which = [int(i) for i in which]
        self.coeffs = np.concatenate([table.coeffs for table in tables], axis=1)
        self.offset = (np.array(which) * (len(WhittakerTable._EDGES) - 1))[:, None]
        self.kappa = np.array([tables[i].kappa for i in which])[:, None]
        starts = [r for r in range(len(which)) if r == 0 or which[r] != which[r - 1]]
        self.runs = tuple(
            (slice(a, b), tables[which[a]].kappa) for a, b in zip(starts, starts[1:] + [len(which)])
        )

    def with_log_derivative(self, t) -> tuple:
        """(W, t W') at the (rows x points) arguments t, from one lookup."""
        return _lookup(self, t)


def _lookup(src, t) -> tuple:
    """(W, t W') of a table or a stack ``src`` at t: the one lookup of both.

    Beyond ``T_MAX`` a point is looked up at ``T_MAX`` and its values set to
    zero, so every array keeps the shape of t.
    """
    table = WhittakerTable
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(ts >= table.T_MIN):  # NaN, zero and negative t fail too
        raise DomainError(f"table lookup requires t >= {table.T_MIN}, got {ts.min()}")
    c = src.coeffs
    s = np.log(ts)
    inside = s <= table._S_HI
    s = np.minimum(s, table._S_HI)
    ts = np.where(inside, ts, table.T_MAX)
    idx = np.searchsorted(table._EDGES, s, side="right") - 1
    idx = np.clip(idx, 0, len(table._EDGES) - 2)
    lo = table._EDGES[idx]
    hi = table._EDGES[idx + 1]
    x = (2.0 * s - (hi + lo)) / (hi - lo)
    idx += src.offset
    # Clenshaw with per-point coefficients, vectorised over points; one
    # degree is gathered at a time, so no (points x degree) copy is made.
    # d1, d2 are the x-derivatives of b1, b2:
    # d_j = 2 b_{j+1} + 2x d_{j+1} - d_{j+2}
    b1 = b2 = d1 = d2 = np.zeros(x.shape, dtype=c.dtype)  # rebound, never written
    two_x = 2.0 * x
    for j in range(table.DEGREE, 0, -1):
        d1, d2 = 2.0 * b1 + two_x * d1 - d2, d1
        b1, b2 = c[j][idx] + two_x * b1 - b2, b1
    vals = c[0][idx] + x * b1 - b2
    decay = np.exp(-ts / 2.0)
    power = np.concatenate([ts[rows] ** kappa for rows, kappa in src.runs])
    slope = (b1 + x * d1 - d2) * (2.0 / (hi - lo))
    outs = (
        np.where(inside, vals * decay * power, 0.0),
        np.where(inside, (slope + (src.kappa - ts / 2.0) * vals) * decay * power, 0.0),
    )
    return tuple(out if np.ndim(t) else out.reshape(())[()] for out in outs)
