"""Evaluatable Maass cusp forms and the Maass operators.

Two backends, each with the two facts the transforms read as class constants:

* ``HolomorphicEmbedding`` wraps a classical holomorphic cusp form u_h of
  even weight as u(z) = (Im z)^{k/2} u_h(z).  It is ``equivariant`` (fully
  automorphic, so it decays exponentially at every cusp) and ``holomorphic``
  (E^- u = 0), and it anchors every identity with the inversion generator.
  It and the classical Eichler integrands share one vectorised evaluator,
  :func:`q_expansion`: batch reduction with exact integer matrices, exact
  integer-power phases, and a series cutoff derived from the coefficients.

* ``WhittakerSurrogate`` is a finite sum of Whittaker-W Fourier terms at
  half-integral weight.  Each term is an exact eigenfunction of the weight-k
  Laplacian and the sum is exactly equivariant under translations (with the
  multiplier's v(T)), but nothing relates it to the inversion generator and
  E^- u does not vanish: it is neither.  It exists to exercise the analytic
  machinery at weights where no coefficient tables exist.  The finite sum
  itself is the object under test, so there is no truncation error in its
  own identities.  Its terms are summed in term order, so a value does not
  depend on the batch it is evaluated in.

The transform integrands take u and E^+u (or E^-u) from one pass,
:meth:`MaassForm.eval_ladder_many`: one q-expansion for the embedding, one
table lookup per Whittaker index for the surrogate, which returns W and
t W'(t) together, so E^+-u is exact termwise there too.  Forms with the same
Whittaker index share one table per process.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, Union

import numpy as np

from .branch import principal_arg, principal_pow
from .errors import BranchViolationError, DomainError, InvalidWeightError
from .modgroup import (
    GroupElement,
    has_nonnegative_entries,
    moebius,
    mu,
)
from .multiplier import MultiplierSystem, construct_eta_power, construct_trivial, parse_weight
from .specfun import WhittakerTable

__all__ = [
    "MaassForm",
    "HolomorphicEmbedding",
    "WhittakerSurrogate",
    "delta_coefficients",
    "delta_form",
    "surrogate_form",
    "two_sided_surrogate",
    "boundary_balanced_coefficients",
    "maass_raise",
    "maass_lower",
    "maass_laplacian_fd",
    "slash",
    "dslash",
    "reduce_to_fundamental_domain",
    "reduce_many",
    "q_expansion",
]


# ---------------------------------------------------------------------------
# discriminant-form coefficients

# how many q-coefficients of Delta every caller takes; the series cutoff of
# :func:`_horner_rows` keeps the first 10 of them at reduced points
DELTA_TERMS = 50


@lru_cache(maxsize=8)
def delta_coefficients(n_terms: int) -> tuple:
    """First q-coefficients of q * prod_{m>=1} (1 - q^m)^24, exact integers."""
    # product accumulated to O(q^{n_terms}); multiplying by (1 - q^m) is a
    # single backward pass, applied 24 times per m
    poly = [0] * n_terms
    poly[0] = 1
    for m in range(1, n_terms):
        for _ in range(24):
            for j in range(n_terms - 1, m - 1, -1):
                poly[j] -= poly[j - m]
    # shift by one power of q: coefficient of q^n is poly[n-1]
    return tuple(poly)


# ---------------------------------------------------------------------------
# fundamental-domain reduction and q-series evaluation, vectorised

# matrix entries ride along as integer-valued float64, exact below 2^53
_EXACT_BELOW = 2.0**53
_MAX_REDUCTION_STEPS = 256
# (a, b, c, d) -> S (a, b, c, d) = (-c, -d, a, b)
_S_COLUMNS = [2, 3, 0, 1]
_S_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])
# reduced points have Im w >= sqrt(3)/2, so |q| <= e^{-pi sqrt 3}
_Q_BOUND = math.exp(-math.pi * math.sqrt(3.0))


def reduce_many(zs: np.ndarray) -> tuple:
    """Reduce a flat array of points to the fundamental domain, all at once.

    Returns (w, g): w = g z with |Re w| <= 1/2 and |w| >= 1 (up to
    roundoff), g the (n, 4) matrices (a, b, c, d).  A point is translated
    by floor(Re w + 1/2), then inverted while |w|^2 < 1 - 1e-14, and stops
    at its first step without an inversion.  Raises DomainError after 256
    steps, or when an entry (or a product on the way to one) reaches 2^53.
    """
    zs = np.asarray(zs, dtype=complex)
    if np.any(zs.imag <= 0):
        raise DomainError("reduction requires Im z > 0")
    ws = np.empty_like(zs)
    gs = np.empty((zs.size, 4))
    idx = np.arange(zs.size)
    w = zs
    g = np.tile([1.0, 0.0, 0.0, 1.0], (zs.size, 1))
    for _ in range(_MAX_REDUCTION_STEPS):
        shift = np.floor(w.real + 0.5)
        w = w - shift
        step = shift[:, None] * g[:, 2:]
        g[:, :2] -= step
        if np.abs(np.concatenate((step, g[:, :2]))).max(initial=0.0) >= _EXACT_BELOW:
            raise DomainError("reduction matrix entries reached 2^53")
        # every point still moving is written; later steps overwrite it
        ws[idx] = w
        gs[idx] = g
        inside = w.real * w.real + w.imag * w.imag < 1.0 - 1e-14
        idx = idx[inside]
        if not idx.size:
            return ws, gs
        w = -1.0 / w[inside]
        g = g.compress(inside, axis=0).take(_S_COLUMNS, axis=1) * _S_SIGNS
    raise DomainError(f"reduction did not finish in {_MAX_REDUCTION_STEPS} steps")


def reduce_to_fundamental_domain(z: complex) -> tuple:
    """Return (w, g) with w = g z, |Re w| <= 1/2 and |w| >= 1 (up to roundoff).

    Nothing in the library calls this scalar form any more; it stays only
    because the benchmark's tracer (``perfbench/tracer.py``) binds it by
    name, and goes when that tracer wraps :func:`reduce_many` instead.
    """
    w, g = reduce_many(np.array([complex(z)]))
    return complex(w[0]), GroupElement(*(int(e) for e in g[0]))


@lru_cache(maxsize=16)
def _horner_rows(coefficients: tuple) -> np.ndarray:
    """(N, 2, 1) Horner rows (c_n, 2 pi i n c_n), highest n first.

    N is the last n with n |c_n| e^{-pi sqrt 3 (n-1)} >= 2^-53 of the
    largest such bound: later terms (and their derivatives, hence n) stay
    below roundoff at every reduced point.
    """
    c = np.asarray(coefficients, dtype=complex)
    n = np.arange(1, c.size + 1)
    reach = n * np.abs(c) * _Q_BOUND ** (n - 1)
    cutoff = int(np.nonzero(reach >= 2.0**-53 * reach.max())[0][-1]) + 1
    rows = np.stack([c, 2j * math.pi * n * c], axis=1)[:cutoff, :, None]
    return rows[::-1].copy()


def q_expansion(coefficients, zs: np.ndarray, derivative: bool = False) -> tuple:
    """The q-series sum_{n>=1} c_n q^n at the reduced images of zs.

    Returns (w, mu, series) for a flat z-array: w = g z in the fundamental
    domain, mu = c z + d the automorphy factor of g, and series[0] the sum
    at q = e^{2 pi i w}; with ``derivative``, series[1] is its w-derivative.
    Both sums run Horner's rule over the derived cutoff of
    :func:`_horner_rows`, in one pass.  Callers apply the weight.
    """
    rows = _horner_rows(tuple(coefficients))
    if not derivative:
        rows = rows[:, :1]
    w, g = reduce_many(zs)
    # q as a (1, points) row: against a (1,) vector numpy would multiply a
    # lone point by another loop, which rounds differently
    q = np.exp(2j * math.pi * w)[None, :]
    acc = np.zeros((rows.shape[1], w.size), dtype=complex)
    for row in rows:
        acc = (acc + row) * q
    return w, g[:, 2] * zs + g[:, 3], acc


# ---------------------------------------------------------------------------
# surrogate tables and term sums


@lru_cache(maxsize=32)
def _whittaker_table(kappa: float, nu: complex) -> WhittakerTable:
    """One table per (kappa, nu) in a process, shared by every form that
    uses the index (the one- and two-sided surrogates share W_{k/2, nu})."""
    return WhittakerTable(kappa, nu)


def _term_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the terms axis (second to last), one term after another.

    numpy's ``sum`` adds a lone point's terms pairwise and several points'
    in order, so a value would depend on its batch in the last bits.
    """
    acc = terms[..., 0, :]
    for j in range(1, terms.shape[-2]):
        acc = acc + terms[..., j, :]
    return acc


# ---------------------------------------------------------------------------
# backends


@dataclass(frozen=True)
class HolomorphicEmbedding:
    """q-coefficients c_1, c_2, ... of a cuspidal holomorphic form."""

    holomorphic: ClassVar[bool] = True
    equivariant: ClassVar[bool] = True
    coefficients: tuple


@dataclass(frozen=True)
class WhittakerSurrogate:
    """Fourier coefficients a_1, ..., a_N of the frequencies kappa0 + n.

    The shift kappa0 = rho/24 comes from the form's multiplier v_eta^rho
    (:attr:`MaassForm.kappa0`).  ``negative_coefficients`` optionally
    populate the frequencies kappa0 - 1, kappa0 - 2, ... (with Whittaker
    index -k/2).  The ray transform on the lower half-plane pairs
    exclusively with this side of the spectrum - with positive frequencies
    alone it vanishes identically - so two-sided coefficients are needed
    wherever that transform should be nondegenerate.
    """

    holomorphic: ClassVar[bool] = False
    equivariant: ClassVar[bool] = False
    coefficients: tuple
    negative_coefficients: tuple = ()


Backend = Union[HolomorphicEmbedding, WhittakerSurrogate]


class MaassForm:
    """A weight-k eigenfunction of the hyperbolic Laplacian, evaluatable on H."""

    def __init__(self, weight, multiplier: MultiplierSystem, nu: complex, backend: Backend):
        self.weight = parse_weight(weight)
        self.k = float(self.weight)
        self.multiplier = multiplier
        self.nu = complex(nu)
        self.backend = backend
        if isinstance(backend, HolomorphicEmbedding):
            self._validate_embedding()
        self._tables = None

    def _validate_embedding(self):
        if self.weight.denominator != 1 or self.weight <= 0 or self.weight % 2 != 0:
            raise InvalidWeightError(
                "the holomorphic embedding needs a positive even integer weight"
            )
        allowed = {(self.k - 1) / 2.0, (1.0 - self.k) / 2.0}
        if min(abs(self.nu - a) for a in allowed) > 1e-12:
            raise ValueError(f"embedding spectral parameter must be +-(k-1)/2, got {self.nu}")
        if abs(self.multiplier.v_t - 1) > 1e-12 or abs(self.multiplier.v_s - 1) > 1e-12:
            raise ValueError("the holomorphic embedding carries the trivial multiplier")

    # -- metadata ------------------------------------------------------------

    @property
    def is_embedding(self) -> bool:
        """The backend's type: the library reads ``backend.holomorphic`` and
        ``backend.equivariant``; this stays only because the benchmark reads it."""
        return isinstance(self.backend, HolomorphicEmbedding)

    @property
    def kappa0(self) -> float:
        """rho/24 for v = v_eta^rho: the frequency shift with v(T) = e^{2 pi i kappa0}."""
        return self.multiplier.rho / 24

    # -- evaluation ------------------------------------------------------------

    def eval(self, z: complex) -> complex:
        return complex(self.eval_many(np.array([z]))[0])

    def __call__(self, z: complex) -> complex:
        return self.eval(z)

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        return self.eval_ladder_many(zs, -1)[0]

    def raise_many(self, zs: np.ndarray) -> np.ndarray:
        """E^+_k u, termwise exact: the q-series derivative for the
        embedding, each Whittaker table's t W'(t) for the surrogate."""
        return self.eval_ladder_many(zs, +1)[1]

    def lower_many(self, zs: np.ndarray) -> np.ndarray:
        """E^-_k u; identically zero for the holomorphic embedding."""
        return self.eval_ladder_many(zs, -1)[1]

    def eval_ladder_many(self, zs: np.ndarray, sign: int) -> tuple:
        """(u, E^+_k u) for sign +1, (u, E^-_k u) for sign -1, from one pass.

        The embedding takes both arrays from one q-expansion (E^- u is
        zero), and the surrogate takes W and t W'(t) from one lookup per
        Whittaker index.  Any other sign raises ValueError.
        """
        if sign not in (1, -1):
            raise ValueError(f"ladder sign must be +1 or -1, got {sign!r}")
        zs = np.asarray(zs, dtype=complex)
        if np.any(zs.imag <= 0):
            raise DomainError("Maass form evaluation requires Im z > 0")
        if isinstance(self.backend, HolomorphicEmbedding):
            return self._embedding_op(zs, sign)
        return self._surrogate_op(zs, sign)

    # -- embedding internals ---------------------------------------------------

    def _embedding_op(self, zs: np.ndarray, sign: int) -> tuple:
        """(u, E^{+-} u) with u = y^{k/2} u_h from the reduced point; the
        phase e^{-ik arg mu} is the exact power (conj(mu)/|mu|)^k, k + 2 for
        E^+ u, and E^- u = 0."""
        w, mu, series = q_expansion(self.backend.coefficients, zs.ravel(), derivative=sign > 0)
        y = w.imag
        k = int(self.weight)
        unit = np.conj(mu) / np.abs(mu)
        value = (unit**k * y ** (k / 2) * series[0]).reshape(zs.shape)
        if sign < 0:
            return value, np.zeros(zs.shape, dtype=complex)
        raised = 2.0 * k * series[0] + 4j * y * series[1]
        return value, (unit ** (k + 2) * y ** (k / 2) * raised).reshape(zs.shape)

    # -- surrogate internals -----------------------------------------------------

    def _spectral_data(self):
        """(coefficients, frequencies, whittaker index per term, tables)."""
        if self._tables is None:
            pos = tuple(self.backend.coefficients)
            neg = tuple(self.backend.negative_coefficients)
            coeffs = np.asarray(pos + neg, dtype=complex)
            freqs = np.concatenate(
                [
                    np.arange(1, len(pos) + 1) + self.kappa0,
                    self.kappa0 - np.arange(1, len(neg) + 1),
                ]
            )
            kappas = np.where(freqs > 0, self.k / 2.0, -self.k / 2.0)
            # a sorted set, since np.unique would load numpy.ma
            tables = {kap: _whittaker_table(kap, self.nu) for kap in sorted(set(kappas.tolist()))}
            self._tables = (coeffs, freqs, kappas, tables)
        return self._tables

    def _surrogate_radial(self, y: np.ndarray) -> np.ndarray:
        """W(4 pi |freq| y), one row per Fourier term, stacked on a leading
        axis with t W'(t) at the same arguments.

        All terms sharing a Whittaker index go through their table in one
        lookup of the flattened (terms x points) argument matrix, so a
        one-sided form makes one table call and a two-sided form two.  The
        lookup is element-wise, so the grouping does not change any value.
        """
        coeffs, freqs, kappas, tables = self._spectral_data()
        rows = np.empty((2, len(coeffs), y.size), dtype=complex)
        for kap, table in tables.items():
            group = kappas == kap
            args = 4.0 * math.pi * np.abs(freqs[group])[:, None] * y[None, :]
            for row, values in zip(rows, table.with_log_derivative(args.ravel())):
                row[group] = values.reshape(args.shape)
        return rows

    def _surrogate_op(self, zs: np.ndarray, sign: int) -> tuple:
        """(u, E^{+-}_k u) = (u, +-2iy u_x + 2y u_y +- k u), termwise exact.

        Each term c W(t) e(lambda x), t = 4 pi |lambda| y, has
        y d/dy = c t W'(t) e(lambda x), so one table lookup per Whittaker
        index gives both W and t W' (the table's own Chebyshev derivative).
        Every sum runs over terms in term order.
        """
        flat = zs.ravel()
        x, y = flat.real, flat.imag
        coeffs, freqs, _, _ = self._spectral_data()
        waves = np.exp(2j * math.pi * freqs[:, None] * x[None, :])
        rows, slopes = self._surrogate_radial(y)
        terms = coeffs[:, None] * rows * waves
        value = _term_sum(terms)
        dx = _term_sum(terms * (2j * math.pi * freqs[:, None]))
        y_dy = _term_sum(coeffs[:, None] * slopes * waves)
        out = sign * 2j * y * dx + 2.0 * y_dy + sign * self.k * value
        return value.reshape(zs.shape), out.reshape(zs.shape)


# ---------------------------------------------------------------------------
# Maass operators on arbitrary sampled functions


def _fd_line(fn: Callable, z: complex, step: complex) -> tuple:
    """fn at z + 2 step, z + step, z - step and z - 2 step."""
    return fn(z + 2 * step), fn(z + step), fn(z - step), fn(z - 2 * step)


def _fd_first(samples: tuple, h: float) -> complex:
    """The 5-point first derivative from the samples of :func:`_fd_line`."""
    p2, p1, m1, m2 = samples
    return (-p2 + 8 * p1 - 8 * m1 + m2) / (12.0 * h)


def _fd_partials(fn: Callable, z: complex, h: float) -> tuple:
    """5-point first partials (f_x, f_y) of fn at z."""
    return _fd_first(_fd_line(fn, z, h), h), _fd_first(_fd_line(fn, z, 1j * h), h)


def _fd_step(z: complex) -> float:
    return 1e-3 * min(1.0, abs(z.imag))


def maass_raise(f, z: complex, k: float | None = None) -> complex:
    """E^+_k f at z; analytic for form backends, finite differences otherwise."""
    return _maass_op(f, z, k, +1)


def maass_lower(f, z: complex, k: float | None = None) -> complex:
    """E^-_k f at z."""
    return _maass_op(f, z, k, -1)


def _maass_op(f, z, k, sign):
    z = complex(z)
    if isinstance(f, MaassForm):
        if k is not None and abs(k - f.k) > 1e-12:
            raise ValueError(f"operator weight {k} does not match form weight {f.k}")
        arr = np.array([z])
        return complex((f.raise_many(arr) if sign > 0 else f.lower_many(arr))[0])
    if k is None:
        raise ValueError("a weight is required for generic functions")
    y = z.imag
    fx, fy = _fd_partials(f, z, _fd_step(z))
    return sign * 2j * y * fx + 2.0 * y * fy + sign * k * f(z)


def maass_laplacian_fd(fn: Callable, k: float, z: complex, h: float | None = None) -> complex:
    """Weight-k hyperbolic Laplacian by 5-point second differences."""
    z = complex(z)
    if h is None:
        h = _fd_step(z)
    y = z.imag
    centre = fn(z)
    along_x, along_y = _fd_line(fn, z, h), _fd_line(fn, z, 1j * h)
    fxx, fyy = (
        (-p2 + 16 * p1 - 30 * centre + 16 * m1 - m2) / (12.0 * h * h) for p2, p1, m1, m2 in (along_x, along_y)
    )
    return -y * y * (fxx + fyy) + 1j * k * y * _fd_first(along_x, h)


# ---------------------------------------------------------------------------
# slash actions


def _multiplier_value(v, g: GroupElement) -> complex:
    if v is None or v == 1:
        return 1.0 + 0.0j
    if isinstance(v, MultiplierSystem):
        return v.evaluate(g)
    return complex(v)


def slash(f: Callable, k: float, v, g: GroupElement) -> Callable:
    """(f |_k^v g)(z) = e^{-ik arg mu(g,z)} v(g)^{-1} f(g z)."""
    vg = _multiplier_value(v, g)

    def acted(z: complex) -> complex:
        z = complex(z)
        return cmath.exp(-1j * float(k) * principal_arg(mu(g, z))) / vg * f(moebius(g, z))

    return acted


def dslash(f: Callable, nu: complex, v, g: GroupElement) -> Callable:
    """(f ||_nu^v g)(z) = v(g)^{-1} mu(g,z)^{2 nu - 1} f(g z)."""
    vg = _multiplier_value(v, g)
    nu = complex(nu)

    def acted(z: complex) -> complex:
        z = complex(z)
        m = mu(g, z)
        if z.imag == 0.0:
            admissible = has_nonnegative_entries(g) or (m.imag == 0.0 and m.real > 0.0)
            if not admissible:
                raise BranchViolationError(
                    f"{g} does not act on the cut plane at z = {z}"
                )
        return principal_pow(m, 2 * nu - 1) / vg * f(moebius(g, z))

    return acted


# ---------------------------------------------------------------------------
# convenience constructors


def delta_form(n_terms: int = DELTA_TERMS) -> MaassForm:
    """The weight-12 discriminant form embedded as a Maass form, nu = 11/2."""
    return MaassForm(
        weight=12,
        multiplier=construct_trivial(12),
        nu=5.5,
        backend=HolomorphicEmbedding(delta_coefficients(n_terms)),
    )


def boundary_balanced_coefficients(nu: complex, kappa0: float) -> tuple:
    """Six coefficients whose y^{1/2-nu} boundary tail cancels.

    Each Whittaker term behaves like c+ t^{1/2+nu} + c- t^{1/2-nu} as the
    argument drops to zero; along the transform contours the c- parts sum
    to a single linear functional of the coefficients and, left alone, make
    the period function grow like log(1/zeta) toward the origin (a genuine
    cusp form suppresses this through its decay at every cusp).  Solving
    the last coefficient from sum a_n (n + kappa0)^{1/2-nu} = 0 restores
    the bounded behaviour the growth bounds assume.
    """
    base = [(1.0 + 0.4j * ((-1) ** n)) / (n * n) for n in range(1, 6)]
    weights = [principal_pow(n + kappa0, 0.5 - complex(nu)) for n in range(1, 7)]
    last = -sum(a * w for a, w in zip(base, weights[:-1])) / weights[-1]
    return tuple(base) + (last,)


def surrogate_form(
    weight, nu, coefficients=None, multiplier=None, negative_coefficients=()
) -> MaassForm:
    """A Whittaker surrogate at half-integral weight with the eta-power system."""
    k = parse_weight(weight)
    if multiplier is None:
        multiplier = construct_eta_power(k)
    if coefficients is None:
        coefficients = boundary_balanced_coefficients(nu, multiplier.rho / 24)
    backend = WhittakerSurrogate(tuple(coefficients), tuple(negative_coefficients))
    return MaassForm(weight=k, multiplier=multiplier, nu=nu, backend=backend)


def two_sided_surrogate(weight, nu) -> MaassForm:
    """A surrogate with both frequency signs populated, so the ray transform
    is nondegenerate on both half-planes."""
    pos = tuple((1.0 + 0.4j * ((-1) ** n)) / (n * n) for n in range(1, 5))
    neg = tuple((0.7 - 0.3j * ((-1) ** n)) / (n * n) for n in range(1, 5))
    return surrogate_form(weight, nu, coefficients=pos, negative_coefficients=neg)
