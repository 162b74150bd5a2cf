"""Multiplier systems compatible with a half-integral weight.

A system is given by the weight k and its values on S and T.  The weight-k
consistency relation forces v(S)^2 = v((ST)^3) = v((-1)) = e^{-ik pi}, which
holds exactly when v(T) = e^{i pi rho/12} with rho = 2k mod 4 and
v(S) = e^{-i pi rho/4}; then v = v_eta^rho on all of SL(2, Z), since
v / v_eta^{2k} and v_eta^{rho - 2k} are the same character of PSL(2, Z).

:meth:`MultiplierSystem.evaluate_many` takes Rademacher's closed form
(Rademacher and Grosswald, *Dedekind Sums*, 1972; Apostol, *Modular
Functions and Dirichlet Series*, ch. 3): for c > 0,
v(g) = exp(i pi rho [Phi(g) - 3] / 12) with the integer
Phi(g) = (a + d - 12c s(d, c)) / c and s the Dedekind sum; for c < 0,
v(g) = e^{i pi rho/2} v(-g); for c = 0, v(+-T^b) = e^{i pi rho b/12}, times
e^{-i pi rho/2} for -T^b.  The phase is reduced mod 24 in integers, so each
value is one of 24 unit roots.  It takes matrices in the one batch format
of :mod:`~maassperiods.modgroup`, a (4, ...) integer array, so the matrices
of ``forms.reduce_many`` go in as they come out.

:meth:`MultiplierSystem.evaluate_words` is the independent route: the
relation folded along generator words at a base point z0, all words of a
:class:`~maassperiods.modgroup.WordArray` in one pass.  With m_j the
product of the tokens right of token j, the terms arg mu(m_j, z0) -
arg mu(m_{j+1}, z0) telescope to -arg mu(g, z0), and mu(S, w) = w,
mu(T^n, w) = 1 leave one arg(m_j z0) per S token, so

    v(g) = v(S)^{#S} v(T)^{sum of T powers}
           exp(ik [sum over S tokens of arg(m_j z0) - arg mu(g, z0)]).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .branch import principal_arg_many
from .errors import InvalidElementError, InvalidMultiplierError, InvalidWeightError
from .modgroup import GroupElement, WordArray, integer_entries, moebius, mu

__all__ = ["MultiplierSystem", "construct_eta_power", "construct_trivial", "parse_weight"]

BASE_POINT = 2j

# e^{i pi n/12} at n = 0..23: i^(n // 6) times e^{i pi r/12}, r = n mod 6,
# whose cosine and sine come from angles in [0, pi/4]
_R = np.arange(24) % 6
_X = np.pi / 12 * np.minimum(_R, 6 - _R)
_ROOTS = np.where(_R <= 3, np.cos(_X) + 1j * np.sin(_X), np.sin(_X) + 1j * np.cos(_X)) * np.array(
    [1, 1j, -1, -1j]
)[np.arange(24) // 6]

# the Euclid run forms products up to c^3, so entries up to 2^20 stay exact
# in int64; larger ones are evaluated on Python ints
_INT64_EXACT = 2**20


def parse_weight(text) -> Fraction:
    """Parse a half-integral weight like '1/2', '12', 1.5 or Fraction(3, 2).

    A float is taken at its exact binary value, so 0.3 is rejected rather
    than rounded to the nearest half-integer.
    """
    try:
        k = Fraction(text)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidWeightError(f"weight {text!r} is not a finite number") from exc
    if (2 * k).denominator != 1:
        raise InvalidWeightError(f"weight {text!r} is not half-integral")
    if abs(k) >= 2**52:
        # beyond 2^52 float spacing exceeds 1/2, and the forms compute with k as a float
        raise InvalidWeightError(f"weight {text!r} is too large: |k| must be below 2^52")
    return k


@dataclass(frozen=True)
class MultiplierSystem:
    """Weight-compatible multiplier, determined by its values on S and T."""

    weight: Fraction
    v_t: complex
    v_s: complex
    rho: int = field(init=False, repr=False, compare=False)  # v = v_eta^rho, rho mod 24

    def __post_init__(self):
        object.__setattr__(self, "weight", parse_weight(self.weight))
        object.__setattr__(self, "rho", self._eta_exponent())

    @property
    def k(self) -> float:
        return float(self.weight)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, g: GroupElement) -> complex:
        """Value on one element: :meth:`evaluate_many` of its one column."""
        return complex(self.evaluate_many([[g.a], [g.b], [g.c], [g.d]])[0])

    def evaluate_many(self, m) -> np.ndarray:
        """Values at the matrices of the (4, ...) integer array ``m``,
        elementwise, by Rademacher's closed form (module docstring)."""
        m = integer_entries(*m, _INT64_EXACT)
        flip = m[2] < 0  # v(g) = e^{i pi rho/2} v(-g)
        a, b, c, d = m * (1 - 2 * flip)
        if (a * d - b * c != 1).any():
            raise InvalidElementError("every matrix must have determinant 1")
        cc = c + (c == 0)
        phi = (a + d - _twelve_c_dedekind(d % cc, cc)) // cc
        n = np.where(c > 0, phi - 3, a * (b % 24) - 6 * (a == -1)) + 6 * flip
        return _ROOTS[(self.rho * n % 24).astype(np.int64)]

    def evaluate_words(self, words: WordArray, base_point: complex = BASE_POINT) -> np.ndarray:
        """The consistency relation folded along each of ``words`` at
        ``base_point``, the route independent of the closed form (module
        docstring): one pass over the words' suffix products."""
        m = words.suffix_products()
        # arg(m_j z0) at each S cell j, with m_j the product right of it
        args = np.where(words.is_s, principal_arg_many(moebius(m[:, :, 1:], base_point)), 0.0)
        theta = args.sum(axis=1) - principal_arg_many(mu(m[:, :, 0], base_point))
        # v(T) has order o = 24/gcd(rho, 24); the exponent is reduced to
        # |t_power| <= o/2, since pow's error grows with it (numpy's pow,
        # like CPython's, even goes polar above 100)
        o = 24 // math.gcd(self.rho, 24)
        t_power = ((words.power.sum(axis=1) + o // 2) % o - o // 2).astype(np.int64)
        s_count = words.is_s.sum(axis=1)
        return self.v_s**s_count * self.v_t**t_power * np.exp(1j * self.k * theta)

    # -- construction-time validation ---------------------------------------

    def _eta_exponent(self) -> int:
        """rho with v(T) = e^{i pi rho/12}; the relation holds iff rho = 2k
        mod 4 and v(S) = e^{-i pi rho/4} (module docstring)."""
        tol = 1e-10
        v_t, v_s = complex(self.v_t), complex(self.v_s)
        rho = round(12 * cmath.phase(v_t) / math.pi) % 24 if cmath.isfinite(v_t) else 0
        if not (
            (rho - 2 * self.weight) % 4 == 0
            and abs(v_t - _ROOTS[rho]) <= tol
            and abs(v_s - _ROOTS[-3 * rho % 24]) <= tol
        ):
            raise InvalidMultiplierError(
                f"v(T) = {v_t}, v(S) = {v_s} fail the weight-{self.weight} relation: it needs "
                f"v(T) = e^(i pi rho/12) with rho = 2k mod 4 and v(S) = e^(-i pi rho/4)"
            )
        return rho


def _twelve_c_dedekind(h, c):
    """A(h, c) = 12c s(h, c) for coprime c > 0 and 0 <= h < c, elementwise.

    Each step of the Euclid run (h, c) -> (c mod h, h) is one reciprocity
    h A(h, c) + c A(c mod h, h) = h^2 + c^2 + 1 - 3hc; a run ends at
    (0, 1), where A = 0, and the steps are solved back to front.  A run that
    has ended steps on as (1, 1), which solves to A = 0 again.
    """
    steps = []
    while (h != 0).any():
        h = h + (h == 0)
        steps.append((h, c))
        h, c = c % h, h
    total = np.zeros_like(c)
    for h, c in reversed(steps):
        total = (h * h + c * c + 1 - 3 * h * c - c * total) // h
    return total


def construct_eta_power(weight) -> MultiplierSystem:
    """The 2k-th power of the weight-1/2 eta multiplier.

    v(T) = e^{i pi k / 6} and v(S) = e^{-i pi k / 2}, taken from the same
    unit roots the closed form returns, so ``evaluate(S)`` is ``v_s`` bit
    for bit.
    """
    k = parse_weight(weight)
    r = int(2 * k)
    return MultiplierSystem(weight=k, v_t=complex(_ROOTS[r % 24]), v_s=complex(_ROOTS[-3 * r % 24]))


def construct_trivial(weight) -> MultiplierSystem:
    """The constant system v = 1, consistent for even integer weights."""
    k = parse_weight(weight)
    if k.denominator != 1 or k % 2 != 0:
        raise InvalidWeightError(
            f"the trivial system is only weight-compatible for even k, got {k}"
        )
    return MultiplierSystem(weight=k, v_t=1.0 + 0.0j, v_s=1.0 + 0.0j)
