"""Integer unimodular matrices, generator words and the fractional linear action.

The point at infinity is a distinguished sentinel (:data:`INFINITY`), not a
large float, so the extended action ``a/c if z = infinity`` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import InvalidElementError

__all__ = [
    "GroupElement",
    "GeneratorWord",
    "INFINITY",
    "IDENTITY",
    "S",
    "T",
    "T_PRIME",
    "MINUS_ONE",
    "moebius",
    "mu",
    "decompose",
    "has_nonnegative_entries",
]


class _Infinity:
    """The boundary point at i*infinity of the extended plane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"


INFINITY = _Infinity()

ExtendedComplex = Union[complex, _Infinity]


@dataclass(frozen=True)
class GroupElement:
    """An element of SL(2, Z), stored as exact integers."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int):
                raise InvalidElementError(f"entries must be int, got {entry!r}")
        if self.a * self.d - self.b * self.c != 1:
            raise InvalidElementError(
                f"determinant of [[{self.a},{self.b}],[{self.c},{self.d}]] is not 1"
            )

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "GroupElement":
        return GroupElement(-self.a, -self.b, -self.c, -self.d)

    def max_entry(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


IDENTITY = GroupElement(1, 0, 0, 1)
S = GroupElement(0, -1, 1, 0)
T = GroupElement(1, 1, 0, 1)
T_PRIME = T * S * T
MINUS_ONE = GroupElement(-1, 0, 0, -1)


def moebius(g: GroupElement, z: ExtendedComplex) -> ExtendedComplex:
    """Fractional linear action on the extended plane."""
    if z is INFINITY:
        if g.c == 0:
            return INFINITY
        return complex(g.a) / g.c
    z = complex(z)
    den = g.c * z + g.d
    if den == 0:
        return INFINITY
    return (g.a * z + g.b) / den


def mu(g: GroupElement, z: complex) -> complex:
    """The automorphy denominator c z + d."""
    return g.c * complex(z) + g.d


def has_nonnegative_entries(g: GroupElement) -> bool:
    """Membership in the monoid that maps the cut plane into itself."""
    return g.a >= 0 and g.b >= 0 and g.c >= 0 and g.d >= 0


@dataclass(frozen=True)
class GeneratorWord:
    """A word in S and T, with T-runs stored as (generator, power) tokens.

    ``tokens`` is a tuple of pairs ``("S", 1)`` or ``("T", m)`` with m a
    nonzero integer, the run of |m| factors T or T^-1.  Runs are what keep
    the word length logarithmic in the matrix entries (a bare translation
    T^m would otherwise need m factors).
    """

    tokens: tuple

    def __len__(self) -> int:
        return len(self.tokens)

    def matrix(self) -> GroupElement:
        a, b, c, d = 1, 0, 0, 1
        for gen, power in self.tokens:
            # right-multiply by S = [[0, -1], [1, 0]] or by T^power
            a, b, c, d = (b, -a, d, -c) if gen == "S" else (a, a * power + b, c, c * power + d)
        return GroupElement(a, b, c, d)


def _round_half_down(p: int, q: int) -> int:
    """Nearest integer to p/q with half-integer ties broken toward the floor."""
    if q < 0:
        p, q = -p, -q
    # ceil((2p - q) / (2q)) without floats, exact for any magnitude
    num = 2 * p - q
    den = 2 * q
    return -((-num) // den)


def decompose(g: GroupElement) -> GeneratorWord:
    """Write g as a product of word tokens.

    Continued-fraction reduction on the first column: repeatedly peel a
    factor T^q S choosing q as the nearest integer to a/c (ties toward the
    floor), which at least halves |c|.  What is left is T^shift or
    (-1) T^shift, and the central (-1) is written as S^2, so
    ``decompose(g).matrix() == g`` exactly.
    """
    if not isinstance(g, GroupElement):
        g = GroupElement(*g)
    a, b, c, d = g.a, g.b, g.c, g.d
    tokens = []
    while c != 0:
        q = _round_half_down(a, c)
        if q != 0:
            tokens.append(("T", q))
        tokens.append(("S", 1))
        # m = (a, b, c, d) <- S^-1 T^-q m, with S^-1 = [[0, 1], [-1, 0]]
        a, b, c, d = c, d, q * c - a, q * d - b
    # now m = +-T^shift
    shift = b if a == 1 else -b
    if shift != 0:
        tokens.append(("T", shift))
    if a == -1:
        tokens.append(("S", 1))
        tokens.append(("S", 1))
    return GeneratorWord(tuple(tokens))
