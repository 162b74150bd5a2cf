"""Integer unimodular matrices, generator words and the fractional linear action.

One format per object.  A matrix is a :class:`GroupElement` of exact
integers, and a batch of matrices is a (4, ...) integer array of the rows
a, b, c, d; ``mu``, ``moebius`` and ``has_nonnegative_entries`` take either.
A word is a :class:`WordArray`, many words in S and T as padded cell arrays:
:func:`decompose_many` writes matrices as words, and
:meth:`WordArray.matrices` multiplies them back.

The point at infinity is a distinguished sentinel (:data:`INFINITY`), not a
large float, so the extended action of one GroupElement,
``a/c if z = infinity``, is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, InvalidElementError

__all__ = [
    "GroupElement",
    "WordArray",
    "INFINITY",
    "IDENTITY",
    "S",
    "T",
    "T_PRIME",
    "MINUS_ONE",
    "moebius",
    "mu",
    "decompose_many",
    "has_nonnegative_entries",
    "integer_entries",
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


IDENTITY = GroupElement(1, 0, 0, 1)
S = GroupElement(0, -1, 1, 0)
T = GroupElement(1, 1, 0, 1)
T_PRIME = T * S * T
MINUS_ONE = GroupElement(-1, 0, 0, -1)

# decompose_many runs on int64 while every entry is at most 2^31: the
# determinant test stays below 2^62 then, and a Euclid step of a
# determinant-1 matrix never takes an entry past 2.5 times the largest
_EUCLID_EXACT = 2**31


def integer_entries(a, b, c, d, bound: int) -> np.ndarray:
    """The entries stacked as one (4, ...) int64 array, or as Python ints
    once one of them is beyond ``bound`` in absolute value.

    Unsigned entries are stacked as Python ints: numpy would stack a uint64
    array with int64 ones as float64.
    """
    entries = [np.asarray(x) for x in (a, b, c, d)]
    if not all(map(_holds_integers, entries)):
        raise InvalidElementError("matrix entries must be integers")
    m = np.stack([e if e.dtype.kind == "i" else e.astype(object) for e in entries])
    if m.size == 0 or m.dtype.kind == "i" and -bound <= m.min() <= m.max() <= bound:
        return m.astype(np.int64, copy=False)
    return np.frompyfunc(int, 1, 1)(m)


def _holds_integers(e: np.ndarray) -> bool:
    if e.size == 0 or e.dtype.kind in "iu":
        return True
    return e.dtype.kind == "O" and all(isinstance(x, (int, np.integer)) for x in e.flat)


def mu(g, z):
    """The automorphy denominator c z + d; elementwise for a matrix array g."""
    if isinstance(g, GroupElement):
        return g.c * complex(z) + g.d
    return g[2] * z + g[3]


def moebius(g, z):
    """Fractional linear action on the extended plane.

    A matrix array g acts elementwise on the points z, and a point that one
    of its matrices sends to infinity raises DomainError naming it; INFINITY,
    as a point or an image, belongs to the action of one GroupElement.
    """
    if isinstance(g, GroupElement):
        if z is INFINITY:
            return INFINITY if g.c == 0 else complex(g.a) / g.c
        z = complex(z)
        den = mu(g, z)
        return INFINITY if den == 0 else (g.a * z + g.b) / den
    den = mu(g, z)
    if (den == 0).any():
        point = np.broadcast_to(z, den.shape)[den == 0][0]
        raise DomainError(f"the action sends z = {point} to infinity (c z + d = 0)")
    return (g[0] * z + g[1]) / den


def has_nonnegative_entries(g):
    """Membership in the monoid that maps the cut plane into itself;
    elementwise for a matrix array g."""
    if isinstance(g, GroupElement):
        return min(g.a, g.b, g.c, g.d) >= 0
    return np.min(g, axis=0) >= 0


@dataclass(frozen=True)
class WordArray:
    """n generator words as (n, L) cell arrays.

    Cell j of word i is S where ``is_s[i, j]`` and T^power[i, j] elsewhere
    (``power`` is 0 in S cells).  A T^0 cell is the identity: it pads the
    shorter words, so a fold runs over all L cells without a mask, and it
    is not a token of the word.
    """

    is_s: np.ndarray
    power: np.ndarray

    def __len__(self) -> int:
        return len(self.is_s)

    @property
    def lengths(self) -> np.ndarray:
        """The token count of each word."""
        return np.count_nonzero(self.is_s | (self.power != 0), axis=1)

    def suffix_products(self) -> np.ndarray:
        """The (4, n, L + 1) matrix array whose column j holds the product of
        cells j, j + 1, ... of each word: column 0 the words' matrices,
        column L the identity.

        One right-to-left fold of all words in lockstep, exact: on int64
        while the bound prod(1 + |power|) on every entry stays below 2^62,
        on Python ints beyond.
        """
        n, width = self.is_s.shape
        growth = np.log2(1.0 + np.abs(self.power.astype(float))).sum(axis=1)
        dtype = np.int64 if growth.max(initial=0.0) < 62 else object
        a, b, c, d = _cells(self.is_s, self.power.astype(dtype))
        # out[j] = (top row, bottom row) of the product from cell j on
        out = np.empty((width + 1, 2, 2, n), dtype)
        out[width] = np.eye(2, dtype=np.int64)[:, :, None]
        for j in reversed(range(width)):
            top, bottom = out[j + 1]
            out[j, 0] = a[:, j] * top + b[:, j] * bottom
            out[j, 1] = c[:, j] * top + d[:, j] * bottom
        return out.reshape(width + 1, 4, n).transpose(1, 2, 0)

    def matrices(self) -> np.ndarray:
        """The (4, n) matrix array of the words' products."""
        return self.suffix_products()[:, :, 0]


def _cells(is_s, power):
    """The entries (a, b, c, d) of every cell's matrix: S = [[0, -1], [1, 0]]
    where ``is_s``, T^power = [[1, power], [0, 1]] elsewhere."""
    s = is_s.astype(np.int64)
    return 1 - s, power - s, s, 1 - s


def _round_half_down(p, q):
    """Nearest integer to p/q with half-integer ties broken toward the floor,
    elementwise over integer arrays."""
    p, q = np.where(q < 0, -p, p), np.abs(q)
    # ceil((2p - q) / (2q)) without floats, exact for any magnitude
    return -((q - 2 * p) // (2 * q))


def decompose_many(m) -> WordArray:
    """Every matrix of the (4, n) integer array ``m`` as a word in S and T.

    Continued-fraction reduction on the first column: repeatedly peel a
    factor T^q S choosing q as the nearest integer to a/c (ties toward the
    floor), which at least halves |c|.  What is left is T^shift or
    (-1) T^shift, and the central (-1) is written as S^2, so
    ``decompose_many(m).matrices()`` is m exactly.  All matrices run in
    lockstep: each step writes T^q S for every matrix whose c is not 0 yet,
    and T^0 padding for the others.
    """
    a, b, c, d = integer_entries(*m, _EUCLID_EXACT)
    if (a * d - b * c != 1).any():
        raise InvalidElementError("every matrix must have determinant 1")
    is_s, power = [], []
    while (live := c != 0).any():
        q = np.where(live, _round_half_down(a, np.where(live, c, 1)), 0)
        is_s += [np.zeros_like(live), live]
        power += [q, np.zeros_like(q)]
        # m <- S^-1 T^-q m, with S^-1 = [[0, 1], [-1, 0]]
        a, b, c, d = (
            np.where(live, c, a), np.where(live, d, b),
            np.where(live, q * c - a, c), np.where(live, q * d - b, d),
        )
    # now m = +-T^shift, and the central (-1) is S^2
    minus = a == -1
    is_s += [np.zeros_like(minus), minus, minus]
    power += [np.where(minus, -b, b), np.zeros_like(b), np.zeros_like(b)]
    return WordArray(np.stack(is_s, axis=1), np.stack(power, axis=1))
