"""Principal-branch complex arithmetic.

Every power taken anywhere in this package follows the convention fixed
here: arguments lie in (-pi, pi], and the argument of a negative real is
+pi.  Platform ``atan2`` returns -pi for inputs with a negative-zero
imaginary part, which is why ``principal_arg`` special-cases the cut
instead of trusting ``cmath``.  The R-kernel takes numpy's complex log of
differences it has checked are off the cut, where the conventions agree.

Membership tests against the cut are exact sign tests (``im == 0 and
re < 0``), never epsilon tests: points within roundoff of the cut are legal
inputs and must not be snapped onto it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "CutPlanePoint",
    "principal_arg",
    "principal_pow",
    "principal_sqrt",
    "factorizable",
    "in_cut_plane",
    "on_cut",
]


def on_cut(z: complex) -> bool:
    """True iff z lies on (-inf, 0], the deleted ray of the cut plane."""
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0


def in_cut_plane(z: complex) -> bool:
    """Membership in C' = C \\ (-inf, 0]."""
    return not on_cut(z)


@dataclass(frozen=True)
class CutPlanePoint:
    """A point of the cut plane C' = C \\ (-inf, 0]."""

    value: complex

    def __post_init__(self):
        if on_cut(self.value):
            raise DomainError(f"{self.value} lies on the cut (-inf, 0]")


def principal_arg(z: complex) -> float:
    """Argument in (-pi, pi]; exactly +pi on the negative real axis."""
    z = complex(z)
    if z == 0:
        raise DomainError("argument of zero is undefined")
    if z.imag == 0.0 and z.real < 0.0:
        return math.pi
    return math.atan2(z.imag, z.real)


def principal_pow(z: complex, s: complex) -> complex:
    """z**s on the principal branch, z = |z| e^{i arg z} with arg in (-pi, pi]."""
    z = complex(z)
    s = complex(s)
    if z == 0:
        if s == 0:
            return 1.0 + 0.0j
        if s.real > 0:
            return 0.0 + 0.0j
        raise DomainError("0 cannot be raised to a power with Re s <= 0")
    return _cexp(s * complex(math.log(abs(z)), principal_arg(z)))


def _cexp(w: complex) -> complex:
    r = math.exp(w.real)
    return complex(r * math.cos(w.imag), r * math.sin(w.imag))


def principal_sqrt(z: complex) -> complex:
    """Principal square root consistent with ``principal_arg``."""
    return principal_pow(z, 0.5)


def factorizable(z: complex, w: complex) -> bool:
    """Whether (z w)^a = z^a w^a holds on the principal branch for all a.

    True iff z is a positive real and w avoids the cut, or both avoid the
    cut and their product is a positive real.  All tests are exact.
    """
    z = complex(z)
    w = complex(w)
    if z == 0 or w == 0:
        raise DomainError("factorizable requires nonzero arguments")
    if z.imag == 0.0 and z.real > 0.0 and in_cut_plane(w):
        return True
    if in_cut_plane(z) and in_cut_plane(w):
        p = z * w
        if p.imag == 0.0 and p.real > 0.0:
            return True
    return False
