"""Principal-branch complex arithmetic.

Every power taken anywhere in this package follows the convention fixed
here: arguments lie in (-pi, pi], and the argument of a negative real is
+pi.  Platform ``atan2`` returns -pi for inputs with a negative-zero
imaginary part, which is why ``principal_arg`` (and its elementwise
``principal_arg_many``) special-cases the cut instead of trusting ``cmath``
or ``numpy.angle``.  The R-kernel takes numpy's complex log of
differences it has checked are off the cut, where the conventions agree.

Membership tests against the cut are exact sign tests (``im == 0 and
re < 0``), never epsilon tests: points within roundoff of the cut are legal
inputs and must not be snapped onto it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "principal_arg",
    "principal_arg_many",
    "principal_pow",
    "factorizable",
    "finite",
    "in_cut_plane",
    "on_cut",
]


def finite(z, name: str) -> complex:
    """z as a complex number; DomainError naming it if a part is NaN or infinite."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} = {z} is not finite")
    return z


def on_cut(z: complex) -> bool:
    """True iff z lies on (-inf, 0], the deleted ray of the cut plane."""
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0


def in_cut_plane(z: complex) -> bool:
    """Membership in C' = C \\ (-inf, 0]."""
    return not on_cut(z)


def principal_arg(z: complex) -> float:
    """Argument in (-pi, pi]; exactly +pi on the negative real axis."""
    z = complex(z)
    if z == 0:
        raise DomainError("argument of zero is undefined")
    if z.imag == 0.0 and z.real < 0.0:
        return math.pi
    return math.atan2(z.imag, z.real)


def principal_arg_many(z) -> np.ndarray:
    """principal_arg elementwise, +pi on the negative real axis whatever the
    sign of its zero imaginary part; 0 at z = 0."""
    z = np.asarray(z, dtype=complex)
    return np.where((z.imag == 0.0) & (z.real < 0.0), np.pi, np.angle(z))


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
