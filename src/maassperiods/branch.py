"""Principal-branch complex arithmetic.

Every power taken anywhere in this package follows the convention fixed
here: arguments lie in (-pi, pi], and the argument of a negative real is
+pi.  Platform ``atan2`` returns -pi for inputs with a negative-zero
imaginary part, which is why ``principal_arg`` special-cases the cut
instead of trusting ``cmath`` or ``numpy.angle``.  The R-kernel takes
numpy's complex log of differences it has checked are off the cut, where
the conventions agree.

Each function takes a number or, elementwise, a numpy array.  A number
keeps the scalar arithmetic of ``math`` bit for bit; an array goes through
numpy's, which agrees within a few ulps, and the predicates agree exactly.

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


def _complex(z):
    """A number as a complex number, an array of them as a complex array."""
    return np.asarray(z, dtype=complex) if isinstance(z, np.ndarray) else complex(z)


def on_cut(z):
    """True iff z lies on (-inf, 0], the deleted ray of the cut plane."""
    z = _complex(z)
    return (z.imag == 0.0) & (z.real <= 0.0)


def in_cut_plane(z):
    """Membership in C' = C \\ (-inf, 0]."""
    cut = on_cut(z)
    return ~cut if isinstance(cut, np.ndarray) else not cut


def principal_arg(z):
    """Argument in (-pi, pi]; exactly +pi on the negative real axis, whatever
    the sign of its zero imaginary part."""
    if isinstance(z, np.ndarray):
        z = np.asarray(z, dtype=complex)
        if (z == 0).any():
            raise DomainError("argument of zero is undefined")
        return np.where((z.imag == 0.0) & (z.real < 0.0), np.pi, np.angle(z))
    z = complex(z)
    if z == 0:
        raise DomainError("argument of zero is undefined")
    if z.imag == 0.0 and z.real < 0.0:
        return math.pi
    return math.atan2(z.imag, z.real)


def principal_pow(z, s):
    """z**s on the principal branch, z = |z| e^{i arg z} with arg in (-pi, pi];
    for an array z, s is one exponent or one per element."""
    if isinstance(z, np.ndarray):
        z, s = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(s, dtype=complex))
        zero = z == 0
        if ((zero & (s != 0)) & (s.real <= 0)).any():
            raise DomainError("0 cannot be raised to a power with Re s <= 0")
        z = np.where(zero, 1.0, z)
        power = np.exp(s * (np.log(np.abs(z)) + 1j * principal_arg(z)))
        return np.where(zero, (s == 0).astype(complex), power)
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


def factorizable(z, w):
    """Whether (z w)^a = z^a w^a holds on the principal branch for all a.

    True iff z is a positive real and w avoids the cut, or both avoid the
    cut and their product is a positive real.  All tests are exact.
    """
    z, w = _complex(z), _complex(w)
    if np.any(z == 0) or np.any(w == 0):
        raise DomainError("factorizable requires nonzero arguments")
    # the product part by part, as Python forms a complex product: numpy's
    # may fuse a multiply-add and so move a zero imaginary part off zero
    re, im = z.real * w.real - z.imag * w.imag, z.real * w.imag + z.imag * w.real
    z_positive = (z.imag == 0.0) & (z.real > 0.0)
    return in_cut_plane(w) & (z_positive | in_cut_plane(z) & (im == 0.0) & (re > 0.0))
