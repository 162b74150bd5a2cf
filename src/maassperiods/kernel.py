"""The two-variable R-kernel and its exact ladder rule.

The paper displays the kernel as

    R_{k,nu}(z, zeta) = (sqrt(zeta - z) / sqrt(zeta - conj z))^{-k}
                        * (|Im z| / ((zeta - z)(zeta - conj z)))^{(1/2) - nu},

defined whenever neither difference lies on (-inf, 0]; all roots and powers
are principal.  ``RKernel`` evaluates it with the second factor taken apart,

    (sqrt(a) / sqrt(b))^{-k} * |Im z|^{1/2-nu} a^{nu-1/2} b^{nu-1/2},

a = zeta - z, b = zeta - conj z: with La, Lb their principal logs and
s = 1/2 - nu, one exponential, exp(-(k/2)(La - Lb) - s (La + Lb) + s log|Im z|),
as (arg a - arg b)/2 lies in (-pi, pi).  It equals the displayed formula
wherever arg a + arg b lies in [-pi, pi) - in particular on every contour
used for points with Re zeta > 0 - and, unlike it, stays real-analytic in z
across the vertical line through zeta, where the displayed power of the
product ab jumps.  The deformed contours for the holomorphic extension to
the cut plane cross that line.

Applying a Maass operator to the kernel shifts its first index by 2
(``kernel_eigen_apply``), exactly; as k enters only through -(k/2)(La - Lb),
R_{k-2j} = R_k (a/b)^j for integer j, so the transform integrands in
``periods`` evaluate one kernel per call and never difference.

The Maass-Selberg 1-form itself is built in one place, from a form's own
ladder pass, this kernel and its ladder rule: ``periods._pairing``,
which every transform integrand and every ``ms.*`` identity of ``verify``
goes through.
Finite differences (``forms.maass_op_fd``) remain only as the independent
oracle of ``kernel_eigen_apply``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .branch import _complex, in_cut_plane, principal_arg, principal_pow
from .errors import DomainError, RDomainError
from .modgroup import GroupElement, moebius, mu

__all__ = [
    "RKernel",
    "r_transform_check",
    "kernel_eigen_apply",
]


@dataclass(frozen=True)
class RKernel:
    """The kernel of index pair (k, nu), in the one formula of the module docstring.

    ``mode`` names that formula's branch and accepts only ``"factored"``; it
    stays only because the benchmark's probe passes it.
    """

    k: float
    nu: complex
    mode: str = "factored"

    def __post_init__(self):
        if self.mode != "factored":
            raise ValueError(f"unknown mode {self.mode!r}: the kernel has the one branch 'factored'")

    def shifted(self, step: int) -> "RKernel":
        return replace(self, k=self.k + step)

    def eval(self, z: complex, zeta: complex) -> complex:
        return complex(self.eval_many(np.array([z]), zeta)[0])

    def eval_many(self, zs: np.ndarray, zeta) -> np.ndarray:
        """The kernel at the points zs, against one zeta or one zeta per point."""
        zs = np.asarray(zs, dtype=complex)
        zeta = _complex(zeta)
        a = zeta - zs
        b = zeta - np.conj(zs)
        return self._from_pieces(a, b, np.abs(zs.imag))

    def eval_ray(self, base, ts: np.ndarray, zeta) -> np.ndarray:
        """Evaluation along z = base + i t with the differences formed exactly.

        Near a moving endpoint the offset t drops below the resolution of
        base + i t, but the kernel only needs zeta - z = (zeta - base) - i t
        and zeta - conj z = (zeta - conj base) + i t, which stay exact.
        ``base`` and ``zeta`` are numbers or one per offset.
        """
        ts = np.asarray(ts, dtype=float)
        zeta, base = _complex(zeta), _complex(base)
        a = (zeta - base) - 1j * ts
        b = (zeta - base.conjugate()) + 1j * ts
        return self._from_pieces(a, b, np.abs(base.imag + ts))

    def _from_pieces(self, a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The kernel from a = zeta - z, b = zeta - conj z and y = |Im z|.

        A point is outside the domain only if a or b is real or y is zero,
        so one test over the batch decides whether to look closer; only
        then do the three checks run, in this order: a on the cut (the
        first such point's RDomainError ``zeta-z``), b on the cut
        (``zeta-zbar``), then y = 0 (DomainError).
        """
        if ((a.imag == 0.0) | (b.imag == 0.0) | (y == 0.0)).any():
            bad_a = (a.imag == 0.0) & (a.real <= 0.0)
            bad_b = (b.imag == 0.0) & (b.real <= 0.0)
            if bad_a.any():
                raise RDomainError("zeta-z", complex(a[bad_a][0]))
            if bad_b.any():
                raise RDomainError("zeta-zbar", complex(b[bad_b][0]))
            if (y == 0.0).any():
                raise DomainError("kernel evaluation requires Im z != 0")
        # neither difference is on the cut, so numpy's principal log is ours
        la, lb = np.log(a), np.log(b)
        s = 0.5 - self.nu
        return np.exp(s * np.log(y) - (0.5 * self.k + s) * la + (0.5 * self.k - s) * lb)


def kernel_eigen_apply(kernel: RKernel, sign: int, weight: float) -> tuple:
    """Closed form of E^{sign}_{weight} applied to z -> R(z, zeta).

    Valid when the operator weight equals the kernel index; because the
    kernel carries |Im z|, the same rule holds on both half-planes (checked
    against finite differences on each).  Returns ``(coefficient, shifted
    kernel)`` with coefficient 1 - 2 nu + sign * k.
    """
    if abs(weight - kernel.k) > 1e-12:
        raise ValueError(
            f"operator weight {weight} does not match kernel index {kernel.k}"
        )
    coefficient = 1.0 - 2.0 * kernel.nu + sign * kernel.k
    return coefficient, kernel.shifted(2 * sign)


def r_transform_check(
    kernel: RKernel, g: GroupElement, z: complex, zeta: complex
) -> float:
    """Relative residual of the kernel transformation law under g.

    Verifies the hypotheses first: both automorphy factors in the cut
    plane, Re mu(g, zeta) > 0, and one of (1) mu(g, zeta) positive real,
    (2) zeta in H with g z on the vertical ray above g zeta, (3) the
    mirror of (2) for zeta in the lower half-plane.
    """
    z = complex(z)
    zeta = complex(zeta)
    m_zeta = mu(g, zeta)
    m_z = mu(g, z)
    if not in_cut_plane(m_zeta):
        raise DomainError(f"mu(g, zeta) = {m_zeta} is on the cut")
    if not in_cut_plane(m_z):
        raise DomainError(f"mu(g, z) = {m_z} is on the cut")
    if not m_zeta.real > 0:
        raise DomainError(f"Re mu(g, zeta) = {m_zeta.real} is not positive")
    gz = moebius(g, z)
    gzeta = moebius(g, zeta)
    tol = 1e-9 * max(1.0, abs(gz), abs(gzeta))
    case1 = m_zeta.imag == 0.0 and m_zeta.real > 0.0
    case2 = zeta.imag > 0 and abs(gz.real - gzeta.real) <= tol and gz.imag > gzeta.imag
    gzbar = moebius(g, z.conjugate())
    gzetabar = moebius(g, zeta.conjugate())
    case3 = (
        zeta.imag < 0
        and abs(gzbar.real - gzetabar.real) <= tol
        and gzbar.imag > gzetabar.imag
    )
    if not (case1 or case2 or case3):
        raise DomainError(
            "none of the three admissibility clauses holds: "
            "mu(g,zeta) not positive real, g z not on the ray above g zeta, "
            "and the conjugate clause fails"
        )
    lhs = kernel.eval(gz, gzeta)
    rhs = (
        np.exp(1j * kernel.k * principal_arg(m_z))
        * principal_pow(m_zeta, 1.0 - 2.0 * kernel.nu)
        * kernel.eval(z, zeta)
    )
    return abs(lhs - rhs) / abs(rhs)
