"""Output checks against the committed oracle data and exact identities.

Nothing here imports ``maassperiods``: the references are the mpmath data
written by ``oracle.py`` and a numpy re-implementation of the R-kernel in
its factored branch mode (principal branches, arg in (-pi, pi]).
"""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "oracle.json")

# Settings.identity_tol at the library's defaults; the Delta golden identity
# is held to it, as in the library's own classical suite
IDENTITY_TOL = 1e-7
WEIGHT_FACTOR = -22.0  # 2 - 2k for Delta, k = 12: P = -22 p and f = -22 f_h


def _complex_array(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class Oracle:
    """Reference values for Delta P and f and for the surrogate P."""

    def __init__(self, path: str = DATA):
        with open(path) as handle:
            data = json.load(handle)
        delta = data["delta"]
        self.period_coefficients = np.array(
            [complex(float(re), float(im)) for re, im in delta["period_coefficients"]]
        )
        self.eichler_terms = _complex_array(delta["eichler_terms"])  # (n, j)
        self.deg = len(self.period_coefficients) - 1
        surr = data["surrogate"]
        samples = np.asarray(surr["samples"], dtype=float)
        self.nodes = samples[:, 0, 0] + 1j * samples[:, 0, 1]
        self.wdz = samples[:, 1, 0] + 1j * samples[:, 1, 1]
        self.u = samples[:, 2, 0] + 1j * samples[:, 2, 1]
        self.lowered = samples[:, 3, 0] + 1j * samples[:, 3, 1]
        self.surrogate_k = 0.5
        self.surrogate_nu = complex(*surr["nu"])
        self.surrogate_kappa0 = float(surr["kappa0"])

    # -- Delta ---------------------------------------------------------------

    def period_polynomial(self, zeta: complex) -> complex:
        """p(zeta) = sum_n C(10, n) zeta^{10-n} (-1)^n r_n."""
        zeta = complex(zeta)
        return complex(
            sum(
                math.comb(self.deg, n) * zeta ** (self.deg - n) * (-1) ** n * r
                for n, r in enumerate(self.period_coefficients)
            )
        )

    def eichler_integral(self, zeta: complex) -> complex:
        """f_h(zeta) above the axis, its conj-based analogue below."""
        zeta = complex(zeta)
        n = np.arange(1, self.eichler_terms.shape[0] + 1)
        if zeta.imag > 0:
            return complex(np.sum(self.eichler_terms[:, self.deg] * np.exp(2j * math.pi * n * zeta)))
        w = zeta.conjugate()
        d = zeta - w
        powers = d ** (self.deg - np.arange(self.deg + 1))
        return complex(np.sum(np.exp(2j * math.pi * n * w) * (self.eichler_terms @ powers)))

    # -- surrogate -------------------------------------------------------------

    def surrogate_period(self, zeta: complex) -> complex:
        """P(zeta) = int (A dz + B dzbar) over the oracle contour, with
        A = (1 - 2 nu - k) R_{2-k,nu} u / y and B = -R_{-k,nu} (E^- u) / y."""
        k, nu = self.surrogate_k, self.surrogate_nu
        z = self.nodes
        y = z.imag
        a = complex(zeta) - z
        b = complex(zeta) - np.conj(z)
        ra = _factored_kernel(2.0 - k, nu, a, b, y)
        rb = _factored_kernel(-k, nu, a, b, y)
        integrand = (1.0 - 2.0 * nu - k) * ra * self.u / y * self.wdz
        integrand -= rb * self.lowered / y * np.conj(self.wdz)
        return complex(np.sum(integrand))


def _principal_pow(w: np.ndarray, p: complex) -> np.ndarray:
    return np.exp(p * (np.log(np.abs(w)) + 1j * np.angle(w)))


def _factored_kernel(k: float, nu: complex, a, b, y) -> np.ndarray:
    """(sqrt a / sqrt b)^{-k} y^{1/2-nu} a^{nu-1/2} b^{nu-1/2}."""
    ratio = _principal_pow(np.sqrt(np.abs(a) / np.abs(b)) * np.exp(0.5j * (np.angle(a) - np.angle(b))), -k)
    s = 0.5 - nu
    return ratio * np.exp(s * np.log(y)) * _principal_pow(a, -s) * _principal_pow(b, -s)


def rel(a: complex, b: complex) -> float:
    """Relative difference, as the library's verify suites measure it."""
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def check_output(oracle: Oracle, kind: str, zeta: complex, value, partner=None, v_t=None) -> float:
    """Residual of one transform output; at most IDENTITY_TOL means correct.

    ``kind`` names the transform: ``delta-P`` and ``delta-f`` against the
    golden identities, ``surrogate-P`` against the oracle contour sum,
    ``surrogate-f`` against v(T)^{-1} f(zeta + 1) = f(zeta) with ``partner``
    the value at zeta + 1.
    """
    if kind == "delta-P":
        p = oracle.period_polynomial(zeta)
        return abs(value - WEIGHT_FACTOR * p) / (1.0 + abs(p))
    if kind == "delta-f":
        return rel(value, WEIGHT_FACTOR * oracle.eichler_integral(zeta))
    if kind == "surrogate-P":
        return rel(value, oracle.surrogate_period(zeta))
    if kind == "surrogate-f":
        return rel(partner / v_t, value)
    raise ValueError(f"unknown transform kind {kind!r}")


def surrogate_v_t(kappa0: float) -> complex:
    return cmath.exp(2j * math.pi * kappa0)
