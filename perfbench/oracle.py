"""Independent reference data for the benchmark's output checks.

This generator never imports ``maassperiods``.  It computes, with mpmath,

* the eleven period coefficients r_n = int_0^{i inf} z^n Delta(z) dz of the
  discriminant form, split at y = 1 with Delta(i/y) = y^12 Delta(iy), so
  that each r_n is a rapidly convergent sum of incomplete-gamma terms;
* termwise coefficients of the Eichler integral
  f_h(zeta) = int_zeta^{i inf} (zeta - z)^10 Delta(z) dz
  (upper half-plane) and of its lower-half-plane analogue
  int_{conj zeta}^{i inf} (zeta - z)^10 Delta(z) dz;
* the Whittaker surrogate of weight 1/2, nu = 0.35i (six boundary-balanced
  coefficients, frequencies n + 1/24) and its lowered form, sampled with
  ``mpmath.whitw`` at Gauss-Legendre nodes of one fixed contour from 0 to
  i*infinity.  The benchmark sums the period-function integrand over these
  nodes with its own kernel formula, so the surrogate check shares no code
  with the library.

Run ``python3 perfbench/oracle.py`` to rewrite ``perfbench/data/oracle.json``
(about a minute).
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp
import numpy as np

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "oracle.json")

WEIGHT = 12
DEG = WEIGHT - 2
N_TAU = 80  # e^{-2 pi n Im zeta} with Im zeta >= 0.2 is below 1e-40 past n = 80

# surrogate: weight 1/2, nu = 0.35i, eta-power multiplier (kappa0 = 1/24)
SURR_K = mp.mpf(1) / 2
SURR_NU = mp.mpc(0, "0.35")
SURR_KAPPA0 = mp.mpf(1) / 24
SURR_TERMS = 6

# fixed period-function contour: 0 -> CORNER -> TOP -> i*infinity.  It runs
# left of every surrogate workload point (Re zeta >= -1/2, |Im zeta| >= 0.3)
# and below none of them, so it is homotopic to the library's contours.
CORNER = complex(-0.75, 0.15)
TOP = complex(-0.75, 3.0)
RAY_END = 9.0  # W(4 pi (1 + 1/24) y) < 1e-23 above Im z = TOP.imag + RAY_END
NODES_PER_PANEL = 16


def tau_coefficients(count: int) -> list:
    """tau(1..count) from q prod (1 - q^m)^24 in exact integers."""
    poly = [0] * count
    poly[0] = 1
    for m in range(1, count):
        for _ in range(24):
            for j in range(count - 1, m - 1, -1):
                poly[j] -= poly[j - m]
    return poly  # poly[n - 1] = tau(n)


def period_coefficients(tau: list) -> list:
    """r_n, n = 0..10, as mpmath complex numbers."""
    out = []
    for n in range(DEG + 1):
        total = mp.mpf(0)
        for m, t in enumerate(tau, start=1):
            a = 2 * mp.pi * m
            total += t * (
                mp.gammainc(n + 1, a) / a ** (n + 1)
                + mp.gammainc(DEG + 1 - n, a) / a ** (DEG + 1 - n)
            )
        out.append(mp.mpc(0, 1) ** (n + 1) * total)
    return out


def eichler_coefficients(tau: list) -> list:
    """c[n-1][j] = tau(n) (-1)^j C(10, j) j! / (-2 pi i n)^{j+1}.

    int_w^{i inf} (zeta - z)^10 e^{2 pi i n z} dz
        = e^{2 pi i n w} sum_j C(10,j) (zeta - w)^{10-j} (-1)^j j!/(-2 pi i n)^{j+1},
    so f_h(zeta) = sum_n c[n-1][10] e^{2 pi i n zeta} (w = zeta) and the
    lower analogue is sum_n e^{2 pi i n conj zeta} sum_j c[n-1][j] d^{10-j}
    with w = conj zeta, d = zeta - conj zeta.
    """
    rows = []
    for n, t in enumerate(tau, start=1):
        step = -2j * mp.pi * n
        rows.append(
            [t * (-1) ** j * mp.binomial(DEG, j) * mp.factorial(j) / step ** (j + 1) for j in range(DEG + 1)]
        )
    return rows


def surrogate_coefficients() -> list:
    """Same construction as the library's boundary-balanced default."""
    base = [mp.mpc(1, 0.4 * (-1) ** n) / (n * n) for n in range(1, SURR_TERMS)]
    weights = [mp.power(n + SURR_KAPPA0, mp.mpf(1) / 2 - SURR_NU) for n in range(1, SURR_TERMS + 1)]
    last = -mp.fsum(a * w for a, w in zip(base, weights[:-1])) / weights[-1]
    return base + [last]


def surrogate_values(z: complex, coeffs: list) -> tuple:
    """(u(z), (E^- u)(z)) from W_{k/2,nu} and the contiguous W_{k/2-1,nu}."""
    kap = SURR_K / 2
    lower = -2 * (SURR_NU**2 - (kap - mp.mpf(1) / 2) ** 2)
    x, y = mp.mpf(z.real), mp.mpf(z.imag)
    u = mp.mpc(0)
    e = mp.mpc(0)
    for n, a in enumerate(coeffs, start=1):
        freq = n + SURR_KAPPA0
        wave = mp.expj(2 * mp.pi * freq * x)
        arg = 4 * mp.pi * freq * y
        u += a * mp.whitw(kap, SURR_NU, arg) * wave
        e += a * lower * mp.whitw(kap - 1, SURR_NU, arg) * wave
    return complex(u), complex(e)


def contour_nodes() -> list:
    """(z, weight * dz/dt) at every node of the fixed contour."""
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    nodes = []

    def panels(edges, to_point):
        for lo, hi in zip(edges[:-1], edges[1:]):
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            for xi, wi in zip(x, w):
                z, dz = to_point(mid + half * xi)
                nodes.append((z, half * wi * dz))

    # 0 -> CORNER, z = CORNER e^u, integrable start handled in u = log s
    edges = np.concatenate([np.arange(-36.0, -5.0, 1.0), np.arange(-5.0, 0.01, 0.5)])
    panels(edges, lambda u: (CORNER * math.exp(u), CORNER * math.exp(u)))
    # CORNER -> TOP, vertical
    span = TOP.imag - CORNER.imag
    edges = np.linspace(0.0, span, 30)
    panels(edges, lambda t: (CORNER + 1j * t, 1j))
    # TOP -> i*infinity
    edges = np.arange(0.0, RAY_END + 0.01, 0.5)
    panels(edges, lambda t: (TOP + 1j * t, 1j))
    return nodes


def pair(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def generate() -> dict:
    mp.mp.dps = 30
    tau = tau_coefficients(N_TAU)
    r = period_coefficients(tau)
    eich = eichler_coefficients(tau)
    mp.mp.dps = 20
    coeffs = surrogate_coefficients()
    samples = []
    for z, wdz in contour_nodes():
        u, e = surrogate_values(z, coeffs)
        samples.append([pair(z), pair(wdz), pair(u), pair(e)])
    return {
        "generator": "perfbench/oracle.py (mpmath %s; does not import maassperiods)" % mp.__version__,
        "delta": {
            "weight": WEIGHT,
            "tau": tau,
            "period_coefficients": [[mp.nstr(c.real, 25), mp.nstr(c.imag, 25)] for c in r],
            "eichler_terms": [[pair(c) for c in row] for row in eich],
        },
        "surrogate": {
            "weight": "1/2",
            "nu": [0.0, 0.35],
            "kappa0": float(SURR_KAPPA0),
            "coefficients": [pair(c) for c in coeffs],
            "contour": {"vertices": [[0.0, 0.0], pair(CORNER), pair(TOP)], "nodes_per_panel": NODES_PER_PANEL},
            "samples": samples,
        },
    }


def main() -> int:
    data = generate()
    with open(DATA, "w") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {DATA}: {len(data['surrogate']['samples'])} surrogate nodes", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
