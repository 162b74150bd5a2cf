"""Workload definitions: which transforms run, at which seeded points.

A transform workload is an endless stream of *rounds*; a round holds one
point from each stratum, so every complete round has the same mix and the
statistics of a run do not depend on where the clock stopped.  The worker
runs whole rounds in a closed loop (one transform at a time, the next one
starts when the previous returns) until the run's seconds are used up.

Within a stratum the points are jittered-grid samples: the stratum's unit
square is cut into a grid of cells, visited in a seeded random order, with
a seeded uniform point inside each cell.  The cost of a transform is a step
function of the point (quadrature refines in whole panels), so independent
uniform points would move a run's percentiles from one step to the next;
a run that visits every cell equally often sees nearly the same cost
distribution on every seed.

Every stratum lies where the seed-commit library converges well inside its
default evaluation budget (see ``data/delta_continuation_defects.json`` for
the part of the left half-plane where it does not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("delta-transforms", "surrogate-transforms", "delta-continuation", "verify-all")
# cells per side of a stratum's grid, sized so that a run visits each cell
# at least twice (hundreds of rounds per run for Delta, 7 to 13 for the
# surrogate)
GRID = {"delta-transforms": 8, "delta-continuation": 8, "surrogate-transforms": 2}


@dataclass(frozen=True)
class Task:
    """One transform evaluation: ``kind`` selects the function, ``pair`` links
    the two members of a surrogate-f periodicity pair (-1 when unpaired)."""

    kind: str
    zeta: complex
    pair: int = -1


class _Stratum:
    """Jittered-grid points (u, v) in the unit square, mapped by ``place``."""

    def __init__(self, rng, place, grid: int):
        self.rng = rng
        self.place = place
        self.grid = grid
        self.order = rng.permutation(grid * grid)
        self.count = 0

    def next(self) -> complex:
        cell = int(self.order[self.count % len(self.order)])
        self.count += 1
        u = (cell // self.grid + self.rng.random()) / self.grid
        v = (cell % self.grid + self.rng.random()) / self.grid
        return self.place(u, v)


def _log_axis(lo: float, hi: float):
    return lambda u, v: complex(math.exp(math.log(lo) + u * math.log(hi / lo)), 0.0)


def _box(x0: float, x1: float, y0: float, y1: float):
    """Re z between x0 (excluded) and x1 (included), Im z in [y0, y1)."""
    return lambda u, v: complex(x0 + (1.0 - u) * (x1 - x0), y0 + v * (y1 - y0))


def _both_half_planes(place):
    """v < 1/2 maps to the lower half-plane, mirrored, v >= 1/2 to the upper."""

    def mirrored(u, v):
        z = place(u, (2.0 * v) % 1.0)
        return z if v >= 0.5 else z.conjugate()

    return mirrored


_STRATA = {
    "delta-transforms": [
        # P on the positive axis, over the CLI-grid / growth-scan range
        ("delta-P", _log_axis(0.125, 8.0)),
        # P off the axis, 0 < Re zeta <= 3, both half-planes
        ("delta-P", _both_half_planes(_box(0.0, 3.0, 0.25, 2.0))),
        # f above and below the axis
        ("delta-f", _box(-1.0, 3.0, 0.25, 1.5)),
        ("delta-f", lambda u, v: _box(-1.0, 3.0, 0.25, 1.5)(u, v).conjugate()),
    ],
    "surrogate-transforms": [
        ("surrogate-P", _log_axis(0.125, 8.0)),
        ("surrogate-P", _both_half_planes(_box(0.0, 2.0, 0.3, 1.5))),
        ("surrogate-P", _both_half_planes(_box(0.0, -0.5, 0.3, 1.5))),
        # (zeta, zeta + 1) pairs for v(T)^{-1} f(zeta + 1) = f(zeta)
        ("surrogate-f pair", _box(-0.5, 0.5, 0.3, 1.5)),
        ("surrogate-f pair", lambda u, v: _box(-0.5, 0.5, 0.3, 1.5)(u, v).conjugate()),
    ],
    "delta-continuation": [
        # near strip: -1/2 <= Re zeta < 0, 1/2 <= Im zeta <= 2
        ("delta-P", _box(0.0, -0.5, 0.5, 2.0)),
        # far strip, the band -0.9 <= Re zeta < -1/2, 1 <= Im zeta <= 3/2
        # where the deformed contour converges; the rest of the far strip is
        # the recorded defect
        ("delta-P", _box(-0.5, -0.9, 1.0, 1.5)),
    ],
}


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of :class:`Task`) for one seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    strata = [(kind, _Stratum(rng, place, GRID[workload])) for kind, place in _STRATA[workload]]
    pair = 0
    while True:
        batch = []
        for kind, stratum in strata:
            zeta = stratum.next()
            if kind == "surrogate-f pair":
                batch += [Task("surrogate-f", zeta, pair), Task("surrogate-f", zeta + 1.0, pair)]
                pair += 1
            else:
                batch.append(Task(kind, zeta))
        yield batch


def probe_points(seed: int, count: int = 4096) -> np.ndarray:
    """The fixed-size batch of the traced run's per-point probe."""
    rng = np.random.default_rng([seed, 4096])
    x = rng.uniform(-0.5, 0.5, count)
    y = np.exp(rng.uniform(math.log(0.05), math.log(4.0), count))
    return x + 1j * y
