"""Machine-speed calibration for the benchmark's timings.

The virtual machines this benchmark runs on change speed by up to a factor
of two within seconds (other tenants share the host), and CPU time tracks
wall time, so neither steadies a timing.  A fixed calibration unit - Python
complex arithmetic in a loop plus small numpy expressions, the same mix as
the library's integrands - slows down in step with the library: on such a
machine the ratio of a transform's time to the unit's time taken next to it
stays within about 1% while both swing by 30%.

So every timed region runs with a :class:`Sampler`, which times one unit
every ``PERIOD_S`` seconds from a timer signal in the same thread.  A time
span [t0, t1] is then reported at the reference speed, at which one unit
takes ``REF_UNIT_S``:

    normalized = integral over [t0, t1] of REF_UNIT_S / unit_time(t) dt

minus the samples' own time, with unit_time piecewise constant around each
sample.  The machine flips between a fast and a slow state every second or
so; each sample's own unit time, unsmoothed, follows the flips most
closely (a median over five neighbouring samples blurs them, and left
about a quarter more per-transform jitter on ``surrogate-transforms``).
The raw wall times are reported next to the normalized ones.

A set-up is a whole short process, most of it interpreter start and
shared-library loading, which the unit does not track.  So set-ups are
timed against a reference process instead: this file run as a script
(``python3 calibration.py``), a fresh interpreter that imports numpy and
runs ``REF_PROCESS_UNITS`` units.  ``run.py`` starts it between set-ups and
scales each set-up by ``REF_PROCESS_S`` over the mean wall time of the
reference runs on its two sides.
"""

from __future__ import annotations

import cmath
import math
import os
import signal
import sys
import time

import numpy as np

# one unit takes this long at the reference speed (the fast state of a
# 2-core Intel Xeon virtual machine); never change it, or every stored
# figure changes scale
REF_UNIT_S = 0.0005
PERIOD_S = 0.05
# the reference process takes this long at the reference speed; never
# change it or REF_PROCESS_UNITS either
REF_PROCESS_S = 0.2
REF_PROCESS_UNITS = 200
REF_PROCESS = (sys.executable, os.path.abspath(__file__))
_X = np.linspace(0.1, 2.0, 46) + 0.5j
_POLY = (1.0, 0.5, 0.25)


def unit() -> float:
    """The calibration work; returns a value so nothing is optimised away."""
    acc = 0.0
    w = complex(0.3, 0.7)
    for _ in range(300):
        n = math.floor(w.real + 0.5)
        w = complex(w.real - n + 0.37, w.imag)
        if abs(w) < 1.0:
            w = -1.0 / w
        acc += cmath.exp(1j * w).real
    for _ in range(25):
        y = np.exp(0.01j * _X) * np.sqrt(_X) + np.polynomial.polynomial.polyval(_X, _POLY)
        acc += float(y.real[0])
    return acc


def time_unit() -> tuple:
    """(start, duration) of one unit."""
    started = time.perf_counter()
    unit()
    return started, time.perf_counter() - started


class Sampler:
    """Times one unit every ``period`` seconds while running (SIGALRM)."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list = []  # (start, duration)
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append(time_unit())

    def __enter__(self) -> "Sampler":
        self.samples.append(time_unit())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.samples.append(time_unit())


class Normalizer:
    """Maps raw ``perf_counter`` times to reference-speed time from a run's samples."""

    def __init__(self, samples):
        samples = sorted(samples)
        if not samples:
            raise ValueError("no calibration samples")
        self.starts = np.array([s for s, _ in samples])
        durations = np.array([d for _, d in samples])
        self.unit_s = durations
        # reference seconds per raw second, constant between the midpoints
        # of neighbouring samples
        self._rate = REF_UNIT_S / self.unit_s
        mids = self.starts + 0.5 * durations
        self._edges = 0.5 * (mids[1:] + mids[:-1])
        self._at_edges = np.concatenate([[0.0], np.cumsum(self._rate[1:-1] * np.diff(self._edges))])

    def clock(self, t) -> np.ndarray:
        """Reference-speed time of the raw times ``t`` (an increasing map)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not len(self._edges):
            return t * self._rate[0]
        k = np.searchsorted(self._edges, t, side="right")  # piece 0..len(edges)
        j = np.maximum(k - 1, 0)
        return self._at_edges[j] + (t - self._edges[j]) * self._rate[k]

    def seconds(self, t0, t1) -> np.ndarray:
        """Reference-speed seconds of the spans [t0, t1], samples excluded."""
        out = self.clock(t1) - self.clock(t0)
        # each sample inside a span cost one unit: remove it
        inside = np.searchsorted(self.starts, np.atleast_1d(t1)) - np.searchsorted(self.starts, np.atleast_1d(t0))
        return out - inside * REF_UNIT_S

    def speed(self) -> float:
        """Median reference/raw speed ratio over the run (1 = reference)."""
        return float(np.median(REF_UNIT_S / self.unit_s))


if __name__ == "__main__":
    for _ in range(REF_PROCESS_UNITS):
        unit()
