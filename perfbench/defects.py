"""Record of the known Delta-continuation defect (left half of the cut plane).

On the deformed polyline the seed-commit library needs 10^4 to 10^6
integrand evaluations for much of the far strip -2 <= Re zeta < -1/2,
0 < Im zeta <= 3/2, and exhausts the default budget of 2e6 (raising
``NonconvergenceError``) at some points.  The timed ``delta-continuation``
workload therefore samples only the band where the contour converges; this
script measures the rest once and writes ``data/delta_continuation_defects.json``
so later fixes to the contour or the quadrature can be judged against it.

    python3 perfbench/defects.py      # about three minutes, one core

Named points run at the default budget; the grid runs at a capped budget
(``GRID_BUDGET``) so that a point which "fails" there is only known to need
more than that many evaluations.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import maassperiods  # noqa: E402
from maassperiods.config import Settings  # noqa: E402
from maassperiods.errors import NonconvergenceError  # noqa: E402

import checks  # noqa: E402

OUT = os.path.join(HERE, "data", "delta_continuation_defects.json")
NAMED = [complex(-0.9, 0.9), complex(-1.0, 1.0), complex(-0.5, 0.1), complex(-4.0, 1.0)]
GRID_RE = [-0.6, -0.9, -1.2, -1.6, -2.0]
GRID_IM = [0.1, 0.4, 0.8, 1.2, 1.5]
GRID_BUDGET = 30_000


def measure(period, oracle, zeta: complex) -> dict:
    started = time.perf_counter()
    row = {"zeta": [zeta.real, zeta.imag]}
    try:
        result = period.eval(zeta)
    except NonconvergenceError as exc:
        row.update(raised="NonconvergenceError", evaluations=exc.evaluations)
    else:
        row.update(
            raised=None,
            evaluations=result.evaluations,
            golden_residual=checks.check_output(oracle, "delta-P", zeta, result.value),
        )
    row["seconds"] = time.perf_counter() - started
    return row


def main() -> int:
    oracle = checks.Oracle()
    delta = maassperiods.delta_form(50)
    full = maassperiods.PeriodFunction(delta)
    capped = maassperiods.PeriodFunction(delta, Settings(max_evals=GRID_BUDGET))
    named = []
    for zeta in NAMED:
        named.append(measure(full, oracle, zeta))
        print(named[-1], file=sys.stderr, flush=True)
    grid = []
    for re in GRID_RE:
        for im in GRID_IM:
            grid.append(measure(capped, oracle, complex(re, im)))
            print(grid[-1], file=sys.stderr, flush=True)
    record = {
        "what": "Delta P on the deformed polyline, left half of C' (seed-commit library)",
        "environment": {"python": platform.python_version(), "machine": platform.machine()},
        "named_points": {"max_evals": Settings().max_evals, "rows": named},
        "far_strip_grid": {"max_evals": GRID_BUDGET, "rows": grid},
    }
    with open(OUT, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
