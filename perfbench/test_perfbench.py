"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` (under a minute).

They cover the parts of the benchmark that are not the library: the
self-time arithmetic, the independent Delta oracle (against the
Kohnen-Zagier shapes), the output checks' sensitivity, the agreement of
``BENCHMARK.json`` with what ``run.py`` prints, the exact per-layer counts
(two traced runs on one seed must reproduce them), and the refusal to run
without the library's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle as oracle_gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    return checks.Oracle()


# ---------------------------------------------------------------------------
# self time


def test_self_time_nested_spans():
    # root 0..10 with children 1..3 and 6..8; the first child has 1.5..2
    start = [0.0, 1.0, 6.0, 1.5]
    end = [10.0, 3.0, 8.0, 2.0]
    parent = [-1, 0, 0, 1]
    assert np.allclose(tracer.self_times(start, end, parent), [6.0, 1.5, 2.0, 0.5])


def test_quantile_estimate():
    assert run.quantile([5.0], 0.75) == 5.0
    assert math.isclose(run.quantile(list(range(101)), 0.5), 50.0)
    # a Beta-weighted mean of the order statistics, near the plain percentile
    assert abs(run.quantile(list(range(101)), 0.75) - 75.0) < 0.5


def test_layer_metrics_on_synthetic_spans():
    t = tracer.Tracer()
    ids = {n: t.name_id(n) for n in ("periods.P", "quadrature.integrate_form", "quadrature.integrand",
                                     "forms.eval_many", "specfun.table")}
    # two transforms of 10 s; the second repeats the first point and does no
    # quadrature (a cache hit)
    rows = [
        # name, start, end, parent, points, extra
        ("periods.P", 0.0, 10.0, -1, 1, 0),
        ("quadrature.integrate_form", 1.0, 9.0, 0, 0, 46),
        ("quadrature.integrand", 2.0, 6.0, 1, 15, 0),
        ("forms.eval_many", 3.0, 5.0, 2, 15, tracer.ONE_SIDED),
        ("specfun.table", 3.5, 4.0, 3, 15, 0),
        ("periods.P", 10.0, 20.0, -1, 1, 1),
    ]
    for name, s, e, p, pts, extra in rows:
        t.start.append(s)
        t.end.append(e)
        t.parent.append(p)
        t.name.append(ids[name])
        t.tid.append(0)
        t.points.append(pts)
        t.extra.append(extra)
    m = tracer.layer_metrics(t)
    assert m["periods.transforms"] == 2
    assert m["periods.cache_hits"] == 1
    assert m["quadrature.evals_per_transform"] == 46.0
    assert m["quadrature.calls_per_transform"] == 1.0
    assert m["quadrature.points_per_call"] == 15.0
    assert math.isclose(m["quadrature.self_frac"], 4.0 / 20.0)
    assert math.isclose(m["quadrature.self_us_per_call"], 4.0e6)
    # periods self: 2 (first P) + 10 (second P) + 2 (integrand glue)
    assert math.isclose(m["periods.self_frac"], 14.0 / 20.0)
    assert math.isclose(m["forms.busy_frac"], 2.0 / 20.0)
    assert math.isclose(m["forms.eval_many.us_per_pt.b64"], 2.0e6 / 15)
    assert m["specfun.table.calls_per_form_call.one_sided"] == 1.0
    assert math.isclose(m["specfun.table.busy_frac"], 0.5 / 20.0)


# ---------------------------------------------------------------------------
# the independent Delta oracle


def _period_polynomial_coefficients(oracle) -> np.ndarray:
    """Coefficients of p(X), index = power of X."""
    deg = oracle.deg
    out = np.zeros(deg + 1, dtype=complex)
    for n, r in enumerate(oracle.period_coefficients):
        out[deg - n] = math.comb(deg, n) * (-1) ** n * r
    return out


def _assert_proportional(got: np.ndarray, want: np.ndarray, tol: float = 1e-12):
    k = np.argmax(np.abs(want))
    scale = got[k] / want[k]
    assert np.max(np.abs(got - scale * want)) <= tol * np.max(np.abs(got))


def test_oracle_period_polynomial_has_kohnen_zagier_shape(oracle):
    coeffs = _period_polynomial_coefficients(oracle)
    odd = np.zeros(11)
    odd[[9, 7, 5, 3, 1]] = [4, -25, 42, -25, 4]
    even = np.zeros(11)
    even[10], even[0] = 36 / 691, -36 / 691
    # X^2 (X^2 - 1)^3 = X^8 - 3 X^6 + 3 X^4 - X^2
    even[[8, 6, 4, 2]] -= [1, -3, 3, -1]
    odd_part = coeffs.copy()
    odd_part[0::2] = 0
    even_part = coeffs.copy()
    even_part[1::2] = 0
    # odd powers carry real coefficients, even powers imaginary ones
    assert np.max(np.abs(odd_part.imag)) <= 1e-15 * np.max(np.abs(coeffs))
    assert np.max(np.abs(even_part.real)) <= 1e-15 * np.max(np.abs(coeffs))
    _assert_proportional(odd_part.real, odd)
    _assert_proportional(even_part.imag, even)


def test_committed_oracle_matches_generator(oracle):
    import mpmath as mp

    mp.mp.dps = 30
    tau = oracle_gen.tau_coefficients(oracle_gen.N_TAU)
    assert tau[:5] == [1, -24, 252, -1472, 4830]
    fresh = oracle_gen.period_coefficients(tau)
    for got, want in zip(oracle.period_coefficients, fresh):
        assert abs(got - complex(want)) <= 1e-15 * abs(complex(want))


def test_eichler_terms_agree_with_direct_quadrature(oracle):
    import mpmath as mp

    mp.mp.dps = 20
    tau = oracle_gen.tau_coefficients(30)

    def delta(z):
        return mp.fsum(t * mp.exp(2j * mp.pi * n * z) for n, t in enumerate(tau, start=1))

    for zeta in (0.3 + 0.7j, -0.2 - 0.6j):
        base = zeta if zeta.imag > 0 else zeta.conjugate()
        want = 1j * mp.quad(lambda t: (zeta - (base + 1j * t)) ** 10 * delta(base + 1j * t), [0, 1, mp.inf])
        assert abs(oracle.eichler_integral(zeta) - complex(want)) <= 1e-10 * abs(complex(want))


def test_checks_reject_a_perturbed_output(oracle):
    for kind, zeta in (("delta-P", 1.5 + 0.0j), ("delta-f", 0.4 + 0.8j), ("surrogate-P", 0.7 + 0.5j)):
        if kind == "delta-P":
            exact = checks.WEIGHT_FACTOR * oracle.period_polynomial(zeta)
        elif kind == "delta-f":
            exact = checks.WEIGHT_FACTOR * oracle.eichler_integral(zeta)
        else:
            exact = oracle.surrogate_period(zeta)
        assert checks.check_output(oracle, kind, zeta, exact) <= 1e-13
        assert checks.check_output(oracle, kind, zeta, exact * (1 + 1e-6)) > checks.IDENTITY_TOL
    v_t = checks.surrogate_v_t(oracle.surrogate_kappa0)
    assert checks.check_output(oracle, "surrogate-f", 0.1j, 2.0, partner=2.0 * v_t, v_t=v_t) == 0.0
    assert checks.check_output(oracle, "surrogate-f", 0.1j, 2.0, partner=2.0, v_t=v_t) > checks.IDENTITY_TOL


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints


def test_benchmark_json_matches_run_outputs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in bench["end_to_end"])
    assert [m["name"] for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# exact counts


def _traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "transforms", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, env=dict(os.environ, **run.THREAD_ENV))
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    return {k: v for k, v in layers.items() if run.per_layer_unit(k) in ("count", "count/op")}


@pytest.mark.parametrize("workload", ["delta-transforms", "surrogate-transforms"])
def test_exact_counts_repeat_on_one_seed(workload):
    first = _traced_counts(workload, 7)
    assert first == _traced_counts(workload, 7)
    if workload == "delta-transforms":
        # two P (464 evaluations each) and two f (370 each) per round
        assert first["quadrature.evals_per_transform"] == (2 * 464 + 2 * 370) / 4
        assert first["specfun.table.calls"] == 0
    else:
        assert first["specfun.table.calls_per_form_call.one_sided"] == 6.0
        assert first["specfun.table.calls_per_form_call.two_sided"] == 8.0


# ---------------------------------------------------------------------------
# no library, no result


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delta-transforms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
