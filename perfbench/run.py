"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in fresh
single-threaded worker processes (``worker.py``, BLAS pinned to one
thread); this process never imports the library.  It

* times the set-up (fresh-process import and form construction) from the
  outside, ``SETUP_REPEATS`` times, each against the reference process of
  ``calibration.py`` started just before and just after it, and reports
  the median;
* runs the workload for ``--seconds`` (whole rounds, closed loop);
* reports times at the reference machine speed of ``calibration.py``
  (the raw wall figures are printed beside them);
* checks every transform output against ``checks.py`` outside the timed
  region, and every ``verify`` entry against ``EXPECTED_FAILURES``;
* prints one line per metric, then one JSON object as the last line:
  ``{"correct", "attempted", "failed", "metrics"}``, where the metrics are
  the end-to-end ones with ``--trace 0`` and the per-layer ones with
  ``--trace 1``.

It exits non-zero without a result when a worker fails, e.g. when the
checkout holds no ``src/maassperiods``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import betainc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
DEADLINE_S = 170.0  # the whole run, so the process ends well within 180 s
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p75": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if ".us_per_" in name or name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "_per_transform" in name or "_per_call" in name or "_per_form_call" in name:
        return "count/op"
    return "count"


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts worker processes against one deadline and waits for each."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_ENV)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def worker(self, *args) -> tuple:
        """(parsed last stdout line, wall seconds seen from outside)."""
        out, wall = self.run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)])
        lines = out.strip().splitlines()
        if not lines:
            raise WorkerError(f"worker {args[:2]} printed no result")
        return json.loads(lines[-1]), wall

    def run(self, cmd) -> tuple:
        """(standard output, wall seconds) of one process."""
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=self.env)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"{cmd[1:4]} ran past the deadline")
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            raise WorkerError(f"{cmd[1:4]} exited {proc.returncode}:\n{err[-2000:]}")
        return out, wall


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  A single order statistic jumps between seeds where
    the costs have a step near p, as a surrogate run's do at p = 0.75, where
    the cheap upper-half-plane f ends and the dear lower-half-plane f begins."""
    v = np.sort(values)
    n = len(v)
    cdf = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ v)


def check_ops(oracle, ops) -> list:
    """Residual per op (inf for a raised error); pairs share their residual."""
    residuals = [float("inf")] * len(ops)
    pairs: dict = {}
    v_t = checks.surrogate_v_t(oracle.surrogate_kappa0)
    for i, (kind, zr, zi, value, error, pair, _, _) in enumerate(ops):
        if error is not None or value is None:
            continue
        zeta, val = complex(zr, zi), complex(*value)
        if kind == "surrogate-f":
            pairs.setdefault(pair, []).append((i, zeta, val))
            continue
        residuals[i] = checks.check_output(oracle, kind, zeta, val)
    for members in pairs.values():
        if len(members) != 2:
            continue
        (i, zeta, val), (j, zeta1, val1) = members
        if abs(zeta1 - zeta - 1.0) > 1e-12:
            continue
        r = checks.check_output(oracle, "surrogate-f", zeta, val, partner=val1, v_t=v_t)
        residuals[i] = residuals[j] = r
    return residuals


def measure_setup(runner: Runner, workload: str) -> tuple:
    """(reference-speed seconds, raw seconds) of each fresh-process set-up."""
    normalized, raw = [], []
    before = runner.run(calibration.REF_PROCESS)[1]
    for _ in range(SETUP_REPEATS):
        wall = runner.worker("setup", "--workload", workload)[1]
        after = runner.run(calibration.REF_PROCESS)[1]
        raw.append(wall)
        normalized.append(wall * calibration.REF_PROCESS_S / (0.5 * (before + after)))
        before = after
    return normalized, raw


def latency_metrics(seconds, raw_seconds) -> dict:
    """Throughput and latency percentiles from per-op reference seconds."""
    ms = [s * 1e3 for s in seconds]
    raw_ms = [s * 1e3 for s in raw_seconds]
    return {
        "ops_per_s": len(ms) / sum(seconds),
        "op_ms_p50": quantile(ms, 0.5),
        "op_ms_p75": quantile(ms, 0.75),
        "raw_ops_per_s": len(ms) / sum(raw_seconds),
        "raw_op_ms_p50": quantile(raw_ms, 0.5),
        "raw_op_ms_p75": quantile(raw_ms, 0.75),
    }


def run_transform_workload(runner, args) -> dict:
    job = ["transforms", "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds]
    result, _ = runner.worker(*job, *(["--trace"] if args.trace else []))
    oracle = checks.Oracle()
    ops = result["ops"] + result.get("traced_ops", [])
    residuals = check_ops(oracle, result["ops"]) + check_ops(oracle, result.get("traced_ops", []))
    failed = sum(1 for r in residuals if not r <= checks.IDENTITY_TOL)
    summary = {
        "attempted": len(ops),
        "failed": failed,
        "samples": len(result["ops"]),
        "max_residual": max(residuals) if residuals else 0.0,
        "wall_s": result["wall_s"],
        "errors": sorted({op[4] for op in ops if op[4]})[:5],
    }
    if args.trace:
        return {**summary, "metrics": result["layers"]}
    t0 = [op[6] for op in result["ops"]]
    t1 = [op[7] for op in result["ops"]]
    normalizer = calibration.Normalizer(result["samples"])
    metrics = latency_metrics(list(normalizer.seconds(t0, t1)), [b - a for a, b in zip(t0, t1)])
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return {**summary, "speed": normalizer.speed(), "metrics": metrics}


def run_verify_workload(runner, args) -> dict:
    passes = []
    if args.trace:
        plain, _ = runner.worker("verify", "--seed", args.seed)
        traced, _ = runner.worker("verify", "--seed", args.seed, "--trace")
        passes = [plain, traced]
    else:
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            passes.append(runner.worker("verify", "--seed", args.seed)[0])
    summary = {
        "attempted": sum(p["entries"] for p in passes),
        "failed": sum(len(p["unexpected_failures"]) for p in passes),
        "samples": len(passes),
        "unexpected_failures": sorted({f for p in passes for f in p["unexpected_failures"]}),
        "expected_failures": sorted({f for p in passes for f in p["expected_failures"]}),
    }
    normalizers = [calibration.Normalizer(p["samples"]) for p in passes]
    seconds = [float(n.seconds(p["t0"], p["t1"])[0]) for n, p in zip(normalizers, passes)]
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = seconds[1] / seconds[0] - 1.0
        return {**summary, "metrics": layers}
    metrics = latency_metrics(seconds, [p["wall_s"] for p in passes])
    metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
    return {**summary, "speed": statistics.median(n.speed() for n in normalizers), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="maassperiods benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runner = Runner(time.monotonic() + DEADLINE_S)
    try:
        setup, raw_setup = ([], []) if args.trace else measure_setup(runner, args.workload)
        if args.workload == "verify-all":
            outcome = run_verify_workload(runner, args)
        else:
            outcome = run_transform_workload(runner, args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = outcome.pop("metrics")
    if args.trace:
        units = {name: per_layer_unit(name) for name in tracer.PER_LAYER}
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["raw_setup_s"] = statistics.median(raw_setup)
        outcome["setup_samples_s"] = setup
        units = END_TO_END
    # the sample count behind each median or percentile (on verify-all an
    # op is a whole run_suite pass, so the p75 rests on 1-2 of them)
    samples = {"setup_s": len(setup), "op_ms_p50": outcome["samples"], "op_ms_p75": outcome["samples"]}
    for key, value in outcome.items():
        print(f"# {key}: {value}")
    for name in units:
        raw = metrics.get(f"raw_{name}")
        note = f"   (raw wall: {raw:.6g})" if raw is not None else ""
        if name in samples and not args.trace:
            note += f"   [n = {samples[name]}]"
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}{note}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
