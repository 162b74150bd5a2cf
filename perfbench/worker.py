"""Workload process of the benchmark: the only file that imports the library.

``run.py`` starts one fresh process per job and reads one JSON object from
the last line of its standard output:

    worker.py setup      --workload W
    worker.py transforms --workload W --seed N --seconds S [--trace]
    worker.py verify     --seed N [--trace]

``setup`` imports the package and builds the workload's forms (Delta
coefficients, Whittaker tables) and exits; ``run.py`` times it from the
outside.
``transforms`` runs whole rounds of a transform workload in a closed loop
and reports each transform's value and start/end times; outputs are
checked by ``run.py`` afterwards.  ``verify`` runs ``run_suite("all")``
once, cold.  Both report the calibration samples taken meanwhile (see
``calibration.py``).  With ``--trace`` the per-layer spans are recorded
(see ``tracer.py``) and reduced here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import maassperiods  # noqa: E402  (path set above; a missing package must fail here)
from maassperiods.forms import two_sided_surrogate  # noqa: E402

if not os.path.abspath(maassperiods.__file__).startswith(SRC + os.sep):
    # an installed copy elsewhere is not the code under test
    raise SystemExit(f"maassperiods imported from {maassperiods.__file__}, not from {SRC}")

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SURROGATE_WEIGHT = "1/2"
SURROGATE_NU = 0.35j
TRACE_DIR = ".perfbench-traces"


def build_forms(workload: str) -> dict:
    """The forms a workload evaluates, fully built (tables included)."""
    forms = {}
    if workload in ("delta-transforms", "delta-continuation", "verify-all"):
        forms["delta"] = maassperiods.delta_form(50)
    if workload in ("surrogate-transforms", "verify-all"):
        forms["surrogate"] = maassperiods.surrogate_form(SURROGATE_WEIGHT, SURROGATE_NU)
        forms["two_sided"] = two_sided_surrogate(SURROGATE_WEIGHT, SURROGATE_NU)
        for form in (forms["surrogate"], forms["two_sided"]):
            form.eval_many(np.array([1j]))  # builds the Whittaker tables
    return forms


def transform_functions(forms: dict) -> dict:
    """Fresh P / f objects (fresh memo caches) keyed by task kind."""
    out = {}
    if "delta" in forms:
        out["delta-P"] = maassperiods.PeriodFunction(forms["delta"])
        out["delta-f"] = maassperiods.NearlyPeriodicFunction(forms["delta"])
    if "surrogate" in forms:
        out["surrogate-P"] = maassperiods.PeriodFunction(forms["surrogate"])
        out["surrogate-f"] = maassperiods.NearlyPeriodicFunction(forms["two_sided"])
    return out


def _timed(fn, zeta):
    started = time.perf_counter()
    try:
        value, error = complex(fn(zeta)), None
    except Exception as exc:  # a failed transform is counted, not fatal
        value, error = None, f"{type(exc).__name__}: {exc}"[:200]
    return value, error, started, time.perf_counter()


def _op(task, value, error, t0, t1) -> list:
    """[kind, Re zeta, Im zeta, [Re, Im] or None, error or None, pair, t0, t1]."""
    z = task.zeta
    v = [value.real, value.imag] if value is not None else None
    return [task.kind, z.real, z.imag, v, error, task.pair, t0, t1]


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image.  Linux's ru_maxrss also
    counts the parent's memory that the child held until its exec, so the
    high-water mark of the process's own address space is read instead."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_transforms(args) -> dict:
    forms = build_forms(args.workload)
    fns = transform_functions(forms)
    if args.trace:
        return _traced_transforms(args, forms, fns)
    ops = []
    with calibration.Sampler() as sampler:
        started = time.perf_counter()
        for batch in workloads.rounds(args.workload, args.seed):
            for task in batch:
                ops.append(_op(task, *_timed(fns[task.kind], task.zeta)))
            if _done(args, started):
                break
        wall = time.perf_counter() - started
    return {"ops": ops, "wall_s": wall, "samples": sampler.samples, "peak_rss_mb": _peak_rss_mb()}


def _done(args, started: float) -> bool:
    """True after the first round that ends past ``--seconds`` (0: one round)."""
    return time.perf_counter() - started >= args.seconds


def _traced_transforms(args, forms, fns) -> dict:
    """Each task runs untraced, then traced on fresh objects: the ratio of
    the two wall times is the tracing overhead, and both values are checked."""
    spans = tracing.Tracer()
    inst = tracing.install(spans)
    traced_fns = transform_functions(forms)
    ops, traced_ops = [], []
    plain_ms = traced_ms = 0.0
    tid = 0
    with calibration.Sampler() as sampler:
        started = time.perf_counter()
        for batch in workloads.rounds(args.workload, args.seed):
            for task in batch:
                value, error, t0, t1 = _timed(fns[task.kind], task.zeta)
                ops.append(_op(task, value, error, t0, t1))
                plain_ms += (t1 - t0) * 1e3
                spans.transform_id = tid
                inst.apply()
                try:
                    value, error, t0, t1 = _timed(traced_fns[task.kind], task.zeta)
                finally:
                    inst.undo()
                traced_ops.append(_op(task, value, error, t0, t1))
                traced_ms += (t1 - t0) * 1e3
                tid += 1
            if _done(args, started):
                break
        wall = time.perf_counter() - started
        _probe(args.seed, spans, inst, forms)
    layers = _reduce(args.workload, args.seed, spans, sampler.samples)
    layers["trace.overhead_frac"] = traced_ms / plain_ms - 1.0
    return {"ops": ops, "traced_ops": traced_ops, "wall_s": wall, "peak_rss_mb": _peak_rss_mb(), "layers": layers}


def _probe(seed: int, spans, inst, forms) -> None:
    """Each layer once more on one seeded 4096-point batch (bucket b4096)."""
    from maassperiods.kernel import RKernel
    from maassperiods.specfun import WhittakerTable

    form = forms.get("surrogate") or forms["delta"]
    points = workloads.probe_points(seed)
    spans.transform_id = tracing.PROBE_TID
    inst.apply()
    try:
        for _ in range(3):
            form.eval_many(points)
            form.raise_many(points)
            form.lower_many(points)
            RKernel(2.0 - form.k, form.nu, "factored").eval_many(points, 1.0 + 1.0j)
        if not form.is_embedding:
            table = WhittakerTable(form.k / 2.0, form.nu)
            for _ in range(3):
                table(4.0 * math.pi * (1.0 + form.kappa0) * points.imag)
    finally:
        inst.undo()


def _reduce(workload: str, seed: int, spans, samples) -> dict:
    """Per-layer metrics at the reference speed; the spans go to TRACE_DIR."""
    layers = tracing.layer_metrics(spans, clock=calibration.Normalizer(samples).clock)
    os.makedirs(TRACE_DIR, exist_ok=True)
    spans.save(os.path.join(TRACE_DIR, f"{workload}-seed{seed}.npz"))
    return layers


def run_verify(args) -> dict:
    from maassperiods import verify

    inst = spans = None
    if args.trace:
        spans = tracing.Tracer()
        inst = tracing.install(spans)
        inst.apply()
    with calibration.Sampler() as sampler:
        started = time.perf_counter()
        try:
            report = verify.run_suite("all", seed=args.seed)
        finally:
            if inst is not None:
                inst.undo()
        finished = time.perf_counter()
        if args.trace:
            _probe(args.seed, spans, inst, build_forms("verify-all"))
    failed = sorted(e.identity for e in report.entries if not e.passed and e.identity not in verify.EXPECTED_FAILURES)
    expected = sorted(e.identity for e in report.entries if not e.passed and e.identity in verify.EXPECTED_FAILURES)
    out = {
        "t0": started,
        "t1": finished,
        "wall_s": finished - started,
        "samples": sampler.samples,
        "entries": len(report.entries),
        "unexpected_failures": failed,
        "expected_failures": expected,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if args.trace:
        out["layers"] = _reduce("verify-all", args.seed, spans, sampler.samples)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=("setup", "transforms", "verify"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.job == "setup":
        result = {"forms": sorted(build_forms(args.workload))}
    elif args.job == "transforms":
        result = run_transforms(args)
    else:
        result = run_verify(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
