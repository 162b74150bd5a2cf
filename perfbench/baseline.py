"""Regenerate the committed baseline and the per-layer table in one command.

    python3 perfbench/baseline.py

For every workload it runs ``run.py`` untraced on seeds 1..10 and traced on
seeds 1 and 2, one run at a time, and writes

* ``perfbench/baseline.json``: the environment, and per workload every
  end-to-end metric (median, quartiles, spread = (q3 - q1) / median as
  ``statistics.quantiles(values, n=4)`` gives them, unit, run count, the
  per-run sample counts), ``fail_frac`` = failed / attempted, and every
  per-layer metric of each traced run;
* ``perfbench/layer_table.md``: the per-layer table in the layout of the
  ROADMAP baseline (printed too).

It prints each spread as it goes, flagged where it exceeds a third of the
metric's bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 3)
BASELINE = os.path.join(HERE, "baseline.json")
TABLE = os.path.join(HERE, "layer_table.md")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = {}
    for line in lines[:-1]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            result["notes"][key] = value
    result["run_wall_s"] = time.perf_counter() - started
    return result


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "blas_threads": 1,
        "machine": platform.machine(),
        "processor": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def measure(workload: str, bench: dict) -> dict:
    runs = []
    for seed in SEEDS:
        runs.append(run_once(workload, seed, bench["run_seconds"], 0))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr, flush=True)
    traced = [run_once(workload, seed, bench["run_seconds"], 1) for seed in TRACED_SEEDS]
    end_to_end = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        end_to_end[metric["name"]] = {
            "unit": metric["unit"],
            "bound": metric["bound"],
            **spread(values),
            "values": values,
        }
    attempted = sum(r["attempted"] for r in runs + traced)
    failed = sum(r["failed"] for r in runs + traced)
    return {
        "runs": len(runs),
        "samples_per_run": [int(r["notes"].get("samples", 0)) for r in runs],
        "run_wall_s": [r["run_wall_s"] for r in runs + traced],
        "correct": all(r["correct"] for r in runs + traced),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "end_to_end": end_to_end,
        "per_layer": [{k: v["value"] for k, v in r["metrics"].items()} for r in traced],
    }


def layer_table(results: dict) -> str:
    """Per-point costs (us/pt) at each batch bucket, first traced run."""
    rows = [
        ("form `eval_many`", "forms.eval_many.us_per_pt"),
        ("form `raise_many`", "forms.raise_many.us_per_pt"),
        ("form `lower_many`", "forms.lower_many.us_per_pt"),
        ("`WhittakerTable` lookup", "specfun.table.us_per_pt"),
        ("`RKernel`", "kernel.us_per_pt"),
    ]
    lines = ["| workload | layer | b1 | b64 | b4096 |", "| --- | --- | --- | --- | --- |"]
    for workload, res in results.items():
        layer = res["per_layer"][0]
        for label, key in rows:
            vals = [layer.get(f"{key}.{b}", 0.0) for b in ("b1", "b64", "b4096")]
            if any(vals):
                lines.append(f"| {workload} | {label} | " + " | ".join(f"{v:.3g}" for v in vals) + " |")
        lines.append(
            f"| {workload} | reduction (`reduce_to_fundamental_domain`) | "
            f"{layer.get('forms.reduce.us_per_call', 0.0):.3g} us/call | | |"
        )
        lines.append(
            f"| {workload} | quadrature self time | {layer.get('quadrature.self_us_per_call', 0.0):.3g} us/integrand call"
            f" | {layer.get('quadrature.calls_per_transform', 0.0):.4g} calls/transform"
            f" | {layer.get('quadrature.evals_per_transform', 0.0):.5g} evals/transform |"
        )
    return "\n".join(lines) + "\n"


def main() -> int:
    bench = load_benchmark()
    results = {}
    for workload in workloads.WORKLOADS:
        results[workload] = measure(workload, bench)
        for name, stats in results[workload]["end_to_end"].items():
            flag = "" if stats["spread"] < stats["bound"] / 3 else "   <-- above a third of the bound"
            print(f"{workload:22s} {name:12s} median {stats['median']:<12.6g} spread {stats['spread']:.4f}"
                  f" (bound {stats['bound']}){flag}")
    record = {
        "environment": environment(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": results,
    }
    with open(BASELINE, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    table = layer_table(results)
    with open(TABLE, "w") as handle:
        handle.write(table)
    print(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
