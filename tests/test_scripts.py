"""The experiment scripts in scripts/ run end to end and print sane output."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from maassperiods.forms import delta_form, surrogate_form, two_sided_surrogate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_defers_the_verify_registry():
    # transforms alone do not load the registry; run_suite still resolves
    code = (
        "import sys, maassperiods\n"
        "assert 'maassperiods.verify' not in sys.modules\n"
        "assert maassperiods.run_suite.__module__ == 'maassperiods.verify'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_first_surrogate_evaluation_loads_no_numpy_submodule():
    # np.unique loads numpy.ma and leggauss numpy.polynomial, each for one
    # call; every CLI call and benchmark worker would pay for them
    code = (
        "import sys, maassperiods\n"
        "from maassperiods.forms import two_sided_surrogate\n"
        "maassperiods.PeriodFunction(maassperiods.surrogate_form('1/2', 0.35j)).eval(0.3 + 1j)\n"
        "maassperiods.NearlyPeriodicFunction(two_sided_surrogate('1/2', 0.35j)).eval(0.3 + 1j)\n"
        "loaded = [name for name in ('numpy.ma', 'numpy.polynomial') if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_golden_period_table():
    lines = _run("golden_period_table.py").splitlines()
    rows = [line.split() for line in lines[1:12]]
    assert len(rows) == 11 and rows[-1][0] == "(-4+1j)"
    # P = -22 p on every sampled point, the far strip included: the
    # relative differences are tiny
    assert all(float(row[-1]) <= 1e-10 for row in rows)
    assert "period polynomial coefficients from L-values" in lines[13]
    assert len(lines) == 14 + 11


def test_run_verify_classical():
    lines = _run("run_verify.py", "--suite", "classical").splitlines()
    checks = [line for line in lines if line.startswith("[")]
    assert checks and all(line.startswith("[ok   ]") for line in checks)
    assert lines[-1].endswith("; 0 unexpected failures")


def test_traced_benchmark_labels_each_form():
    # the benchmark's tracer labels a form by reading ``is_embedding`` with a
    # False default, so a renamed attribute would mislabel spans silently
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    forms = (delta_form(), surrogate_form("1/2", 0.35j), two_sided_surrogate("1/2", 0.35j))
    assert [tracer._form_label(form) for form in forms] == [tracer.EMBEDDING, tracer.ONE_SIDED, tracer.TWO_SIDED]


@pytest.mark.parametrize("workload", ["delta-transforms", "delta-continuation", "surrogate-transforms", "verify"])
def test_traced_benchmark_worker_runs(tmp_path, workload):
    # the benchmark's tracer wraps library methods with their argument lists
    # (and rebinds verify.SUITES for the verify job), so a traced run fails
    # if a wrapped entry point changes its signature
    job = ["verify"] if workload == "verify" else ["transforms", "--workload", workload, "--seconds", "0"]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), *job, "--seed", "1", "--trace"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "layers" in json.loads(proc.stdout.splitlines()[-1])
