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
    assert lines[-2].endswith("; 0 unexpected failures")
    # the per-suite wall time, the sum of the entries' times
    assert lines[-1].startswith("suite wall time: classical ") and lines[-1].endswith("s")
    assert float(lines[-1].rsplit(" ", 1)[1][:-1]) == pytest.approx(
        sum(float(line.rsplit(", ", 1)[1].split("s)")[0]) for line in checks), abs=0.01 * len(checks) + 0.001
    )


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
    # the benchmark's tracer and probe bind library names by hand
    # (integrate_form/integrate_ray, reduce_to_fundamental_domain,
    # is_embedding, RKernel, eval_ray, WhittakerTable.__call__) and rebind
    # verify.SUITES for the verify job, so a library change can break a
    # traced run, or fail its operations, while every other test passes.
    # The span dumps go to a relative .perfbench-traces, hence tmp_path.
    job = ["verify"] if workload == "verify" else ["transforms", "--workload", workload, "--seconds", "0"]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), *job, "--seed", "1", "--trace"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    if workload == "verify":
        assert out["entries"] > 0 and out["unexpected_failures"] == []
    else:
        for ops in (out["ops"], out["traced_ops"]):
            assert ops and [op[4] for op in ops if op[4] is not None] == []
    assert out["layers"]["periods.transforms"] > 0


def test_compare_trees_finds_nothing_against_itself():
    out = _run("compare_trees.py", ROOT, "--seeds", "1")
    assert out.splitlines() == ["seed 1: 0 differing fields"]


def _compare_trees_module():
    spec = importlib.util.spec_from_file_location("_compare_trees", os.path.join(ROOT, "scripts", "compare_trees.py"))
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    return compare


def test_compare_trees_prints_each_differing_field():
    compare = _compare_trees_module()
    here = {"a": {"value": [1.0, 0.0], "evaluations": 3}, "b": {"value": [2.0, 0.0]}}
    there = {"a": {"value": [1.0, 5e-17], "evaluations": 3}, "c": {"error": "DomainError: x"}}
    assert compare._differences(here, there) == [
        ("a: value [1.0, 0.0] here, [1.0, 5e-17] there, relative 5.0e-17", "value", 5e-17),
        ("b: only in this tree", None, None),
        ("c: only in the other tree", None, None),
    ]


def test_compare_trees_ends_with_the_largest_relative_move_per_kind(monkeypatch, capsys):
    compare = _compare_trees_module()
    reports = {
        compare.ROOT: {
            "f 0": {"value": [1.0, 0.0], "abs_error": 2e-9, "evaluations": 5},
            "f 1": {"value": [2.0, 0.0], "abs_error": 1e-9},
            "verify x": {"max_residual": 3e-12, "samples": 4},
        },
        "other": {
            "f 0": {"value": [1.0, 1e-15], "abs_error": 1e-9, "evaluations": 4},
            "f 1": {"value": [2.0, 0.0], "abs_error": 1e-9},
            "verify x": {"max_residual": 3e-12, "samples": 4},
        },
    }
    monkeypatch.setattr(compare, "_run_tree", lambda tree, seed: reports[tree])
    monkeypatch.setattr(sys, "argv", ["compare_trees.py", "other", "--seeds", "1"])
    assert compare.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 1: f 0: abs_error 2e-09 here, 1e-09 there, relative 1.0e+00",
        "seed 1: f 0: evaluations 5 here, 4 there, relative 2.5e-01",
        "seed 1: f 0: value [1.0, 0.0] here, [1.0, 1e-15] there, relative 1.0e-15",
        "seed 1: 3 differing fields",
        "largest relative value move: 1.0e-15 (seed 1: f 0)",
        "largest relative abs_error move: 1.0e+00 (seed 1: f 0)",
        "largest relative residual move: none",
    ]
