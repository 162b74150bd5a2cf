import csv
import io
import json
import math
import warnings

import pytest

from maassperiods.cli import main
from maassperiods.config import Settings
from maassperiods.verify import EXPECTED_FAILURES, run_suite


def test_run_suite_branch_deterministic():
    a = run_suite("branch", seed=0)
    b = run_suite("branch", seed=0)
    assert a.passed and b.passed
    assert [e.max_residual for e in a.entries] == [e.max_residual for e in b.entries]


def test_run_suite_entries_have_contract_fields():
    report = run_suite("group", seed=0)
    payload = report.to_json()
    assert payload["pass"] is True
    for entry in payload["entries"]:
        assert set(entry) >= {
            "identity", "statement", "samples", "max_residual", "tolerance", "wall_time", "passed"
        }
    assert 0 < sum(e["wall_time"] for e in payload["entries"]) <= payload["wall_time_seconds"]
    # report assembly is order-stable
    ids = [e["identity"] for e in payload["entries"]]
    assert ids == sorted(ids)


def test_cli_verify_multiplier(capsys):
    code = main(["verify", "--suite", "multiplier", "--weight", "1/2", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "multiplier"
    idents = {e["identity"] for e in payload["entries"]}
    assert "multiplier.consistency[k=1/2]" in idents
    assert "multiplier.minus-one[k=1/2]" in idents
    assert "multiplier.s-squared[k=1/2]" in idents


def test_cli_verify_kernel_exit_zero(capsys):
    assert main(["verify", "--suite", "kernel"]) == 0
    json.loads(capsys.readouterr().out)


def test_cli_period_poly(capsys, tmp_path):
    out_path = tmp_path / "poly.csv"
    for samples in (11, 5):
        code = main(["--out", str(out_path), "period-poly", "--samples", str(samples)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        # the sample rows, then the exact coefficients whatever the sample count
        blank = rows.index([])
        assert rows[0] == ["zeta", "re_p", "im_p"] and blank == 1 + samples
        assert rows[blank + 1] == ["degree", "re_coeff", "im_coeff"]
        degree_rows = rows[blank + 2 :]
        assert [r[0] for r in degree_rows] == [str(d) for d in range(11)]  # degree 0..10
        # Delta's degree-0 coefficient is -5.96e-3 i, the degree-2 one purely imaginary
        assert float(degree_rows[0][1]) == 0.0
        assert float(degree_rows[0][2]) == pytest.approx(-5.958964989578e-3, rel=1e-12)
        assert float(degree_rows[2][1]) == 0.0


def test_cli_period_poly_needs_a_sample(capsys):
    assert main(["period-poly", "--samples", "0"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_cli_period_poly_has_no_form_option(capsys):
    # the table is Delta's, the only form with a classical period polynomial here
    assert main(["period-poly", "--form", "delta"]) == 2
    assert "--form" in capsys.readouterr().err


def test_cli_period_function(capsys):
    code = main(
        ["period-function", "--weight", "1/2", "--nu", "0.35i", "--grid", "0.5:1.5:3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["re_zeta", "im_zeta", "re_P", "im_P", "abs_error"]
    assert len(rows) == 4


@pytest.mark.parametrize("count", ["0", "2.7", "-1", "two"])
def test_cli_period_function_grid_count_must_be_a_positive_integer(capsys, count):
    # an empty table or a silently truncated count would pass as success
    assert main(["period-function", "--weight", "1/2", "--nu", "0.35i", f"--grid=0.5:1:{count}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --grid count") and repr(count) in captured.err


@pytest.mark.parametrize("spec", ["0.5:1", "a:1:2", "0:1:2,x", "-1e308:1e308:3"])
def test_cli_period_function_malformed_grid_names_the_option(capsys, spec):
    assert main(["period-function", "--weight", "1/2", "--nu", "0.35i", f"--grid={spec}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --grid") and "start:stop:count[,IM]" in captured.err


@pytest.mark.parametrize("spec, zeta", [("nan:1:2", "(nan+0j)"), ("0.5:inf:2", "(inf+0j)"), ("0.5:1:2,inf", "(0.5+infj)")])
def test_cli_period_function_non_finite_grid_names_zeta(capsys, spec, zeta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["period-function", "--weight", "12", "--nu", "5.5", f"--grid={spec}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --grid point") and zeta in captured.err


def test_cli_table_growth(capsys):
    code = main(["table", "--what", "growth", "--weight", "1/2", "--nu", "0.35i"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["slope_at_infinity"] <= -0.85
    assert payload["slope_at_infinity"] <= payload["bound_at_infinity"] + 0.15
    # 8 dyadic points toward zero and 8 toward infinity
    samples = payload["samples"]
    assert len(samples["p_small"]) == len(samples["p_large"]) == 8
    assert all(math.isfinite(p) and p > 0 for p in samples["p_small"] + samples["p_large"])


def test_cli_config_file(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"quad_tol": 1e-9, "max_evals": 100_000}))
    code = main(["--config", str(config), "verify", "--suite", "branch"])
    assert code == 0
    capsys.readouterr()


def test_cli_bad_config_exits_2(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"nonsense": 1}))
    assert main(["--config", str(config), "verify", "--suite", "branch"]) == 2
    assert main(["--config", str(tmp_path / "missing.json"), "verify", "--suite", "branch"]) == 2


@pytest.mark.parametrize(
    "text, named",
    [
        ("5", "JSON object"),
        ('["quad_tol"]', "JSON object"),
        ('{"quad_tol": "abc"}', "quad_tol"),
        ('{"quad_tol": -1}', "quad_tol"),
        ('{"quad_tol": 0}', "quad_tol"),
        ('{"quad_tol": 1}', "quad_tol"),
        ('{"quad_tol": NaN}', "quad_tol"),
        ('{"quad_tol": Infinity}', "quad_tol"),
        ('{"quad_tol": true}', "quad_tol"),
        ('{"max_evals": "100"}', "max_evals"),
        ('{"max_evals": 0}', "max_evals"),
        ('{"max_evals": 100.0}', "max_evals"),
        ('{"max_evals": true}', "max_evals"),
        # former keys: Delta's term count and the growth fit are fixed
        ('{"q_terms": 30}', "q_terms"),
        ('{"growth_exponents": [3, 10]}', "growth_exponents"),
    ],
)
def test_cli_malformed_config_exits_2(text, named, tmp_path, capsys):
    # exit 1 would read as "an identity failed"; a bad file is a usage error
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["--config", str(config), "verify", "--suite", "branch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_cli_nonconvergence_exits_2(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_evals": 100}))
    argv = ["--config", str(config), "period-function", "--weight", "1/2", "--nu", "0.35i", "--grid=-3:-1:3,1e-6"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: quadrature did not converge")


def test_cli_unknown_suite_exits_2():
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_cli_bad_weight_exits_2(capsys):
    assert main(["period-function", "--weight", "1/3", "--nu", "0.3i"]) == 2


def test_cli_unresolved_whittaker_index_exits_2(capsys):
    assert main(["period-function", "--weight", "1/2", "--nu", "5i"]) == 2
    assert "does not resolve W_{0.25, 5j}" in capsys.readouterr().err


def test_settings_roundtrip(tmp_path):
    s = Settings(quad_tol=1e-9, max_evals=100_000)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(s.to_json()))
    back = Settings.from_json(path)
    assert back == s


@pytest.mark.parametrize(
    "args, config",
    [
        (["verify", "--suite", "group", "--tol", "1e-300"], None),
        (["verify", "--suite", "multiplier", "--multiplier", "trivial"], None),
        (["verify", "--suite", "multiplier", "--weight", "5/2"], None),
        (["verify", "--suite", "group"], {"identity_tol": 1e-300}),
        (["verify", "--suite", "kernel"], {"seed": 7}),
    ],
)
def test_removed_options_and_keys_exit_2(args, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = ["--config", str(path)] + args
    assert main(args) == 2


def test_expected_failures_documented():
    assert "periods.compatibility-surrogate" in EXPECTED_FAILURES
