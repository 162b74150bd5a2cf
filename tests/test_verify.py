"""The identity registry: every registered identity holds, and its entry
does not depend on what else runs."""

import dataclasses
import importlib.util
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

from maassperiods import branch, forms, modgroup, multiplier, periods, specfun, verify
from maassperiods.cli import main
from maassperiods.errors import DomainError, NonconvergenceError
from maassperiods.config import Settings
from maassperiods.verify import EXPECTED_FAILURES, REGISTRY, SUITES, WEIGHTS, Context, check, identity, run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_XFAIL = pytest.mark.xfail(
    strict=True,
    reason=(
        "the compatibility lemma maps the 0 -> zeta contour piece by the inversion "
        "generator, so it needs u|S = u; the surrogate is translation-equivariant "
        "only (periods.compatibility-classical checks the same identity on Delta)"
    ),
)


@pytest.mark.parametrize(
    "ident",
    [pytest.param(i, id=i, marks=_XFAIL if i in EXPECTED_FAILURES else ()) for i in REGISTRY],
)
def test_identity(ident, holds):
    holds(ident)


def test_ids_are_unique_and_expected_failures_registered():
    with pytest.raises(ValueError, match="registered twice"):
        identity("branch.negative-axis", "again", 0.0)(lambda ctx, rng: (1, 0.0))
    assert EXPECTED_FAILURES <= set(REGISTRY)
    assert set(SUITES) == {i.split(".", 1)[0] for i in REGISTRY}


# every registered id, sorted: a change that drops or renames an identity
# fails here, and one that adds an identity adds its id
REGISTERED_IDS = [
    "branch.arg-conjugation", "branch.counterexample", "branch.factorization",
    "branch.negative-axis", "branch.pow-unit-exponents",
    "classical.golden-period", "classical.inversion-relation", "classical.polynomiality",
    "classical.ray-comparison", "classical.three-term-relation", "classical.vanishing-period",
    "group.action-identities", "group.cut-plane-monoid", "group.decompose-roundtrip",
    "group.moebius-examples", "group.word-length",
    "kernel.closed-form", "kernel.ladder-eigen", "kernel.laplace-eigen",
    "kernel.real-zeta-form", "kernel.transformation-law",
    "ms.closedness", "ms.form-ladder", "ms.raised-pair", "ms.reflection-symmetry",
    "ms.slash-compatibility", "ms.sum-identity",
    "multiplier.base-point[k=1/2]", "multiplier.base-point[k=12]", "multiplier.base-point[k=3/2]",
    "multiplier.consistency[k=1/2]", "multiplier.consistency[k=12]", "multiplier.consistency[k=3/2]",
    "multiplier.eta-closed-form[k=1/2]", "multiplier.eta-closed-form[k=12]",
    "multiplier.eta-closed-form[k=3/2]",
    "multiplier.minus-one[k=1/2]", "multiplier.minus-one[k=12]", "multiplier.minus-one[k=3/2]",
    "multiplier.s-squared[k=1/2]", "multiplier.s-squared[k=12]", "multiplier.s-squared[k=3/2]",
    "multiplier.word-independence[k=1/2]", "multiplier.word-independence[k=12]",
    "multiplier.word-independence[k=3/2]",
    "periods.bijection-degenerate", "periods.bijection-roundtrip", "periods.classical-cocycle",
    "periods.classical-periodicity", "periods.compatibility-classical",
    "periods.compatibility-surrogate", "periods.growth", "periods.holomorphy", "periods.linearity",
    "periods.near-periodicity", "periods.pairing-independence", "periods.ray-transform-action",
    "periods.routes-meet-at-the-axis", "periods.slashed-axis-transform", "periods.three-term-classical", "periods.three-term-synthetic",
    "quad.endpoint-powers", "quad.error-estimate", "quad.exponential-ray", "quad.geodesic-images",
    "quad.log-segment", "quad.path-independence", "quad.three-path-split",
]


def test_registry_is_pinned():
    assert len(REGISTERED_IDS) == 68
    assert sorted(REGISTRY) == REGISTERED_IDS


@pytest.fixture(scope="module")
def all_at_seed_3():
    return {e.identity: e for e in run_suite("all", seed=3).entries}


@pytest.mark.parametrize(
    "suite", ["branch", "group", "multiplier", "kernel", "ms", "quad", "classical"]
)
def test_suite_entries_match_all(suite, all_at_seed_3):
    entries = run_suite(suite, seed=3).entries
    assert entries and entries == [all_at_seed_3[e.identity] for e in entries]


def test_weight_filters_the_weight_tagged_ids():
    ids = [e.identity for e in run_suite("multiplier", seed=1, weight="3/2").entries]
    assert ids and all(i.endswith("[k=3/2]") for i in ids)
    for weight in ("5/2", 2.5):
        with pytest.raises(ValueError, match="1/2, 3/2, 12"):
            run_suite("multiplier", weight=weight)


@pytest.mark.parametrize("weight, name", [(0.5, "1/2"), (1.5, "3/2"), (Fraction(3, 2), "3/2"), (12, "12")])
def test_weight_is_read_as_a_number(weight, name):
    ids = [e.identity for e in run_suite("multiplier", seed=1, weight=weight).entries]
    assert ids and ids == [e.identity for e in run_suite("multiplier", seed=1, weight=name).entries]


def test_unknown_suite_or_id_names_the_suites():
    with pytest.raises(ValueError, match="unknown suite 'nope'.*kernel, ms"):
        run_suite("nope")
    with pytest.raises(ValueError, match="'nope' is not registered.*kernel, ms"):
        check("nope")


def test_ms_suite_sees_a_pairing_without_the_lowered_form(monkeypatch):
    # a mutant pairing that drops the E^- u term of a non-holomorphic form:
    # the transforms would go wrong, so some ms.* identity must fail
    real = periods._pairing

    def mutant(form, ladder, form_pass=None):
        pair = real(form, ladder, form_pass)
        if ladder > 0 or form.backend.holomorphic:
            return pair

        def without_lowered(*args):
            a, b = pair(*args)
            return a, np.zeros_like(b)

        return without_lowered

    assert run_suite("ms").passed
    monkeypatch.setattr(periods, "_pairing", mutant)
    assert [e.identity for e in run_suite("ms").entries if not e.passed]


def test_growth_reports_its_margin(context):
    # the signed distance to the nearest slope bound, not a clip to 0
    result = check("periods.growth", context)
    assert result.passed and result.max_residual < 0


def test_a_failed_integral_of_the_vanishing_period_raises():
    # P of the lowered form vanishes by its shortcut, without quadrature; the
    # form-raised integrals up the axis are real ones, and a budget of 50
    # evaluations fails them
    with pytest.raises(NonconvergenceError):
        check("classical.vanishing-period", Context(Settings(max_evals=50)))


def test_word_length_reports_its_margin(context):
    # the signed margin of the longest word to its bound, not a clip to 0
    result = check("group.word-length", context, seed=1)
    assert result.passed and result.max_residual < 0


def _sign_swapped_mu(g, z):
    return g[2] * z - g[3]


def _fold_with_s_inverse(is_s, power):
    s = is_s.astype(np.int64)
    return 1 - s, power + s, -s, 1 - s


def _nearest_step_dropped(p, q):
    return np.sign(p) * np.sign(q)


def _upper_half_plane(w):
    return w.imag > 0


def _mu_of_one(g, z):
    return np.ones(np.shape(g[2] * z))


def _every_matrix(g):
    return np.ones(np.shape(g)[1:], bool)


def _denominator_c_z_minus_d(g, z):
    return (g[0] * z + g[1]) / (g[2] * z - g[3])


def _arg_without_sign(z):
    return np.abs(np.angle(z))


def _admits_two_negative_reals(z, w):
    negative = lambda x: (np.imag(x) == 0) & (np.real(x) < 0)
    return branch.factorizable(z, w) | negative(z) & negative(w)


def _v_of_one(self, m):
    return np.ones(np.shape(m)[1:], complex)


def _delta_with_a_complex_coefficient(n_terms=forms.DELTA_TERMS):
    delta = forms.delta_form(n_terms)
    coefficients = list(delta.backend.coefficients)
    coefficients[1] *= 1 + 1e-3j
    return forms.MaassForm(12, delta.multiplier, delta.nu, type(delta.backend)(tuple(coefficients)))


def _slash_by_the_inverse_power(f, nu, v, g):
    # mu^{1 - 2 nu} where the slash takes mu^{2 nu - 1}
    return forms.dslash(f, 1 - nu, v, g)


def _derivative_series_scaled(kappa, nu):
    # a fresh table, past the per-process cache, whose g'(s) series is 1e-6 too large
    table = specfun.WhittakerTable(kappa, nu)
    table.series = table.series * np.array([1.0, 1.0 + 1e-6])[:, None]
    return table


# each mutant of the array branch, group, word, Maass-Selberg, slash and Whittaker table code:
# (module, name, stand-in, what it does wrong, the ids it must fail at seed 1)
MUTANTS = [
    (verify, "mu", _sign_swapped_mu, "mu as c z - d", ["group.action-identities"]),
    (modgroup, "_cells", _fold_with_s_inverse, "the word product applies S^-1 for S", ["group.decompose-roundtrip"]),
    (modgroup, "_round_half_down", _nearest_step_dropped, "the Euclid run peels T^+-1, not the nearest T^q",
     ["group.word-length"]),
    (verify, "in_cut_plane", _upper_half_plane, "the cut plane taken for the upper half-plane",
     ["group.cut-plane-monoid"]),
    (verify, "has_nonnegative_entries", _every_matrix, "the monoid admits every matrix", ["group.cut-plane-monoid"]),
    (verify, "moebius", _denominator_c_z_minus_d, "the action with denominator c z - d",
     ["group.action-identities", "group.cut-plane-monoid"]),
    (multiplier, "mu", _mu_of_one, "the word fold without its -arg mu(g, z0) term",
     [f"{ident}[k={w}]" for ident in ("multiplier.base-point", "multiplier.eta-closed-form") for w in WEIGHTS]),
    (branch, "principal_arg", _arg_without_sign, "principal_arg drops the sign of Im z",
     ["branch.pow-unit-exponents", "branch.factorization"]),
    (verify, "principal_arg", _arg_without_sign, "verify's arg drops the sign of Im z", ["branch.arg-conjugation"]),
    (verify, "factorizable", _admits_two_negative_reals, "factorizable admits two negative reals",
     ["branch.factorization", "branch.counterexample"]),
    (multiplier.MultiplierSystem, "evaluate_many", _v_of_one, "v(g) = 1", ["ms.slash-compatibility"]),
    (verify, "delta_form", _delta_with_a_complex_coefficient, "Delta with a complex q^2 coefficient",
     ["ms.reflection-symmetry"]),
    (verify, "dslash", _slash_by_the_inverse_power, "the slash by mu^{1 - 2 nu}",
     ["periods.three-term-classical", "periods.three-term-synthetic", "periods.slashed-axis-transform",
      "periods.ray-transform-action"]),
    (forms, "_whittaker_table", _derivative_series_scaled, "the Whittaker tables' t W' 1e-6 too large",
     ["ms.form-ladder", "periods.routes-meet-at-the-axis"]),
]


@pytest.mark.parametrize("module, name, mutant, what, idents", MUTANTS, ids=[m[3] for m in MUTANTS])
def test_each_array_group_identity_fails_a_mutant(monkeypatch, module, name, mutant, what, idents):
    assert all(check(ident, seed=1).passed for ident in idents)
    monkeypatch.setattr(module, name, mutant)
    assert [ident for ident in idents if check(ident, seed=1).passed] == []


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "error, note",
    [
        (NonconvergenceError(0.5, math.inf, 7), "NonconvergenceError: quadrature did not converge: partial=0.5"),
        (DomainError("a point below the axis"), "DomainError: a point below the axis"),
    ],
)
def test_a_raising_identity_fails_its_entry_and_the_run_goes_on(monkeypatch, capsys, error, note):
    ident = "quad.log-segment"
    before = run_suite("quad", seed=1).entries

    def raising(ctx, rng):
        raise error

    monkeypatch.setitem(REGISTRY, ident, dataclasses.replace(REGISTRY[ident], run=raising))
    report = run_suite("quad", seed=1)
    assert [e.identity for e in report.entries] == [e.identity for e in before]
    for got, want in zip(report.entries, before):
        if got.identity != ident:
            assert got == want
    (failed,) = [e for e in report.entries if e.identity == ident]
    assert not failed.passed and failed.max_residual == math.inf and failed.note.startswith(note)
    assert report.unexpected_failures == [ident]
    # check itself keeps the traceback
    with pytest.raises(type(error)):
        check(ident)
    # the CLI reports the id by its note and exits 1; so does the script
    assert main(["verify", "--suite", "quad"]) == 1
    # strict JSON: the residual of the raising id is null, never Infinity
    entries = {e["identity"]: e for e in json.loads(capsys.readouterr().out, parse_constant=_no_constant)["entries"]}
    assert entries[ident]["note"].startswith(note) and not entries[ident]["passed"]
    assert entries[ident]["max_residual"] is None
    spec = importlib.util.spec_from_file_location("_run_verify", os.path.join(ROOT, "scripts", "run_verify.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_verify.py", "--suite", "quad", "--seed", "1"])
    assert script.main() == 1
    (line,) = [line for line in capsys.readouterr().out.splitlines() if ident in line]
    assert line.startswith("[FAIL ]") and line.endswith(failed.note)
