"""The identity registry: every registered identity holds, and its entry
does not depend on what else runs."""

from fractions import Fraction

import numpy as np
import pytest

from maassperiods import periods
from maassperiods.verify import EXPECTED_FAILURES, REGISTRY, SUITES, check, identity, run_suite

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
    "ms.closedness", "ms.raised-pair", "ms.reflection-symmetry",
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
    "periods.slashed-axis-transform", "periods.three-term-classical", "periods.three-term-synthetic",
    "quad.endpoint-powers", "quad.error-estimate", "quad.exponential-ray", "quad.geodesic-images",
    "quad.log-segment", "quad.path-independence", "quad.three-path-split",
]


def test_registry_is_pinned():
    assert len(REGISTERED_IDS) == 66
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
