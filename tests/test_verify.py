"""The identity registry: every registered identity holds, and its entry
does not depend on what else runs."""

import pytest

from maassperiods.verify import EXPECTED_FAILURES, REGISTRY, SUITES, identity, run_suite

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
    with pytest.raises(ValueError, match="1/2, 3/2, 12"):
        run_suite("multiplier", weight="5/2")
