"""The paper's acceptance criteria, each as the registered ``verify``
identities that check it. The identities are written once, in
``maassperiods.verify``; criterion 8 (the Maass operator identities) is
checked in ``test_forms`` and ``test_kernel``, and criterion 6 on the
surrogate is the strict expected failure of ``test_verify``."""

from maassperiods.verify import WEIGHTS


def test_criterion_1_classical_golden(holds):
    holds("classical.golden-period", "classical.vanishing-period")


def test_criterion_2_period_polynomial_relations(holds):
    holds("classical.inversion-relation", "classical.three-term-relation")


def test_criterion_3_periodicity(holds):
    holds("periods.classical-periodicity", "periods.classical-cocycle", "periods.near-periodicity")


def test_criterion_4_three_term(holds):
    holds("periods.three-term-classical", "periods.three-term-synthetic")


def test_criterion_5_bijection(holds):
    holds("periods.bijection-roundtrip", "periods.bijection-degenerate")


def test_criterion_6_compatibility_embedded_form(holds):
    holds("periods.compatibility-classical")


def test_criterion_7_kernel_and_form_identities(holds):
    holds(
        "kernel.closed-form",
        "kernel.transformation-law",
        "ms.closedness",
        "ms.sum-identity",
        "ms.reflection-symmetry",
        "ms.moved-kernel",
    )


def test_criterion_9_multiplier_suite(holds):
    names = ("consistency", "minus-one", "s-squared")
    holds(*(f"multiplier.{name}[k={w}]" for w in WEIGHTS for name in names))


def test_criterion_10_growth(holds):
    holds("periods.growth")
