"""Integral transforms from Maass cusp forms of half-integral weight to
nearly periodic functions and period functions, with verification suites."""

from .branch import factorizable, principal_arg, principal_pow
from .config import Settings
from .forms import (
    ConjugateForm,
    MaassForm,
    delta_coefficients,
    delta_form,
    dslash,
    form_from_json,
    form_to_json,
    maass_lower,
    maass_raise,
    slash,
    surrogate_form,
)
from .kernel import OneFormSample, RKernel, eta_form, r_transform_check
from .modgroup import INFINITY, GroupElement, S, T, T_PRIME, decompose, moebius, mu
from .multiplier import MultiplierSystem, construct_eta_power, construct_trivial
from .periods import (
    BijectionConstants,
    NearlyPeriodicFunction,
    PeriodEvaluation,
    PeriodFunction,
    P_to_f,
    derived_period,
    eichler_f,
    eichler_polynomial,
    f_to_P,
    growth_check,
    period_polynomial,
)
from .quadrature import GeodesicPath, QuadratureResult, geodesic_image, integrate_form
from .specfun import WhittakerParams, bessel_k, gamma_complex, whittaker_w

__all__ = [
    "BijectionConstants",
    "ConjugateForm",
    "GeodesicPath",
    "GroupElement",
    "INFINITY",
    "MaassForm",
    "MultiplierSystem",
    "NearlyPeriodicFunction",
    "OneFormSample",
    "P_to_f",
    "PeriodEvaluation",
    "PeriodFunction",
    "QuadratureResult",
    "RKernel",
    "S",
    "Settings",
    "T",
    "T_PRIME",
    "WhittakerParams",
    "bessel_k",
    "construct_eta_power",
    "construct_trivial",
    "decompose",
    "delta_coefficients",
    "delta_form",
    "derived_period",
    "dslash",
    "eichler_f",
    "eichler_polynomial",
    "eta_form",
    "f_to_P",
    "factorizable",
    "form_from_json",
    "form_to_json",
    "gamma_complex",
    "geodesic_image",
    "growth_check",
    "integrate_form",
    "maass_lower",
    "maass_raise",
    "moebius",
    "mu",
    "period_polynomial",
    "principal_arg",
    "principal_pow",
    "r_transform_check",
    "run_suite",
    "slash",
    "surrogate_form",
    "whittaker_w",
]


def __getattr__(name: str):
    # the verify registry costs about 2 MB and 20 ms to import: transforms
    # alone do not load it
    if name != "run_suite":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .verify import run_suite

    return run_suite
