"""Integral transforms from Maass cusp forms of half-integral weight to
nearly periodic functions and period functions, with verification suites."""

from .branch import factorizable, principal_arg, principal_pow
from .config import Settings
from .forms import (
    MaassForm,
    delta_coefficients,
    delta_form,
    dslash,
    surrogate_form,
)
from .kernel import RKernel, r_transform_check
from .modgroup import INFINITY, GroupElement, S, T, T_PRIME, decompose_many, moebius, mu
from .multiplier import MultiplierSystem, construct_eta_power, construct_trivial
from .periods import (
    BijectionConstants,
    NearlyPeriodicFunction,
    PeriodFunction,
    P_to_f,
    eichler_f,
    eichler_polynomial,
    f_to_P,
    growth_check,
    period_polynomial,
)
from .quadrature import GeodesicPath, QuadratureResult, geodesic_image, integrate_form
from .specfun import gamma_complex, whittaker_w

__all__ = [
    "BijectionConstants",
    "GeodesicPath",
    "GroupElement",
    "INFINITY",
    "MaassForm",
    "MultiplierSystem",
    "NearlyPeriodicFunction",
    "P_to_f",
    "PeriodFunction",
    "QuadratureResult",
    "RKernel",
    "S",
    "Settings",
    "T",
    "T_PRIME",
    "construct_eta_power",
    "construct_trivial",
    "decompose_many",
    "delta_coefficients",
    "delta_form",
    "dslash",
    "eichler_f",
    "eichler_polynomial",
    "f_to_P",
    "factorizable",
    "gamma_complex",
    "geodesic_image",
    "growth_check",
    "integrate_form",
    "moebius",
    "mu",
    "period_polynomial",
    "principal_arg",
    "principal_pow",
    "r_transform_check",
    "run_suite",
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
