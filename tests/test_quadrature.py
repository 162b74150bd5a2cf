import math

import numpy as np
import pytest

from maassperiods.errors import DivergentIntegralError, DomainError, NonconvergenceError
from maassperiods.modgroup import INFINITY, S, T, T_PRIME
from maassperiods.periods import eta_integrand_kernel_raised
from maassperiods.quadrature import (
    GeodesicPath,
    geodesic_image,
    integrate_form,
    integrate_ray,
    vectorize_form,
)
from maassperiods.kernel import OneFormSample


def _pure_dz(fn):
    def omega(zs):
        zs = np.asarray(zs, dtype=complex)
        return fn(zs), np.zeros(zs.shape, dtype=complex)

    return omega


def test_log_segment():
    omega = _pure_dz(lambda zs: 1.0 / zs.imag)
    got = integrate_form(omega, GeodesicPath.polyline([1j, 2j]), tol=1e-13)
    assert got.value == pytest.approx(1j * math.log(2), abs=1e-12)


def test_exponential_ray():
    omega = _pure_dz(lambda zs: np.exp(2j * math.pi * zs))
    got = integrate_form(omega, GeodesicPath.vertical_ray(1j, +1), tol=1e-15)
    want = 1j * math.exp(-2 * math.pi) / (2 * math.pi)
    assert abs(got.value - want) <= 1e-11 * abs(want)
    assert got.abs_error_estimate < 1e-12


def test_scalar_protocol_adapter():
    omega = lambda z: OneFormSample(A=1.0 / complex(z).imag, B=0.0, at=complex(z))
    got = integrate_form(omega, GeodesicPath.polyline([1j, 2j]), tol=1e-12)
    assert got.value == pytest.approx(1j * math.log(2), abs=1e-11)


@pytest.mark.parametrize("alpha", [-0.4, -0.2, 0.0])
def test_endpoint_power_singularities(alpha):
    d = 1.0 + 1.0j

    def omega(zs, d=d):
        t = np.asarray(zs, dtype=complex) / d
        return t.real.astype(complex) ** alpha / d, np.zeros(np.shape(zs), complex)

    got = integrate_form(
        omega,
        GeodesicPath.polyline([0.0, d]),
        tol=1e-12,
        start_mode=("power", alpha),
    )
    assert abs(got.value - 1.0 / (1.0 + alpha)) <= 1e-9


def test_divergent_exponent_rejected():
    omega = _pure_dz(lambda zs: np.ones(zs.shape, dtype=complex))
    with pytest.raises(DivergentIntegralError):
        integrate_form(
            omega,
            GeodesicPath.polyline([0.0, 1.0 + 1j]),
            start_mode=("power", -1.2),
        )


def test_nonconvergence_carries_partial():
    omega = _pure_dz(lambda zs: np.exp(2j * math.pi * zs))
    with pytest.raises(NonconvergenceError) as excinfo:
        integrate_form(omega, GeodesicPath.vertical_ray(1j, +1), tol=1e-30, max_evals=500)
    assert excinfo.value.evaluations > 500


def test_log_start_walk_exhaustion_raises():
    # the integral is 1000, but t * t^(-0.999) stays above tol down to
    # t = 1e-280, so truncating the start there would drop half of it
    phi = lambda t: np.where(t <= 1.0, t**-0.999, 0.0).astype(complex)
    with pytest.raises(NonconvergenceError):
        integrate_ray(phi, start_mode=("log",))


def test_error_estimate_dominates_refinement():
    omega = _pure_dz(lambda zs: np.exp(2j * math.pi * zs))
    loose = integrate_form(omega, GeodesicPath.vertical_ray(1j, +1), tol=1e-8)
    tight = integrate_form(omega, GeodesicPath.vertical_ray(1j, +1), tol=5e-9)
    assert abs(loose.value - tight.value) <= max(loose.abs_error_estimate, 1e-15)


def test_closed_form_path_independence(delta):
    omega = eta_integrand_kernel_raised(delta, 3.0)
    straight = integrate_form(
        omega, GeodesicPath.vertical_ray(0.0, +1), tol=1e-6, start_mode=("exp",)
    )
    bent = integrate_form(
        omega,
        GeodesicPath.polyline([0.0, -0.5 + 0.5j, -0.5 + 2j, INFINITY]),
        tol=1e-6,
        start_mode=("exp",),
    )
    assert abs(straight.value - bent.value) <= 1e-8 * abs(straight.value)


def test_three_path_split(delta):
    omega = eta_integrand_kernel_raised(delta, 2.0)
    axis = integrate_form(
        omega, GeodesicPath.vertical_ray(0.0, +1), tol=1e-6, start_mode=("exp",)
    ).value
    shifted = integrate_form(
        omega, GeodesicPath.arc(-1.0, INFINITY), tol=1e-6, start_mode=("exp",)
    ).value
    arc = integrate_form(omega, GeodesicPath.arc(0.0, -1.0), tol=1e-6).value
    assert abs(axis - shifted - arc) <= 1e-8 * abs(axis)


def test_geodesic_images():
    axis = GeodesicPath.vertical_ray(0.0, +1)
    assert geodesic_image(axis, T.inverse()).points == (-1.0, INFINITY)
    assert geodesic_image(axis, T_PRIME.inverse()).points == (0.0, -1.0)
    img = geodesic_image(axis, S.inverse())
    assert img.points[0] is INFINITY and img.points[1] == 0.0
    with pytest.raises(DomainError):
        geodesic_image(GeodesicPath.polyline([0.0, 1j]), S)


def test_reversed_arc_negates():
    omega = _pure_dz(lambda zs: np.exp(2j * math.pi * zs))
    fwd = integrate_form(omega, GeodesicPath.arc(-1.0, 1.0), tol=1e-11).value
    rev = integrate_form(omega, GeodesicPath.arc(1.0, -1.0), tol=1e-11).value
    assert abs(fwd + rev) <= 1e-10 * max(1.0, abs(fwd))


def test_arc_against_direct_parametrisation():
    # semicircle of radius 1: closed form for dz over the geodesic
    omega = _pure_dz(lambda zs: np.ones(zs.shape, dtype=complex))
    got = integrate_form(omega, GeodesicPath.arc(-1.0, 1.0), tol=1e-11).value
    assert got == pytest.approx(2.0, abs=1e-9)  # int dz from -1 to 1


def test_integrate_ray_offsets():
    phi = lambda ts: np.exp(-np.asarray(ts, dtype=float))
    got = integrate_ray(phi, tol=1e-12)
    assert got.value == pytest.approx(1.0, rel=1e-11)


def test_polyline_rejects_interior_infinity():
    with pytest.raises(DomainError):
        GeodesicPath.polyline([0.0, INFINITY, 1j])
