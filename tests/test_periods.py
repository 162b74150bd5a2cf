import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from maassperiods.errors import (
    DomainError,
    NonconvergenceError,
    UnsupportedParameterError,
    UnsupportedSpectralParameterError,
)
from maassperiods.forms import MaassForm, delta_coefficients, dslash, q_expansion, surrogate_form
from maassperiods.modgroup import INFINITY, T, T_PRIME
from maassperiods.multiplier import construct_trivial
from maassperiods.periods import (
    BijectionConstants,
    NearlyPeriodicFunction,
    PeriodFunction,
    P_to_f,
    _ray,
    _ray_start,
    arc_ray_integrand,
    eichler_f,
    eichler_polynomial,
    eta_integrand,
    f_to_P,
    growth_check,
    period_polynomial,
    synthetic_nearly_periodic,
)
from maassperiods import Settings, quadrature
from maassperiods.quadrature import GeodesicPath, integrate_form


def test_bijection_constants_trivial_point():
    c = BijectionConstants(0.0, 0.0)
    assert c.c_plus == pytest.approx(2.0)
    assert c.c_minus == pytest.approx(2.0)


def test_bijection_roundtrip(holds):
    holds("periods.bijection-roundtrip")


def test_recovered_function_is_nearly_periodic():
    synth = synthetic_nearly_periodic()
    nu = 0.3j
    v0 = construct_trivial(0)
    period = lambda z: f_to_P(synth, z, nu=nu, multiplier=v0)
    g = lambda z: P_to_f(period, z, weight=0, nu=nu, multiplier=v0)
    for z in (0.4 + 0.7j, 0.4 - 0.7j):
        assert abs(g(z + 1) - g(z)) <= 1e-10 * abs(g(z))


def test_f_to_P_domain_errors():
    # f_to_P has P's domain, the cut plane; P_to_f needs Im zeta != 0
    synth = synthetic_nearly_periodic()
    with pytest.raises(DomainError):
        f_to_P(synth, -2.0, nu=0.3j, multiplier=construct_trivial(0))
    with pytest.raises(DomainError):
        P_to_f(synth, 2.0, weight=0, nu=0.3j, multiplier=construct_trivial(0))


def test_f_to_P_takes_no_weight():
    # P(zeta) = f(zeta) - v(S)^-1 zeta^(2 nu - 1) f(-1/zeta) has no weight in it
    synth = synthetic_nearly_periodic()
    with pytest.raises(TypeError):
        f_to_P(synth, 1j, weight=0, nu=0.3j, multiplier=construct_trivial(0))


def test_bridge_names_what_a_bare_callable_lacks():
    # a bare callable carries no weight, nu or multiplier: each one missing is
    # named before anything is evaluated
    calls = []

    def bare(zeta):
        calls.append(zeta)
        return 0j

    with pytest.raises(TypeError, match="no nu, multiplier"):
        f_to_P(bare, 1j)
    with pytest.raises(TypeError, match="no multiplier"):
        f_to_P(bare, 1j, nu=0.3j)
    with pytest.raises(TypeError, match="no weight, nu, multiplier"):
        P_to_f(bare, 1j)
    with pytest.raises(TypeError, match="no weight"):
        P_to_f(bare, 1j, nu=0.3j, multiplier=construct_trivial(0))
    assert calls == []


def test_eval_P_rejects_the_cut(delta):
    period = PeriodFunction(delta)
    with pytest.raises(DomainError):
        period.eval(-1.0)
    with pytest.raises(DomainError):
        period.eval(0.0)


@pytest.mark.parametrize("zeta", [complex(math.nan, 1.0), complex(0.5, math.inf), complex(-math.inf, 2.0), complex(1.0, math.nan)])
@pytest.mark.parametrize("transform", [PeriodFunction, NearlyPeriodicFunction])
@pytest.mark.parametrize("name", ["delta", "surrogate"])
def test_non_finite_zeta_is_a_domain_error(request, name, transform, zeta):
    # named, before the axis memo and before any quadrature, with no warning
    fn = transform(request.getfixturevalue(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="is not finite") as caught:
            fn.eval(zeta)
    assert str(zeta) in str(caught.value)
    assert not getattr(fn, "_axis", None)


def test_eval_f_requires_spectral_strip(delta):
    bad = surrogate_form("1/2", 0.6)
    with pytest.raises(UnsupportedSpectralParameterError):
        NearlyPeriodicFunction(bad)


@pytest.mark.parametrize("nu", [0.6, 2.0, -0.7, 0.5 + 0.3j])
@pytest.mark.parametrize("transform", [PeriodFunction, NearlyPeriodicFunction])
def test_transforms_require_spectral_strip(transform, nu):
    # P as well as f, named before any table is built or quadrature runs
    with pytest.raises(UnsupportedSpectralParameterError, match="nu = "):
        transform(surrogate_form("1/2", nu))


def test_eval_f_off_axis_only(delta):
    f = NearlyPeriodicFunction(delta)
    with pytest.raises(DomainError):
        f.eval(1.5)


def test_zero_form_maps_to_zero():
    form = surrogate_form("1/2", 0.35j, coefficients=(0.0, 0.0))
    f = NearlyPeriodicFunction(form)
    p = PeriodFunction(form)
    assert f(0.3 + 1.1j) == 0
    assert p(1.7) == 0


def test_classical_golden_points(holds):
    holds("classical.golden-period")


def test_vanishing_spectral_point(delta, settings):
    # at nu = -5.5 the kernel coefficient 1 - 2 nu - k of the holomorphic
    # form vanishes: f and P are the shared zero on both half-planes, with no
    # quadrature (P's value there: classical.vanishing-period)
    lower = MaassForm(12, delta.multiplier, -5.5, delta.backend)
    for transform in (NearlyPeriodicFunction(lower, settings), PeriodFunction(lower, settings)):
        for zeta in (0.5 + 1j, -0.3 - 0.8j):
            out = transform.eval(zeta)
            assert out.value == 0 and out.evaluations == 0 and out.contour == "identically zero"


@pytest.mark.parametrize("name, zeta, ladder, branch", [
    # the four branches alpha = nu - 1/2 + s (k/2 - h) replaced, s = sgn Im zeta
    # and h = 1 for a holomorphic form: the same float from each
    ("delta", 0.4 + 0.9j, -1, lambda nu, k: nu - 1.5 + 0.5 * k),  # s = +1, h = 1
    ("delta", 0.4 - 0.9j, -1, lambda nu, k: nu + 0.5 - 0.5 * k),  # s = -1, h = 1
    ("surrogate", 0.4 + 0.9j, +1, lambda nu, k: nu - 0.5 + 0.5 * k),  # s = +1, h = 0
    ("surrogate", 0.4 - 0.9j, -1, lambda nu, k: nu - 0.5 - 0.5 * k),  # s = -1, h = 0
])
def test_ray_start_reproduces_the_four_branches(request, name, zeta, ladder, branch):
    form = request.getfixturevalue(name)
    assert (form.k, form.nu) == ((12.0, 5.5) if name == "delta" else (0.5, 0.35j))
    base, got_ladder, alpha = _ray_start(form, zeta)
    assert base == (zeta if zeta.imag > 0 else zeta.conjugate())
    assert got_ladder == ladder and alpha == branch(form.nu, form.k)


def test_period_polynomial_relations(holds):
    holds("classical.inversion-relation", "classical.three-term-relation")


def test_eichler_f_periodic_and_cocycle(holds):
    holds("periods.classical-periodicity", "periods.classical-cocycle")


def test_eichler_requires_cuspidal_even_weight(delta_uh_coefficients):
    with pytest.raises(DomainError):
        eichler_polynomial((1, -24), 12, 1.0)
    with pytest.raises(DomainError):
        eichler_polynomial(delta_uh_coefficients, 11, 1.0)
    with pytest.raises(DomainError):
        eichler_f(delta_uh_coefficients, 12, 1.5)


def _classical_integral(coefficients, k, zeta, base, settings):
    """int_base^{i inf} (zeta - z)^{k-2} u_h(z) dz by quadrature, with u_h
    from the reduced q-series (``coefficients`` start at q^1), at 1e-13 of
    the integral of its absolute value."""

    def omega(zs):
        zs = np.asarray(zs, dtype=complex)
        _, mu, series = q_expansion(coefficients, zs.ravel())
        u = (series[0] * mu ** (-k)).reshape(zs.shape)
        return (zeta - zs) ** (k - 2) * u, np.zeros(zs.shape, dtype=complex)

    ray = GeodesicPath((base, INFINITY))
    return integrate_form(omega, ray, settings=dataclasses.replace(settings, quad_tol=1e-13)).value


def test_lower_branch_collapses_to_classical(delta, delta_uh_coefficients, settings):
    """Below the real axis the kernel route reduces to the classical ray
    integral taken from the reflected point, the same collapse that the
    vanishing of the lowered form produces above the axis."""
    f = NearlyPeriodicFunction(delta, settings)
    k = 12
    for zeta in (1 - 0.5j, 0.8 - 1.2j):
        classical = _classical_integral(delta_uh_coefficients[1:], k, zeta, zeta.conjugate(), settings)
        assert abs(f(zeta) - (2 - 2 * k) * classical) <= 1e-7 * abs(f(zeta))


@pytest.mark.parametrize("zeta", [0.3 + 1.3j, -0.4 + 0.9j, 0.2 + 0.1j, 1.7 + 0.5j, -2.3 + 0.3j])
def test_eichler_f_series_matches_quadrature(delta_uh_coefficients, settings, zeta):
    classical = _classical_integral(delta_uh_coefficients[1:], 12, zeta, zeta, settings)
    assert abs(eichler_f(delta_uh_coefficients, 12, zeta) - classical) <= 1e-12 * abs(classical)


def test_eichler_series_refuses_truncation(delta_uh_coefficients):
    # the last supplied term must lie below 2^-53 of the largest
    with pytest.raises(UnsupportedParameterError):
        eichler_f(delta_uh_coefficients, 12, 0.3 + 0.02j)
    for zeta in (1j, 0.3 + 2j, -1.5 + 0.7j):
        with pytest.raises(UnsupportedParameterError):
            eichler_f((0, 1, -24), 12, zeta)
    with pytest.raises(UnsupportedParameterError):
        eichler_polynomial((0, 1, -24), 12, 1.0)


def _delta_e6_coefficients(n_terms):
    """q-coefficients of Delta E_6 (weight 18) from q^0, with
    E_6 = 1 - 504 sum sigma_5(n) q^n."""
    tau = delta_coefficients(n_terms)
    e6 = [1] + [-504 * sum(d**5 for d in range(1, n + 1) if n % d == 0) for n in range(1, n_terms)]
    return (0,) + tuple(sum(tau[j - 1] * e6[n - j] for j in range(1, n + 1)) for n in range(1, n_terms + 1))


def test_weight_18_cocycle():
    # i^k = -1 here: the L-value bracket takes the difference of its halves
    coeffs = _delta_e6_coefficients(50)
    assert coeffs[:4] == (0, 1, -528, -4284)
    poly = period_polynomial(coeffs, 18)
    assert len(poly) == 17 and poly[8] == 0  # Lambda(9) = -Lambda(9)
    for zeta in (0.3 + 1.3j, 0.5 + 1j, -0.4 + 0.9j, 0.8 + 1.7j, 0.2 + 1.1j):
        lhs = eichler_f(coeffs, 18, zeta) - zeta**16 * eichler_f(coeffs, 18, -1.0 / zeta)
        # Horner's rounding scale: p is small against its terms near its zeros
        horner_scale = sum(abs(c) * abs(zeta) ** d for d, c in enumerate(poly))
        assert abs(lhs - eichler_polynomial(coeffs, 18, zeta)) <= 1e-13 * horner_scale


def test_delta_period_polynomial_is_rational(delta_uh_coefficients):
    """Kohnen-Zagier: the odd-degree coefficients of Delta's period
    polynomial are real in the ratios 4 : -25 : 42 : -25 : 4, and the
    even-degree ones imaginary, proportional to (36/691)(X^10 - 1) - (X^8 - 3X^6 + 3X^4 - X^2)."""
    poly = np.array(period_polynomial(delta_uh_coefficients, 12))
    odd, even = poly[1::2], poly[0::2]
    assert np.max(np.abs(odd.imag)) <= 1e-12 * np.max(np.abs(odd))
    assert np.max(np.abs(even.real)) <= 1e-12 * np.max(np.abs(even))
    # degrees 9, 7, 5, 3, 1 and degrees 0, 2, ..., 10
    manin = odd.real[::-1] / odd.real[-1] * 4
    assert np.max(np.abs(manin - [4, -25, 42, -25, 4])) <= 1e-12 * 42
    want = np.array([-36 / 691, 1, -3, 3, -1, 36 / 691])
    assert np.max(np.abs(even.imag / even.imag[1] - want)) <= 1e-12 * 3


def test_classical_compatibility_both_half_planes(holds):
    holds("periods.compatibility-classical")


def test_growth_reports(holds):
    holds("periods.growth")


def test_period_evaluation_metadata(delta, surrogate, settings):
    period = PeriodFunction(surrogate, settings)
    out = period.eval(0.8)
    assert out.abs_error > 0 and out.evaluations > 0
    assert "axis" in out.contour
    out2 = period.eval(-0.5 + 1.2j)
    assert "polyline" in out2.contour
    # Delta, S-equivariant, reaches the left half-plane through f(zeta)
    # and f(-1/zeta), both rays from the upper half-plane
    out3 = PeriodFunction(delta, settings).eval(-0.5 + 1.2j)
    assert out3.contour.startswith("f <-> P bridge: ray -0.5+1.2j -> i*inf")
    assert " | ray 0.2959+0.7101j -> i*inf" in out3.contour


@pytest.mark.parametrize("zeta", [-0.5 + 0.1j, -0.9 + 0.4j, -2 + 1.2j, -4 + 1j])
def test_delta_P_in_the_far_strip(delta, delta_uh_coefficients, settings, zeta):
    # the Eichler-Shimura relation P = -22 p left of the axis, where the
    # deformed polyline ran out of evaluations
    out = PeriodFunction(delta, settings).eval(zeta)
    want = -22.0 * eichler_polynomial(delta_uh_coefficients, 12, zeta)
    assert abs(out.value - want) <= out.abs_error <= 1e-10 * abs(want)
    assert out.evaluations <= 2000


@pytest.mark.parametrize("name", ["delta", "surrogate_two_sided"])
def test_repeated_f_is_its_first_value_bit_for_bit(request, settings, name):
    # the ray integrand of each ladder is built once and kept: later calls,
    # one by one or batched, give what the first gave, on both half-planes
    f = NearlyPeriodicFunction(request.getfixturevalue(name), settings)
    zetas = [0.3 + 0.8j, -0.6 + 0.4j, 1.2 - 0.5j, -0.6 - 0.4j]
    first = [f.eval(zeta) for zeta in zetas]
    for _ in range(2):
        assert [f.eval(zeta) for zeta in zetas] == first
    assert f.eval_many(zetas) == first


@pytest.mark.parametrize("y", [0.3, 1.0, 2.5, -0.3, -1.0, -2.5])
@pytest.mark.parametrize("name", ["delta", "surrogate"])
def test_routes_meet_at_the_imaginary_axis(request, settings, name, y):
    # P at -h + iy (the bridge for Delta, the polyline for the surrogate)
    # against the axis route at h, 3h and 5h, extrapolated quadratically
    # across the seam; the extrapolation itself is off by O(h^3) times the
    # third derivative, far below the reported errors
    period = PeriodFunction(request.getfixturevalue(name), settings)
    h = 1e-6
    left = period.eval(complex(-h, y))
    right = [period.eval(complex(m * h, y)) for m in (1, 3, 5)]
    assert ("bridge" if name == "delta" else "polyline") in left.contour
    assert all("axis" in out.contour for out in right)
    across = 3.0 * right[0].value - 3.0 * right[1].value + right[2].value
    bound = left.abs_error + 3.0 * right[0].abs_error + 3.0 * right[1].abs_error + right[2].abs_error
    assert abs(left.value - across) <= bound


@pytest.mark.parametrize(
    "zeta",
    [
        0.0010707 + 1.4213754j,
        1e-4 + 0.3j,
        0.03 + 1.4j,
        0.3 - 1.4j,
        -0.2492 + 0.3055j,
        -0.2499 - 0.45j,
        -0.2495 + 0.499j,
    ],
)
def test_surrogate_P_near_the_axis(surrogate, settings, zeta):
    # the kernel branches at zeta, just right of the axis or just left of
    # where the left contour once ran: the value must match a contour that
    # keeps its distance, at a bounded cost
    out = PeriodFunction(surrogate, settings).eval(zeta)
    bent = integrate_form(
        eta_integrand(surrogate, zeta),
        GeodesicPath((0.0, -0.5 + 0.5j, -0.5 + 2j, INFINITY)),
        start_mode=("log",),
        settings=Settings(quad_tol=1e-12),
    )
    assert abs(out.value - bent.value) <= out.abs_error + bent.abs_error
    assert out.evaluations <= 1000


@pytest.mark.parametrize(
    "name, zeta, route",
    [
        pytest.param("delta", 0.7 + 0.2j, "imaginary axis ray", id="delta-axis"),
        pytest.param("delta", -0.6 + 0.9j, "f <-> P bridge", id="delta-bridge"),
        pytest.param("surrogate", 0.3 + 0.8j, "imaginary axis segment", id="surrogate-split"),
        pytest.param("surrogate", -0.6 + 0.9j, "deformed polyline", id="surrogate-polyline"),
    ],
)
def test_repeated_zeta_repeats_the_result(request, settings, name, zeta, route):
    # P keeps no results: a repeat recomputes, and on every route it gives
    # back the first evaluation field for field
    period = PeriodFunction(request.getfixturevalue(name), settings)
    first, again = period.eval(zeta), period.eval(zeta)
    assert first.contour.startswith(route)
    assert again is not first
    for field in ("value", "abs_error", "evaluations", "contour"):
        assert getattr(again, field) == getattr(first, field)


def test_deformed_contour_matches_three_term_continuation(delta, settings):
    """The left half-plane route (for Delta, the f <-> P bridge) agrees with
    pushing the argument right through the three-term relation (valid for
    the fully equivariant form), so the extension really is the same
    holomorphic function."""
    period = PeriodFunction(delta, settings)
    v = delta.multiplier
    nu = delta.nu
    for zeta in (-0.45 + 1.3j, -0.8 + 1.5j):
        direct = period(zeta)
        via_relation = dslash(period, nu, v, T)(zeta) + dslash(period, nu, v, T_PRIME)(zeta)
        assert abs(direct - via_relation) <= 1e-7 * abs(direct)


# the five transform integrands: (builder, whether it takes z or the
# parameter t along its contour)
_INTEGRANDS = {
    "kernel-raised": (lambda form: eta_integrand(form, 0.4 + 0.9j, -1), "z"),
    "form-raised": (lambda form: eta_integrand(form, 0.4 + 0.9j, +1), "z"),
    "ray kernel-raised": (lambda form: lambda ts: _ray(form, -1)(ts, 0.2 - 0.8j, 0.2 + 0.8j), "t"),
    "ray form-raised": (lambda form: lambda ts: _ray(form, +1)(ts, 0.4 + 0.9j, 0.4 + 0.9j), "t"),
    "arc ray": (lambda form: arc_ray_integrand(form, 0.4 + 0.9j, -1.0), "t"),
}


@pytest.mark.parametrize("n", [1, 46, 368])
@pytest.mark.parametrize("integrand", sorted(_INTEGRANDS))
@pytest.mark.parametrize("name, n_kappas", [("surrogate", 1), ("surrogate_two_sided", 2)])
def test_one_form_pass_per_integrand_call(request, table_lookups, name, n_kappas, integrand, n):
    form = request.getfixturevalue(name)
    build, variable = _INTEGRANDS[integrand]
    fn = build(form)
    rng = np.random.default_rng(n)
    ts = np.exp(rng.uniform(math.log(0.05), math.log(3.0), n))
    args = ts if variable == "t" else rng.uniform(-1.0, 1.0, n) + 1j * ts
    fn(args)
    assert len(table_lookups) == 1 and len(table_lookups[0]) == n_kappas


_FORMS = ["delta", "surrogate", "surrogate_two_sided"]


def _offsets():
    return np.sort(np.random.default_rng(46).uniform(0.05, 3.0, 46))


def _worst_relative(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize(
    "zeta, base, ladder",
    [(0.4 + 0.9j, 0.4 + 0.9j, -1), (0.4 + 0.9j, 0.4 + 0.9j, +1), (0.2 - 0.8j, 0.2 + 0.8j, -1)],
)
@pytest.mark.parametrize("name", _FORMS)
def test_ray_pullback_matches_eta_integrand(request, name, zeta, base, ladder):
    # the exact-offset ray is i A - i B of the z-array integrand on z = base + i t
    form = request.getfixturevalue(name)
    ts = _offsets()
    a, b = eta_integrand(form, zeta, ladder)(base + 1j * ts)
    got = _ray(form, ladder)(ts, zeta, base)
    assert _worst_relative(got, 1j * a - 1j * b) <= 1e-12


@pytest.mark.parametrize("zeta", [0.4 + 0.9j, 1.1 + 0.6j])
@pytest.mark.parametrize("name", _FORMS)
def test_arc_pullback_matches_eta_integrand(request, name, zeta):
    # the geodesic from zeta to -1 is z(s) = c + r tanh s + i r sech s,
    # with s = s0 + d t running from zeta toward the endpoint
    form = request.getfixturevalue(name)
    c = (abs(zeta) ** 2 - 1.0) / (2.0 * (zeta.real + 1.0))
    r = abs(-1.0 - c)
    s0 = math.atanh((zeta.real - c) / r)
    d = 1.0 if -1.0 > c else -1.0
    s = s0 + d * _offsets()
    sech = 1.0 / np.cosh(s)
    zs = c + r * np.tanh(s) + 1j * r * sech
    velocity = d * r * sech * (sech - 1j * np.tanh(s))
    a, b = eta_integrand(form, zeta, -1)(zs)
    got = arc_ray_integrand(form, zeta, -1.0)(_offsets())
    assert _worst_relative(got, a * velocity + b * np.conj(velocity)) <= 1e-12


@pytest.mark.parametrize("ladder", [-1, +1])
@pytest.mark.parametrize("zeta", [0.3 + 1.2j, -0.7 + 0.9j])
@pytest.mark.parametrize("weight, nu", [("1/2", 0.35j), ("3/2", 0.2)])
def test_pairing_is_closed_across_the_branch_line(weight, nu, zeta, ladder):
    # the rectangle Re zeta +- 0.2, Im z in [0.3, 0.7] straddles the vertical
    # line below zeta, where the paper's displayed kernel formula jumps (its
    # crossing side does not converge); the kernel the pairing takes
    # continues across it, so the loop integral vanishes
    omega = eta_integrand(surrogate_form(weight, nu), zeta, ladder)
    x0, x1 = zeta.real - 0.2, zeta.real + 0.2
    corners = (complex(x0, 0.3), complex(x1, 0.3), complex(x1, 0.7), complex(x0, 0.7), complex(x0, 0.3))
    tight = Settings(quad_tol=1e-12)
    sides = [integrate_form(omega, GeodesicPath(pq), settings=tight).value for pq in zip(corners[:-1], corners[1:])]
    assert abs(sum(sides)) <= 1e-12 * max(abs(v) for v in sides)


# ---------------------------------------------------------------------------
# the memo of the form pass up the imaginary axis

# the axis route, the right half-plane, the surrogate's split route (Re zeta
# < |Im zeta|) and left of the axis (Delta's bridge, the surrogate's polyline)
_MEMO_ZETAS = [0.3, 2.0, 7.5, 0.9 + 0.4j, 1.7 - 1.1j, 0.2 + 0.9j, 0.4 - 1.3j, -0.3 + 0.8j, -0.4 - 0.6j]


def _fields(out):
    return out.value, out.abs_error, out.evaluations, out.contour


@pytest.mark.parametrize("name", ["delta", "surrogate"])
def test_axis_memo_does_not_depend_on_the_order(request, settings, name):
    form = request.getfixturevalue(name)
    forward, backward = PeriodFunction(form, settings), PeriodFunction(form, settings)
    got = {zeta: _fields(forward.eval(zeta)) for zeta in _MEMO_ZETAS}
    for zeta in reversed(_MEMO_ZETAS):
        assert _fields(backward.eval(zeta)) == got[zeta], zeta
    assert np.array_equal(forward._axis.heights, backward._axis.heights)
    assert np.array_equal(forward._axis.values, backward._axis.values)


@pytest.mark.parametrize("name, zeta", [
    ("delta", 0.61), ("delta", 1.3 + 0.7j), ("delta", 2.2 - 0.05j),
    ("surrogate", 0.61), ("surrogate", 1.3 + 0.7j), ("surrogate", 0.35 - 1.2j),
])
def test_warmed_axis_memo_agrees_bitwise_with_a_fresh_one(request, settings, name, zeta):
    # on the axis, in the right half-plane, and on the surrogate's split
    # route; both also agree with the integrand that evaluates the form itself
    form = request.getfixturevalue(name)
    warmed = PeriodFunction(form, settings)
    for x in np.geomspace(0.05, 20.0, 12):
        warmed.eval(x)
        warmed.eval(complex(x, 0.5 * x))
    assert len(warmed._axis) > 0
    got = warmed.eval(zeta)
    assert _fields(got) == _fields(PeriodFunction(form, settings).eval(zeta))
    split = not form.backend.holomorphic and zeta.real < abs(zeta.imag)
    direct = integrate_form(
        eta_integrand(form, zeta),
        GeodesicPath((0.0, 1j * abs(zeta.imag), INFINITY) if split else (0.0, INFINITY)),
        start_mode=("exp",) if form.backend.equivariant else ("log",),
        settings=settings,
    )
    assert _fields(got)[:3] == _fields(direct)[:3]


@pytest.mark.parametrize("name, zeta, route", [
    ("delta", -0.5 + 1.2j, "bridge"),
    ("delta", -0.2 - 0.9j, "bridge"),
    ("surrogate", -0.3 + 0.8j, "polyline"),
    ("surrogate", 0.2 + 0.9j, "imaginary axis segment"),
])
def test_other_routes_leave_the_axis_memo_alone(request, settings, name, zeta, route):
    period = PeriodFunction(request.getfixturevalue(name), settings)
    period.eval(1.0)
    before = period._axis.heights, period._axis.values
    out = period.eval(zeta)
    assert route.split()[-1] in out.contour
    assert period._axis.heights is before[0] and period._axis.values is before[1]


@pytest.mark.parametrize("name, level0_steps, documented", [("delta", 98, 50_177), ("surrogate", 120, 61_441)])
def test_axis_memo_stays_on_its_grid(request, settings, name, level0_steps, documented):
    # 200 distinct points: the benchmark strata and the growth points; every
    # kept node is the exp-sinh node of an integer index at the finest level,
    # between the start floor and the ray's far cap
    form = request.getfixturevalue(name)
    rng = np.random.default_rng(27)
    mirror = lambda zs: np.where(np.arange(zs.size) % 2, zs, zs.conjugate())
    re_max, im_lo, im_hi = (3.0, 0.25, 2.0) if name == "delta" else (2.0, 0.3, 1.5)
    axis = np.exp(rng.uniform(math.log(0.125), math.log(8.0), 62))
    right = mirror(re_max * (1.0 - rng.random(61)) + 1j * rng.uniform(im_lo, im_hi, 61))
    left = mirror(-0.5 * rng.random(61) + 1j * rng.uniform(0.3, 1.5, 61))
    growth = 2.0 ** np.concatenate([np.arange(3, 11), -np.arange(3, 11)])
    zetas = set(np.concatenate([axis, right, left, growth]).tolist())
    assert len(zetas) == 200
    period = PeriodFunction(form, settings)
    for zeta in zetas:
        period.eval(zeta)
    rule, finest = quadrature._EXP_SINH, quadrature._H0 / 2**quadrature._MAX_LEVEL
    w_lo = rule.w_of(quadrature._start_floor(("exp",) if form.backend.equivariant else ("log",)))
    assert math.floor((rule.w_of(1e7) - w_lo) / quadrature._H0) == level0_steps
    bound = 2**quadrature._MAX_LEVEL * level0_steps + 1
    assert bound == documented and f"{documented:,}" in PeriodFunction.__doc__
    heights = period._axis.heights
    assert 0 < heights.size <= bound and np.all(np.diff(heights) > 0)
    m = np.round((np.arcsinh(2.0 * np.log(heights) / math.pi) - w_lo) / finest)
    assert np.all((m >= 0) & (m < bound))
    assert np.array_equal(rule.nodes(w_lo + finest * m)[0], heights)
    # each kept value is the form's own at i * height, bit for bit
    assert np.array_equal(np.array(form.eval_ladder_many(1j * heights, -1)), period._axis.values)


# ---------------------------------------------------------------------------
# many zetas per quadrature pass

# every route of scripts/compare_trees.py, a repeated zeta among them: Delta's
# P up the axis and through the bridge on both half-planes, f on both; the
# surrogate's P up the axis, split and on the polyline; two-sided f on both
_BATCHES = {
    "delta P": ("delta", PeriodFunction, [0.3, 1.2 + 0.7j, -0.5 + 1.2j, 2.2 - 0.05j, -0.2 - 0.9j, 7.5, 1.2 + 0.7j, 0.9 - 1.1j]),
    "delta f": ("delta", NearlyPeriodicFunction, [0.2 + 0.7j, -0.6 - 0.4j, 1.7 + 1.3j, 0.2 + 0.7j, 0.4 - 1.2j]),
    "surrogate P": ("surrogate", PeriodFunction, [1.3, 0.2 + 0.9j, -0.3 + 0.8j, 1.6 - 0.3j, 0.35 - 1.2j, -0.7 - 0.5j, 0.2 + 0.9j]),
    "two-sided f": ("surrogate_two_sided", NearlyPeriodicFunction, [0.2 - 0.7j, -0.4 + 0.8j, 0.2 + 0.7j, 1.1 - 1.4j, -0.4 + 0.8j]),
}


def _all_fields(out):
    return out.value, out.abs_error, out.evaluations, out.contour, out.tol


@pytest.mark.parametrize("batch", sorted(_BATCHES))
def test_eval_many_is_eval_at_each_zeta_bit_for_bit(request, settings, batch):
    name, build, zetas = _BATCHES[batch]
    form = request.getfixturevalue(name)
    got = build(form, settings).eval_many(zetas)
    assert len(got) == len(zetas)
    for zeta, out in zip(zetas, got):
        assert _all_fields(out) == _all_fields(build(form, settings).eval(zeta)), zeta


@pytest.mark.parametrize("build", [PeriodFunction, NearlyPeriodicFunction])
def test_eval_many_of_nothing_is_empty(delta, build):
    assert build(delta).eval_many([]) == []


def _raised(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("build, zetas, bad", [
    (PeriodFunction, [1.0, 0.5 + 0.5j, -2.0, 0.0], -2.0),
    (NearlyPeriodicFunction, [0.5 + 0.5j, 1.5, -0.3 - 0.2j], 1.5),
    (PeriodFunction, [0.7, complex(math.nan, 1.0), -2.0], complex(math.nan, 1.0)),
    (NearlyPeriodicFunction, [0.5 + 0.5j, complex(0.2, math.inf), 2.0], complex(0.2, math.inf)),
])
@pytest.mark.parametrize("name", ["delta", "surrogate"])
def test_eval_many_raises_what_eval_raises_first(request, name, build, zetas, bad):
    form = request.getfixturevalue(name)
    want = _raised(lambda: build(form).eval(bad))
    assert want[0] is DomainError
    assert _raised(lambda: build(form).eval_many(zetas)) == want


def test_eval_many_raises_the_nonconvergence_of_its_first_failing_zeta(surrogate):
    # surrogate P this close to the cut runs out of levels alone; the
    # message carries its own partial value and evaluation count
    want = _raised(lambda: PeriodFunction(surrogate).eval(-3 + 0.001j))
    assert want[0] is NonconvergenceError
    assert _raised(lambda: PeriodFunction(surrogate).eval_many([1.0, -3 + 0.001j, 0.0])) == want


@pytest.mark.parametrize("name", ["delta", "surrogate"])
def test_growth_check_takes_its_samples_from_eval(request, settings, name):
    form = request.getfixturevalue(name)
    report = growth_check(PeriodFunction(form, settings))
    samples = report.samples
    for side in ("small", "large"):
        want = [abs(PeriodFunction(form, settings).eval(z).value) for z in samples[f"zeta_{side}"]]
        assert samples[f"p_{side}"] == want
    fit = lambda zs, ps: float(np.polyfit(np.log(zs), np.log(ps), 1)[0])
    assert report.slope_at_zero == fit(samples["zeta_small"], samples["p_small"])
    assert report.slope_at_infinity == fit(samples["zeta_large"], samples["p_large"])


def test_growth_check_of_a_vanishing_transform_is_a_domain_error(delta):
    # nu = (1-k)/2 makes P vanish identically: no logarithm, no slope
    lower = PeriodFunction(MaassForm(12, delta.multiplier, -5.5, delta.backend))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"\|P\(0\.125\)\| = 0\.0"):
            growth_check(lower)


def test_a_bridge_whose_far_f_fails_raises_its_error(delta):
    # at zeta = -0.05+0.3i the near f takes 97 evaluations and the far f,
    # at -1/zeta, 98: a budget of 97 fails the far one alone
    bad, good = -0.05 + 0.3j, -0.82 + 0.14j
    capped = Settings(max_evals=97)
    f, period = NearlyPeriodicFunction(delta, capped), PeriodFunction(delta, capped)
    assert f.eval(bad).evaluations == 97
    with pytest.raises(NonconvergenceError) as far:
        f.eval(-1.0 / bad)
    with pytest.raises(NonconvergenceError) as got:
        period.eval(bad)
    assert str(got.value) == str(far.value)
    with pytest.raises(NonconvergenceError, match=re.escape(str(far.value))):
        period.eval_many([good, bad, -good.conjugate()])
    # the batch fails at bad alone: its other zetas keep the values they have alone
    outcomes = period._outcomes([good, bad, good])
    assert outcomes[0] == outcomes[2] == period.eval(good)
    assert str(outcomes[1]) == str(far.value)


def test_bridge_formulas_read_a_transform_s_own_parameters(surrogate):
    # f_to_P and P_to_f given a transform and no nu or v (or weight) take
    # the transform's own, bit for bit
    f, period = NearlyPeriodicFunction(surrogate), PeriodFunction(surrogate)
    nu, v = surrogate.nu, surrogate.multiplier
    zeta = 0.4 + 0.7j
    assert f_to_P(f, zeta) == f_to_P(f, zeta, nu=nu, multiplier=v)
    assert P_to_f(period, zeta) == P_to_f(period, zeta, weight=surrogate.k, nu=nu, multiplier=v)
