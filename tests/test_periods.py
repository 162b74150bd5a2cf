import cmath
import math

import numpy as np
import pytest

from maassperiods import periods
from maassperiods.branch import principal_pow
from maassperiods.errors import (
    DegenerateBijectionError,
    DomainError,
    UnsupportedSpectralParameterError,
)
from maassperiods.forms import (
    MaassForm,
    WhittakerSurrogate,
    dslash,
    surrogate_form,
)
from maassperiods.kernel import RKernel
from maassperiods.modgroup import S, T, T_PRIME
from maassperiods.multiplier import construct_eta_power, construct_trivial
from maassperiods.periods import (
    BijectionConstants,
    NearlyPeriodicFunction,
    PeriodFunction,
    P_to_f,
    _ray_integrand_form_raised,
    _ray_integrand_kernel_raised,
    arc_ray_integrand_kernel_raised,
    derived_period,
    eichler_f,
    eichler_polynomial,
    eta_integrand_form_raised,
    eta_integrand_kernel_raised,
    f_to_P,
    growth_check,
    synthetic_nearly_periodic,
)
from maassperiods.quadrature import GeodesicPath, integrate_form, integrate_ray
from maassperiods.specfun import WhittakerTable


def test_bijection_constants_trivial_point():
    c = BijectionConstants(0.0, 0.0)
    assert c.c_plus == pytest.approx(2.0)
    assert c.c_minus == pytest.approx(2.0)


def test_bijection_constants_reject_degenerate():
    with pytest.raises(DegenerateBijectionError):
        BijectionConstants(0.0, 0.5)


def test_synthetic_three_term():
    synth = synthetic_nearly_periodic()
    nu = 0.3j
    v0 = construct_trivial(0)
    period = derived_period(synth, 0, nu, v0)
    pts = [0.5 + 0.8j, 1.2 + 0.4j, -0.7 + 1.1j, 0.3 + 2.2j, 2.0 + 0.6j]
    for z in pts + [w.conjugate() for w in pts] + [0.5, 1.0, 2.0, 4.0]:
        z = complex(z)
        p0 = period(z)
        p1 = dslash(period, nu, v0, T)(z)
        p2 = dslash(period, nu, v0, T_PRIME)(z)
        scale = max(abs(p0), abs(p1), abs(p2))
        assert abs(p0 - p1 - p2) <= 1e-9 * scale


def test_bijection_roundtrip():
    synth = synthetic_nearly_periodic()
    nu = 0.3j
    v0 = construct_trivial(0)
    period = derived_period(synth, 0, nu, v0)
    pts = [0.5 + 0.8j, 1.2 + 0.4j, -0.7 + 1.1j, 0.3 + 2.2j, 2.0 + 0.6j]
    for z in pts + [w.conjugate() for w in pts]:
        back = P_to_f(period, z, weight=0, nu=nu, multiplier=v0)
        assert abs(back - synth(z)) <= 1e-9 * abs(synth(z))
        fwd = f_to_P(lambda w: P_to_f(period, w, weight=0, nu=nu, multiplier=v0),
                     z, weight=0, nu=nu, multiplier=v0)
        assert abs(fwd - period(z)) <= 1e-9 * max(abs(period(z)), 1e-12)


def test_recovered_function_is_nearly_periodic():
    synth = synthetic_nearly_periodic()
    nu = 0.3j
    v0 = construct_trivial(0)
    period = derived_period(synth, 0, nu, v0)
    g = lambda z: P_to_f(period, z, weight=0, nu=nu, multiplier=v0)
    for z in (0.4 + 0.7j, 0.4 - 0.7j):
        assert abs(g(z + 1) - g(z)) <= 1e-10 * abs(g(z))


def test_f_to_P_domain_errors():
    synth = synthetic_nearly_periodic()
    with pytest.raises(DomainError):
        f_to_P(synth, 2.0, weight=0, nu=0.3j, multiplier=construct_trivial(0))
    with pytest.raises(DomainError):
        P_to_f(synth, 2.0, weight=0, nu=0.3j, multiplier=construct_trivial(0))


def test_eval_P_rejects_the_cut(delta):
    period = PeriodFunction(delta)
    with pytest.raises(DomainError):
        period.eval(-1.0)
    with pytest.raises(DomainError):
        period.eval(0.0)


def test_eval_f_requires_spectral_strip(delta):
    bad = surrogate_form("1/2", 0.6)
    with pytest.raises(UnsupportedSpectralParameterError):
        NearlyPeriodicFunction(bad)


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


def test_classical_golden_points(delta, delta_uh_coefficients, settings):
    period = PeriodFunction(delta, settings)
    for zeta in (0.5, 1.0, 2.0, 1 + 0.5j, 1 - 0.5j):
        p_val = eichler_polynomial(delta_uh_coefficients, 12, zeta, settings)
        assert abs(period(zeta) + 22.0 * p_val) <= 1e-7 * (1 + abs(p_val))


def test_vanishing_spectral_point(delta, delta_uh_coefficients, settings):
    lower = MaassForm(12, delta.multiplier, -5.5, delta.backend)
    period = PeriodFunction(lower, settings)
    f = NearlyPeriodicFunction(lower, settings)
    for zeta in (0.5, 1 + 0.5j):
        p_val = eichler_polynomial(delta_uh_coefficients, 12, zeta, settings)
        assert abs(period(zeta)) <= 1e-8 * (1 + abs(p_val))
    assert f(0.5 + 1j) == 0


def test_period_polynomial_relations(delta_uh_coefficients, settings, rng):
    k = 12
    for _ in range(4):
        zeta = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
        p0 = eichler_polynomial(delta_uh_coefficients, k, zeta, settings)
        scale = max(abs(p0), 1e-10)
        r1 = p0 + zeta ** (k - 2) * eichler_polynomial(
            delta_uh_coefficients, k, -1.0 / zeta, settings
        )
        assert abs(r1) <= 1e-7 * scale
        r2 = (
            p0
            + (zeta + 1) ** (k - 2)
            * eichler_polynomial(delta_uh_coefficients, k, -1.0 / (zeta + 1), settings)
            + zeta ** (k - 2)
            * eichler_polynomial(delta_uh_coefficients, k, -(zeta + 1) / zeta, settings)
        )
        assert abs(r2) <= 1e-7 * scale


def test_eichler_f_periodic_and_cocycle(delta_uh_coefficients, settings):
    k = 12
    for zeta in (0.3 + 1.3j, 0.5 + 1j):
        fh = eichler_f(delta_uh_coefficients, k, zeta, settings)
        assert abs(eichler_f(delta_uh_coefficients, k, zeta + 1, settings) - fh) <= 1e-9 * abs(fh)
        p = eichler_polynomial(delta_uh_coefficients, k, zeta, settings)
        lhs = fh - zeta ** (k - 2) * eichler_f(delta_uh_coefficients, k, -1 / zeta, settings)
        assert abs(lhs - p) <= 1e-7 * abs(p)


def test_eichler_polynomiality(delta_uh_coefficients, settings):
    # degree-10 interpolation through 11 nodes extrapolates the transform
    nodes = 1.0 + 0.5 * (1 + np.cos(np.pi * (2 * np.arange(1, 12) - 1) / 22.0))
    vals = [eichler_polynomial(delta_uh_coefficients, 12, complex(x), settings) for x in nodes]
    fit = np.polyfit(nodes, vals, 10)
    pred = complex(np.polyval(fit, 3.0))
    direct = eichler_polynomial(delta_uh_coefficients, 12, 3.0, settings)
    assert abs(pred - direct) <= 1e-8 * abs(direct)


def test_eichler_requires_cuspidal_even_weight(delta_uh_coefficients):
    with pytest.raises(DomainError):
        eichler_polynomial((1, -24), 12, 1.0)
    with pytest.raises(DomainError):
        eichler_polynomial(delta_uh_coefficients, 11, 1.0)
    with pytest.raises(DomainError):
        eichler_f(delta_uh_coefficients, 12, 1.5)


def test_ray_comparison_with_classical(delta, delta_uh_coefficients, settings):
    f = NearlyPeriodicFunction(delta, settings)
    for zeta in (0.5 + 1j, 0.3 + 1.3j):
        want = -22.0 * eichler_f(delta_uh_coefficients, 12, zeta, settings)
        assert abs(f(zeta) - want) <= 1e-7 * abs(want)


def test_classical_compatibility_both_half_planes(delta, settings):
    f = NearlyPeriodicFunction(delta, settings)
    period = PeriodFunction(delta, settings)
    for zeta in (1 + 0.5j, 2 + 1j, 1 - 0.5j, 0.8 - 1.2j):
        direct = period(zeta)
        via = f_to_P(f, zeta)
        assert abs(direct - via) <= 1e-6 * abs(direct)


def test_surrogate_near_periodicity(surrogate_two_sided, settings):
    f = NearlyPeriodicFunction(surrogate_two_sided, settings)
    v_t = surrogate_two_sided.multiplier.v_t
    pts = [0.3 + 1.1j, -0.4 + 0.8j, 0.7 + 0.9j]
    for z in pts + [w.conjugate() for w in pts]:
        a = f(z + 1) / v_t
        b = f(z)
        assert abs(a - b) <= 1e-6 * abs(b)


def test_lower_branch_collapses_to_classical(delta, delta_uh_coefficients, settings):
    """Below the real axis the kernel route reduces to the classical ray
    integral taken from the reflected point, the same collapse that the
    vanishing of the lowered form produces above the axis."""
    from maassperiods.periods import holomorphic_series_eval

    f = NearlyPeriodicFunction(delta, settings)
    k = 12
    for zeta in (1 - 0.5j, 0.8 - 1.2j):
        base = zeta.conjugate()

        def omega(zs):
            zs = np.asarray(zs, dtype=complex)
            a = (zeta - zs) ** (k - 2) * holomorphic_series_eval(
                delta_uh_coefficients[1:], k, zs
            )
            return a, np.zeros(zs.shape, dtype=complex)

        classical = integrate_form(
            omega, GeodesicPath.vertical_ray(base, +1), tol=1e-11, settings=settings
        ).value
        assert abs(f(zeta) - (2 - 2 * k) * classical) <= 1e-7 * abs(f(zeta))


def test_pairing_independence_cusp_to_cusp(delta, settings):
    omega_r = eta_integrand_kernel_raised(delta, 3.0)
    omega_u = eta_integrand_form_raised(delta, 3.0)
    path = GeodesicPath.vertical_ray(0.0, +1)
    i_r = integrate_form(omega_r, path, tol=1e-6, start_mode=("exp",)).value
    i_u = integrate_form(omega_u, path, tol=1e-6, start_mode=("exp",)).value
    assert abs(i_r + i_u) <= 1e-8 * abs(i_r)


def test_transform_action_under_t_prime(delta, settings):
    f = NearlyPeriodicFunction(delta, settings)
    zeta = 0.4 + 0.9j
    lhs = dslash(f, delta.nu, delta.multiplier, T_PRIME)(zeta)
    phi = arc_ray_integrand_kernel_raised(delta, zeta, -1.0)
    scale = max(abs(phi(np.array([t]))[0]) for t in (0.4, 1.0, 2.0))
    res = integrate_ray(
        phi,
        tol=settings.quad_tol * max(1.0, scale),
        start_mode=("power", delta.nu - 1.5 + delta.k / 2),
        settings=settings,
    )
    assert abs(lhs - res.value) <= 1e-7 * abs(lhs)


def test_slashed_axis_transform(delta, settings):
    from maassperiods.quadrature import geodesic_image

    period = PeriodFunction(delta, settings)
    for g in (T, T_PRIME):
        img = geodesic_image(GeodesicPath.vertical_ray(0.0, +1), g.inverse())
        for zeta in (0.5, 2.0):
            lhs = dslash(period, delta.nu, delta.multiplier, g)(zeta)
            omega = eta_integrand_kernel_raised(delta, zeta)
            res = integrate_form(omega, img, tol=1e-7, start_mode=("exp",), settings=settings)
            assert abs(lhs - res.value) <= 1e-8 * max(abs(lhs), 1.0)


def test_linearity(delta, settings):
    doubled = MaassForm(
        12,
        delta.multiplier,
        5.5,
        type(delta.backend)(tuple(2 * c for c in delta.backend.coefficients)),
    )
    p1 = PeriodFunction(delta, settings)
    p2 = PeriodFunction(doubled, settings)
    for zeta in (0.7, 1 + 0.6j):
        assert abs(p2(zeta) - 2 * p1(zeta)) <= 1e-10 * abs(p2(zeta))


def test_growth_reports(delta, surrogate, settings):
    report_d = growth_check(PeriodFunction(delta, settings), settings)
    assert abs(report_d.slope_at_infinity - 10.0) <= 0.1
    report_s = growth_check(PeriodFunction(surrogate, settings), settings)
    assert report_s.slope_at_infinity <= -0.85
    assert report_s.slope_at_zero >= -0.15
    assert report_s.passes


def test_period_evaluation_metadata(surrogate, settings):
    period = PeriodFunction(surrogate, settings)
    out = period.eval(0.8)
    assert out.abs_error > 0 and out.evaluations > 0
    assert "axis" in out.contour
    out2 = period.eval(-0.5 + 1.2j)
    assert "polyline" in out2.contour


def test_period_memo_is_bounded_lru(delta, settings):
    period = PeriodFunction(delta, settings)
    period.MEMO_SIZE = 2
    first = period.eval(0.5)
    period.eval(1.0)
    assert period.eval(0.5) is first  # a hit, and now the most recent
    period.eval(2.0)  # evicts 1.0, the least recently used
    assert list(period._cache) == [0.5, 2.0]
    assert period.eval(0.5) is first


def test_deformed_contour_matches_three_term_continuation(delta, settings):
    """The left-of-the-cut contour agrees with pushing the argument right
    through the three-term relation (valid for the fully equivariant form),
    so the extension really is the same holomorphic function."""
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
    "kernel-raised": (lambda form: eta_integrand_kernel_raised(form, 0.4 + 0.9j), "z"),
    "form-raised": (lambda form: eta_integrand_form_raised(form, 0.4 + 0.9j), "z"),
    "ray kernel-raised": (lambda form: _ray_integrand_kernel_raised(form, 0.2 - 0.8j, 0.2 + 0.8j), "t"),
    "ray form-raised": (lambda form: _ray_integrand_form_raised(form, 0.4 + 0.9j, 0.4 + 0.9j), "t"),
    "arc ray": (lambda form: arc_ray_integrand_kernel_raised(form, 0.4 + 0.9j, -1.0), "t"),
}


@pytest.mark.parametrize("n", [1, 46, 368])
@pytest.mark.parametrize("integrand", sorted(_INTEGRANDS))
@pytest.mark.parametrize("name, n_kappas", [("surrogate", 1), ("surrogate_two_sided", 2)])
def test_one_form_pass_per_integrand_call(request, monkeypatch, name, n_kappas, integrand, n):
    form = request.getfixturevalue(name)
    build, variable = _INTEGRANDS[integrand]
    fn = build(form)
    rng = np.random.default_rng(n)
    ts = np.exp(rng.uniform(math.log(0.05), math.log(3.0), n))
    args = ts if variable == "t" else rng.uniform(-1.0, 1.0, n) + 1j * ts
    calls = []
    lookup = WhittakerTable.__call__

    def counting(table, t):
        calls.append(table.kappa)
        return lookup(table, t)

    monkeypatch.setattr(WhittakerTable, "__call__", counting)
    fn(args)
    assert len(calls) == len(set(calls)) == n_kappas


@pytest.mark.parametrize(
    "transform, quadrature_entry, zeta, probes",
    [(PeriodFunction, "integrate_form", 1.5, 4), (NearlyPeriodicFunction, "integrate_ray", 0.3 + 0.7j, 3)],
)
def test_scale_probe_is_counted(delta, settings, monkeypatch, transform, quadrature_entry, zeta, probes):
    # the probe points that set the tolerance count as evaluations too
    results = []
    original = getattr(periods, quadrature_entry)

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(periods, quadrature_entry, recording)
    out = transform(delta, settings).eval(zeta)
    assert out.evaluations == results[0].evaluations + probes
