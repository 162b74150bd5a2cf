import heapq
import math

import mpmath
import numpy as np
import pytest

from maassperiods import Settings, quadrature
from maassperiods.errors import DivergentIntegralError, DomainError, NonconvergenceError
from maassperiods.forms import surrogate_form, two_sided_surrogate
from maassperiods.modgroup import INFINITY, S, T, T_PRIME
from maassperiods.periods import (
    NearlyPeriodicFunction,
    PeriodFunction,
    eta_integrand,
)
from maassperiods.quadrature import (
    GeodesicPath,
    geodesic_image,
    integrate_form,
    integrate_ray,
)
from maassperiods.specfun import _gauss_rule


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


def test_array_protocol_pairs_b_with_conjugate_velocity():
    # dz/y written as (dz - dzbar)/(2y) on the vertical segment from i to
    # 2i; every point omega sees is counted in evaluations
    sizes = []

    def omega(zs):
        sizes.append(np.size(zs))
        half = 0.5 / np.asarray(zs, dtype=complex).imag
        return half.astype(complex), -half.astype(complex)

    got = integrate_form(omega, GeodesicPath.polyline([1j, 2j]), tol=1e-12)
    assert got.value == pytest.approx(1j * math.log(2), abs=1e-11)
    assert sum(sizes) == got.evaluations


def test_unrefinable_error_raises():
    # a jump at Im z = 1 + 1/pi: bisection reaches the width floor around it
    # with an error estimate still above tol = 1e-16
    jump = 1.0 + 1.0 / math.pi
    omega = _pure_dz(lambda zs: np.where(zs.imag < jump, 1.0, 2.0).astype(complex))
    with pytest.raises(NonconvergenceError) as excinfo:
        integrate_form(omega, GeodesicPath.polyline([1j, 2j]), tol=1e-16)
    assert abs(excinfo.value.partial - 1j * (2.0 - 1.0 / math.pi)) <= 1e-12


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


def test_far_walk_cap_raises():
    # 1/(1+t)^2 decays too slowly for the tail estimate to fall below tol
    # by t = 1e7; truncating there would claim a converged value
    with pytest.raises(NonconvergenceError):
        integrate_ray(lambda t: 1.0 / (1.0 + t) ** 2, tol=1e-10)


def test_error_estimate_dominates_refinement():
    omega = _pure_dz(lambda zs: np.exp(2j * math.pi * zs))
    loose = integrate_form(omega, GeodesicPath.vertical_ray(1j, +1), tol=1e-8)
    tight = integrate_form(omega, GeodesicPath.vertical_ray(1j, +1), tol=5e-9)
    assert abs(loose.value - tight.value) <= max(loose.abs_error_estimate, 1e-15)


def test_closed_form_path_independence(delta):
    omega = eta_integrand(delta, 3.0)
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
    omega = eta_integrand(delta, 2.0)
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


@pytest.mark.parametrize("ends", [(0.4 + 0.9j, -1.0), (-1.0, 0.4 + 0.9j), (0.4 + 0.9j, INFINITY)])
def test_arc_rejects_interior_endpoint(ends):
    # transforms from an interior point pull back along their own contour
    omega = _pure_dz(lambda zs: np.ones(zs.shape, dtype=complex))
    with pytest.raises(DomainError):
        integrate_form(omega, GeodesicPath.arc(*ends), tol=1e-8)


def _per_interval_adaptive(phi, a, b, tol, budget, initial=4):
    """Reference adaptive core: two integrand calls (31 and 15 nodes) per
    interval, the intervals one at a time."""
    x15, w15 = _gauss_rule(15)
    x31, w31 = _gauss_rule(31)

    def gauss(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        budget.spend(46)
        i31 = half * np.sum(w31 * phi(mid + half * x31))
        i15 = half * np.sum(w15 * phi(mid + half * x15))
        return complex(i31), abs(i31 - i15)

    edges = np.linspace(a, b, initial + 1)
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = gauss(lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val))
    width_floor = 5e-15 * (abs(a) + abs(b) + 1.0)
    while total_err > tol and heap:
        neg_err, lo, hi, val = heapq.heappop(heap)
        err = -neg_err
        if err <= tol * 1e-3 or hi - lo < width_floor:
            break
        mid = 0.5 * (lo + hi)
        v1, e1 = gauss(lo, mid)
        v2, e2 = gauss(mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
    return total, max(total_err, 0.0)


def _oscillating_power(zs):
    # |t|^(-0.3 + 20i) along the segment from 0 to 1 + i: at tol 1e-12 the
    # log start walks down to t ~ 1e-19, so the log variable spans over 40
    # units and oscillates about 3 times per unit
    t = np.asarray(zs, dtype=complex) / (1.0 + 1.0j)
    return np.exp((-0.3 + 20.0j) * np.log(t.real)), np.zeros(np.shape(zs), complex)


_BATCHED_CASES = {
    "delta ray": lambda delta: integrate_form(
        eta_integrand(delta, 2.0 + 0.5j),
        GeodesicPath.vertical_ray(0.0, +1),
        tol=1e-8,
        start_mode=("exp",),
    ),
    "arc": lambda delta: integrate_form(
        _pure_dz(lambda zs: np.exp(2j * math.pi * zs) / zs),
        GeodesicPath.arc(-1.0, 2.0),
        tol=1e-11,
    ),
    "log-start segment": lambda delta: integrate_form(
        _oscillating_power,
        GeodesicPath.polyline([0.0, 1.0 + 1.0j]),
        tol=1e-12,
        start_mode=("log",),
    ),
    "log-start ray": lambda delta: integrate_ray(
        lambda t: np.exp(-t) * t ** (-0.5 + 2.0j), tol=1e-10, start_mode=("log",)
    ),
}


@pytest.mark.parametrize("case", sorted(_BATCHED_CASES))
def test_batched_refinement_matches_per_interval_reference(delta, monkeypatch, case):
    got = _BATCHED_CASES[case](delta)
    monkeypatch.setattr(quadrature, "_adaptive", _per_interval_adaptive)
    want = _BATCHED_CASES[case](delta)
    assert got.value == want.value
    assert got.abs_error_estimate == want.abs_error_estimate
    assert got.evaluations == want.evaluations


def _counting(phi, sizes):
    def counted(t):
        sizes.append(np.size(t))
        return phi(t)

    return counted


def test_one_integrand_call_per_bisection():
    sizes = []
    phi = lambda t: np.exp(-t) / (0.01 + (t - 0.5) ** 2)
    got = integrate_ray(_counting(phi, sizes), tol=1e-12)
    assert sum(sizes) == got.evaluations
    # the walk probes in blocks of 2, 4, 8, ... points (never a multiple of
    # 46); then each of the two adaptive pieces evaluates its 4 initial
    # panels in one call and each bisection both halves, both rules, in one
    # call
    batched = [n for n in sizes if n % 46 == 0]
    assert batched[0] == 184 and batched.count(184) == 2
    assert set(batched) == {184, 92}


def test_log_start_refines_from_four_panels_in_one_call():
    # the log piece of the oscillating power starts, like every other
    # piece, from 4 panels in one call; bisection places the rest
    sizes = []
    got = integrate_form(
        _counting(_oscillating_power, sizes),
        GeodesicPath.polyline([0.0, 1.0 + 1.0j]),
        tol=1e-12,
        start_mode=("log",),
    )
    assert sum(sizes) == got.evaluations
    first = sizes.index(184)
    assert all(n % 46 for n in sizes[:first])  # the start walk's probe blocks
    assert len(sizes) > first + 1 and set(sizes[first + 1 :]) == {92}


# ---------------------------------------------------------------------------
# truncation walks: blocks of probes against a probe-by-probe reference


def _probe(phi, budget, t):
    budget.spend(1)
    return abs(complex(phi(np.array([t]))[0]))


def _sequential_walk_out(phi, budget, start, tol, factor=1.7, cap=1e7):
    """Reference far walk: one probe per integrand call."""
    t = start
    prev = None
    while t < cap:
        m = _probe(phi, budget, t)
        if m == 0.0:
            return t, 0.0
        if prev is not None and m < prev[1]:
            rate = (math.log(prev[1]) - math.log(m)) / (t - prev[0])
            tail = m / max(rate, 1e-6)
            if tail < tol:
                return t, tail
        prev = (t, m)
        t *= factor
    raise NonconvergenceError(0.0, float("inf"), budget.used)


def _sequential_walk_in(phi, budget, t1, tol):
    """Reference start walk: one probe per integrand call; the tail is the
    mass m t / (1 + a) below the stopping probe, with the exponent a taken
    through the probe before it (after it, at the first probe)."""
    t = t1 / 4.0
    prev = None
    while t > 1e-280:
        m = _probe(phi, budget, t)
        if m == 0.0:
            return t, 0.0
        if m * t < tol:
            if prev is None:
                (tu, mu), (tl, ml) = (t, m), (t / 6.0, _probe(phi, budget, t / 6.0))
            else:
                (tu, mu), (tl, ml) = prev, (t, m)
            a = math.inf if ml == 0.0 else (math.log(mu) - math.log(ml)) / (math.log(tu) - math.log(tl))
            if a <= -1.0:
                raise NonconvergenceError(0.0, float("inf"), budget.used)
            return t, m * t * max(1.0, 1.0 / (1.0 + a))
        prev = (t, m)
        t /= 6.0
    raise NonconvergenceError(0.0, float("inf"), budget.used)


def _recording(walk, log):
    def recorded(*args, **kwargs):
        out = walk(*args, **kwargs)
        log.append(out)
        return out

    return recorded


_WALK_CASES = {
    "delta ray": lambda forms: integrate_form(
        eta_integrand(forms["delta"], 2.0 + 0.5j),
        GeodesicPath.vertical_ray(0.0, +1),
        tol=1e-8,
        start_mode=("exp",),
    ),
    "arc": lambda forms: integrate_form(
        eta_integrand(forms["delta"], 2.0), GeodesicPath.arc(0.0, -1.0), tol=1e-6
    ),
    "log-start segment": lambda forms: integrate_form(
        _oscillating_power,
        GeodesicPath.polyline([0.0, 1.0 + 1.0j]),
        tol=1e-12,
        start_mode=("log",),
    ),
    "surrogate P on the axis": lambda forms: PeriodFunction(forms["surrogate"]).eval(1.3),
    "two-sided f below the axis": lambda forms: NearlyPeriodicFunction(
        forms["surrogate_two_sided"]
    ).eval(0.2 - 0.8j),
}


@pytest.fixture
def forms(delta, surrogate, surrogate_two_sided):
    return {"delta": delta, "surrogate": surrogate, "surrogate_two_sided": surrogate_two_sided}


def _run_with_walks(monkeypatch, run, walk_out, walk_in):
    log = []
    monkeypatch.setattr(quadrature, "_walk_out", _recording(walk_out, log))
    monkeypatch.setattr(quadrature, "_walk_in", _recording(walk_in, log))
    return run(), log


@pytest.mark.parametrize("case", sorted(_WALK_CASES))
def test_block_walks_match_sequential_reference(forms, monkeypatch, case):
    run = lambda: _WALK_CASES[case](forms)
    got, got_walks = _run_with_walks(monkeypatch, run, quadrature._walk_out, quadrature._walk_in)
    want, want_walks = _run_with_walks(monkeypatch, run, _sequential_walk_out, _sequential_walk_in)
    assert got_walks and got_walks == want_walks  # (t_far or t_min, tail) of each walk
    assert got.value == want.value
    err = "abs_error_estimate" if hasattr(got, "abs_error_estimate") else "abs_error"
    assert getattr(got, err) == getattr(want, err)


def _exp_decay_outside(limit, sizes):
    """e^{-t}, raising DomainError as soon as a call holds a t above limit."""

    def phi(t):
        t = np.asarray(t, dtype=float)
        sizes.append(t.size)
        if np.any(t > limit):
            raise DomainError(f"t = {t.max()!r} is outside the domain")
        return np.exp(-t).astype(complex)

    return phi


def test_domain_error_past_the_stop_replays_the_block():
    # the far walk from 1 stops at its 8th probe, t = 1.7^7 = 41.0; the
    # third block (probes 7 to 14) runs past t = 60 and is replayed
    sizes, ref_sizes = [], []
    got = quadrature._walk_out(_exp_decay_outside(60.0, sizes), quadrature._Budget(10**6), 1.0, 1e-12)
    budget = quadrature._Budget(10**6)
    want = _sequential_walk_out(_exp_decay_outside(60.0, ref_sizes), budget, 1.0, 1e-12)
    assert got == want and len(ref_sizes) == 8
    assert sizes == [2, 4, 8, 1, 1]


def test_domain_error_before_the_stop_raises_the_same_error():
    # the probe t = 1.7^5 = 14.2 leaves the domain before the walk can stop
    with pytest.raises(DomainError) as got:
        quadrature._walk_out(_exp_decay_outside(10.0, []), quadrature._Budget(10**6), 1.0, 1e-12)
    with pytest.raises(DomainError) as want:
        _sequential_walk_out(_exp_decay_outside(10.0, []), quadrature._Budget(10**6), 1.0, 1e-12)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "walk, phi, args",
    [
        (quadrature._walk_out, lambda t: np.exp(-t), (1.0, 1e-12)),
        (quadrature._walk_out, lambda t: np.exp(-0.05 * t), (12.0, 1e-10)),
        (quadrature._walk_in, lambda t: t**-0.3, (1.0, 1e-12)),
        (quadrature._walk_in, lambda t: np.exp(-1.0 / t), (1.0, 1e-10)),
    ],
)
def test_walk_calls_grow_logarithmically(walk, phi, args):
    sizes, ref_sizes = [], []
    reference = _sequential_walk_out if walk is quadrature._walk_out else _sequential_walk_in
    budget = quadrature._Budget(10**6)
    got = walk(_counting(phi, sizes), budget, *args)
    want = reference(_counting(phi, ref_sizes), quadrature._Budget(10**6), *args)
    assert got == want
    assert sum(sizes) == budget.used
    probes = len(ref_sizes)
    assert len(sizes) <= max(1, math.ceil(math.log2(probes)))


# ---------------------------------------------------------------------------
# the start walk's tail bounds the truncated mass


@pytest.mark.parametrize(
    "a",
    [-0.75 + 0.35j, -0.9 + 0.2j, -0.5 + 1.0j, -0.5 + 2.0j, -0.9 + 0.1j, -0.25 - 1.2j, -0.6 + 3.0j],
)
def test_start_tail_bounds_the_error(a):
    # |e^{-t} t^a| ~ t^{Re a}: the mass below t_min is m t_min / (1 + Re a).
    # Gamma(1 + a) is an independent oracle for the log-substituted start; a
    # large Im a checks that its few wide initial panels do not converge
    # falsely on the oscillation
    got = integrate_ray(lambda t: np.exp(-t) * t**a, tol=1e-10, start_mode=("power", a))
    exact = complex(mpmath.gamma(1 + mpmath.mpc(a)))
    assert abs(got.value - exact) <= got.abs_error_estimate
    assert got.evaluations <= 1500


@pytest.mark.parametrize("transform", ["surrogate P at 1", "two-sided f at 0.2-0.7i"])
def test_surrogate_log_start_count_and_accuracy(surrogate, surrogate_two_sided, transform):
    # both start at a power-law endpoint with complex exponent (cusp 0 for
    # P, zeta for f below the axis), so the log piece dominates their count
    build, form, zeta = {
        "surrogate P at 1": (PeriodFunction, surrogate, 1.0),
        "two-sided f at 0.2-0.7i": (NearlyPeriodicFunction, surrogate_two_sided, 0.2 - 0.7j),
    }[transform]
    got = build(form).eval(zeta)
    tight = build(form, Settings(quad_tol=1e-14)).eval(zeta)
    assert got.evaluations <= 1000
    assert abs(got.value - tight.value) <= got.abs_error


def test_start_walk_rejects_a_non_integrable_local_exponent():
    # m t falls below tol at the first probe, but |phi| ~ t^(-1.2) there, so
    # the mass below it is unbounded
    with pytest.raises(NonconvergenceError):
        integrate_ray(lambda t: 1e-20 * np.exp(-t) * t**-1.2, start_mode=("log",))


# f of a surrogate high above (or below) the axis: the first start-walk
# probes lie before the asymptotic regime, where |phi| still grows through
# the form's decay factor as t falls, so their local exponent is <= -1
# although the integrand is integrable at 0
_DEFAULT = dict(weight="1/2", nu=0.35j)
_ONE_TERM = dict(_DEFAULT, coefficients=(0.0, 1.0))
_HIGH_POINTS = {
    "default": (surrogate_form, _DEFAULT, (4.5j, 5j, 6j, 8j)),
    "two-sided": (two_sided_surrogate, _DEFAULT, (4.5j, 5j, 6j, 8j, 0.4 - 6j)),
    "one-term": (surrogate_form, _ONE_TERM, (2.5j, 3j, 0.3 + 2.2j, 0.3 - 2.2j, -3j, 0.3 + 2.1j)),
}


@pytest.mark.parametrize("name", sorted(_HIGH_POINTS))
def test_start_walk_passes_over_pre_asymptotic_probes(name):
    build, kwargs, points = _HIGH_POINTS[name]
    f = NearlyPeriodicFunction(build(**kwargs))
    for zeta in points:
        out = f.eval(zeta)
        assert math.isfinite(abs(out.value)) and 0 < out.abs_error < 1e-10


def test_reported_error_bounds_the_true_error_of_a_one_term_f():
    # one Fourier term of frequency lam = 2 + kappa0 has f(zeta) = c e(lam zeta)
    # above the axis, so f(z1) - e(lam (z1 - z2)) f(z2) = 0 exactly
    form = surrogate_form(**_ONE_TERM)
    lam = 2 + form.kappa0
    f = NearlyPeriodicFunction(form)
    points = (0.3 + 1.1j, 0.2 + 1.6j, 0.4 + 1.8j, 0.1 + 2j, 2.5j, 3j, 0.3 + 2.2j, 0.3 + 2.1j)
    out = {z: f.eval(z) for z in points}
    for i, z1 in enumerate(points):
        for z2 in points[i + 1 :]:
            phase = np.exp(2j * math.pi * lam * (z1 - z2))
            true = abs(out[z1].value - phase * out[z2].value)
            assert true <= out[z1].abs_error + abs(phase) * out[z2].abs_error, (z1, z2)
