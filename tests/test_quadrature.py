import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maassperiods import Settings, periods, quadrature
from maassperiods.errors import DivergentIntegralError, DomainError, NonconvergenceError
from maassperiods.forms import surrogate_form, two_sided_surrogate
from maassperiods.modgroup import INFINITY, S, T, T_PRIME
from maassperiods.periods import (
    NearlyPeriodicFunction,
    PeriodFunction,
    eichler_f,
    eichler_polynomial,
    eta_integrand,
)
from maassperiods.quadrature import (
    GeodesicPath,
    _compile,
    geodesic_image,
    integrate_form,
    integrate_ray,
)


def _pure_dz(fn):
    def omega(zs):
        zs = np.asarray(zs, dtype=complex)
        return fn(zs), np.zeros(zs.shape, dtype=complex)

    return omega


def test_exponential_ray():
    omega = _pure_dz(lambda zs: np.exp(2j * math.pi * zs))
    got = integrate_form(omega, GeodesicPath((1j, INFINITY)), settings=Settings(quad_tol=1e-12))
    want = 1j * math.exp(-2 * math.pi) / (2 * math.pi)
    assert abs(got.value - want) <= 1e-11 * abs(want)
    assert got.abs_error < 1e-12


def test_array_protocol_pairs_b_with_conjugate_velocity():
    # dz/y written as (dz - dzbar)/(2y) on the vertical segment from i to
    # 2i; every point omega sees is counted in evaluations
    sizes = []

    def omega(zs):
        sizes.append(np.size(zs))
        half = 0.5 / np.asarray(zs, dtype=complex).imag
        return half.astype(complex), -half.astype(complex)

    got = integrate_form(omega, GeodesicPath((1j, 2j)), settings=Settings(quad_tol=1e-12))
    assert got.value == pytest.approx(1j * math.log(2), abs=1e-11)
    assert sum(sizes) == got.evaluations


def test_unrefinable_error_raises():
    # a jump at Im z = 1 + 1/pi: the level differences of tanh-sinh stay
    # above 1e-12 of the integral through the last level
    jump = 1.0 + 1.0 / math.pi
    omega = _pure_dz(lambda zs: np.where(zs.imag < jump, 1.0, 2.0).astype(complex))
    with pytest.raises(NonconvergenceError):
        integrate_form(omega, GeodesicPath((1j, 2j)), settings=Settings(quad_tol=1e-12))


# a peak of width 0.1 at Im z = 1.5, mid-segment on i to 2i
_peak = _pure_dz(lambda zs: 1.0 / (0.01 + (zs.imag - 1.5) ** 2))


def test_peaked_segment():
    got = integrate_form(_peak, GeodesicPath((1j, 2j)), settings=Settings(quad_tol=1e-12))
    assert got.value == pytest.approx(1j * 20.0 * math.atan(5.0), rel=1e-11)


def test_divergent_exponent_rejected():
    omega = _pure_dz(lambda zs: np.ones(zs.shape, dtype=complex))
    with pytest.raises(DivergentIntegralError):
        integrate_form(
            omega,
            GeodesicPath((0.0, 1.0 + 1j)),
            start_mode=("power", -1.2),
        )


def test_nonconvergence_carries_partial():
    omega = _pure_dz(lambda zs: np.exp(2j * math.pi * zs))
    with pytest.raises(NonconvergenceError) as excinfo:
        integrate_form(omega, GeodesicPath((1j, INFINITY)), settings=Settings(quad_tol=1e-30, max_evals=500))
    assert excinfo.value.evaluations > 500


def test_log_start_walk_exhaustion_raises():
    # the integral is 1000, but the level-0 term of t^(-0.999) at the log
    # start's floor t = 1e-30 is still near 1: truncating there would drop
    # most of it
    phi = lambda t: np.where(t <= 1.0, t**-0.999, 0.0).astype(complex)
    with pytest.raises(NonconvergenceError):
        integrate_ray(phi, start_mode=("log",))


def test_far_walk_cap_raises():
    # 1/(1+t)^2 decays too slowly for the far end term to fall below its
    # target by t = 1e7; truncating there would claim a converged value
    with pytest.raises(NonconvergenceError):
        integrate_ray(lambda t: 1.0 / (1.0 + t) ** 2)


def test_unknown_start_mode_raises():
    with pytest.raises(ValueError, match=r"^unknown endpoint mode \('cusp',\)$"):
        integrate_ray(lambda t: np.exp(-t), start_mode=("cusp",))


def test_non_finite_level0_mass_raises():
    with pytest.raises(NonconvergenceError, match=r"^quadrature did not converge: partial=0j, error=inf") as err:
        integrate_ray(lambda t: np.full(t.shape, np.nan))
    # the one level-0 call
    assert err.value.evaluations == err.value.__cause__.evaluations > 0


def test_non_finite_terms_past_a_moved_end_raise():
    # level 0 is finite but does not decay at its far end, so that end moves
    # out; the moved nodes end in two 0 terms, which stop the move, after
    # NaN ones the level-0 mass did not vouch for
    calls = []

    def phi(t):
        calls.append(t.size)
        if len(calls) == 1:
            return np.ones(t.shape)
        return np.where(np.arange(t.size) >= t.size - 2, 0.0, np.nan)

    with pytest.raises(NonconvergenceError, match=r"^quadrature did not converge: partial=0j, error=inf") as err:
        integrate_ray(phi)
    assert len(calls) == 2 and err.value.evaluations == sum(calls)


def test_a_batch_of_paths_takes_one_edge_kind_per_edge():
    with pytest.raises(ValueError, match=r"^one edge of a batch of paths is of several kinds: \['ray', 'segment'\]$"):
        _compile([GeodesicPath((1j, INFINITY)), GeodesicPath((1j, 2j))])


def test_closed_form_path_independence(delta):
    omega = eta_integrand(delta, 3.0)
    straight = integrate_form(omega, GeodesicPath((0.0, INFINITY)), start_mode=("exp",))
    bent = integrate_form(omega, GeodesicPath((0.0, -0.5 + 0.5j, -0.5 + 2j, INFINITY)), start_mode=("exp",))
    assert abs(straight.value - bent.value) <= 1e-8 * abs(straight.value)


def test_three_path_split(delta):
    omega = eta_integrand(delta, 2.0)
    axis = integrate_form(omega, GeodesicPath((0.0, INFINITY)), start_mode=("exp",)).value
    shifted = integrate_form(omega, GeodesicPath((-1.0, INFINITY)), start_mode=("exp",)).value
    arc = integrate_form(omega, GeodesicPath((0.0, -1.0))).value
    assert abs(axis - shifted - arc) <= 1e-8 * abs(axis)


def test_geodesic_images():
    axis = GeodesicPath((0.0, INFINITY))
    assert geodesic_image(axis, T.inverse()).points == (-1.0, INFINITY)
    assert geodesic_image(axis, T_PRIME.inverse()).points == (0.0, -1.0)
    img = geodesic_image(axis, S.inverse())
    assert img.points[0] is INFINITY and img.points[1] == 0.0
    with pytest.raises(DomainError):
        geodesic_image(GeodesicPath((0.0, 1j)), S)


def test_reversed_arc_negates():
    omega = _pure_dz(lambda zs: np.exp(2j * math.pi * zs))
    fwd = integrate_form(omega, GeodesicPath((-1.0, 1.0)), settings=Settings(quad_tol=1e-11)).value
    rev = integrate_form(omega, GeodesicPath((1.0, -1.0)), settings=Settings(quad_tol=1e-11)).value
    assert abs(fwd + rev) <= 1e-10 * max(1.0, abs(fwd))


def test_arc_against_direct_parametrisation():
    # semicircle of radius 1: closed form for dz over the geodesic
    omega = _pure_dz(lambda zs: np.ones(zs.shape, dtype=complex))
    got = integrate_form(omega, GeodesicPath((-1.0, 1.0)), settings=Settings(quad_tol=1e-11)).value
    assert got == pytest.approx(2.0, abs=1e-9)  # int dz from -1 to 1


def test_integrate_ray_offsets():
    phi = lambda ts: np.exp(-np.asarray(ts, dtype=float))
    got = integrate_ray(phi, settings=Settings(quad_tol=1e-12))
    assert got.value == pytest.approx(1.0, rel=1e-11)


def test_polyline_rejects_interior_infinity():
    with pytest.raises(DomainError):
        GeodesicPath((0.0, INFINITY, 1j))


@pytest.mark.parametrize(
    "ends",
    [(INFINITY, 0.0), (1.0, 1.0), (1j, INFINITY, 2j), (INFINITY, INFINITY)],
)
def test_arc_rejects_interior_endpoint(ends):
    # an edge from INFINITY (the image of a ray, not integrated), a
    # degenerate arc, and INFINITY inside a path or at both of its ends
    omega = _pure_dz(lambda zs: np.ones(zs.shape, dtype=complex))
    with pytest.raises(DomainError):
        integrate_form(omega, GeodesicPath(ends))


@pytest.mark.parametrize(
    "points, piece",
    [((-1.0, 0.5), "arc sinh-sinh"), ((0.5 + 1j, INFINITY), "ray exp-sinh"), ((-1.0, 1.0 + 1j), "segment tanh-sinh")],
)
def test_edge_type_follows_from_its_ends(points, piece):
    # between two real points the arc, to INFINITY the ray, else a segment;
    # each integrates e(z) dz = e^{2 pi i z} dz to (e(end) - e(start)) / (2 pi i)
    omega = _pure_dz(lambda zs: np.exp(2j * math.pi * zs))
    got = integrate_form(omega, GeodesicPath(points), settings=Settings(quad_tol=1e-12))
    assert got.contour.startswith(piece + " level")
    e = [0.0 if p is INFINITY else cmath.exp(2j * math.pi * p) for p in points]
    want = (e[1] - e[0]) / (2j * math.pi)
    assert abs(got.value - want) <= 1e-10 * abs(want)


def _oscillating_power(zs):
    # |t|^(-0.3 + 20i) along the segment from 0 to 1 + i: it oscillates
    # about 3 times per unit of log t all the way down to the start
    t = np.asarray(zs, dtype=complex) / (1.0 + 1.0j)
    return np.exp((-0.3 + 20.0j) * np.log(t.real)), np.zeros(np.shape(zs), complex)


def test_polyline_matches_the_imaginary_axis(delta):
    # a polyline of two segments and a ray, against the axis ray
    omega = eta_integrand(delta, 2.0 + 0.5j)
    axis = integrate_form(omega, GeodesicPath((0.0, INFINITY)), start_mode=("exp",))
    bent = integrate_form(omega, GeodesicPath((0.0, -0.5 + 0.5j, -0.5 + 2j, INFINITY)), start_mode=("exp",))
    assert abs(axis.value - bent.value) <= axis.abs_error + bent.abs_error


_DECAY_EXPONENT = -0.3 + 2.0j
_TARGET_CASES = {
    "exp-sinh ray": lambda c: integrate_ray(
        lambda t: c * np.exp(-t) * t**_DECAY_EXPONENT, start_mode=("power", _DECAY_EXPONENT)
    ),
    "plain segment": lambda c: integrate_form(
        _pure_dz(lambda zs: c * np.exp(-zs.imag) * zs.imag**_DECAY_EXPONENT), GeodesicPath((0.5j, 3j))
    ),
}


@pytest.mark.parametrize("case", sorted(_TARGET_CASES))
def test_default_target_is_relative_to_the_integrand(case):
    # a piece aims at quad_tol times its own integral of |phi|: scaling
    # the integrand scales the target and nothing else
    scales = (1e-40, 1.0, 1e40)
    results = [_TARGET_CASES[case](c) for c in scales]
    assert len({r.evaluations for r in results}) == 1
    ratios = [r.abs_error / abs(r.value) for r in results]
    assert ratios == pytest.approx([ratios[1]] * 3, rel=1e-9)
    targets = [r.tol / c for r, c in zip(results, scales)]
    assert targets == pytest.approx([targets[1]] * 3, rel=1e-9)


def test_metadata_reports_the_absolute_target(delta):
    # the sum of the targets the pieces used, proportional to quad_tol
    omega = eta_integrand(delta, 2.0 + 0.5j)
    path = GeodesicPath((0.0, -0.5 + 0.5j, -0.5 + 2j, INFINITY))
    tols = [
        integrate_form(omega, path, start_mode=("exp",), settings=Settings(quad_tol=q)).tol
        for q in (1e-8, 1e-10)
    ]
    assert tols[1] > 0 and tols[0] == pytest.approx(100.0 * tols[1], rel=1e-12)


def _counting(phi, sizes):
    def counted(t):
        sizes.append(np.size(t))
        return phi(t)

    return counted


def _decaying_power(zs):
    return np.exp(2j * math.pi * zs) * np.abs(zs) ** (-0.3 + 5.0j), np.zeros(np.shape(zs), complex)


_ONE_CALL_PER_LEVEL = {
    "plain segment": lambda wrap: integrate_form(
        wrap(_peak), GeodesicPath((1j, 2j)), settings=Settings(quad_tol=1e-12)
    ),
    "tanh-sinh segment": lambda wrap: integrate_form(
        wrap(_oscillating_power), GeodesicPath((0.0, 1.0 + 1.0j)), start_mode=("log",), settings=Settings(quad_tol=1e-12)
    ),
    "exp-sinh ray": lambda wrap: integrate_form(
        wrap(_decaying_power), GeodesicPath((0.0, INFINITY)), start_mode=("log",), settings=Settings(quad_tol=1e-12)
    ),
    "sinh-sinh arc": lambda wrap: integrate_form(wrap(_decaying_power), GeodesicPath((-1.0, 2.0)), settings=Settings(quad_tol=1e-11)),
}


@pytest.mark.parametrize("case", sorted(_ONE_CALL_PER_LEVEL))
def test_each_level_is_one_call(case):
    # after level 0 and any moves of a far end, level n is one call on the
    # 2^(n-1) (b - a) new midpoints, so the sizes double from call to call
    sizes = []
    got = _ONE_CALL_PER_LEVEL[case](lambda omega: _counting(omega, sizes))
    assert sum(sizes) == got.evaluations
    (note,) = got.contour.split(";")
    level = int(note.split(" level ")[1].split()[0])
    levels = sizes[-level:]
    assert level >= 1 and levels == [levels[0] * 2**n for n in range(level)]
    assert len(sizes) - level <= 4


# ---------------------------------------------------------------------------
# typed failures at the ends of a ray


def _exp_decay_outside(limit, sizes):
    """e^{-t}, raising DomainError as soon as a call holds a t above limit."""

    def phi(t):
        t = np.asarray(t, dtype=float)
        sizes.append(t.size)
        if np.any(t > limit):
            raise DomainError(f"t = {t.max()!r} is outside the domain")
        return np.exp(-t).astype(complex)

    return phi


def test_domain_error_before_the_stop_raises_the_same_error():
    # e^{-t} is truncated beyond t = 10, so level 0 reaches past the
    # integrand's domain: its DomainError propagates unchanged
    with pytest.raises(DomainError, match="is outside the domain"):
        integrate_ray(_exp_decay_outside(10.0, []), settings=Settings(quad_tol=1e-12))


@pytest.mark.parametrize("alpha", [-1.0, -1.2 + 0.5j, -3.0])
def test_ray_rejects_a_divergent_exponent(alpha):
    with pytest.raises(DivergentIntegralError):
        integrate_ray(lambda t: np.exp(-t) * t**alpha, start_mode=("power", alpha))


@pytest.mark.parametrize(
    "phi",
    [lambda t: np.ones(np.shape(t)), lambda t: np.cos(t) + 2.0, lambda t: t ** (-0.5) * (1.0 + t) ** (-0.6)],
    ids=["constant", "oscillating", "power tail"],
)
def test_undecayed_far_end_raises(phi):
    # the far end moves out at most to t = 1e7; an integrand still above
    # target there is never truncated silently
    with pytest.raises(NonconvergenceError):
        integrate_ray(phi, start_mode=("power", -0.5))


def test_undecayed_arc_end_raises():
    # |dz| ~ 2 e^{-|s|} ds at the ends of the arc, and so is |z -+ 1|: the
    # pulled-back dz / |z -+ 1| does not decay in s
    omega = lambda zs: (1.0 / np.abs(zs - np.round(zs.real)) + 0j, np.zeros(np.shape(zs), complex))
    with pytest.raises(NonconvergenceError):
        integrate_form(omega, GeodesicPath((-1.0, 1.0)))


# ---------------------------------------------------------------------------
# reported errors against independent oracles


@pytest.mark.parametrize(
    "a",
    [-0.75 + 0.35j, -0.9 + 0.2j, -0.5 + 1.0j, -0.5 + 2.0j, -0.9 + 0.1j, -0.25 - 1.2j, -0.6 + 3.0j],
)
def test_start_tail_bounds_the_error(a):
    # |e^{-t} t^a| ~ t^{Re a}: level 0 starts where t^(1 + Re a) is 1e-40.
    # Gamma(1 + a) is an independent oracle for the start truncation and the
    # level-difference estimate; a large Im a checks that the coarse levels
    # do not agree falsely on the oscillation in log t
    got = integrate_ray(lambda t: np.exp(-t) * t**a, start_mode=("power", a))
    exact = complex(mpmath.gamma(1 + mpmath.mpc(a)))
    assert abs(got.value - exact) <= got.abs_error
    assert got.evaluations <= 500


def test_power_start_floor_follows_the_exponent():
    # t^(1 + alpha) reaches 1e-40 at 10^(-40 / (1 + alpha)): with alpha = 10
    # (Delta's f above the axis) level 0 starts at 10^(-40/11), not at 1e-40
    floor = quadrature._start_floor(("power", 10.0))
    assert floor == 10.0 ** (-40.0 / 11.0)
    assert quadrature._start_floor(("power", -0.5)) == 1e-80
    nodes = []

    def phi(t):
        nodes.append(t)
        return np.exp(-t) * t**10

    got = integrate_ray(phi, start_mode=("power", 10.0))
    assert np.concatenate(nodes).min() >= floor * (1.0 - 1e-12)
    assert abs(got.value - math.factorial(10)) <= got.abs_error


def _counted_eval(monkeypatch, build, form, zeta):
    """A transform's evaluation and the sizes of its integrand calls, seen
    through a counting wrapper on the integrand of the quadrature entry."""
    sizes = []
    original = periods._integrate

    def counting(integrand, *args, **kwargs):
        def counted(x, owners):
            sizes.append(np.size(x))
            return integrand(x, owners)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(periods, "_integrate", counting)
    out = build(form).eval(zeta)
    monkeypatch.undo()
    return out, sizes


@pytest.mark.parametrize("transform", ["surrogate P at 1", "two-sided f at 0.2-0.7i"])
def test_surrogate_log_start_count_and_accuracy(surrogate, surrogate_two_sided, monkeypatch, transform):
    # both start at a power-law endpoint with complex exponent (cusp 0 for
    # P, zeta for f below the axis)
    build, form, zeta = {
        "surrogate P at 1": (PeriodFunction, surrogate, 1.0),
        "two-sided f at 0.2-0.7i": (NearlyPeriodicFunction, surrogate_two_sided, 0.2 - 0.7j),
    }[transform]
    got, sizes = _counted_eval(monkeypatch, build, form, zeta)
    tight = build(form, Settings(quad_tol=1e-14)).eval(zeta)
    assert got.evaluations <= 200 and len(sizes) <= 5
    assert abs(got.value - tight.value) <= got.abs_error


# integrand points and calls of the reference transforms: points pinned
# about 8 % above their counts when set (107, 137, 93, 120, 102), calls
# exactly; every point a transform reports is a point of the integrand
_REFERENCE_COUNTS = {
    "delta P at 1": ("delta", PeriodFunction, 1.0, 115, 2),
    "delta f at 0.2+0.7i": ("delta", NearlyPeriodicFunction, 0.2 + 0.7j, 148, 2),
    "surrogate P at 1": ("surrogate", PeriodFunction, 1.0, 100, 1),
    "two-sided f at 0.2-0.7i": ("surrogate_two_sided", NearlyPeriodicFunction, 0.2 - 0.7j, 130, 1),
    "two-sided f at 0.2+0.7i": ("surrogate_two_sided", NearlyPeriodicFunction, 0.2 + 0.7j, 110, 1),
}


@pytest.mark.parametrize("name, zetas", [("delta", (0.15, 6.0)), ("surrogate", (0.01, 0.05))])
def test_axis_nodes_are_integer_indices_of_one_grid(request, monkeypatch, name, zetas):
    # each node at level L is t(w_lo + (1/16) m / 2^L) for an integer m, the
    # same float whichever nodes the truncation kept: the form pass up the
    # axis can then be shared between zetas
    form = request.getfixturevalue(name)
    seen, notes = [], []
    original = periods._integrate

    def recording(omega, *args, **kwargs):
        def spy(zs, owners):
            seen.append(np.asarray(zs))
            return omega(zs, owners)

        return original(spy, *args, **kwargs)

    monkeypatch.setattr(periods, "_integrate", recording)
    rule = quadrature._EXP_SINH
    w_lo = rule.w_of(quadrature._start_floor(("exp",) if form.backend.equivariant else ("log",)))
    for zeta in zetas:
        seen.clear()
        out = PeriodFunction(form).eval(zeta)
        notes.append(out.contour.split(" level ")[1])
        zs = np.concatenate(seen)
        assert np.all(zs.real == 0.0) and int(notes[-1].split()[0]) >= 1
        for level in range(quadrature._MAX_LEVEL + 1):
            step = quadrature._H0 / 2**level
            m = np.round((np.arcsinh(2.0 * np.log(zs.imag) / math.pi) - w_lo) / step)
            on_level = rule.nodes(w_lo + step * m)[0] == zs.imag
            zs = zs[~on_level]
        assert zs.size == 0
    # the two truncations keep different ranges of level-0 nodes
    assert notes[0].split(" in ")[1] != notes[1].split(" in ")[1]


@pytest.mark.parametrize("transform", sorted(_REFERENCE_COUNTS))
def test_reference_transform_counts(request, monkeypatch, transform):
    name, build, zeta, points, calls = _REFERENCE_COUNTS[transform]
    out, sizes = _counted_eval(monkeypatch, build, request.getfixturevalue(name), zeta)
    assert sum(sizes) <= points and len(sizes) <= calls
    assert out.evaluations == sum(sizes)


def test_start_walk_rejects_a_non_integrable_local_exponent():
    # the level-0 term at the log start's floor is below tol, but the terms
    # grow toward it (|phi| ~ t^(-1.2)), so the mass below it is unbounded
    with pytest.raises(NonconvergenceError):
        integrate_ray(lambda t: 1e-20 * np.exp(-t) * t**-1.2, start_mode=("log",))


# f of a surrogate high above (or below) the axis: near the start |phi|
# still grows through the form's decay factor as t falls, before the
# integrable endpoint power takes over
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


@pytest.mark.parametrize("name", ["delta", "surrogate", "surrogate_two_sided"])
def test_f_far_from_the_axis_meets_its_floor(request, name):
    # f's target is relative to the integral of |phi| down to 1e-50: far
    # out the tables return W below 1e-60 as zero, and a relative target
    # there would chase that cutoff
    f = NearlyPeriodicFunction(request.getfixturevalue(name))
    for zeta in (24j, -24j, 0.3 + 22j, 0.3 - 22j, 40j):
        out = f.eval(zeta)
        assert math.isfinite(abs(out.value))
        assert out.abs_error <= 1e-10 * max(1e-50, 10.0 * abs(out.value)), zeta


@functools.lru_cache(maxsize=None)
def _one_term(weight: str, nu: complex, side: int):
    """A surrogate of one Fourier term, coefficient 1, at frequency
    lam = kappa0 + side; the second result is lam."""
    if side > 0:
        form = surrogate_form(weight, nu, coefficients=(1.0,))
    else:
        form = surrogate_form(weight, nu, coefficients=(0.0,), negative_coefficients=(1.0,))
    return form, form.kappa0 + side


def _one_term_f(weight: str, nu: complex, side: int, zeta: complex) -> complex:
    """s 4i e^{-i pi k/2} Gamma(1/2 + s k/2 + nu) (pi |lam|)^{1/2 - nu} e(lam zeta),
    s = sgn lam: the one term's f on the half-plane sgn Im zeta = s, with
    Gamma from mpmath."""
    form, lam = _one_term(weight, nu, side)
    k, s = form.k, side
    gamma = complex(mpmath.gamma(0.5 + s * k / 2 + nu))
    return (
        s * 4j * cmath.exp(-0.5j * math.pi * k) * gamma
        * (math.pi * abs(lam)) ** (0.5 - nu) * cmath.exp(2j * math.pi * lam * zeta)
    )


@pytest.mark.parametrize(
    "weight, nu, side",
    [("1/2", 0.35j, +1), ("1/2", 0.35j, -1), ("1/2", 0.2, +1), ("1/2", 0.2, -1), ("3/2", 0.3, +1)],
)
@given(x=st.floats(-1.0, 1.0), log_height=st.floats(math.log(0.1), math.log(8.0)))
def test_reported_error_bounds_the_error_against_the_one_term_series(weight, nu, side, x, log_height):
    zeta = complex(x, side * math.exp(log_height))
    out = NearlyPeriodicFunction(_one_term(weight, nu, side)[0]).eval(zeta)
    assert abs(out.value - _one_term_f(weight, nu, side, zeta)) <= out.abs_error


# at quad_tol 1e-14 the level difference falls below Delta's own
# evaluation accuracy, which the reported error must still cover
_TIGHT = pytest.mark.parametrize("quad_tol", [1e-10, 1e-14])


@_TIGHT
@given(log_x=st.floats(math.log(0.125), math.log(8.0)))
def test_reported_error_bounds_the_error_of_delta_P_on_the_axis(delta, delta_uh_coefficients, quad_tol, log_x):
    # the Eichler-Shimura period relation P = (2 - k) p = -22 p, with p from
    # the L-series
    x = math.exp(log_x)
    out = PeriodFunction(delta, Settings(quad_tol=quad_tol)).eval(x)
    assert abs(out.value + 22.0 * eichler_polynomial(delta_uh_coefficients, 12, x)) <= out.abs_error


@_TIGHT
@given(x=st.floats(0.0, 3.0, exclude_min=True), y=st.floats(0.25, 2.0), upper=st.booleans())
def test_reported_error_bounds_the_error_of_delta_P_off_the_axis(delta, delta_uh_coefficients, quad_tol, x, y, upper):
    zeta = complex(x, y if upper else -y)
    out = PeriodFunction(delta, Settings(quad_tol=quad_tol)).eval(zeta)
    assert abs(out.value + 22.0 * eichler_polynomial(delta_uh_coefficients, 12, zeta)) <= out.abs_error


@_TIGHT
@given(x=st.floats(-1.0, 3.0, exclude_min=True), y=st.floats(0.25, 1.5))
def test_reported_error_bounds_the_error_of_delta_f(delta, delta_uh_coefficients, quad_tol, x, y):
    # above the axis f = -22 f_h, with f_h the q-series
    zeta = complex(x, y)
    out = NearlyPeriodicFunction(delta, Settings(quad_tol=quad_tol)).eval(zeta)
    assert abs(out.value + 22.0 * eichler_f(delta_uh_coefficients, 12, zeta)) <= out.abs_error


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


def test_level0_arrays_are_shared_and_read_only():
    j, w = quadrature._level0(-3.0, 2.0)
    again = quadrature._level0(-3.0, 2.0)
    assert again[0] is j and again[1] is w
    assert not j.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
