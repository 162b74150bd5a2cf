import cmath
import functools
import math
import operator
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from maassperiods import forms
from maassperiods.branch import principal_arg
from maassperiods.errors import DomainError
from maassperiods.forms import (
    HolomorphicEmbedding,
    MaassForm,
    WhittakerSurrogate,
    delta_coefficients,
    delta_form,
    dslash,
    maass_laplacian_fd,
    maass_op_fd,
    reduce_many,
    reduce_to_fundamental_domain,
    surrogate_form,
    two_sided_surrogate,
)
from maassperiods.modgroup import S, T, T_PRIME, GroupElement, moebius, mu
from maassperiods.multiplier import MultiplierSystem, construct_eta_power, construct_trivial
from maassperiods.specfun import WhittakerStack, WhittakerTable


def test_tau_values():
    tau = delta_coefficients(8)
    assert tau[:6] == (1, -24, 252, -1472, 4830, -6048)


def test_delta_truncation_self_consistency():
    u50 = delta_form(50)
    u60 = MaassForm(12, u50.multiplier, 5.5, HolomorphicEmbedding(delta_coefficients(60)))
    assert abs(u50.eval_many(1j) - u60.eval_many(1j)) <= 1e-14 * abs(u50.eval_many(1j))


def test_embedding_t_equivariance(delta):
    z = 0.3 + 1.2j
    assert abs(delta.eval_many(z + 1) - delta.eval_many(z)) <= 1e-12 * abs(delta.eval_many(z))


def test_embedding_full_equivariance(delta):
    for g in (S, T_PRIME, T.inverse() * S):
        for z in (0.3 + 1.2j, -0.7 + 0.6j):
            lhs = delta.eval_many(moebius(g, z))
            rhs = cmath.exp(1j * 12 * principal_arg(mu(g, z))) * delta.eval_many(z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_embedding_eigen_equation(delta):
    lam = 0.25 - delta.nu**2
    for z in (0.5 + 1.5j, -0.3 + 0.9j):
        resid = maass_laplacian_fd(delta.eval_many, 12.0, z) - lam * delta.eval_many(z)
        assert abs(resid) <= 1e-5 * abs(lam * delta.eval_many(z))


def test_embedding_lowering_vanishes(delta, rng):
    # analytically exact, and the finite-difference route agrees
    for _ in range(20):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
        assert delta.lower_many(np.array([z]))[0] == 0
        scale = max(abs(delta.eval_many(z)), 1e-3)
        assert abs(maass_op_fd(delta.eval_many, 12.0, z, -1)) <= 1e-10 * max(1.0, scale)


def test_embedding_raise_matches_fd(delta):
    z = 0.2 + 1.1j
    analytic = delta.raise_many(np.array([z]))[0]
    fd = maass_op_fd(delta.eval_many, 12.0, z, +1)
    assert abs(analytic - fd) <= 1e-7 * abs(analytic)


def test_eval_requires_upper_half_plane(delta):
    with pytest.raises(DomainError):
        delta.eval_many(1 - 1j)


_NON_FINITE = [complex(x, 1.0) for x in (math.inf, -math.inf, math.nan)] + [
    complex(0.3, y) for y in (math.inf, -math.inf, math.nan)
]


@pytest.mark.parametrize("z", _NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", ["delta", "surrogate", "surrogate_two_sided", "reduce_many", "q_expansion"])
def test_non_finite_point_is_a_domain_error(request, name, z):
    # named before any arithmetic: no NaN value, no 0 from the table's
    # cutoff, no table error; the first bad point of the batch is named
    calls = {
        "reduce_many": [reduce_many],
        "q_expansion": [lambda zs: forms.q_expansion(delta_coefficients(10), zs, derivative=True)],
    }
    if name not in calls:
        form = request.getfixturevalue(name)
        calls[name] = [form.eval_many, form.raise_many, form.lower_many]
    for call in calls[name]:
        with pytest.raises(DomainError, match=re.escape(f"got {z}")):
            call(np.array([0.1 + 1.0j, z, complex(math.nan, math.nan)]))


@pytest.mark.parametrize("nu", [complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1)])
def test_non_finite_nu_is_a_domain_error(nu):
    # named before any coefficient or table is built
    with pytest.raises(DomainError, match="nu = .* is not finite"):
        surrogate_form("1/2", nu)
    with pytest.raises(DomainError, match="nu = .* is not finite"):
        MaassForm("1/2", construct_eta_power("1/2"), nu, WhittakerSurrogate((1.0,)))


def test_surrogate_shift(surrogate, delta):
    # the verify surrogate carries v_eta (rho = 1), the embedding v = 1
    assert surrogate.kappa0 == 1 / 24
    assert delta.kappa0 == 0.0


@pytest.mark.parametrize("rho", range(24))
def test_surrogate_shift_is_rho_over_24(rho):
    # the frequencies are n + kappa0 with kappa0 = rho/24 for v = v_eta^rho,
    # built here from v(T) = e^{i pi rho/12} and v(S) = e^{-i pi rho/4}
    v = MultiplierSystem(
        Fraction(rho, 2), cmath.exp(1j * math.pi * rho / 12), cmath.exp(-1j * math.pi * rho / 4)
    )
    form = surrogate_form(v.weight, 0.35j, multiplier=v)
    assert form.kappa0 == rho / 24
    assert abs(cmath.exp(2j * math.pi * form.kappa0) - v.v_t) <= 1e-15


def _t_equivariance_gap(form) -> float:
    """|u(z+1) - v(T) u(z)| / |v(T) u(z)| at one point."""
    z = 0.3 + 1.2j
    rhs = form.multiplier.v_t * form.eval_many(z)
    return abs(form.eval_many(z + 1) - rhs) / abs(rhs)


def test_surrogate_t_equivariance(surrogate, surrogate_two_sided):
    assert _t_equivariance_gap(surrogate) <= 1e-13
    assert _t_equivariance_gap(surrogate_two_sided) <= 1e-13


@pytest.mark.parametrize("two_sided", [False, True], ids=["one-sided", "two-sided"])
@pytest.mark.parametrize("weight", ["1/2", "3/2", "5/2", "-1/2", "2"])
def test_surrogate_t_equivariance_across_weights(weight, two_sided):
    # weight 2 carries the trivial system (kappa0 = 0), the others v_eta^{2k}
    multiplier = construct_trivial(2) if weight == "2" else None
    coefficients = {"coefficients": (1.0 + 0.4j, -0.5 + 0.2j, 0.25 - 0.1j)}
    if two_sided:
        coefficients["negative_coefficients"] = (0.7 - 0.3j, 0.2 + 0.1j)
    form = surrogate_form(weight, 0.35j, multiplier=multiplier, **coefficients)
    assert _t_equivariance_gap(form) <= 1e-13


def test_surrogate_eigen_equation(surrogate):
    lam = 0.25 - surrogate.nu**2
    z = 0.3 + 1.2j
    resid = maass_laplacian_fd(surrogate.eval_many, 0.5, z) - lam * surrogate.eval_many(z)
    assert abs(resid) <= 1e-5 * abs(lam * surrogate.eval_many(z))


def test_two_sided_surrogate_eigen_equation(surrogate_two_sided):
    form = surrogate_two_sided
    lam = 0.25 - form.nu**2
    z = 0.4 + 0.9j
    resid = maass_laplacian_fd(form.eval_many, 0.5, z) - lam * form.eval_many(z)
    assert abs(resid) <= 1e-5 * abs(lam * form.eval_many(z))


def test_surrogate_single_term_formula():
    v = construct_eta_power("1/2")
    form = surrogate_form("1/2", 0.4j, coefficients=(1.0,))
    from maassperiods.specfun import whittaker_w

    z = 0.3 + 1.4j
    freq = 1 + 1 / 24
    want = whittaker_w(0.25, 0.4j, 4 * math.pi * freq * z.imag) * cmath.exp(
        2j * math.pi * freq * z.real
    )
    assert abs(form.eval_many(z) - want) <= 1e-11 * abs(want)


def test_surrogate_operators_match_fd(surrogate):
    z = 0.3 + 1.2j
    for sign, exact in ((+1, surrogate.raise_many), (-1, surrogate.lower_many)):
        analytic = exact(np.array([z]))[0]
        fd = maass_op_fd(surrogate.eval_many, 0.5, z, sign)
        assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), 1e-6)


def _ladder_against_mpmath(form, reference):
    """Worst |E^{+-}u - ref| / max(|ref|, |u|) of a one-term surrogate over 25
    seeded points, y in [0.05, 3]; ``reference(z, lam, kappa)`` gives
    (u, E^+u, E^-u) in 30 digits."""
    terms = form.backend.coefficients + form.backend.negative_coefficients
    assert terms == (1.0,)
    lam = form.kappa0 + (1.0 if form.backend.coefficients else -1.0)
    kappa = math.copysign(form.k / 2.0, lam)
    rng = np.random.default_rng(25)
    zs = rng.uniform(-1.0, 1.0, 25) + 1j * rng.uniform(0.05, 3.0, 25)
    got = zip(form.raise_many(zs), form.lower_many(zs))
    worst = [0.0, 0.0]
    with mpmath.workdps(30):
        for z, pair in zip(zs, got):
            u, *ops = reference(z, lam, kappa)
            for i, (g, ref) in enumerate(zip(pair, ops)):
                worst[i] = max(worst[i], abs(g - ref) / max(abs(ref), abs(u)))
    return worst


def test_surrogate_ladder_against_contiguous_relations():
    # lambda > 0: E^+ u = -2 W_{kappa+1,nu}, E^- u = -2 (nu^2 - (kappa-1/2)^2) W_{kappa-1,nu}
    # (DLMF 13.15), times e(lambda x), at t = 4 pi lambda y
    nu = 0.35j
    form = surrogate_form("1/2", nu, coefficients=(1.0,))

    def reference(z, lam, kappa):
        t = 4 * mpmath.pi * lam * z.imag
        wave = mpmath.expjpi(2 * lam * z.real)
        u = mpmath.whitw(kappa, nu, t) * wave
        up = -2 * mpmath.whitw(kappa + 1, nu, t) * wave
        down = -2 * (nu**2 - (kappa - 0.5) ** 2) * mpmath.whitw(kappa - 1, nu, t) * wave
        return complex(u), complex(up), complex(down)

    assert max(_ladder_against_mpmath(form, reference)) <= 2e-12


def test_surrogate_ladder_negative_frequency_against_mpmath_derivative():
    # lambda < 0: E^{+-} u = (-+4 pi lambda y W + 2 t W'(t) +- k W) e(lambda x),
    # t = 4 pi |lambda| y, with W' from mpmath's numerical derivative
    nu = 0.35j
    form = surrogate_form("1/2", nu, coefficients=(), negative_coefficients=(1.0,))

    def reference(z, lam, kappa):
        y = mpmath.mpf(z.imag)
        t = 4 * mpmath.pi * abs(lam) * y
        wave = mpmath.expjpi(2 * lam * z.real)
        w = mpmath.whitw(kappa, nu, t)
        t_dw = t * mpmath.diff(lambda s: mpmath.whitw(kappa, nu, s), t)
        ops = [(-sign * 4 * mpmath.pi * lam * y * w + 2 * t_dw + sign * form.k * w) * wave
               for sign in (+1, -1)]
        return complex(w * wave), complex(ops[0]), complex(ops[1])

    assert max(_ladder_against_mpmath(form, reference)) <= 2e-12


def _in_term_order(rows):
    """Sum of the rows, first to last, for every batch size."""
    return functools.reduce(operator.add, rows)


def _per_term_reference(form, zs):
    """(eval, raise, lower) of a surrogate with one table lookup per Fourier
    term, each term sum in term order."""
    b = form.backend
    terms = [(c, n + form.kappa0) for n, c in enumerate(b.coefficients, start=1)]
    terms += [(c, form.kappa0 - n) for n, c in enumerate(b.negative_coefficients, start=1)]
    coeffs = np.array([c for c, _ in terms], dtype=complex)
    freqs = np.array([f for _, f in terms])
    tables = {
        kap: WhittakerTable(kap, form.nu)
        for kap in {math.copysign(form.k / 2.0, f) for f in freqs}
    }
    x, y = zs.real, zs.imag
    lookups = [
        tables[math.copysign(form.k / 2.0, f)].with_log_derivative(4.0 * math.pi * abs(f) * y)
        for f in freqs
    ]
    at_y = np.array([w for w, _ in lookups])
    t_dw = np.array([d for _, d in lookups])
    waves = np.exp(2j * math.pi * freqs[:, None] * x[None, :])
    value = _in_term_order(coeffs[:, None] * at_y * waves)
    y_dy = _in_term_order(coeffs[:, None] * t_dw * waves)
    dx = _in_term_order(coeffs[:, None] * at_y * waves * (2j * math.pi * freqs[:, None]))
    ops = [sign * 2j * y * dx + 2.0 * y_dy + sign * form.k * value for sign in (+1, -1)]
    return value, ops[0], ops[1]


def _surrogate_points(form, n):
    """n seeded points, with the lowest frequency's argument t = 4 pi |lambda| y
    near panel edges, just above T_MIN and beyond T_MAX where n allows."""
    rng = np.random.default_rng(n)
    ys = np.exp(rng.uniform(math.log(0.05), math.log(3.0), n))
    lowest = min(1.0 + form.kappa0, 1.0 - form.kappa0 if form.backend.negative_coefficients else math.inf)
    special = np.concatenate(
        [np.exp(WhittakerTable._EDGES[1::7]), [1.000001 * WhittakerTable.T_MIN, 320.0, 2e3, 1e6]]
    ) / (4.0 * math.pi * lowest)
    ys[: special.size] = special[:n]
    return rng.uniform(-1.0, 1.0, n) + 1j * ys


@pytest.mark.parametrize("n", [1, 15, 46, 368, 4096])
@pytest.mark.parametrize("name, n_kappas", [("surrogate", 1), ("surrogate_two_sided", 2)])
def test_surrogate_one_table_call_per_kappa(request, table_lookups, name, n_kappas, n):
    # one lookup per form pass, whatever indices the terms use, bitwise the
    # per-term lookups of the terms' own tables
    form = request.getfixturevalue(name)
    zs = _surrogate_points(form, n)
    want = _per_term_reference(form, zs)
    for method, expected in zip((form.eval_many, form.raise_many, form.lower_many), want):
        table_lookups.clear()
        got = method(zs)
        assert np.array_equal(got, expected)
        assert len(table_lookups) == 1 and len(table_lookups[0]) == n_kappas


@pytest.mark.parametrize("n", [1, 15, 46, 368, 4096])
def test_stacked_lookup_is_bitwise_each_tables_own(n):
    # rows through three tables of one nu in one lookup, against each row's
    # own table; arguments on panel edges, at T_MIN and beyond T_MAX.  numpy
    # takes t^(1/2) and t^(-1) by sqrt and reciprocal for a scalar exponent only
    tables = [WhittakerTable(kap, 0.3j) for kap in (0.5, -1.0, 0.25)]
    which = [0, 0, 1, 2, 1, 0]
    rng = np.random.default_rng(n)
    t = np.exp(rng.uniform(math.log(WhittakerTable.T_MIN), math.log(1e3), (len(which), n)))
    special = np.concatenate([
        np.exp(WhittakerTable._EDGES[1:]),
        [WhittakerTable.T_MIN, np.nextafter(WhittakerTable.T_MAX, 0), WhittakerTable.T_MAX, 320.5, 1e300],
    ])
    t.flat[: special.size] = special[: t.size]
    got = WhittakerStack(tables, which).with_log_derivative(t)
    for row, i in enumerate(which):
        for merged, own in zip(got, tables[i].with_log_derivative(t[row])):
            assert np.array_equal(merged[row], own)
    assert np.all(got[0][t > WhittakerTable.T_MAX] == 0.0)


def test_stack_joins_the_tables_of_one_nu():
    with pytest.raises(ValueError, match="one nu"):
        WhittakerStack([WhittakerTable(0.25, 0.35j), WhittakerTable(0.25, 0.3j)], [0, 1])


@pytest.mark.parametrize("n", [1, 46, 368])
@pytest.mark.parametrize("name", ["delta", "surrogate", "surrogate_two_sided"])
def test_eval_ladder_is_value_and_operator(request, name, n):
    # the integrands' one form pass gives what the single-operator calls give
    form = request.getfixturevalue(name)
    rng = np.random.default_rng(n)
    zs = rng.uniform(-1.0, 1.0, n) + 1j * np.exp(rng.uniform(math.log(0.05), math.log(3.0), n))
    for sign, operator_many in ((+1, form.raise_many), (-1, form.lower_many)):
        u, e = form.eval_ladder_many(zs, sign)
        assert np.array_equal(u, form.eval_many(zs))
        assert np.array_equal(e, operator_many(zs))


@pytest.mark.parametrize("sign", [0, 2, -2])
@pytest.mark.parametrize("name", ["delta", "surrogate"])
def test_eval_ladder_rejects_other_signs(request, name, sign):
    # E^+ and E^- are the only operators of the ladder pass
    form = request.getfixturevalue(name)
    with pytest.raises(ValueError, match="ladder sign"):
        form.eval_ladder_many(np.array([0.3 + 1.1j]), sign)


@pytest.mark.parametrize("name", ["delta", "surrogate", "surrogate_two_sided"])
def test_values_do_not_depend_on_the_batch(request, name):
    # quadrature batches many intervals into one integrand call, which
    # changes no value only because a point's value ignores its neighbours
    form = request.getfixturevalue(name)
    rng = np.random.default_rng(46)
    zs = rng.uniform(-1.0, 1.0, 368) + 1j * np.exp(rng.uniform(math.log(0.05), math.log(3.0), 368))
    for method in (form.eval_many, form.raise_many, form.lower_many):
        full = method(zs)
        assert np.array_equal(method(zs[100:146]), full[100:146])
        # a lone point, as a caller evaluating one point sends
        for i in range(100, 146):
            assert np.array_equal(method(zs[i : i + 1]), full[i : i + 1])


def test_operator_composition_identity(surrogate):
    """E+_{k-2} E-_k u = (1 + 2nu - k)(-1 + 2nu + k) u for an eigenfunction."""
    k, nu = surrogate.k, surrogate.nu
    z = 0.2 + 0.9j
    lhs = maass_op_fd(surrogate.lower_many, k - 2, z, +1)
    rhs = (1 + 2 * nu - k) * (-1 + 2 * nu + k) * surrogate.eval_many(z)
    assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


def test_power_eigenfunctions_of_ladder():
    # y^{1/2-nu} scales under both operators by 1 - 2 nu +- k
    k, nu = 0.5, 0.3
    fn = lambda z: np.imag(z) ** (0.5 - nu)
    z = 1j
    up = maass_op_fd(fn, k, z, +1)
    down = maass_op_fd(fn, k, z, -1)
    assert abs(up - (1 - 2 * nu + k) * fn(z)) <= 1e-6 * abs(fn(z))
    assert abs(down - (1 - 2 * nu - k) * fn(z)) <= 1e-6 * abs(fn(z))


def test_dslash_translation():
    fn = lambda z: z
    v = construct_eta_power("1/2")
    nu = 0.3j
    z = 0.7 + 0.2j
    acted = dslash(fn, nu, v, T)(z)
    assert abs(acted - (z + 1) / v.v_t) <= 1e-13


def test_dslash_branch_guard():
    from maassperiods.errors import BranchViolationError

    fn = lambda z: 1.0
    v = construct_trivial(0)
    # S at a real point with negative automorphy denominator leaves the cut plane
    with pytest.raises(BranchViolationError):
        dslash(fn, 0.3j, v, S * S * S)(2.0)


def test_reduce_to_fundamental_domain():
    z = 0.37 + 0.02j
    w, g = reduce_to_fundamental_domain(z)
    assert abs(w) >= 1 - 1e-12 and abs(w.real) <= 0.5 + 1e-12
    assert moebius(g, z) == pytest.approx(w)


def _scalar_reduction(z):
    """Reference: the one-point loop with exact Python-int matrices; returns
    (w, g, the number of inversions)."""
    w, g, inversions = complex(z), GroupElement(1, 0, 0, 1), 0
    while True:
        n = math.floor(w.real + 0.5)
        w = complex(w.real - n, w.imag)
        g = GroupElement(1, -n, 0, 1) * g
        if w.real * w.real + w.imag * w.imag >= 1.0 - 1e-14:
            return w, g, inversions
        w, g, inversions = -1.0 / w, S * g, inversions + 1


def test_vector_reduction_matches_scalar_loop():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-3.0, 3.0, 500) + 1j * np.exp(rng.uniform(math.log(1e-5), math.log(3.0), 500))
    ws, gs = reduce_many(zs)
    assert gs.dtype == np.int64 and gs.shape == (4, zs.size)
    for z, w, g in zip(zs, ws, gs.T):
        w_ref, g_ref, _ = _scalar_reduction(z)
        assert tuple(g) == (g_ref.a, g_ref.b, g_ref.c, g_ref.d)
        assert abs(w - w_ref) <= 1e-12 * abs(w_ref)


def test_reduction_entry_limit_raises(delta):
    # the continued fraction of this float runs through entries ~ 1e150,
    # which float64 matrices cannot carry exactly
    z = 0.6180339887498949 + 1e-300j
    with pytest.raises(DomainError):
        reduce_to_fundamental_domain(z)
    with pytest.raises(DomainError):
        delta.eval_many(np.array([1j, z]))


def test_reduction_step_cap_raises(monkeypatch):
    monkeypatch.setattr(forms, "_MAX_REDUCTION_STEPS", 2)
    g = reduce_to_fundamental_domain(0.37 + 0.2j)[1]
    assert max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) <= 3
    with pytest.raises(DomainError):
        reduce_to_fundamental_domain(0.37 + 0.02j)


def test_reduction_of_no_points():
    ws, gs = reduce_many(np.array([], dtype=complex))
    assert ws.shape == (0,) and gs.shape == (4, 0) and gs.dtype == np.int64


def test_reduction_without_an_inversion_is_one_translation():
    zs = np.array([0.3 + 1.2j, -2.7 + 1.0j, 4.5 + 0.9j, 1e6 + 3.0j])
    ws, gs = reduce_many(zs)
    for z, w, g in zip(zs, ws, gs.T):
        n = math.floor(z.real + 0.5)
        assert tuple(g) == (1, -n, 0, 1)
        assert w == complex(z.real - n, z.imag)


def test_reduction_of_points_that_invert_at_different_steps():
    # one batch whose points leave after 0, 1, 2 and more inversions: each
    # matches the one-point loop, and is bitwise what it is alone
    zs = np.array([0.3 + 1.2j, 0.1 + 0.5j, 0.41 + 0.003j, 0.37 + 0.02j, 0.6180339887498949 + 1e-4j, -0.49 + 0.01j])
    ws, gs = reduce_many(zs)
    inversions = set()
    for i, (z, w, g) in enumerate(zip(zs, ws, gs.T)):
        w_ref, g_ref, count = _scalar_reduction(z)
        inversions.add(count)
        assert tuple(g) == (g_ref.a, g_ref.b, g_ref.c, g_ref.d)
        assert abs(w - w_ref) <= 1e-12 * abs(w_ref)
        w_alone, g_alone = reduce_many(zs[i : i + 1])
        assert w_alone.tobytes() == ws[i : i + 1].tobytes() and g_alone.tobytes() == gs[:, i : i + 1].tobytes()
    assert len(inversions) >= 5


def test_reduction_entry_limit_raises_at_the_first_translation():
    # the shift of Re z = 1e16 is itself past 2^53
    with pytest.raises(DomainError, match=r"^reduction matrix entries reached 2\^53$"):
        reduce_many(np.array([0.3 + 1j, 1e16 + 1j]))


def _delta_oracle(z):
    """u = y^6 Delta and E^+ u from the q-product at z itself, no reduction,
    with the size of the two terms of E^+ u (it vanishes where E_2 = 3/(pi y))."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        y = z.imag
        q = mpmath.exp(2j * mpmath.pi * z)
        d = q * mpmath.qp(q) ** 24
        lambert, n, qn = mpmath.mpf(0), 1, q
        while True:
            term = n * qn / (1 - qn)
            lambert += term
            if abs(term) < mpmath.mpf(10) ** -32 * abs(lambert):
                break
            n, qn = n + 1, qn * q
        e2 = 1 - 24 * lambert
        d_prime = 2j * mpmath.pi * e2 * d
        u = y**6 * d
        raised = 24 * u + 4j * y**7 * d_prime
        scale = abs(u) * (24 + 8 * mpmath.pi * y * abs(e2))
        return complex(u), complex(raised), float(scale)


def test_delta_against_mpmath_q_product(delta):
    rng = np.random.default_rng(40)
    zs = rng.uniform(-2.0, 2.0, 40) + 1j * np.exp(rng.uniform(math.log(0.02), math.log(3.0), 40))
    got_u, got_raised = delta.eval_many(zs), delta.raise_many(zs)
    for z, u, raised in zip(zs, got_u, got_raised):
        want_u, want_raised, scale = _delta_oracle(z)
        assert abs(u - want_u) <= 1e-12 * abs(want_u)
        assert abs(raised - want_raised) <= 1e-12 * scale


def test_superpolynomial_decay(delta, surrogate):
    for form in (delta, surrogate):
        ys = np.array([4.0, 8.0, 16.0])
        vals = np.array([abs(form.eval_many(0.3 + 1j * y)) for y in ys])
        for m in range(1, 9):
            weighted = vals * ys**m
            assert weighted[2] < weighted[1] < weighted[0]


def test_cusp_decay_rate(delta, surrogate):
    # remove the polynomial prefactor (y^{k/2} for the embedding, the
    # Whittaker t^{kappa} for the surrogate) before reading off the rate,
    # at least 2 pi (1 + kappa0), that of the lowest frequency 1 + kappa0
    for form, power in ((delta, 6.0), (surrogate, 0.25)):
        y1, y2 = 3.0, 6.0
        drop = abs(form.eval_many(0.1 + 1j * y2)) / abs(form.eval_many(0.1 + 1j * y1))
        drop *= (y1 / y2) ** power
        rate = -math.log(drop) / (y2 - y1)
        assert rate >= 2.0 * math.pi * (1.0 + form.kappa0) - 0.05


def test_embedding_validation():
    with pytest.raises(ValueError):
        MaassForm(12, construct_trivial(12), 0.3j, HolomorphicEmbedding((1, -24)))
    with pytest.raises(ValueError):
        MaassForm(
            "1/2",
            construct_eta_power("1/2"),
            0.3j,
            HolomorphicEmbedding((1, -24)),
        )


def test_embedding_needs_the_trivial_multiplier():
    # v = v_eta^4 is weight-compatible at k = 12 (rho = 2k mod 4), but not trivial
    rho_4 = MultiplierSystem(12, cmath.exp(1j * math.pi / 3), -1.0)
    assert rho_4.rho == 4
    with pytest.raises(ValueError, match="^the holomorphic embedding carries the trivial multiplier$"):
        MaassForm(12, rho_4, 5.5, HolomorphicEmbedding(delta_coefficients(10)))
