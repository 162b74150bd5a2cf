import cmath
import functools
import math
import operator

import mpmath
import numpy as np
import pytest

from maassperiods import forms
from maassperiods.branch import principal_arg
from maassperiods.errors import DomainError
from maassperiods.forms import (
    ConjugateForm,
    HolomorphicEmbedding,
    MaassForm,
    delta_coefficients,
    delta_form,
    dslash,
    form_from_json,
    form_to_json,
    maass_laplacian_fd,
    maass_lower,
    maass_raise,
    reduce_many,
    reduce_to_fundamental_domain,
    slash,
    surrogate_form,
    two_sided_surrogate,
)
from maassperiods.modgroup import S, T, T_PRIME, GroupElement, moebius, mu
from maassperiods.multiplier import construct_eta_power, construct_trivial
from maassperiods.specfun import WhittakerTable


def test_tau_values():
    tau = delta_coefficients(8)
    assert tau[:6] == (1, -24, 252, -1472, 4830, -6048)


def test_delta_truncation_self_consistency():
    u50 = delta_form(50)
    u60 = MaassForm(12, u50.multiplier, 5.5, HolomorphicEmbedding(delta_coefficients(60)))
    assert abs(u50.eval(1j) - u60.eval(1j)) <= 1e-14 * abs(u50.eval(1j))


def test_embedding_t_equivariance(delta):
    z = 0.3 + 1.2j
    assert abs(delta.eval(z + 1) - delta.eval(z)) <= 1e-12 * abs(delta.eval(z))


def test_embedding_full_equivariance(delta):
    for g in (S, T_PRIME, T.inverse() * S):
        for z in (0.3 + 1.2j, -0.7 + 0.6j):
            lhs = delta.eval(moebius(g, z))
            rhs = cmath.exp(1j * 12 * principal_arg(mu(g, z))) * delta.eval(z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_embedding_eigen_equation(delta):
    lam = 0.25 - delta.nu**2
    for z in (0.5 + 1.5j, -0.3 + 0.9j):
        resid = maass_laplacian_fd(delta.eval, 12.0, z) - lam * delta.eval(z)
        assert abs(resid) <= 1e-5 * abs(lam * delta.eval(z))


def test_embedding_lowering_vanishes(delta, rng):
    # analytically exact, and the finite-difference route agrees
    for _ in range(20):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
        assert maass_lower(delta, z) == 0
        scale = max(abs(delta.eval(z)), 1e-3)
        assert abs(maass_lower(delta.eval, z, k=12.0)) <= 1e-10 * max(1.0, scale)


def test_embedding_raise_matches_fd(delta):
    z = 0.2 + 1.1j
    analytic = maass_raise(delta, z)
    fd = maass_raise(delta.eval, z, k=12.0)
    assert abs(analytic - fd) <= 1e-7 * abs(analytic)


def test_eval_requires_upper_half_plane(delta):
    with pytest.raises(DomainError):
        delta.eval(1 - 1j)


def test_surrogate_shift(surrogate):
    assert surrogate.backend.kappa0 == pytest.approx(1 / 24)


def test_surrogate_t_equivariance(surrogate):
    z = 0.3 + 1.2j
    lhs = surrogate.eval(z + 1)
    rhs = surrogate.multiplier.v_t * surrogate.eval(z)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_surrogate_eigen_equation(surrogate):
    lam = 0.25 - surrogate.nu**2
    z = 0.3 + 1.2j
    resid = maass_laplacian_fd(surrogate.eval, 0.5, z) - lam * surrogate.eval(z)
    assert abs(resid) <= 1e-5 * abs(lam * surrogate.eval(z))


def test_two_sided_surrogate_eigen_equation(surrogate_two_sided):
    form = surrogate_two_sided
    lam = 0.25 - form.nu**2
    z = 0.4 + 0.9j
    resid = maass_laplacian_fd(form.eval, 0.5, z) - lam * form.eval(z)
    assert abs(resid) <= 1e-5 * abs(lam * form.eval(z))


def test_surrogate_single_term_formula():
    v = construct_eta_power("1/2")
    form = surrogate_form("1/2", 0.4j, coefficients=(1.0,))
    from maassperiods.specfun import WhittakerParams, whittaker_w

    z = 0.3 + 1.4j
    freq = 1 + 1 / 24
    want = whittaker_w(WhittakerParams(0.25, 0.4j), 4 * math.pi * freq * z.imag) * cmath.exp(
        2j * math.pi * freq * z.real
    )
    assert abs(form.eval(z) - want) <= 1e-11 * abs(want)


def test_surrogate_operators_match_fd(surrogate):
    z = 0.3 + 1.2j
    for op in (maass_raise, maass_lower):
        analytic = op(surrogate, z)
        fd = op(surrogate.eval, z, k=0.5)
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
    terms = [(c, n + b.kappa0) for n, c in enumerate(b.coefficients, start=1)]
    terms += [(c, b.kappa0 - n) for n, c in enumerate(b.negative_coefficients, start=1)]
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


@pytest.mark.parametrize("n", [1, 15, 46, 4096])
@pytest.mark.parametrize("name, n_kappas", [("surrogate", 1), ("surrogate_two_sided", 2)])
def test_surrogate_one_table_call_per_kappa(request, table_lookups, name, n_kappas, n):
    form = request.getfixturevalue(name)
    rng = np.random.default_rng(n)
    zs = rng.uniform(-1.0, 1.0, n) + 1j * np.exp(rng.uniform(math.log(0.05), math.log(3.0), n))
    want = _per_term_reference(form, zs)
    for method, expected in zip((form.eval_many, form.raise_many, form.lower_many), want):
        table_lookups.clear()
        got = method(zs)
        assert np.array_equal(got, expected)
        assert len(table_lookups) == len(set(table_lookups)) == n_kappas


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
    inner = lambda w: maass_lower(surrogate, w)
    lhs = maass_raise(inner, z, k=k - 2)
    rhs = (1 + 2 * nu - k) * (-1 + 2 * nu + k) * surrogate.eval(z)
    assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


def test_power_eigenfunctions_of_ladder():
    # y^{1/2-nu} scales under both operators by 1 - 2 nu +- k
    k, nu = 0.5, 0.3
    fn = lambda z: complex(z).imag ** (0.5 - nu)
    z = 1j
    up = maass_raise(fn, z, k=k)
    down = maass_lower(fn, z, k=k)
    assert abs(up - (1 - 2 * nu + k) * fn(z)) <= 1e-6 * abs(fn(z))
    assert abs(down - (1 - 2 * nu - k) * fn(z)) <= 1e-6 * abs(fn(z))


def test_conjugate_form(delta):
    tilde = ConjugateForm(delta)
    assert tilde.eval(0.4 - 1.3j) == delta.eval(0.4 + 1.3j)
    with pytest.raises(DomainError):
        tilde.eval(0.4 + 1.3j)
    # tilde u transforms with weight -k and is an eigenfunction there
    z = 1 - 2j
    assert abs(tilde.eval(z + 1) - tilde.eval(z)) <= 1e-12 * abs(tilde.eval(z))
    lam = 0.25 - delta.nu**2
    resid = maass_laplacian_fd(tilde.eval, -12.0, 0.5 - 1.5j) - lam * tilde.eval(0.5 - 1.5j)
    assert abs(resid) <= 1e-5 * abs(lam * tilde.eval(0.5 - 1.5j))


def test_conjugate_transformation_law(delta):
    # tilde u is invariant under the weight -k action for the full group
    tilde = ConjugateForm(delta)
    g = T_PRIME
    z = 1 - 2j
    acted = slash(tilde.eval, -12.0, delta.multiplier, g)(z)
    assert abs(acted - tilde.eval(z)) <= 1e-10 * abs(tilde.eval(z))


def test_slash_identity_and_group_law(delta, rng):
    fn = lambda z: complex(z).imag ** 0.3 * cmath.exp(1j * complex(z).real)
    v = construct_eta_power("1/2")
    ident = slash(fn, 0.5, v, S.inverse() * S)
    z = 0.4 + 1.1j
    assert abs(ident(z) - fn(z)) <= 1e-12
    g, d = T_PRIME, S
    for _ in range(10):
        z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        lhs = slash(fn, 0.5, v, g * d)(z)
        rhs = slash(slash(fn, 0.5, v, g), 0.5, v, d)(z)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


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
    """Reference: the one-point loop with exact Python-int matrices."""
    w, g = complex(z), GroupElement(1, 0, 0, 1)
    while True:
        n = math.floor(w.real + 0.5)
        w = complex(w.real - n, w.imag)
        g = GroupElement(1, -n, 0, 1) * g
        if w.real * w.real + w.imag * w.imag >= 1.0 - 1e-14:
            return w, g
        w, g = -1.0 / w, S * g


def test_vector_reduction_matches_scalar_loop():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-3.0, 3.0, 500) + 1j * np.exp(rng.uniform(math.log(1e-5), math.log(3.0), 500))
    ws, gs = reduce_many(zs)
    for z, w, g in zip(zs, ws, gs):
        w_ref, g_ref = _scalar_reduction(z)
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
    assert reduce_to_fundamental_domain(0.37 + 0.2j)[1].max_entry() <= 3
    with pytest.raises(DomainError):
        reduce_to_fundamental_domain(0.37 + 0.02j)


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
        vals = np.array([abs(form.eval(0.3 + 1j * y)) for y in ys])
        for m in range(1, 9):
            weighted = vals * ys**m
            assert weighted[2] < weighted[1] < weighted[0]


def test_cusp_decay_rate(delta, surrogate):
    # remove the polynomial prefactor (y^{k/2} for the embedding, the
    # Whittaker t^{kappa} for the surrogate) before reading off the rate
    for form, power in ((delta, 6.0), (surrogate, 0.25)):
        y1, y2 = 3.0, 6.0
        drop = abs(form.eval(0.1 + 1j * y2)) / abs(form.eval(0.1 + 1j * y1))
        drop *= (y1 / y2) ** power
        rate = -math.log(drop) / (y2 - y1)
        assert rate >= form.decay_rate - 0.05


def test_json_roundtrip(surrogate, delta, surrogate_two_sided):
    for form in (surrogate, delta, surrogate_two_sided):
        back = form_from_json(form_to_json(form))
        z = 0.21 + 1.3j
        assert abs(back.eval(z) - form.eval(z)) <= 1e-12 * max(abs(form.eval(z)), 1e-12)


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


def test_surrogate_shift_validation():
    from maassperiods.forms import WhittakerSurrogate

    with pytest.raises(ValueError):
        MaassForm(
            "1/2",
            construct_eta_power("1/2"),
            0.3j,
            WhittakerSurrogate((1.0,), 0.4),  # wrong shift for v(T)
        )
