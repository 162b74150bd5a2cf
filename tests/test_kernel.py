import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest

from maassperiods import periods
from maassperiods.branch import principal_arg, principal_pow
from maassperiods.errors import DomainError, RDomainError
from maassperiods.forms import maass_laplacian_fd, maass_op_fd, surrogate_form, two_sided_surrogate
from maassperiods.kernel import RKernel, kernel_eigen_apply, r_transform_check
from maassperiods.modgroup import S, T, moebius
from maassperiods.periods import arc_ray_integrand, eta_integrand, ray_integrand


def test_weight_zero_closed_form():
    ker = RKernel(0.0, -0.5)
    assert ker.eval(1j, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert ker.eval(1j, 1.0) == pytest.approx(0.5, abs=1e-13)
    z, zeta = 0.7 + 1.4j, -2.3
    want = z.imag / ((z.real - zeta) ** 2 + z.imag**2)
    assert ker.eval(z, zeta) == pytest.approx(want, rel=1e-13)


def test_real_zeta_representation():
    ker = RKernel(0.5, 0.2)
    z, zeta = 1 + 1j, 0.0
    a, b = zeta - z, zeta - z.conjugate()
    alt = cmath.exp(-1j * 0.5 * principal_arg(a)) * principal_pow(z.imag / (a * b), 0.3)
    assert abs(ker.eval(z, zeta) - alt) <= 1e-13 * abs(alt)


def test_domain_errors_name_the_difference():
    ker = RKernel(0.5, 0.2)
    with pytest.raises(RDomainError) as excinfo:
        ker.eval(1j, 1j - 1.0)  # zeta - z = -1
    assert excinfo.value.which == "zeta-z"
    with pytest.raises(RDomainError) as excinfo:
        ker.eval(1j, -1j - 1.0)  # zeta - conj z = -1
    assert excinfo.value.which == "zeta-zbar"
    with pytest.raises(DomainError):
        ker.eval(2.0, 1j)  # real z


def test_transformation_law_translation():
    ker = RKernel(0.5, 0.31j)
    assert r_transform_check(ker, T, 0.3 + 0.9j, 0.2 + 1.1j) <= 1e-14


def test_transformation_law_positive_real_denominator():
    ker = RKernel(0.5, 0.31j)
    assert r_transform_check(ker, S, 1j, 2.0) <= 1e-12


def test_transformation_law_vertical_ray_clause():
    ker = RKernel(1.5, 0.2j)
    zeta = 1 + 1j
    z = moebius(S.inverse(), moebius(S, zeta) + 0.5j)
    assert r_transform_check(ker, S, z, zeta) <= 1e-12


def test_transformation_law_conjugate_clause():
    ker = RKernel(0.5, 0.31j)
    zeta = 1 - 1j
    z = moebius(S.inverse(), moebius(S, zeta.conjugate()) + 0.7j).conjugate()
    assert r_transform_check(ker, S, z, zeta) <= 1e-12


def test_transform_hypotheses_rejected():
    ker = RKernel(0.5, 0.31j)
    with pytest.raises(DomainError):
        # mu(S, zeta) = zeta has negative real part: no clause applies
        r_transform_check(ker, S, 0.3 + 0.9j, -2.0 + 1j)


def test_only_the_factored_branch_is_accepted():
    assert RKernel(0.5, 0.2, "factored") == RKernel(0.5, 0.2)
    with pytest.raises(ValueError, match="factored"):
        RKernel(0.5, 0.2, "combined")


def test_factored_mode_is_continuous_across_the_vertical_ray():
    # the displayed formula's power of (zeta-z)(zeta-zbar) jumps where that
    # product crosses the cut; the kernel continues analytically through it
    ker = RKernel(0.0, 0.2)
    z = 1j
    left, right = ker.eval(z, -1e-9 + 2j), ker.eval(z, 1e-9 + 2j)
    assert abs(left - right) <= 1e-6 * abs(right)
    left_d, right_d = _oracle(ker, z, -1e-9 + 2j)[1], _oracle(ker, z, 1e-9 + 2j)[1]
    assert abs(left_d - right_d) > 0.1 * abs(right_d)


def _oracle(kernel, z, zeta):
    """The kernel in 30-digit mpmath as (factored, displayed): the module
    docstring's product |Im z|^{1/2-nu} (zeta-z)^{nu-1/2} (zeta-conj z)^{nu-1/2},
    and the paper's displayed formula, whose second factor is one combined
    power; mpmath's powers are principal."""
    with mpmath.workdps(30):
        z, zeta = mpmath.mpc(z), mpmath.mpc(zeta)
        a, b = zeta - z, zeta - mpmath.conj(z)
        y, s = abs(mpmath.im(z)), 0.5 - mpmath.mpc(kernel.nu)
        ratio = (mpmath.sqrt(a) / mpmath.sqrt(b)) ** (-kernel.k)
        return complex(ratio * y**s * a ** (-s) * b ** (-s)), complex(ratio * (y / (a * b)) ** s)


def _oracle_pairs():
    """48 seeded (z, zeta): z on both half-planes; half of them with zeta left
    of z and |Im zeta| > |Im z|, where arg(zeta - z) + arg(zeta - conj z)
    leaves [-pi, pi) and the two formulas differ."""
    rng = np.random.default_rng(20)
    pairs = []
    for n in range(48):
        z = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.1, 2))
        if n % 2:
            zeta = complex(z.real - rng.uniform(0.01, 2), rng.choice([-1, 1]) * (abs(z.imag) + rng.uniform(0.01, 2)))
        else:
            zeta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        pairs.append((z, zeta))
    # the points of test_factored_mode_is_continuous_across_the_vertical_ray
    return pairs + [(1j, -1e-9 + 2j), (1j, 1e-9 + 2j)]


@pytest.mark.parametrize("k,nu", [(0.5, 0.31j), (-0.5, 0.35j), (-1.5, 0.2), (2.5, 0.1 + 0.2j)])
def test_kernel_against_mpmath(k, nu):
    # the kernel is the factored product at every pair, and the displayed
    # formula wherever arg(zeta - z) + arg(zeta - conj z) lies in [-pi, pi)
    pairs = _oracle_pairs()
    wraps = [cmath.phase(zeta - z) + cmath.phase(zeta - z.conjugate()) for z, zeta in pairs]
    assert sum(not -math.pi <= w < math.pi for w in wraps) >= 20
    assert {z.imag > 0 for z, _ in pairs} == {True, False}
    kernel = RKernel(k, nu)
    for (z, zeta), w in zip(pairs, wraps):
        got = kernel.eval(z, zeta)
        factored, displayed = _oracle(kernel, z, zeta)
        assert abs(got - factored) <= 1e-13 * abs(factored), (z, zeta)
        if -math.pi <= w < math.pi:
            assert abs(got - displayed) <= 1e-13 * abs(displayed), (z, zeta)


def _two_kernel_pairing(form, ladder, form_pass=None):
    """The pairing as it was written before the shared slot: the operator's
    kernel R_{-k-2 ladder} evaluated on its own, beside R_{-k}."""
    kernel = RKernel(-form.k, form.nu)
    coefficient, shifted = kernel_eigen_apply(kernel, -ladder, -form.k)
    form_pass = form_pass or (lambda zs: form.eval_ladder_many(zs, ladder))

    def pair(zs, y, kernel_at, quotient):
        u, op_u = form_pass(zs)
        kernel_op = coefficient * kernel_at(shifted) * u / y
        form_op = kernel_at(kernel) * op_u / y
        return (kernel_op, -form_op) if ladder < 0 else (form_op, -kernel_op)

    return pair


SLOT_FORMS = {
    "1/2": lambda: surrogate_form("1/2", 0.35j),
    "1/2 two-sided": lambda: two_sided_surrogate("1/2", 0.35j),
    "3/2": lambda: surrogate_form("3/2", 0.2),
}


@pytest.mark.parametrize("name", SLOT_FORMS)
def test_shared_kernel_slot(name, monkeypatch):
    # each integrand against itself built on the two-kernel pairing;
    # arc_ray_integrand raises the kernel (ladder -1) only
    form = SLOT_FORMS[name]()
    zs = np.array([0.3 + 0.9j, -0.7 + 0.4j, 1.6 + 2.2j, -1.1 + 0.05j])
    ts = np.geomspace(1e-6, 4.0, 9)
    cases = []
    for zeta in (0.4 + 0.9j, 2.5 - 0.3j, -0.6 + 1.3j, -1.2 - 0.7j):
        base = zeta if zeta.imag > 0 else zeta.conjugate()
        for ladder in (-1, +1):
            cases.append((lambda z=zeta, l=ladder: eta_integrand(form, z, l), zs))
            cases.append((lambda z=zeta, b=base, l=ladder: ray_integrand(form, z, b, l), ts))
        if zeta.imag > 0:
            for endpoint in (0.0, 1.0):
                cases.append((lambda z=zeta, e=endpoint: arc_ray_integrand(form, z, e), ts))
    fused = [build() for build, _ in cases]
    monkeypatch.setattr(periods, "_pairing", _two_kernel_pairing)
    for (build, args), integrand in zip(cases, fused):
        got, want = np.asarray(integrand(args)), np.asarray(build()(args))
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (got, want)


def test_eigen_apply_validates_weight():
    ker = RKernel(0.5, 0.31j)
    coeff, shifted = kernel_eigen_apply(ker, +1, 0.5)
    assert shifted.k == 2.5 and coeff == pytest.approx(1 - 2 * ker.nu + 0.5)
    coeff, shifted = kernel_eigen_apply(ker, -1, 0.5)
    assert shifted.k == -1.5
    with pytest.raises(ValueError):
        kernel_eigen_apply(ker, +1, -0.5)


def test_kernel_ladder_against_finite_differences(rng):
    ker = RKernel(0.5, 0.31j)
    lam = 0.25 - ker.nu**2
    for _ in range(6):
        z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 1.8))
        zeta = complex(rng.uniform(2.5, 4.0), rng.uniform(-0.5, 0.5))
        fn = lambda w: ker.eval(w, zeta)
        assert abs(maass_laplacian_fd(fn, ker.k, z) - lam * fn(z)) <= 1e-5 * abs(lam * fn(z))
        for sign in (+1, -1):
            coeff, shifted = kernel_eigen_apply(ker, sign, ker.k)
            want = coeff * shifted.eval(z, zeta)
            assert abs(maass_op_fd(fn, ker.k, z, sign) - want) <= 1e-6 * abs(want)


def test_kernel_ladder_lower_half_plane():
    # |Im z| in the kernel makes the ladder rule half-plane independent
    ker = RKernel(0.5, 0.31j)
    zeta = 3.0
    z = -0.2 - 1.1j
    fn = lambda w: ker.eval(w, zeta)
    coeff, shifted = kernel_eigen_apply(ker, +1, ker.k)
    want = coeff * shifted.eval(z, zeta)
    assert abs(maass_op_fd(fn, ker.k, z, +1) - want) <= 1e-6 * abs(want)
    lam = 0.25 - ker.nu**2
    assert abs(maass_laplacian_fd(fn, ker.k, z) - lam * fn(z)) <= 1e-5 * abs(lam * fn(z))


def test_offset_evaluation_matches_plain():
    ker = RKernel(0.5, 0.31j)
    zeta = 0.4 - 1.2j
    base = zeta.conjugate()
    ts = np.array([2.0, 0.4, 1e-3])
    plain = ker.eval_many(base + 1j * ts, zeta)
    offset = ker.eval_ray(base, ts, zeta)
    assert np.max(np.abs(plain - offset) / np.abs(plain)) <= 1e-10


def test_offset_evaluation_below_rounding():
    # the offset route keeps the differences exact where base + i t rounds
    ker = RKernel(0.5, 0.31j)
    zeta = 0.4 - 1.2j
    vals = ker.eval_ray(zeta.conjugate(), np.array([1e-30]), zeta)
    assert np.isfinite(vals).all() and abs(vals[0]) > 0


def test_eta_form_with_kernel_and_form(delta, surrogate, surrogate_two_sided):
    # the exact pairing of the transforms against the 1-form composed from
    # finite differences of the kernel and the form:
    # eta_k(f, g) = ((E+_k f) g dz - f (E-_{-k} g) dzbar) / y, which is
    # eta_{-k}(R, u) for ladder -1 and eta_k(u, R) for ladder +1
    rng = np.random.default_rng(5)
    for form, zeta in itertools.product((delta, surrogate, surrogate_two_sided), (0.4 + 0.9j, 3.0, 0.2 - 0.8j)):
        k = form.k
        kernel = lambda w: RKernel(-k, form.nu).eval(w, zeta)
        zs = rng.uniform(-1.0, 1.0, 5) + 1j * rng.uniform(0.3, 2.0, 5)
        slots = {-1: ((kernel, -k), (form.eval, k)), +1: ((form.eval, k), (kernel, -k))}
        for ladder, ((f, k_f), (g, k_g)) in slots.items():
            a, b = eta_integrand(form, zeta, ladder)(zs)
            for z, a_z, b_z in zip(zs, a, b):
                want_a = maass_op_fd(f, k_f, z, +1) * g(z) / z.imag
                want_b = -f(z) * maass_op_fd(g, k_g, z, -1) / z.imag
                scale = max(abs(want_a), abs(want_b))
                assert abs(a_z - want_a) <= 1e-5 * scale
                assert abs(b_z - want_b) <= 1e-5 * scale
            if form.backend.holomorphic and ladder == -1:
                # the dzbar coefficient vanishes because lowering kills the embedding
                assert np.all(b == 0) and np.all(a != 0)
