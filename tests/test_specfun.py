import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from maassperiods import specfun
from maassperiods.errors import DomainError, UnsupportedParameterError
from maassperiods.specfun import (
    WhittakerTable,
    gamma_complex,
    whittaker_w,
)


@pytest.mark.parametrize(
    "s", [0.3 + 0.2j, 1.5 - 2j, -2.3 + 0.7j, 5 + 5j, 0.5, 2.0, -0.5 + 0.1j, 11.0]
)
def test_gamma_against_scipy(s):
    mine = gamma_complex(s)
    ref = complex(sp.gamma(s))
    assert abs(mine - ref) <= 1e-12 * abs(ref)


def test_gamma_pole():
    with pytest.raises(DomainError):
        gamma_complex(-3)


def test_whittaker_zero_index_reduces_to_bessel():
    mu = 0.25
    y = 3.0
    w = whittaker_w(0.0, mu, 2 * y)
    want = math.sqrt(2 * y / math.pi) * float(mpmath.besselk(mu, y))
    assert abs(w - want) <= 1e-10 * abs(want)


def test_whittaker_degenerate_collapse():
    # first index mu + 1/2 gives e^{-y/2} y^kappa exactly
    assert whittaker_w(1.0, 0.5, 2.0) == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-12
    )


def test_whittaker_large_argument_asymptotics():
    for y in (50.0, 100.0):
        val = whittaker_w(0.25, 0.2, y)
        ratio = val * math.exp(y / 2.0) * y**-0.25
        assert abs(ratio - 1.0) <= 0.05


@pytest.mark.parametrize(
    "kappa,mu",
    [(0.25, 0.35j), (0.75, 0.3j), (-0.25, 0.2j), (0.25, 0.35), (1.25, 0.2j)],
)
def test_whittaker_against_mpmath(kappa, mu):
    for y in (1e-8, 1e-3, 0.3, 2.2, 17.0, 150.0):
        mine = whittaker_w(kappa, mu, y)
        ref = complex(mpmath.whitw(kappa, mu, y))
        assert abs(mine - ref) <= 1e-10 * abs(ref), (kappa, mu, y)


def test_whittaker_reflection_symmetry():
    a = whittaker_w(0.25, 0.35j, 1.3)
    b = whittaker_w(0.25, -0.35j, 1.3)
    assert abs(a - b) <= 1e-12 * abs(a)


def test_whittaker_domain():
    with pytest.raises(DomainError):
        whittaker_w(0.25, 0.35j, -1.0)


def test_whittaker_laguerre_degenerate_pair():
    # the index recurrence covers pairs the integral and series cannot reach
    mine = whittaker_w(2.5, 1.0, 2.0)
    ref = complex(mpmath.whitw(2.5, 1.0, 2.0))
    assert abs(mine - ref) <= 1e-12 * abs(ref)


def test_whittaker_ode_residual():
    """Five-point second differences satisfy the defining equation."""
    kappa, mu = 0.25, 0.35j
    h = 1e-3
    for y in np.linspace(0.5, 20.0, 12):
        w = {j: whittaker_w(kappa, mu, y + j * h) for j in (-2, -1, 0, 1, 2)}
        d2 = (-w[2] + 16 * w[1] - 30 * w[0] + 16 * w[-1] - w[-2]) / (12 * h * h)
        residual = d2 + (-0.25 + kappa / y + (0.25 - mu**2) / y**2) * w[0]
        assert abs(residual) <= 1e-5 * max(abs(w[0]), 1.0)


def test_whittaker_table_matches_direct():
    table = WhittakerTable(0.25, 0.35j)
    ts = np.geomspace(1e-9, 300.0, 40)
    direct = whittaker_w(0.25, 0.35j, ts)
    cached = table(ts)
    assert np.max(np.abs(cached - direct) / np.abs(direct)) <= 1e-11


def test_whittaker_table_beyond_cutoff_is_zero():
    table = WhittakerTable(0.25, 0.35j)
    assert table(500.0) == 0.0
    assert table.with_log_derivative(500.0) == (0.0, 0.0)


TABLE_PAIRS = [(0.25, 0.35j), (-0.25, 0.35j), (0.75, 0.1j), (-0.75, 0.2 + 0.3j), (0.25, 0.2)]


@pytest.mark.parametrize("kappa,mu", TABLE_PAIRS + [(0.75, 0.3j), (1.25, 0.2j)])
def test_whittaker_integral_against_mpmath(kappa, mu):
    # y > 1/2 takes the integral, directly or under the index recurrence; its
    # far tail is summed once for all y.  (1/4, 2i) cancels to about 1e-13
    # and stays under the table test's 1e-12
    ys = np.geomspace(0.51, 320.0, 25)
    got = whittaker_w(kappa, mu, ys)
    with mpmath.workdps(30):
        for y, mine in zip(ys, got):
            ref = complex(mpmath.whitw(kappa, mu, y))
            assert abs(mine - ref) <= 1e-13 * abs(ref), y


def _mp_gauss_rule(n):
    """40-digit Gauss-Legendre rule: Newton on mpmath's P_n, weights from
    2 (1 - x^2) / (n P_{n-1}(x))^2."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for k in range(n, 0, -1):
            x = mpmath.cos(mpmath.pi * (4 * k - 1) / (4 * n + 2))
            for _ in range(50):
                p, p_prev = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                step = p * (1 - x * x) / (n * (p_prev - x * p))
                x -= step
                if abs(step) < mpmath.mpf(10) ** -38:
                    break
            else:
                raise AssertionError("reference Newton did not converge")
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2))
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("n", [20, 24])
def test_gauss_rule_against_mpmath(n):
    x, w = specfun._gauss_rule(n)
    ref_x, ref_w = _mp_gauss_rule(n)
    assert np.all(np.diff(x) > 0)
    assert np.max(np.abs(x - ref_x)) <= 1e-15
    assert np.max(np.abs(w / ref_w - 1.0)) <= 2e-14


@pytest.mark.parametrize("kappa,mu", TABLE_PAIRS + [(0.25, 2j)])
def test_whittaker_table_against_mpmath(kappa, mu):
    # W and t W'(t) against 30-digit mpmath, the latter from the exact
    # t W' = (t/2 - kappa) W - W_{kappa+1,mu} (DLMF 13.15.23); |Im mu| = 2
    # is about as far as the table's degree resolves
    table = WhittakerTable(kappa, mu)
    ts = np.geomspace(1e-3, 300.0, 40)
    w, t_dw = table.with_log_derivative(ts)
    with mpmath.workdps(30):
        for t, got_w, got_dw in zip(ts, w, t_dw):
            ref_w = mpmath.whitw(kappa, mu, t)
            ref_dw = complex((t / 2 - kappa) * ref_w - mpmath.whitw(kappa + 1, mu, t))
            ref_w = complex(ref_w)
            scale = max(abs(ref_w), abs(ref_dw))
            assert abs(got_w - ref_w) <= 1e-12 * scale, t
            assert abs(got_dw - ref_dw) <= 1e-12 * scale, t


def test_whittaker_table_builds_from_one_call(monkeypatch):
    # every panel's nodes go through one whittaker_w call, each edge that
    # two panels share once; the calls that whittaker_w makes itself (series
    # split, index recurrence) are inner
    sizes, depth = [], [0]
    original = specfun.whittaker_w

    def counting(kappa, mu, y):
        if not depth[0]:
            sizes.append(np.size(y))
        depth[0] += 1
        try:
            return original(kappa, mu, y)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(specfun, "whittaker_w", counting)
    for kappa, mu in TABLE_PAIRS + [(1.25, 0.35j)]:
        sizes.clear()
        table = WhittakerTable(kappa, mu)
        panels = table.coeffs.shape[1]
        assert sizes == [panels * table.DEGREE + 1], (kappa, mu)


def test_whittaker_table_unresolved_index_raises():
    # at mu = 5i a panel's last coefficient is 7e-10 of its largest: W is not resolved
    with pytest.raises(UnsupportedParameterError, match="does not resolve"):
        WhittakerTable(0.25, 5j)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_whittaker_table_rejects_nan_zero_and_negative(bad):
    table = WhittakerTable(0.25, 0.35j)
    for lookup in (table, table.with_log_derivative):
        for t in (bad, np.array([1.0, bad])):
            with pytest.raises(DomainError):
                lookup(t)


@pytest.mark.parametrize("kappa,mu", TABLE_PAIRS)
def test_whittaker_table_log_derivative_against_mpmath(kappa, mu):
    # t W'(t) from the table's Chebyshev series against a 30-digit numerical
    # derivative of mpmath's W; W itself is the plain lookup, bit for bit
    table = WhittakerTable(kappa, mu)
    ts = np.geomspace(1e-3, 300.0, 20)
    w, t_dw = table.with_log_derivative(ts)
    assert np.array_equal(w, table(ts))
    with mpmath.workdps(30):
        for t, got in zip(ts, t_dw):
            ref_w = complex(mpmath.whitw(kappa, mu, t))
            ref = complex(t * mpmath.diff(lambda s: mpmath.whitw(kappa, mu, s), t))
            assert abs(got - ref) <= 1e-12 * max(abs(ref), abs(ref_w)), t


@pytest.mark.parametrize(
    "kappa,mu,dtype",
    [(0.25, 0.35j, float), (-0.25, 0.35j, float), (0.25, 0.2, float), (0.25, 2j, float),
     (0.25, 0, float), (-0.75, 0.2 + 0.3j, complex)],
)
def test_whittaker_table_is_real_where_w_is(kappa, mu, dtype):
    # W_{kappa,mu} is real for real kappa and mu real or purely imaginary
    table = WhittakerTable(kappa, mu)
    assert table.coeffs.dtype == dtype
    ts = np.geomspace(1e-3, 300.0, 20)
    w, t_dw = table.with_log_derivative(ts)
    assert w.dtype == t_dw.dtype == dtype
    assert np.array_equal(w, table(ts))


def test_whittaker_table_rejects_an_imaginary_part_it_would_drop(monkeypatch):
    # a relative imaginary part of 1e-10 on the table's one outer call; the
    # calls whittaker_w makes itself are left alone
    original, depth = specfun.whittaker_w, [0]

    def tilted(kappa, mu, y):
        depth[0] += 1
        try:
            return original(kappa, mu, y) * (1 + 1e-10j if depth[0] == 1 else 1)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(specfun, "whittaker_w", tilted)
    with pytest.raises(UnsupportedParameterError, match="part is 1.0e-10 of its largest"):
        WhittakerTable(0.25, 0.35j)


def test_whittaker_table_below_range_raises():
    table = WhittakerTable(0.25, 0.35j)
    with pytest.raises(DomainError):
        table(1e-60)
