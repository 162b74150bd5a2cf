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


class _ParentTable(WhittakerTable):
    """The reference: the build that tabulated W e^{t/2} t^{-kappa} alone, and
    its lookup below, verbatim (the derivative came from a second recurrence
    run beside Clenshaw's, and the power per run of rows)."""

    def __init__(self, kappa: float, mu: complex):
        self.kappa, self.mu = float(kappa), complex(mu)
        # nodes as the lookup maps them back, s = mid + half x; the end nodes
        # x = 1 and x = -1 are the shared edges, each evaluated once
        mid = 0.5 * (self._EDGES[1:] + self._EDGES[:-1])
        half = 0.5 * (self._EDGES[1:] - self._EDGES[:-1])
        inner = np.exp(mid[:, None] + half[:, None] * self._NODES[1:-1])
        t_edges = np.exp(self._EDGES)
        w = np.asarray(whittaker_w(self.kappa, self.mu, np.concatenate([inner.ravel(), t_edges])))
        w_edges = w[inner.size :]
        vals = np.column_stack([w_edges[1:], w[: inner.size].reshape(inner.shape), w_edges[:-1]])
        t_nodes = np.column_stack([t_edges[1:], inner, t_edges[:-1]])
        vals *= np.exp(t_nodes / 2.0) * t_nodes ** (-self.kappa)
        # degree-major, so a lookup gathers one contiguous row per degree
        self.coeffs = self._FIT @ vals.T
        real = self.mu.real == 0.0 or self.mu.imag == 0.0
        # the last coefficient and, where W is real, the imaginary part to drop
        noise = np.maximum(np.abs(self.coeffs[-1]), real * np.max(np.abs(self.coeffs.imag), axis=0))
        noise /= np.max(np.abs(self.coeffs), axis=0)
        if not np.all(noise <= self.TAIL_TOL):
            raise UnsupportedParameterError(
                f"a degree-{self.DEGREE} Chebyshev table does not resolve W_{{{kappa}, {mu}}}: a panel's "
                f"last coefficient or dropped imaginary part is {np.max(noise):.1e} of its largest"
            )
        if real:
            self.coeffs = np.ascontiguousarray(self.coeffs.real)

    @property
    def runs(self) -> tuple:
        """(rows, kappa) for the power t^kappa: every row, this table's kappa."""
        return ((slice(None), self.kappa),)


def _parent_lookup(src, t) -> tuple:
    """(W, t W') of a table or a stack ``src`` at t: the one lookup of both.

    Beyond ``T_MAX`` a point is looked up at ``T_MAX`` and its values set to
    zero, so every array keeps the shape of t.
    """
    table = WhittakerTable
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(ts >= table.T_MIN):  # NaN, zero and negative t fail too
        raise DomainError(f"table lookup requires t >= {table.T_MIN}, got {ts.min()}")
    c = src.coeffs
    s = np.log(ts)
    inside = s <= table._S_HI
    s = np.minimum(s, table._S_HI)
    ts = np.where(inside, ts, table.T_MAX)
    idx = np.searchsorted(table._EDGES, s, side="right") - 1
    idx = np.clip(idx, 0, len(table._EDGES) - 2)
    lo = table._EDGES[idx]
    hi = table._EDGES[idx + 1]
    x = (2.0 * s - (hi + lo)) / (hi - lo)
    idx += src.offset
    # Clenshaw with per-point coefficients, vectorised over points; one
    # degree is gathered at a time, so no (points x degree) copy is made.
    # d1, d2 are the x-derivatives of b1, b2:
    # d_j = 2 b_{j+1} + 2x d_{j+1} - d_{j+2}
    b1 = b2 = d1 = d2 = np.zeros(x.shape, dtype=c.dtype)  # rebound, never written
    two_x = 2.0 * x
    for j in range(table.DEGREE, 0, -1):
        d1, d2 = 2.0 * b1 + two_x * d1 - d2, d1
        b1, b2 = c[j][idx] + two_x * b1 - b2, b1
    vals = c[0][idx] + x * b1 - b2
    decay = np.exp(-ts / 2.0)
    power = np.concatenate([ts[rows] ** kappa for rows, kappa in src.runs])
    slope = (b1 + x * d1 - d2) * (2.0 / (hi - lo))
    outs = (
        np.where(inside, vals * decay * power, 0.0),
        np.where(inside, (slope + (src.kappa - ts / 2.0) * vals) * decay * power, 0.0),
    )
    return tuple(out if np.ndim(t) else out.reshape(())[()] for out in outs)


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
        panels = table.series.shape[2]
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
    assert table.series.dtype == dtype
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


def _lookup_test_points(seed):
    """2,000 seeded t in [T_MIN, 1e3], every panel edge and its nextafter
    neighbours, T_MIN, T_MAX and beyond T_MAX."""
    table, rng = WhittakerTable, np.random.default_rng(seed)
    edges = np.exp(table._EDGES)
    t = np.concatenate([
        np.exp(rng.uniform(table._S_LO, math.log(1e3), 2000)),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [table.T_MIN, table.T_MAX, 320.5, 1e300],
    ])
    return t[t >= table.T_MIN]


@pytest.mark.parametrize("kappa,mu", TABLE_PAIRS)
def test_lookup_agrees_with_the_parent_lookup(kappa, mu):
    # W agrees at rounding level.  t W' is the derivative of a different
    # interpolant of the same samples (W e^{t/2} against W e^{t/2} t^{-kappa}),
    # and the derivative of a degree-14 panel amplifies the samples' noise
    # most at its ends: the two differ by up to 1.2e-12 inside a panel and
    # 3e-12 at an edge the lookups give to neighbouring panels, within each
    # one's own distance from mpmath (up to 2e-12 below t = 1e-3)
    t = _lookup_test_points(TABLE_PAIRS.index((kappa, mu)))
    (w, t_dw), (ref_w, ref_dw) = WhittakerTable(kappa, mu).with_log_derivative(t), _parent_lookup(_ParentTable(kappa, mu), t)
    scale = np.maximum(np.abs(ref_w), np.abs(ref_dw))
    assert np.all(np.abs(w - ref_w) <= 2e-14 * scale)
    assert np.all(np.abs(t_dw - ref_dw) <= 1e-11 * scale)
    beyond = t > WhittakerTable.T_MAX
    assert np.all(w[beyond] == 0.0) and np.all(t_dw[beyond] == 0.0)


def test_panel_index_is_searchsorteds_but_within_an_ulp_of_an_edge():
    # the arithmetic index floor((s - S_LO) / width) against searchsorted on
    # the edges; they may differ only within an ulp of S_LO (the offset the
    # arithmetic subtracts) of an edge, and there by one panel
    table, rng = WhittakerTable, np.random.default_rng(0)
    edges = table._EDGES
    steps = np.arange(-64, 65) * np.spacing(np.abs(edges))[:, None]
    s = np.concatenate([
        rng.uniform(table._S_LO, table._S_HI, 10**5), (edges[:, None] + steps).ravel(), np.log(np.exp(edges)),
    ])
    s = s[(s >= table._S_LO) & (s <= table._S_HI)]
    idx, x = table._panel(s)
    want = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, table._PANELS - 1)
    apart = idx != want
    assert np.all(np.abs(idx - want)[apart] == 1)
    assert np.all(np.min(np.abs(s[apart, None] - edges), axis=1) <= np.spacing(-table._S_LO))
    assert np.all(np.abs(x) <= 1.0 + 1e-13)


@pytest.mark.parametrize("kappa,mu", [(0.75, 0.01), (0.75, 0.0), (-0.75, 0.01), (0.25, 0.0)])
def test_whittaker_table_near_integer_two_nu_against_mpmath_down_to_t_min(kappa, mu):
    # 2 nu within 0.05 of an integer takes no small-argument series, so W
    # there comes from the integral (and at kappa = 3/4 from the index
    # recurrence on two integrals) all the way down to T_MIN; its cutoff
    # reaches below log t.  The worst point is t W' at T_MIN itself, where a
    # panel's derivative amplifies the samples' noise most: 9.5e-13 at (3/4, 0.01)
    table = WhittakerTable(kappa, mu)
    ts = np.geomspace(WhittakerTable.T_MIN, 1e-3, 25)
    w, t_dw = table.with_log_derivative(ts)
    with mpmath.workdps(30):
        for t, got_w, got_dw in zip(ts, w, t_dw):
            ref_w = mpmath.whitw(kappa, mu, t)
            ref_dw = complex((t / 2 - kappa) * ref_w - mpmath.whitw(kappa + 1, mu, t))
            ref_w = complex(ref_w)
            scale = max(abs(ref_w), abs(ref_dw))
            assert abs(got_w - ref_w) <= 1e-12 * scale, t
            assert abs(got_dw - ref_dw) <= 1e-12 * scale, t
