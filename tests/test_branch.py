import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maassperiods.branch import factorizable, in_cut_plane, on_cut, principal_arg, principal_pow
from maassperiods.errors import DomainError

nonzero = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def test_arg_examples():
    assert principal_arg(1.0) == 0.0
    assert principal_arg(-1.0) == math.pi
    assert principal_arg(-1j) == -math.pi / 2


def test_arg_negative_zero_imag_is_plus_pi():
    z = complex(-1.0, 0.0).conjugate()  # imaginary part -0.0
    assert z.imag == 0.0
    assert principal_arg(z) == math.pi


def test_arg_of_zero_raises():
    with pytest.raises(DomainError):
        principal_arg(0)


def test_pow_examples():
    assert principal_pow(-1.0, 0.5) == pytest.approx(1j, abs=1e-15)
    assert principal_pow(2j, 0.5) == pytest.approx(1 + 1j, abs=1e-14)
    assert principal_pow(math.e, 1j) == pytest.approx(
        complex(math.cos(1), math.sin(1)), abs=1e-14
    )
    assert principal_pow(0, 2.0) == 0
    assert principal_pow(0, 0) == 1
    with pytest.raises(DomainError):
        principal_pow(0, -1.0)


def test_sqrt_is_half_power():
    assert principal_pow(-4.0, 0.5) == pytest.approx(2j, abs=1e-14)


def test_factorizable_examples():
    assert factorizable(2.0, 1j) is True
    assert factorizable(1j, -1j) is True  # product is 1
    assert factorizable(-1.0, -1.0) is False
    # and the power identity indeed fails on the excluded pair
    lhs = principal_pow((-1.0) * (-1.0), 0.5)
    rhs = principal_pow(-1.0, 0.5) ** 2
    assert abs(lhs - rhs) > 1.9


@given(nonzero)
def test_unit_exponents(z):
    assert abs(principal_pow(z, 1) - z) <= 1e-13 * abs(z)
    assert abs(principal_pow(z, 0) - 1) <= 1e-13


@given(
    st.floats(min_value=0.01, max_value=100.0),
    nonzero,
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_factorization_positive_real_case(r, w, alpha):
    if w.imag == 0.0 and w.real <= 0.0:
        return
    assert factorizable(r, w)
    lhs = principal_pow(r * w, alpha)
    rhs = principal_pow(r, alpha) * principal_pow(w, alpha)
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


@given(
    nonzero,
    st.floats(min_value=0.01, max_value=100.0),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_factorization_positive_product_case(z, scale, alpha):
    if z.imag == 0.0 and z.real <= 0.0:
        return
    w = scale * z.conjugate()  # z w = scale |z|^2 lands exactly on the positive axis
    if not factorizable(z, w):
        return
    lhs = principal_pow(z * w, alpha)
    rhs = principal_pow(z, alpha) * principal_pow(w, alpha)
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


@given(nonzero)
def test_arg_conjugation(z):
    if z.imag == 0.0 and z.real < 0.0:
        return
    assert abs(principal_arg(z.conjugate()) + principal_arg(z)) <= 1e-15



@pytest.mark.parametrize("z, w", [(0.0, 1.0), (1j, 0.0)])
def test_factorizable_rejects_zero(z, w):
    with pytest.raises(DomainError, match="^factorizable requires nonzero arguments$"):
        factorizable(z, w)


# points that take every path of the branch code: the cut with either sign of
# a zero imaginary part, zero and signed zeros, the ends of the range
_EDGES = st.sampled_from([
    0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-3.5, -0.0),
    complex(2.0, -0.0), complex(-0.0, 1.0), complex(1e-300, 0.0), complex(-1e150, 0.0), 1e3 + 1e-300j,
])
_POINTS = st.one_of(nonzero, _EDGES)
_EXPONENTS = st.one_of(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 0.5 + 0j, complex(-0.0, 2.0)]),
)


def _array(values) -> np.ndarray:
    return np.array(values, dtype=complex)


@given(st.lists(_POINTS, min_size=1, max_size=12))
def test_array_cut_predicates_are_the_scalar_ones(zs):
    assert on_cut(_array(zs)).tolist() == [on_cut(z) for z in zs]
    assert in_cut_plane(_array(zs)).tolist() == [in_cut_plane(z) for z in zs]


@given(st.lists(st.one_of(
    st.tuples(_POINTS, _POINTS),
    # a product that lands on the positive axis, and two negative reals
    st.tuples(nonzero, st.sampled_from([0.25, 2.0, 3.0])).map(lambda p: (p[0], p[1] * p[0].conjugate())),
    st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)).map(lambda p: (complex(-p[0]), complex(-p[1]))),
), min_size=1, max_size=12))
def test_array_factorizable_is_the_scalar_one(pairs):
    z, w = _array([p[0] for p in pairs]), _array([p[1] for p in pairs])
    if any(a == 0 or b == 0 for a, b in pairs):
        with pytest.raises(DomainError, match="^factorizable requires nonzero arguments$"):
            factorizable(z, w)
        return
    assert factorizable(z, w).tolist() == [factorizable(a, b) for a, b in pairs]


@given(st.lists(_POINTS, min_size=1, max_size=12))
def test_array_arg_is_the_scalar_one_within_an_ulp(zs):
    if 0 in zs:
        with pytest.raises(DomainError, match="^argument of zero is undefined$"):
            principal_arg(_array(zs))
        return
    want = np.array([principal_arg(z) for z in zs])
    got = principal_arg(_array(zs))
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    # the cut is +pi exactly, whatever the sign of its zero
    assert all(a == math.pi for a, z in zip(got, zs) if z.imag == 0 and z.real < 0)


@given(st.lists(st.tuples(_POINTS.filter(lambda z: z == 0 or 1e-3 <= abs(z) <= 1e3), _EXPONENTS), min_size=1, max_size=12))
def test_array_pow_is_the_scalar_one_within_a_few_ulps(pairs):
    z, s = _array([p[0] for p in pairs]), _array([p[1] for p in pairs])
    if any(a == 0 and b != 0 and b.real <= 0 for a, b in pairs):
        with pytest.raises(DomainError, match="^0 cannot be raised to a power with Re s <= 0$"):
            principal_pow(z, s)
        return
    want = _array([principal_pow(a, b) for a, b in pairs])
    got = principal_pow(z, s)
    # both round s (log|z| + i arg z), whose size the error of the power follows
    size = np.abs(s) * (np.abs(np.log(np.abs(np.where(z == 0, 1, z)))) + math.pi)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * (1 + size) * np.abs(want))
    assert np.array_equal(got[z == 0], want[z == 0])
