import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maassperiods.branch import factorizable, principal_arg, principal_pow
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

