import cmath
import math

import pytest

from maassperiods.branch import principal_pow
from maassperiods.errors import InvalidMultiplierError, InvalidWeightError
from maassperiods.modgroup import (
    IDENTITY,
    MINUS_ONE,
    S,
    T,
    T_PRIME,
    GeneratorWord,
    GroupElement,
)
from maassperiods.multiplier import (
    MultiplierSystem,
    construct_eta_power,
    construct_trivial,
    parse_weight,
)
from maassperiods.verify import consistency_residual


def eta(z: complex, terms: int = 40) -> complex:
    """Dedekind eta by its q-product; the independent oracle for the
    weight-1/2 generator values."""
    q = cmath.exp(2j * math.pi * z)
    prod = 1.0 + 0.0j
    for n in range(1, terms + 1):
        prod *= 1.0 - q**n
    return cmath.exp(2j * math.pi * z / 24.0) * prod


def test_eta_power_t_value_against_eta_quotient():
    v = construct_eta_power("1/2")
    z = 2j
    oracle = eta(z + 1) / eta(z)
    assert abs(v.v_t - oracle) <= 1e-12
    assert abs(v.v_t - cmath.exp(1j * math.pi / 12)) <= 1e-15


def test_eta_power_s_value_against_eta_quotient():
    v = construct_eta_power("1/2")
    z = 2j
    # eta(-1/z) = v(S) z^{1/2} eta(z): the quotient by the principal root
    # isolates the unit multiplier (sqrt(-iz) = e^{-i pi/4} sqrt(z))
    oracle = eta(-1.0 / z) / (principal_pow(z, 0.5) * eta(z))
    assert abs(v.v_s - oracle) <= 1e-12
    assert abs(v.v_s - cmath.exp(-1j * math.pi / 4)) <= 1e-15


@pytest.mark.parametrize("weight", ["1/2", "3/2", "12"])
def test_minus_one_and_s_squared(weight):
    v = construct_eta_power(weight)
    want = cmath.exp(-1j * v.k * math.pi)
    assert abs(v.evaluate(MINUS_ONE) - want) <= 1e-13
    assert abs(v.v_s * v.v_s - want) <= 1e-13


def test_minus_one_via_explicit_word():
    v = construct_eta_power("1/2")
    folded = v.evaluate_word(GeneratorWord((("S", 1), ("S", 1))))
    assert abs(folded - cmath.exp(-1j * math.pi / 2)) <= 1e-13


def test_trivial_system_even_weight_only():
    v = construct_trivial(12)
    assert v.evaluate(T_PRIME) == pytest.approx(1.0)
    with pytest.raises(InvalidWeightError):
        construct_trivial("1/2")


def test_k12_eta_power_is_trivial():
    v = construct_eta_power(12)
    assert abs(v.v_t - 1) <= 1e-14
    assert abs(v.v_s - 1) <= 1e-14


def test_word_independence():
    v = construct_eta_power("1/2")
    direct = v.evaluate_word(GeneratorWord((("T", 1), ("S", 1), ("T", 1))))
    assert abs(direct - v.evaluate(T_PRIME)) <= 1e-12


def test_base_point_independence():
    v = construct_eta_power("3/2")
    g = T_PRIME * S * T.inverse()
    assert abs(v.evaluate(g) - v.evaluate(g, base_point=0.7 + 0.9j)) <= 1e-12


def test_inconsistent_generators_rejected():
    with pytest.raises(InvalidMultiplierError):
        MultiplierSystem("1/2", cmath.exp(0.37j), cmath.exp(0.11j))


def test_parse_weight():
    assert parse_weight("1/2") * 2 == 1
    assert parse_weight(12) == 12
    with pytest.raises(InvalidWeightError):
        parse_weight("1/3")


@pytest.mark.parametrize("weight", ["1/2", "3/2", "12"])
def test_consistency_relation_sampled(weight, rng):
    v = construct_eta_power(weight)
    mats = []
    for _ in range(120):
        m = IDENTITY
        for _ in range(int(rng.integers(1, 9))):
            m = m * (S if rng.random() < 0.5 else GroupElement(1, int(rng.integers(-3, 4)), 0, 1))
        if m.max_entry() <= 50:
            mats.append(m)
    worst = 0.0
    for i in range(200):
        g = mats[i % len(mats)]
        d = mats[(3 * i + 1) % len(mats)]
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        worst = max(worst, consistency_residual(v, g, d, z))
    assert worst <= 1e-11
