import cmath
import math

import pytest

from maassperiods.branch import principal_pow
from maassperiods.errors import InvalidMultiplierError, InvalidWeightError
from maassperiods.modgroup import S, T_PRIME, GeneratorWord
from maassperiods.multiplier import (
    MultiplierSystem,
    construct_eta_power,
    construct_trivial,
    parse_weight,
)
from maassperiods.verify import WEIGHTS


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


@pytest.mark.parametrize("weight", WEIGHTS)
def test_minus_one_and_s_squared(weight, holds):
    holds(f"multiplier.minus-one[k={weight}]", f"multiplier.s-squared[k={weight}]")


@pytest.mark.parametrize(
    "system",
    [lambda: construct_eta_power(w) for w in ("1/2", "3/2", "5/2", "-1/2")] + [lambda: construct_trivial(12)],
)
def test_s_evaluates_to_its_generator_value(system):
    # the one-letter word S folds with a cocycle phase of exactly 1, which
    # lets the f <-> P bridge read v(S) directly
    v = system()
    assert v.evaluate(S) == v.v_s


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


def test_word_independence(holds):
    holds(*(f"multiplier.word-independence[k={w}]" for w in WEIGHTS))


def test_base_point_independence(holds):
    holds(*(f"multiplier.base-point[k={w}]" for w in WEIGHTS))


def test_inconsistent_generators_rejected():
    with pytest.raises(InvalidMultiplierError):
        MultiplierSystem("1/2", cmath.exp(0.37j), cmath.exp(0.11j))


def test_parse_weight():
    assert parse_weight("1/2") * 2 == 1
    assert parse_weight(12) == 12
    with pytest.raises(InvalidWeightError):
        parse_weight("1/3")


@pytest.mark.parametrize("weight", WEIGHTS)
def test_consistency_relation_sampled(weight, holds):
    holds(f"multiplier.consistency[k={weight}]")
