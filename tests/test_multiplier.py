import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from maassperiods.branch import principal_pow
from maassperiods.errors import InvalidMultiplierError, InvalidWeightError
from maassperiods.modgroup import S, T_PRIME, GeneratorWord, GroupElement
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
    # the one-letter word S folds with the phase
    # exp(ik (arg z0 - arg mu(S, z0))) = exp(0) = 1 exactly, so v(S) comes
    # back bit for bit and the f <-> P bridge can read it directly
    v = system()
    assert v.evaluate(S) == v.v_s


def test_minus_one_via_explicit_word():
    v = construct_eta_power("1/2")
    folded = v.evaluate_word(GeneratorWord((("S", 1), ("S", 1))))
    assert abs(folded - cmath.exp(-1j * math.pi / 2)) <= 1e-13


def test_s_token_with_a_power_is_rejected():
    v = construct_eta_power("1/2")
    with pytest.raises(ValueError):
        v.evaluate_word(GeneratorWord((("T", 1), ("S", 2))))


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


@pytest.mark.parametrize(
    "text, want",
    [(1.5, Fraction(3, 2)), (12.0, 12), (-0.5, Fraction(-1, 2)), ("1/2", Fraction(1, 2)),
     (12, 12), (Fraction(3, 2), Fraction(3, 2))],
)
def test_parse_weight_accepts_exact_half_integers(text, want):
    assert parse_weight(text) == want


@pytest.mark.parametrize("text", [0.3, 0.49, 2.5000001, math.nan, math.inf, None])
def test_parse_weight_rejects_what_is_not_a_half_integer(text):
    # a float is read at its exact binary value, never rounded to 1/2
    with pytest.raises(InvalidWeightError):
        parse_weight(text)


def _dedekind_sum(h: int, c: int) -> Fraction:
    """s(h, c) = sum_{j=1}^{c-1} ((j/c)) ((hj/c)) for c > 0, summed exactly."""

    def sawtooth(x: Fraction) -> Fraction:
        return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)

    terms = (sawtooth(Fraction(j, c)) * sawtooth(Fraction(h * j, c)) for j in range(1, c))
    return sum(terms, Fraction(0))


def _eta_power_phase(r: int, a: int, b: int, c: int, d: int) -> Fraction:
    """x with v(g) = e^{i pi x} for the r-th power of the eta multiplier.

    Weight k = r/2 and v(g) eta^r(z) (cz+d)^k = eta^r(gz) on the principal
    branch.  For c > 0 Rademacher's formula gives
    v(g) = exp(pi i r [(a+d)/(12c) + s(-d, c)] - i pi k/2).  The other
    cases follow from the consistency relation with the central (-1):
    mu(-1, w) = -1 has argument pi and v((-1)) = v(S)^2 = e^{-i pi k}, so
    v(-g) e^{ik arg(-(cz+d))} = e^{-ik pi} v(g) e^{ik pi} e^{ik arg(cz+d)}.
    For c < 0, -(cz+d) lies in the upper half-plane with argument
    arg(cz+d) + pi, hence v(g) = e^{i pi k} v(-g).  For c = 0,
    g = +-T^b with mu(T^b, z) = 1: v(T^b) = v(T)^b, while
    v(-T^b) e^{ik pi} = e^{-ik pi} v(T^b) e^{ik pi} gives
    v(-T^b) = e^{-i pi k} v(T)^b, with v(T) = e^{i pi r/12}.
    """
    k = Fraction(r, 2)
    if c > 0:
        return r * (Fraction(a + d, 12 * c) + _dedekind_sum(-d, c)) - k / 2
    if c < 0:
        return k + _eta_power_phase(r, -a, -b, -c, -d)
    return Fraction(r * a * b, 12) - (k if a == -1 else 0)


def _oracle_matrices(count: int, bound: int = 60) -> list:
    rng = np.random.default_rng(20120)
    out = []
    while len(out) < count:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(int(rng.integers(1, 13))):
            if rng.random() < 0.5:
                a, b, c, d = b, -a, d, -c
            else:
                n = int(rng.integers(-3, 4))
                a, b, c, d = a, a * n + b, c, c * n + d
        if max(abs(a), abs(b), abs(c), abs(d)) <= bound:
            out.append(GroupElement(a, b, c, d))
    return out


@pytest.mark.parametrize("r", [1, 3, 5, -1, 24])
def test_eta_power_matches_rademacher_closed_form(r):
    mats = _oracle_matrices(600)
    signs = [int(np.sign(g.c)) for g in mats]
    assert min(signs.count(s) for s in (-1, 0, 1)) >= 20
    assert any(g.c == 0 and g.a == -1 for g in mats)
    v = construct_eta_power(Fraction(r, 2))
    worst = 0.0
    for g in mats:
        x = _eta_power_phase(r, g.a, g.b, g.c, g.d) % 2
        worst = max(worst, abs(v.evaluate(g) - cmath.exp(1j * math.pi * float(x))))
    assert worst <= 1e-13


@pytest.mark.parametrize("weight", WEIGHTS)
def test_consistency_relation_sampled(weight, holds):
    holds(f"multiplier.consistency[k={weight}]")
