import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from maassperiods.branch import principal_arg, principal_arg_many, principal_pow
from maassperiods.errors import InvalidElementError, InvalidMultiplierError, InvalidWeightError
from maassperiods.forms import reduce_many
from maassperiods.modgroup import S, T_PRIME, GroupElement, WordArray, decompose_many, mu
from maassperiods.multiplier import (
    BASE_POINT,
    MultiplierSystem,
    construct_eta_power,
    construct_trivial,
    parse_weight,
)
from maassperiods.verify import WEIGHTS, _words
from test_modgroup import column, reference_words, tokens


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
    (folded,) = v.evaluate_words(WordArray(np.array([[True, True]]), np.array([[0, 0]])))
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


def test_eta_closed_form_matches_the_fold(holds):
    holds(*(f"multiplier.eta-closed-form[k={w}]" for w in WEIGHTS))


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
     (12, 12), (Fraction(3, 2), Fraction(3, 2)), (2**52 - 0.5, Fraction(2**53 - 1, 2))],
)
def test_parse_weight_accepts_exact_half_integers(text, want):
    assert parse_weight(text) == want


@pytest.mark.parametrize(
    "text", [0.3, 0.49, 2.5000001, math.nan, math.inf, None, "1e400", "1e30", 2**52, "-9007199254740993/2"]
)
def test_parse_weight_rejects_what_is_not_a_half_integer(text):
    # a float is read at its exact binary value, never rounded to 1/2; from
    # 2^52 on, floats are 1 or more apart, and the forms compute with k as one
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


def _unit(x: Fraction) -> complex:
    """e^{i pi x}, from the angle reduced exactly into (-pi, pi]."""
    x %= 2
    return cmath.exp(1j * math.pi * float(x - 2 * (x > 1)))


def _fold_gap(v, mats) -> float:
    folded = v.evaluate_words(decompose_many(mats))
    return float(np.max(np.abs(v.evaluate_many(mats) - folded)))


def _twisted():
    v = construct_eta_power("1/2")
    return MultiplierSystem("1/2", -v.v_t, -v.v_s)


@pytest.mark.parametrize(
    "system",
    [lambda r=r: construct_eta_power(Fraction(r, 2)) for r in (1, 3, 5, -1, 24)]
    + [lambda k=k: construct_trivial(k) for k in (0, 2, 4, 12)]
    + [_twisted],
    ids=[f"eta^{r}" for r in (1, 3, 5, -1, 24)]
    + [f"trivial-{k}" for k in (0, 2, 4, 12)]
    + ["twisted"],
)
def test_closed_form_matches_the_fold(system):
    mats = _words(np.random.default_rng(23), 2000, bound=50)
    assert all(np.count_nonzero(np.sign(mats[2]) == s) >= 100 for s in (-1, 0, 1))
    assert _fold_gap(system(), mats) <= 1e-13


@pytest.mark.parametrize("weight", ["1/2", "-1/2", "3/2", "12", "0", "1", "-7/2"])
def test_every_consistent_pair_of_unit_roots_is_an_eta_power(weight):
    # of the 24 x 24 pairs (v(T), v(S)) of 24th roots of unity, exactly six
    # (one per character of PSL(2, Z)) pass the weight's relation, and the
    # closed form of each agrees with its fold
    roots = [cmath.exp(1j * math.pi * n / 12) for n in range(24)]
    systems = []
    for v_t in roots:
        for v_s in roots:
            try:
                systems.append(MultiplierSystem(weight, v_t, v_s))
            except InvalidMultiplierError:
                pass
    assert len(systems) == 6
    assert sorted((v.rho - 2 * parse_weight(weight)) % 24 for v in systems) == [0, 4, 8, 12, 16, 20]
    mats = _words(np.random.default_rng(7), 200, bound=50)
    assert max(_fold_gap(v, mats) for v in systems) <= 1e-13


@pytest.mark.parametrize("weight", WEIGHTS)
def test_closed_form_takes_the_reduction_matrices_as_they_come(weight):
    # the (4, n) int64 matrices of the fundamental-domain reduction go into
    # evaluate_many unchanged
    rng = np.random.default_rng(17)
    zs = rng.uniform(-2, 2, 200) + 1j * np.exp(rng.uniform(math.log(1e-3), math.log(2.0), 200))
    v = construct_eta_power(weight)
    _, gs = reduce_many(zs)
    assert np.count_nonzero(gs[2]) >= 100
    each = [v.evaluate(GroupElement(*m)) for m in gs.T.tolist()]
    assert np.array_equal(v.evaluate_many(gs), each)


def test_closed_form_on_an_array_is_per_element_evaluate_bit_for_bit():
    v = construct_eta_power("3/2")
    mats = _words(np.random.default_rng(11), 4096, bound=50)
    each = [v.evaluate(GroupElement(*m)) for m in mats.T.tolist()]
    assert np.array_equal(v.evaluate_many(mats), each)


@pytest.mark.parametrize("weight", ["1/2", "3/2", "5/2"])
@pytest.mark.parametrize("n", [10**3, 10**5, 10**7])
@pytest.mark.parametrize("sign", [1, -1])
def test_large_translations_keep_the_exact_phase(weight, n, sign):
    # CPython's pow goes polar for complex powers above 100, with an error
    # that grows like the power; both routes must stay at rounding level
    v = construct_eta_power(weight)
    g = GroupElement(sign, n, 0, sign)
    want = _unit(_eta_power_phase(int(2 * v.weight), sign, n, 0, sign))
    assert abs(v.evaluate(g) - want) <= 1e-15
    assert abs(v.evaluate_words(decompose_many(column(g)))[0] - want) <= 1e-15


@pytest.mark.parametrize("c", [2**40 + 1, 10**30 + 7])
def test_entries_beyond_int64_products_give_exact_values(c):
    # 12c s(1, c) = (c-1)(c-2) and, for odd c, 12c s(2, c) = (c-1)(c-5)/2,
    # so Phi is known in closed form for [[1, 0], [c, 1]] and [[(c+1)/2, 1], [c, 2]]
    v = construct_eta_power("1/2")
    half = (c + 1) // 2
    cases = [
        (GroupElement(1, 0, c, 1), Fraction(2 - (c - 1) * (c - 2), c)),
        (GroupElement(half, 1, c, 2), Fraction(half + 2 - (c - 1) * (c - 5) // 2, c)),
    ]
    for g, phi in cases:
        assert phi.denominator == 1
        assert abs(v.evaluate(g) - _unit(Fraction(int(phi) - 3, 12))) <= 1e-15
        assert abs(v.evaluate(-g) - _unit(Fraction(int(phi) + 3, 12))) <= 1e-15
    b = np.array([2**62, 2**63 - 1], dtype=np.int64)
    want = [_unit(Fraction(x, 12)) for x in b.tolist()]
    ones, zeros = np.ones(2, np.int64), np.zeros(2, np.int64)
    assert np.max(np.abs(v.evaluate_many(np.stack([ones, b, zeros, ones])) - want)) <= 1e-15


def test_unsigned_entries_mixed_with_signed_ones_stay_integers():
    # numpy stacks uint64 with int64 as float64; each entry is converted alone
    v = construct_eta_power("1/2")
    got = v.evaluate_many([np.array([1], np.uint64), [5], [0], [1]])
    assert abs(got[0] - cmath.exp(5j * math.pi / 12)) <= 1e-15
    # a uint64 entry >= 2^63 goes to Python ints, where int64 would wrap it
    b = np.array([2**63, 2**64 - 1], dtype=np.uint64)
    want = [_unit(Fraction(x, 12)) for x in b.tolist()]
    ones, zeros = np.ones(2, np.int64), np.zeros(2, np.int64)
    assert np.max(np.abs(v.evaluate_many([ones, b, zeros, ones]) - want)) <= 1e-15


def test_non_integer_or_non_unimodular_entries_are_rejected():
    v = construct_eta_power("1/2")
    with pytest.raises(InvalidElementError):
        v.evaluate_many([[1.0], [0.0], [0.0], [1.0]])
    with pytest.raises(InvalidElementError):
        v.evaluate_many([[2], [0], [0], [1]])


def test_array_arg_of_mu_on_the_negative_axis_is_plus_pi():
    # mu = c z + d for c = 0, d = -1 is -1 with a zero imaginary part whose
    # sign numpy's product may flip when Re z < 0
    z = np.array([-0.5 + 1j, -2.0 + 0.3j, -1e-300 + 5j])
    c, d = np.zeros(3, np.int64), -np.ones(3, np.int64)
    want = [principal_arg(mu(GroupElement(-1, 0, 0, -1), w)) for w in z]
    assert np.array_equal(principal_arg_many(c * z + d), want)
    assert principal_arg_many(complex(-1.0, -0.0)) == math.pi


def _words_before_arrays(rng, count, max_len=12, bound=math.inf):
    """The sampler of verify before it drew arrays, kept verbatim as the
    reference for its samples and its generator calls."""
    out = []
    while len(out) < count:
        lengths = rng.integers(1, max_len + 1, count).tolist()
        # a factor is the shift n of T^n, or 4 for S
        is_s = rng.random((count, max_len)) < 0.5
        factors = np.where(is_s, 4, rng.integers(-3, 4, (count, max_len))).tolist()
        for n, word in zip(lengths, factors):
            a, b, c, d = 1, 0, 0, 1
            for t in word[:n]:
                a, b, c, d = (b, -a, d, -c) if t == 4 else (a, a * t + b, c, c * t + d)
            if max(abs(a), abs(b), abs(c), abs(d)) <= bound:
                out.append(GroupElement(a, b, c, d))
    return out[:count]


@pytest.mark.parametrize("bound", [25, 50, math.inf])
@pytest.mark.parametrize("max_len", [12, 20])
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_array_draws_reproduce_the_word_samples(bound, max_len, seed):
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    before = _words_before_arrays(old, 300, max_len, bound)
    after = _words(new, 300, max_len, bound)
    assert [[g.a, g.b, g.c, g.d] for g in before] == after.T.tolist()
    assert old.bit_generator.state == new.bit_generator.state


def _evaluate_word_before_arrays(v, word, base_point=BASE_POINT) -> complex:
    """MultiplierSystem.evaluate_word before it folded arrays of words, kept
    verbatim (with v for self, and the bare token tuple for the word) as the
    reference for the fold."""
    # m = (a, b, c, d) is the product of the tokens folded so far
    a, b, c, d = 1, 0, 0, 1
    s_count = t_power = 0
    theta = 0.0
    for gen, power in reversed(word):
        if gen == "S":
            if power != 1:
                raise ValueError("S tokens carry power 1")
            s_count += 1
            theta += principal_arg((a * base_point + b) / (c * base_point + d))
            a, b, c, d = -c, -d, a, b
        else:
            t_power += power
            a, b = a + power * c, b + power * d
    theta -= principal_arg(c * base_point + d)
    # v(T) has order o = 24/gcd(rho, 24); the exponent is reduced to
    # |t_power| <= o/2, since pow's error grows with it (CPython's pow
    # even goes polar above 100)
    o = 24 // math.gcd(v.rho, 24)
    t_power = (t_power + o // 2) % o - o // 2
    return v.v_s**s_count * v.v_t**t_power * cmath.exp(1j * v.k * theta)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_array_fold_matches_the_scalar_fold(seed):
    mats = reference_words(seed)
    # T S T, S S and the empty word, padded to one width by hand
    hand = WordArray(
        np.array([[False, True, False], [True, True, False], [False] * 3]), np.array([[1, 0, 1], [0] * 3, [0] * 3])
    )
    for v in [construct_eta_power(w) for w in ("1/2", "3/2", "5/2", "-1/2", "12")] + [_twisted()]:
        for base_point in (BASE_POINT, 0.37 + 1.11j):
            for words in (decompose_many(mats), hand):
                before = [_evaluate_word_before_arrays(v, tokens(words, i), base_point) for i in range(len(words))]
                # the phase k theta carries the rounding of theta times k
                bound = 1e-14 * max(1.0, v.k)
                assert np.max(np.abs(v.evaluate_words(words, base_point) - before)) <= bound
