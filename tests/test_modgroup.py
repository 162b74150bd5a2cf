import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maassperiods.errors import InvalidElementError
from maassperiods.modgroup import (
    IDENTITY,
    INFINITY,
    MINUS_ONE,
    S,
    T,
    T_PRIME,
    GroupElement,
    decompose,
    has_nonnegative_entries,
    moebius,
    mu,
)


def test_determinant_enforced():
    with pytest.raises(InvalidElementError):
        GroupElement(1, 1, 1, 1)


def test_basic_elements():
    assert T_PRIME == GroupElement(1, 0, 1, 1)
    assert S * S == MINUS_ONE
    st_elt = S * T
    assert st_elt * st_elt * st_elt == MINUS_ONE
    assert S * T * S * T == T.inverse() * S


def test_moebius_examples():
    assert moebius(S, 1j) == pytest.approx(1j)
    assert moebius(T, 3 + 4j) == pytest.approx(4 + 4j)
    assert moebius(S, INFINITY) == pytest.approx(0.0)
    assert moebius(T, INFINITY) is INFINITY
    assert moebius(S, 0.0) is INFINITY


def test_mu_examples():
    assert mu(T, 5 + 2j) == 1
    assert mu(S, 2j) == 2j
    # cocycle at gamma = S, delta = T, z = i
    assert mu(S * T, 1j) == pytest.approx(mu(S, moebius(T, 1j)) * mu(T, 1j))


def test_decompose_examples():
    assert decompose(T_PRIME).tokens == (("T", 1), ("S", 1), ("T", 1))
    assert decompose(MINUS_ONE).tokens == (("S", 1), ("S", 1))
    word = decompose(T.inverse() * S)
    assert word.matrix() == T.inverse() * S
    # a negative T-run stands for the letter T^-1
    assert ("T", -1) in word.tokens


words = st.lists(
    st.one_of(st.just("S"), st.integers(min_value=-3, max_value=3)),
    min_size=1,
    max_size=20,
)


def _matrix_of(spec):
    m = IDENTITY
    for item in spec:
        if item == "S":
            m = m * S
        else:
            m = m * GroupElement(1, int(item), 0, 1)
    return m


@given(words)
def test_decompose_roundtrip(spec):
    g = _matrix_of(spec)
    assert decompose(g).matrix() == g


@given(words)
def test_word_length_bound(spec):
    g = _matrix_of(spec)
    assert len(decompose(g)) <= 6 * (1 + np.log2(max(1, g.max_entry())))


@given(words, st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_action_identities(spec, z):
    z = complex(z.real, abs(z.imag) + 0.3)
    g = _matrix_of(spec)
    if g.max_entry() > 25:
        return
    m = mu(g, z)
    gz = moebius(g, z)
    assert abs(gz.imag - z.imag / abs(m) ** 2) <= 1e-12 * z.imag / abs(m) ** 2
    zeta = z + 0.8 + 0.9j
    lhs = moebius(g, zeta) - moebius(g, z)
    rhs = (zeta - z) / (mu(g, zeta) * mu(g, z))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_nonnegative_monoid_preserves_cut_plane(rng):
    mats = []
    for _ in range(25):
        m = IDENTITY
        for _ in range(4):
            m = m * (GroupElement(1, int(rng.integers(0, 3)), 0, 1) if rng.random() < 0.5 else T_PRIME)
        if has_nonnegative_entries(m):
            mats.append(m)
    assert mats
    points = rng.uniform(0.1, 3, 50) + 1j * rng.uniform(-2, 2, 50)
    for g in mats:
        for z in points:
            image = moebius(g, complex(z))
            assert not (image.imag == 0.0 and image.real <= 0.0)


def test_json_roundtrip():
    g = T_PRIME * S * T
    assert GroupElement.from_json(g.to_json()) == g
