import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maassperiods.errors import DomainError, InvalidElementError
from maassperiods.modgroup import (
    IDENTITY,
    INFINITY,
    MINUS_ONE,
    S,
    T,
    T_PRIME,
    GroupElement,
    WordArray,
    decompose_many,
    has_nonnegative_entries,
    moebius,
    mu,
)
from maassperiods.verify import _words


def test_determinant_enforced():
    with pytest.raises(InvalidElementError):
        GroupElement(1, 1, 1, 1)


def test_entries_must_be_python_ints():
    with pytest.raises(InvalidElementError, match=r"^entries must be int, got 1\.0$"):
        GroupElement(1.0, 0, 0, 1)


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


def column(g: GroupElement) -> list:
    """g as a (4, 1) matrix array, entries as Python ints."""
    return [[g.a], [g.b], [g.c], [g.d]]


def tokens(words: WordArray, i: int) -> tuple:
    """Word i of ``words`` as its tokens ("S", 1) and ("T", m), m != 0: the
    cells without the T^0 padding."""
    cells = zip(words.is_s[i].tolist(), words.power[i].tolist())
    return tuple(("S", 1) if s else ("T", p) for s, p in cells if s or p)


def _max_entry(g: GroupElement) -> int:
    return max(abs(g.a), abs(g.b), abs(g.c), abs(g.d))


def test_decompose_examples():
    words = decompose_many(np.hstack([column(g) for g in (T_PRIME, MINUS_ONE, T.inverse() * S)]))
    assert tokens(words, 0) == (("T", 1), ("S", 1), ("T", 1))
    assert tokens(words, 1) == (("S", 1), ("S", 1))
    assert GroupElement(*words.matrices()[:, 2].tolist()) == T.inverse() * S
    # a negative T-run stands for the letter T^-1
    assert ("T", -1) in tokens(words, 2)


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
    assert decompose_many(column(g)).matrices().tolist() == column(g)


@given(words)
def test_word_length_bound(spec):
    g = _matrix_of(spec)
    assert decompose_many(column(g)).lengths[0] <= 6 * (1 + np.log2(max(1, _max_entry(g))))


@given(words, st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_action_identities(spec, z):
    z = complex(z.real, abs(z.imag) + 0.3)
    g = _matrix_of(spec)
    if _max_entry(g) > 25:
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


def _round_half_down_before_arrays(p: int, q: int) -> int:
    """The scalar rounding of decompose before it ran on arrays, verbatim."""
    if q < 0:
        p, q = -p, -q
    # ceil((2p - q) / (2q)) without floats, exact for any magnitude
    num = 2 * p - q
    den = 2 * q
    return -((-num) // den)


def _decompose_before_arrays(g: GroupElement) -> tuple:
    """decompose before it ran on arrays, kept verbatim (but for returning
    the bare token tuple) as the reference for its tokens."""
    if not isinstance(g, GroupElement):
        g = GroupElement(*g)
    a, b, c, d = g.a, g.b, g.c, g.d
    tokens = []
    while c != 0:
        q = _round_half_down_before_arrays(a, c)
        if q != 0:
            tokens.append(("T", q))
        tokens.append(("S", 1))
        # m = (a, b, c, d) <- S^-1 T^-q m, with S^-1 = [[0, 1], [-1, 0]]
        a, b, c, d = c, d, q * c - a, q * d - b
    # now m = +-T^shift
    shift = b if a == 1 else -b
    if shift != 0:
        tokens.append(("T", shift))
    if a == -1:
        tokens.append(("S", 1))
        tokens.append(("S", 1))
    return tuple(tokens)


def _matrix_before_arrays(word: tuple) -> GroupElement:
    """The product of a word's tokens before it ran on arrays, verbatim (but
    for taking the bare token tuple)."""
    a, b, c, d = 1, 0, 0, 1
    for gen, power in word:
        # right-multiply by S = [[0, -1], [1, 0]] or by T^power
        a, b, c, d = (b, -a, d, -c) if gen == "S" else (a, a * power + b, c, c * power + d)
    return GroupElement(a, b, c, d)


# the first Euclid step ties (a/c half-integral) for c = +-2 and odd a; -T^b
# (c = 0, a = -1) takes the S^2 branch
_EDGE_CASES = np.array(
    [[a, (a - 1) // 2, 2, 1] for a in range(-7, 8, 2)]
    + [[-a, -(a - 1) // 2, -2, -1] for a in range(-7, 8, 2)]
    + [[sign, sign * b, 0, sign] for sign in (1, -1) for b in range(-3, 4)]
).T


def reference_words(seed: int) -> np.ndarray:
    """300 sampled words of up to 20 factors and the edge cases, as columns."""
    return np.concatenate([_words(np.random.default_rng(seed), 300, max_len=20), _EDGE_CASES], axis=1)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_decompose_many_gives_the_tokens_of_the_scalar_code(seed):
    mats = reference_words(seed)
    c = mats[2]
    ties = (np.abs(c) == 2) & (mats[0] % 2 == 1)  # a/c half-integral
    assert min(np.count_nonzero(ties), np.count_nonzero(c < 0), np.count_nonzero(c == 0)) >= 10
    assert np.count_nonzero((c == 0) & (mats[0] == -1)) >= 7
    words = decompose_many(mats)
    before = [_decompose_before_arrays(GroupElement(*m)) for m in mats.T.tolist()]
    assert [tokens(words, i) for i in range(len(words))] == before
    assert words.lengths.tolist() == [len(w) for w in before]
    assert np.array_equal(words.matrices(), mats)
    # one matrix alone gives the word it gets in the batch
    assert [tokens(decompose_many(mats[:, i : i + 1]), 0) for i in range(40)] == before[:40]


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_word_matrix_is_the_scalar_product(seed):
    mats = _words(np.random.default_rng(seed), 100, max_len=20)
    # T^5 S T^-7 S S and the empty word, padded to one width by hand
    hand = WordArray(
        np.array([[False, True, False, True, True], [False] * 5]), np.array([[5, 0, -7, 0, 0], [0] * 5])
    )
    for words in (decompose_many(mats), hand):
        products = words.matrices().T.tolist()
        assert [GroupElement(*m) for m in products] == [
            _matrix_before_arrays(tokens(words, i)) for i in range(len(words))
        ]


def test_word_array_round_trips_hand_written_words():
    hand = [(("T", 2), ("S", 1)), (("S", 1),) * 4, ()]
    words = WordArray(
        np.array([[False, True, False, False], [True] * 4, [False] * 4]), np.array([[2, 0, 0, 0], [0] * 4, [0] * 4])
    )
    assert [tokens(words, i) for i in range(len(words))] == hand
    assert words.lengths.tolist() == [2, 4, 0]


def test_entries_beyond_int64_decompose_and_fold_exactly():
    c = 10**30 + 7
    for g in (GroupElement(1, 0, c, 1), GroupElement(-1, 0, c, -1) * T.inverse(), GroupElement(1, 2**70, 0, 1)):
        words = decompose_many(column(g))
        assert tokens(words, 0) == _decompose_before_arrays(g) and words.matrices().tolist() == column(g)
    run = WordArray(np.array([[False, True, False, True]]), np.array([[2**40, 0, 2**40, 0]]))
    assert GroupElement(*run.matrices()[:, 0].tolist()) == _matrix_before_arrays(tokens(run, 0))


def test_decompose_many_rejects_a_matrix_of_another_determinant():
    with pytest.raises(InvalidElementError):
        decompose_many(np.array([[1, 1], [0, 1], [0, 1], [1, 1]]))


def test_array_action_is_elementwise():
    mats = _words(np.random.default_rng(5), 200, bound=25)
    z = np.random.default_rng(6).uniform(-2, 2, 200) + 1j
    each = [(mu(GroupElement(*m), w), moebius(GroupElement(*m), w)) for m, w in zip(mats.T.tolist(), z)]
    assert np.array_equal(mu(mats, z), [m for m, _ in each])
    assert np.allclose(moebius(mats, z), [w for _, w in each], rtol=1e-15, atol=0)
    assert np.array_equal(has_nonnegative_entries(mats), [has_nonnegative_entries(GroupElement(*m)) for m in mats.T.tolist()])


def test_array_action_names_a_point_it_sends_to_infinity():
    mats = np.array([[1, 0], [1, -1], [0, 1], [1, 0]])
    with pytest.raises(DomainError, match=r"z = 0j"):
        moebius(mats, np.array([1j, 0.0]))
    # one element sends it to the point at infinity instead
    assert moebius(S, 0.0) is INFINITY
