import numpy as np
import pytest

from simplexion.exact import (
    bareiss_det,
    cauchy_binet_coeffs,
    charpoly,
    descartes_positive_roots,
    det_cofactor,
    fraction_inverse,
    inertia_exact,
    inertia_from_charpoly,
    inertia_via_minor_signs,
    integer_inverse,
    leading_minor_signs,
    minor_sum_coeffs,
    rank_exact,
)
from simplexion.rng import SplitMix64

from oracles import berkowitz_charpoly, charpoly_oracle, rank_fraction


def random_matrix(gen, rows, cols, lo=-3, hi=3):
    return [[gen.below(hi - lo + 1) + lo for _ in range(cols)] for _ in range(rows)]


def test_bareiss_identity_and_known():
    assert bareiss_det(np.eye(4, dtype=np.int64)) == 1
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 0], [0, 1]]) == 0


def test_bareiss_matches_cofactor():
    gen = SplitMix64(11)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            M = random_matrix(gen, n, n)
            assert bareiss_det(M) == det_cofactor(M)


def test_bareiss_big_int_promotion():
    # Hilbert-like matrix scaled to integers has huge intermediate values
    n = 8
    M = [[720720 // (i + j + 1) for j in range(n)] for i in range(n)]
    assert bareiss_det(M) == det_cofactor(M)


def test_rank_matches_fraction_oracle():
    gen = SplitMix64(12)
    for _ in range(60):
        r = gen.below(5) + 1
        c = gen.below(5) + 1
        M = random_matrix(gen, r, c)
        assert rank_exact(M) == rank_fraction(M)
    # rank-deficient by construction
    for _ in range(20):
        A = np.array(random_matrix(gen, 4, 2))
        B = np.array(random_matrix(gen, 2, 4))
        M = (A @ B).tolist()
        assert rank_exact(M) == rank_fraction(M) <= 2


def test_berkowitz_against_oracle():
    gen = SplitMix64(13)
    for n in (1, 2, 3, 4, 5):
        for _ in range(25):
            M = random_matrix(gen, n, n)
            assert berkowitz_charpoly(M) == charpoly_oracle(M)


def test_berkowitz_diagonal():
    for f in (berkowitz_charpoly, charpoly):
        assert f([[2, 0], [0, 3]]) == [1, -5, 6]
        assert f([[0]]) == [1, 0]
        assert f(np.zeros((0, 0))) == [1]
        with pytest.raises(ValueError):
            f([[1, 2, 3], [4, 5, 6]])


def test_descartes():
    # (x-1)(x-2) = x^2 - 3x + 2: two positive roots
    assert descartes_positive_roots([1, -3, 2]) == 2
    assert descartes_positive_roots([1, 3, 2]) == 0
    assert descartes_positive_roots([1, 0, -1]) == 1


def test_inertia_from_charpoly_diag():
    M = np.diag([3, -2, 0, 5]).tolist()
    assert inertia_from_charpoly(charpoly(M)) == (2, 1, 1)


def test_inertia_methods_agree():
    gen = SplitMix64(14)
    done = 0
    while done < 40:
        n = gen.below(6) + 2
        A = np.array(random_matrix(gen, n, n))
        S = A + A.T
        inert = inertia_exact(S, charpoly_cap=100)
        try:
            minor = inertia_via_minor_signs(S)
        except ZeroDivisionError:
            continue
        if inert[2] == 0:  # minor method only valid for nonsingular leading chain
            assert inert == minor
            done += 1


def test_integer_inverse_unimodular():
    M = np.array([[1, 2], [1, 3]], dtype=np.int64)  # det 1, unit leading minors
    inv = integer_inverse(M)
    assert np.array_equal(M @ inv, np.eye(2, dtype=np.int64))


def test_integer_inverse_general_pivot():
    # leading pivot -2: the general fraction-free path, still integral
    M = np.array([[-2, 1], [1, -1]], dtype=np.int64)  # det 1
    inv = integer_inverse(M)
    assert np.array_equal(M @ inv, np.eye(2, dtype=np.int64))


def test_fraction_inverse():
    from fractions import Fraction

    inv = fraction_inverse([[2, 0], [0, 4]])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    with pytest.raises(ZeroDivisionError):
        fraction_inverse([[1, 1], [1, 1]])


def test_leading_minor_signs():
    M = [[1, 0], [0, -1]]
    assert leading_minor_signs(M) == [1, -1]
    with pytest.raises(ZeroDivisionError):
        leading_minor_signs([[0, 1], [1, 0]])


def test_cauchy_binet_identity():
    eye = np.eye(2, dtype=np.int64)
    assert cauchy_binet_coeffs(eye, eye) == [1, 2, 1]


def test_cauchy_binet_random():
    gen = SplitMix64(15)
    for _ in range(30):
        F = random_matrix(gen, 3, 2)
        G = random_matrix(gen, 3, 2)
        pk = cauchy_binet_coeffs(F, G)  # raises on charpoly/minor mismatch
        assert pk == minor_sum_coeffs(F, G)


def test_cauchy_binet_gram_nonnegative():
    gen = SplitMix64(16)
    for _ in range(20):
        F = random_matrix(gen, 4, 3)
        pk = cauchy_binet_coeffs(F, F)
        assert all(c >= 0 for c in pk)


def test_cauchy_binet_shape_mismatch():
    with pytest.raises(ValueError):
        cauchy_binet_coeffs(np.eye(2), np.eye(3))


def test_det_exact_dispatch():
    from fractions import Fraction

    from simplexion.exact import det_exact

    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[Fraction(1, 2), 1], [1, Fraction(1, 2)]]) == Fraction(-3, 4)
    assert det_exact(np.eye(3, dtype=np.int64)) == 1
    assert det_exact([[Fraction(1, 3)]]) == Fraction(1, 3)


# -- property tests of the elimination kernel against the oracles -------------

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from simplexion.errors import InvariantViolation  # noqa: E402
from simplexion.exact import det_exact, kernel_basis, solve_exact  # noqa: E402

PROPS = settings(max_examples=150, deadline=None)


@st.composite
def int_matrices(draw, square=False, max_n=5):
    """Small integer matrices: plain, rank-deficient products, or scaled
    Hilbert matrices whose Bareiss minors outgrow int64 mid-elimination."""
    rows = draw(st.integers(1, max_n))
    cols = rows if square else draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["plain", "low-rank", "hilbert"]))
    entry = st.integers(-4, 4)
    if kind == "plain":
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if kind == "low-rank":
        k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        A = np.array([[draw(entry) for _ in range(k)] for _ in range(rows)])
        B = np.array([[draw(entry) for _ in range(cols)] for _ in range(k)])
        return (A @ B).tolist()
    n = draw(st.integers(5, 7)) if square else max(rows, 5)
    scale = draw(st.sampled_from([720720, 2 ** 40 + 1, -(3 ** 25)]))
    perm = draw(st.permutations(range(n)))
    return [[scale // (perm[i] + j + 1) for j in range(n)] for i in range(n)]


def _sign(x):
    return (x > 0) - (x < 0)


@PROPS
@given(int_matrices(square=True))
def test_prop_det_matches_cofactor(M):
    assert bareiss_det(M) == det_exact(M) == det_cofactor(M)


@PROPS
@given(int_matrices())
def test_prop_rank_matches_fraction(M):
    assert rank_exact(M) == rank_fraction(M)


@PROPS
@given(int_matrices(square=True))
def test_prop_leading_minor_signs(M):
    minors = [det_cofactor([row[:k] for row in M[:k]]) for k in range(1, len(M) + 1)]
    if 0 in minors:
        with pytest.raises(ZeroDivisionError):
            leading_minor_signs(M)
    else:
        assert leading_minor_signs(M) == [_sign(m) for m in minors]


@PROPS
@given(int_matrices(square=True))
def test_prop_inverses(M):
    A = np.array(M, dtype=object)
    eye = np.eye(len(M), dtype=object)
    det = det_cofactor(M)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            fraction_inverse(M)
        return
    assert np.array_equal(A @ np.array(fraction_inverse(M), dtype=object), eye)
    if max(abs(v) for row in M for v in row) >= 2 ** 31:
        return  # integer_inverse takes int64 input
    if abs(det) == 1:
        assert np.array_equal(A @ integer_inverse(M).astype(object), eye)
    else:
        with pytest.raises(InvariantViolation):
            integer_inverse(M)


@PROPS
@given(st.integers(1, 6), st.data())
def test_prop_unit_minor_inverse(n, data):
    # unit lower times unit upper (diagonals +-1): every leading minor is a
    # unit, the in-place elimination path
    unit = st.sampled_from([-1, 1])
    small = st.integers(-2, 2)
    L = np.array([[data.draw(unit) if i == j else data.draw(small) if j < i else 0
                   for j in range(n)] for i in range(n)])
    U = np.array([[data.draw(unit) if i == j else data.draw(small) if j > i else 0
                   for j in range(n)] for i in range(n)])
    M = L @ U
    assert np.array_equal(M @ integer_inverse(M), np.eye(n, dtype=np.int64))
    assert all(s in (1, -1) for s in leading_minor_signs(M))


@PROPS
@given(int_matrices())
def test_prop_kernel_basis(M):
    K = kernel_basis(M)
    rank = rank_fraction(M)
    assert K.shape == (len(M[0]), len(M[0]) - rank)
    assert not (np.array(M, dtype=object) @ K.astype(object)).any()
    if K.shape[1]:
        assert rank_fraction(K.T.tolist()) == K.shape[1]


@PROPS
@given(int_matrices(), st.data())
def test_prop_solve_exact(M, data):
    A = np.array(M, dtype=object)
    rows, cols = A.shape
    y = [[data.draw(st.integers(-5, 5))] for _ in range(cols)]
    b = [[data.draw(st.integers(-5, 5))] for _ in range(rows)]
    B = np.concatenate([A @ np.array(y, dtype=object), np.array(b, dtype=object)], axis=1)
    consistent = rank_fraction(np.concatenate([A, B], axis=1).tolist()) == cols
    if rank_fraction(M) < cols or not consistent:
        with pytest.raises(ArithmeticError):
            solve_exact(A, B)
        return
    X = np.array(solve_exact(A, B), dtype=object)
    assert np.array_equal(A @ X, B)
    assert X[:, 0].tolist() == [row[0] for row in y]


# -- property tests of the multi-modular characteristic polynomial ------------

FIRST_PRIME = 2 ** 31 - 1  # the largest prime below 2^31, the first one used


@st.composite
def charpoly_matrices(draw, max_n=12):
    """Square integer matrices: plain non-symmetric; sparse; block upper
    triangular, whose Hessenberg reduction meets columns with no pivot;
    entries about +-2^40 as object big-ints, which need many primes, or
    beyond int64; and multiples of the first prime, which reduce to zero
    modulo it."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["plain", "sparse", "block", "big", "huge", "first-prime"]))
    entry = {"plain": st.integers(-4, 4), "sparse": st.sampled_from([0, 0, 0, 1, -2]),
             "block": st.integers(-3, 3), "big": st.integers(-2 ** 40, 2 ** 40),
             "huge": st.integers(-2 ** 70, 2 ** 70),
             "first-prime": st.integers(-3, 3).map(lambda v: v * FIRST_PRIME)}[kind]
    M = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "block":
        cuts = sorted(draw(st.lists(st.integers(1, n), max_size=3)))
        blk = [sum(i >= c for c in cuts) for i in range(n)]
        M = [[v if blk[i] <= blk[j] else 0 for j, v in enumerate(row)]
             for i, row in enumerate(M)]
    return np.array(M, dtype=object) if kind in ("big", "huge", "first-prime") else M


@PROPS
@given(charpoly_matrices())
def test_prop_charpoly_matches_berkowitz(M):
    assert charpoly(M) == berkowitz_charpoly(M)


@PROPS
@given(charpoly_matrices(max_n=6))
def test_prop_charpoly_matches_oracle(M):
    assert charpoly(M) == charpoly_oracle(M)


def test_charpoly_pinned_beyond_2_128():
    # four primes below 2^31 multiply to less than 2^124, so coefficients
    # beyond 2^128 are only right if the CRT across five or more is
    gen = SplitMix64(17)
    M = np.array([[gen.below(2 ** 41) - 2 ** 40 for _ in range(10)] for _ in range(10)],
                 dtype=object)
    cp = charpoly(M)
    assert cp == berkowitz_charpoly(M)
    assert max(abs(c) for c in cp) > 2 ** 128


def test_charpoly_many_primes_in_batches():
    # M = E T E^-1 for elementary E, so det(xI - M) = prod (x - T_ii); the
    # 2^30-sized diagonal needs more primes than one batch of residues holds
    from simplexion.exact import _hadamard_bound, _primes_over

    n, gen = 128, SplitMix64(23)
    diag = [gen.below(2 ** 31) - 2 ** 30 for _ in range(n)]
    M = np.zeros((n, n), dtype=object)
    M[range(n), range(n)] = diag
    for _ in range(4 * n):
        a, b = gen.below(n), gen.below(n)
        if a != b:
            M[a] += M[b]
            M[:, b] -= M[:, a]
    assert len(_primes_over(2 * _hadamard_bound(M))[0]) * n * n > 2 ** 21
    expected = [1]
    for d in diag:
        expected = [x - d * y for x, y in zip(expected + [0], [0] + expected)]
    assert charpoly(M) == expected
