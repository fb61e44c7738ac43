import numpy as np
import pytest

from simplexion.errors import InvariantViolation
from simplexion.exact import (
    _hadamard_bound,
    _primes_over,
    cauchy_binet_coeffs,
    charpoly,
    ldl,
    ldl_inverse,
)
from simplexion.rng import SplitMix64

from oracles import (
    berkowitz_charpoly,
    charpoly_oracle,
    descartes_positive_roots,
    det_cofactor,
    det_exact,
    echelon,
    entries,
    factor,
    fraction_inverse,
    fraction_ldl,
    inertia_exact,
    inertia_from_charpoly,
    minor_sum_coeffs,
    rank_fraction,
)


def random_matrix(gen, rows, cols, lo=-3, hi=3):
    return [[gen.below(hi - lo + 1) + lo for _ in range(cols)] for _ in range(rows)]


def reduced(M) -> tuple:
    """(rank, lows, kernel) of the integer matrix M by the column reduction
    R = M V of `cohomology._reduce`, M the one coboundary of a cochain
    complex in two degrees: the lows of the nonzero columns of R, ascending,
    and {column: V column} for the columns that reduce to zero."""
    from simplexion.cohomology import ChainComplexData, _reduce

    rows, cols = np.shape(M)
    (_, kernel), (lows, _) = _reduce(ChainComplexData((range(cols), range(rows)), (entries(M),)))
    return len(lows), sorted(lows), kernel


def test_bareiss_identity_and_known():
    assert factor(np.eye(4, dtype=np.int64))[1] == 1
    assert factor([[1, 2], [3, 4]])[1] == -2
    assert factor([[0, 1], [1, 0]])[1] == -1
    assert factor([[0, 0], [0, 1]])[1] == 0
    assert factor(np.zeros((0, 0), dtype=np.int64)) == ([], 1)
    with pytest.raises(ValueError):
        factor([[1, 2, 3], [4, 5, 6]])


def test_bareiss_matches_cofactor():
    gen = SplitMix64(11)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            M = random_matrix(gen, n, n)
            assert factor(M)[1] == det_cofactor(M)


def test_bareiss_big_int_promotion():
    # Hilbert-like matrix scaled to integers has huge intermediate values
    n = 8
    M = [[720720 // (i + j + 1) for j in range(n)] for i in range(n)]
    assert factor(M)[1] == det_cofactor(M)


def test_rank_matches_fraction_oracle():
    gen = SplitMix64(12)
    for _ in range(60):
        r = gen.below(5) + 1
        c = gen.below(5) + 1
        M = random_matrix(gen, r, c)
        assert reduced(M)[0] == rank_fraction(M)
    # rank-deficient by construction
    for _ in range(20):
        A = np.array(random_matrix(gen, 4, 2))
        B = np.array(random_matrix(gen, 2, 4))
        M = (A @ B).tolist()
        assert reduced(M)[0] == rank_fraction(M) <= 2


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
    # inertia_exact (Jacobi's rule, or charpoly on a zero leading minor)
    # against charpoly and Descartes on every sample
    gen = SplitMix64(14)
    zero_minor = 0
    for _ in range(60):
        n = gen.below(6) + 2
        A = np.array(random_matrix(gen, n, n))
        S = A + A.T
        assert inertia_exact(S) == inertia_from_charpoly(charpoly(S))
        zero_minor += factor(S)[0] is None
    assert 0 < zero_minor < 60


def columns(A) -> list:
    """The lower entries of the square matrix A as `exact.ldl` reads them."""
    A = np.asarray(A)
    return [{i: int(A[i, j]) for i in range(j, len(A)) if A[i, j]} for j in range(len(A))]


def dense_factor(M, n) -> np.ndarray:
    """The unit lower triangular M of `exact.ldl`, dense, as Python ints."""
    F = np.eye(n, dtype=object)
    for j, col in enumerate(M):
        for i, v in col.items():
            F[i, j] = v
    return F


def test_integer_inverse_unimodular():
    M = np.array([[1, 2], [2, 3]], dtype=np.int64)  # det -1, unit leading minors
    F, D = ldl(columns(M))
    assert (F, D) == ([{1: 2}, {}], [1, -1])
    inv = ldl_inverse(F, D)
    assert np.array_equal(M @ inv, np.eye(2, dtype=np.int64))
    assert inv.tolist() == fraction_inverse(M.tolist())


def test_integer_inverse_general_pivot():
    # det 1 and an integral inverse, but the leading pivot is -2: the kernel
    # refuses it, naming the pivot, and only the Fraction oracle inverts
    M = [[-2, 1], [1, -1]]
    with pytest.raises(InvariantViolation, match="pivot 0 is -2") as exc:
        ldl(columns(M))
    assert exc.value.witness == {"pivot": 0, "value": -2}
    assert fraction_inverse(M) == [[-1, -1], [-1, -2]]


def test_fraction_inverse():
    from fractions import Fraction

    inv = fraction_inverse([[2, 0], [0, 4]])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    with pytest.raises(ZeroDivisionError):
        fraction_inverse([[1, 1], [1, 1]])


def test_factor_minor_signs():
    assert factor([[1, 0], [0, -1]])[0] == [1, -1]
    # the leading minor of order 1 is zero: no signs, but the det
    M = [[0, 1], [1, 0]]
    assert det_cofactor([[0]]) == 0
    assert factor(M) == (None, -1)


def test_cauchy_binet_identity():
    eye = np.eye(2, dtype=np.int64)
    assert cauchy_binet_coeffs(eye, eye) == [1, 2, 1]


def test_cauchy_binet_random():
    gen = SplitMix64(15)
    for _ in range(30):
        F = random_matrix(gen, 3, 2)
        G = random_matrix(gen, 3, 2)
        pk = cauchy_binet_coeffs(F, G)
        assert pk == minor_sum_coeffs(F, G)


def test_cauchy_binet_gram_nonnegative():
    gen = SplitMix64(16)
    for _ in range(20):
        F = random_matrix(gen, 4, 3)
        pk = cauchy_binet_coeffs(F, F)
        assert pk == minor_sum_coeffs(F, F)
        assert all(c >= 0 for c in pk)


def test_cauchy_binet_shape_mismatch():
    with pytest.raises(ValueError):
        cauchy_binet_coeffs(np.eye(2), np.eye(3))


def test_det_exact_dispatch():
    from fractions import Fraction

    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[Fraction(1, 2), 1], [1, Fraction(1, 2)]]) == Fraction(-3, 4)
    assert det_exact(np.eye(3, dtype=np.int64)) == 1
    assert det_exact([[Fraction(1, 3)]]) == Fraction(1, 3)


# -- property tests of the elimination kernel against the oracles -------------

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
    assert factor(M)[1] == det_exact(M) == det_cofactor(M)


@PROPS
@given(int_matrices())
def test_prop_rank_matches_fraction(M):
    assert reduced(M)[0] == rank_fraction(M)


@PROPS
@given(int_matrices(square=True), st.sampled_from([np.int64, object]))
def test_prop_leading_minor_signs(M, dtype):
    # factor on int64 and object input against the cofactor oracle: the
    # leading-minor signs, None on a zero minor, and the det
    minors = [det_cofactor([row[:k] for row in M[:k]]) for k in range(1, len(M) + 1)]
    signs = None if 0 in minors else [_sign(m) for m in minors]
    assert factor(np.array(M, dtype=dtype)) == (signs, minors[-1])


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices that are not connection matrices: P K P^T
    for P unit lower triangular and K diagonal +-1 but for one 2 x 2 block,
    whose leading minors are K's: all +-1, or one zero or non-unit at the
    block; and plain random symmetric matrices."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        A = np.array([[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)])
        return (np.tril(A) + np.tril(A, -1).T).tolist()
    K = np.diag([draw(st.sampled_from([-1, 1])) for _ in range(n)]).astype(object)
    if n >= 2:
        at = draw(st.integers(0, n - 2))
        a, b = draw(st.sampled_from([0, 1, -1, 2, -3])), draw(st.integers(-2, 2))
        c = draw(st.sampled_from([(1 + b * b) // a if a and (1 + b * b) % a == 0 else 0,
                                  b * b - 1, 0, 1, 2]))
        K[at:at + 2, at:at + 2] = [[a, b], [b, c]]
    P = np.array([[1 if i == j else draw(st.integers(-2, 2)) if j < i else 0
                   for j in range(n)] for i in range(n)], dtype=object)
    return (P @ K @ P.T).tolist()


def _assert_ldl_matches(M):
    """ldl(M) against the cofactor and Fraction oracles and `factor`: the
    factor and its inverse when every leading minor is +-1, else a refusal
    at the first one that is not, naming the pivot, the minor ratio."""
    n = len(M)
    minors = [1] + [det_cofactor([row[:k] for row in M[:k]]) for k in range(1, n + 1)]
    bad = next((k for k in range(n) if minors[k + 1] not in (1, -1)), None)
    if bad is not None:
        with pytest.raises(InvariantViolation) as exc:
            ldl(columns(M))
        assert exc.value.witness == {"pivot": bad, "value": minors[bad + 1] * minors[bad]}
        return minors[bad + 1]
    F, D = ldl(columns(M))
    want_M, want_D = fraction_ldl(M)
    assert D == want_D == [minors[k + 1] * minors[k] for k in range(n)]
    assert dense_factor(F, n).tolist() == want_M
    assert factor(M) == ([_sign(m) for m in minors[1:]], int(np.prod(D)))
    assert ldl_inverse(F, D).tolist() == fraction_inverse(M)
    return None


@PROPS
@given(symmetric_matrices())
def test_prop_unimodular_factor(M):
    _assert_ldl_matches(M)


def test_ldl_refuses_zero_and_non_unit_minors():
    # the strategy draws both kinds of refusal, and the all-unit case
    from hypothesis import find

    for minor in (0, 2, -3):
        find(symmetric_matrices(), lambda M, m=minor: _assert_ldl_matches(M) == m)
    find(symmetric_matrices(), lambda M: len(M) > 3 and _assert_ldl_matches(M) is None)


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
    assert factor(M)[1] == det


@PROPS
@given(st.integers(1, 6), st.data())
def test_prop_unit_minor_inverse(n, data):
    # P diag(s) P^T for P unit lower triangular and s = +-1: every leading
    # minor is a unit, and the factorization, being unique, returns P and s
    s = [data.draw(st.sampled_from([-1, 1])) for _ in range(n)]
    small = st.integers(-2, 2)
    P = np.array([[1 if i == j else data.draw(small) if j < i else 0
                   for j in range(n)] for i in range(n)], dtype=object)
    M = P @ np.diag(s) @ P.T
    F, D = ldl(columns(M))
    assert D == s and dense_factor(F, n).tolist() == P.tolist()
    assert np.array_equal(M @ ldl_inverse(F, D), np.eye(n, dtype=np.int64))
    assert all(x in (1, -1) for x in factor(M)[0])


@PROPS
@given(int_matrices())
def test_prop_kernel_basis(M):
    # the V columns of the zero columns of R = M V: a basis of ker M, each
    # with lowest entry 1 at its own column
    _, _, kernel = reduced(M)
    cols = len(M[0])
    K = np.array([[z.get(i, 0) for z in kernel.values()] for i in range(cols)],
                 dtype=object).reshape(cols, len(kernel))
    assert K.shape[1] == cols - rank_fraction(M)
    assert not (np.array(M, dtype=object) @ K).any()
    if K.shape[1]:
        assert rank_fraction(K.T.tolist()) == K.shape[1]
    assert all(max(z) == j and z[j] == 1 for j, z in kernel.items())


# -- property tests of the multi-modular characteristic polynomial ------------


def first_prime(n: int) -> int:
    """The first (largest) prime `charpoly` uses for a matrix of order n."""
    return _primes_over(1, n)[0][0]


@st.composite
def charpoly_matrices(draw, max_n=12):
    """Square integer matrices: plain non-symmetric; sparse; block upper
    triangular, whose Hessenberg reduction meets columns with no pivot;
    entries about +-2^40 as object big-ints, which need many primes, or
    beyond int64; multiples of the first prime used at their order, which
    reduce to zero modulo it; rank-one, s I + u v^T as the dual product's
    -Lbar g is, whose reduction skips almost every column; and late pivot,
    Hessenberg left of a column j whose subdiagonal entry is zero and some
    entry below it is not, so a swap from a lower row follows idle columns."""
    kind = draw(st.sampled_from(["plain", "sparse", "block", "big", "huge", "first-prime",
                                 "rank-one", "late-pivot"]))
    n = draw(st.integers(3 if kind == "late-pivot" else 1, max_n))
    if kind == "rank-one":
        s = draw(st.integers(-3, 3))
        u, v = ([draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(2))
        return [[s * (i == j) + u[i] * v[j] for j in range(n)] for i in range(n)]
    entry = {"plain": st.integers(-4, 4), "sparse": st.sampled_from([0, 0, 0, 1, -2]),
             "block": st.integers(-3, 3), "big": st.integers(-2 ** 40, 2 ** 40),
             "huge": st.integers(-2 ** 70, 2 ** 70), "late-pivot": st.integers(-3, 3),
             "first-prime": st.integers(-3, 3).map(lambda v: v * first_prime(n))}[kind]
    M = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "block":
        cuts = sorted(draw(st.lists(st.integers(1, n), max_size=3)))
        blk = [sum(i >= c for c in cuts) for i in range(n)]
        M = [[v if blk[i] <= blk[j] else 0 for j, v in enumerate(row)]
             for i, row in enumerate(M)]
    if kind == "late-pivot":
        j = draw(st.integers(0, n - 3))
        M = [[0 if (c < j and i > c + 1) or (c == j and i == j + 1) else v
              for c, v in enumerate(row)] for i, row in enumerate(M)]
        M[draw(st.integers(j + 2, n - 1))][j] = draw(st.sampled_from([-2, -1, 1, 2]))
    return np.array(M, dtype=object) if kind in ("big", "huge", "first-prime") else M


@PROPS
@given(charpoly_matrices())
def test_prop_charpoly_matches_berkowitz(M):
    assert charpoly(M) == berkowitz_charpoly(M)


@PROPS
@given(charpoly_matrices(max_n=6))
def test_prop_charpoly_matches_oracle(M):
    assert charpoly(M) == charpoly_oracle(M)


def test_charpoly_primes_keep_int64_sums():
    # a Hessenberg column or recursion step adds n products of residues, each
    # at most (p - 1)^2, to a residue below p; the first prime is the largest
    for n in range(1, 4097):
        p = first_prime(n)
        assert n * (p - 1) ** 2 + p < 2 ** 63
    assert first_prime(1) < 2 ** 31 and first_prime(63) > 2 ** 27 > first_prime(64)


def test_charpoly_pinned_beyond_2_128():
    # at order 10 the primes lie below 2^29, and four of them multiply to
    # less than 2^116, so coefficients beyond 2^128 are only right if the CRT
    # across five or more is
    gen = SplitMix64(17)
    M = np.array([[gen.below(2 ** 41) - 2 ** 40 for _ in range(10)] for _ in range(10)],
                 dtype=object)
    cp = charpoly(M)
    assert cp == berkowitz_charpoly(M)
    assert max(abs(c) for c in cp) > 2 ** 128
    assert first_prime(10) < 2 ** 29


def similar_to_diagonal(n: int, seed: int) -> tuple:
    """(M, its characteristic polynomial) for M = E T E^-1, E elementary and
    T diagonal with entries about +-2^30, so det(xI - M) = prod (x - T_ii)."""
    gen = SplitMix64(seed)
    diag = [gen.below(2 ** 31) - 2 ** 30 for _ in range(n)]
    M = np.zeros((n, n), dtype=object)
    M[range(n), range(n)] = diag
    for _ in range(4 * n):
        a, b = gen.below(n), gen.below(n)
        if a != b:
            M[a] += M[b]
            M[:, b] -= M[:, a]
    expected = [1]
    for d in diag:
        expected = [x - d * y for x, y in zip(expected + [0], [0] + expected)]
    return M, expected


@pytest.mark.parametrize("n", [63, 64, 127])
def test_charpoly_pinned_where_the_order_gains_a_bit(n):
    # the primes drop from below 2^28 to below 2^27 between orders 63 and
    # 64; 127 and 128 (the next test) straddle the next power of two
    M, expected = similar_to_diagonal(n, 23)
    assert charpoly(M) == expected


def test_charpoly_many_primes_in_batches():
    # the 2^30-sized diagonal needs more primes than one batch of residues holds
    n = 128
    M, expected = similar_to_diagonal(n, 23)
    assert len(_primes_over(2 * _hadamard_bound(M), n)[0]) * n * n > 2 ** 21
    assert charpoly(M) == expected


# -- the exact product, and the LDL^T kernel on larger matrices -----------------

from simplexion.exact import matmul  # noqa: E402

TIER_EDGES = (2 ** 53, 2 ** 63)  # float64 below the first, int64 below the second


@st.composite
def product_operands(draw):
    """(A, B) as object arrays with bound = max row sum of |A| * max |B| just
    below, at or just above 2^53 or 2^63.  Same-signed rows and columns of
    B at its maximum make the partial sums reach the bound, and odd entries
    keep them from being multiples of a power of two."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    A = np.array([[draw(st.integers(0, 2 ** 10)) for _ in range(k)] for _ in range(r)],
                 dtype=object)
    A[0, 0] = draw(st.integers(1, 2 ** 10)) | 1
    if draw(st.booleans()):
        A = -A
    b = -(-draw(st.sampled_from(TIER_EDGES)) // max(abs(A).sum(axis=1))) + draw(st.integers(-2, 1))
    B = np.array([[b - draw(st.sampled_from([0, 0, 1, 2])) for _ in range(c)] for _ in range(k)],
                 dtype=object)
    B[0, 0] = b
    if draw(st.booleans()):
        B[:, -1] *= -1
    return A, B


@PROPS
@given(product_operands())
def test_prop_matmul_matches_object_product(AB):
    A, B = AB
    bound = max(abs(A).sum(axis=1)) * max(abs(B).ravel())
    P = matmul(A, B)
    assert P.tolist() == (A @ B).tolist()
    assert (P.dtype == object) == (bound >= 2 ** 63)
    if bound < 2 ** 63:  # int64 operands go through the same tiers
        assert matmul(A.astype(np.int64), B.astype(np.int64)).tolist() == P.tolist()


def test_matmul_tiers_at_the_edges():
    # one unit either side of each edge, as one entry and as the sum of two
    # halves: 2^53 + 1 is not a float64 and 2^63 + 1 not an int64, so a
    # product in the wrong tier would round or wrap
    one, ones = np.array([[1]], dtype=object), np.array([[1, 1]], dtype=object)
    for edge in TIER_EDGES:
        for b in (edge - 1, edge + 1):
            assert matmul(one, np.array([[b]], dtype=object)).tolist() == [[b]]
            halves = np.array([[b // 2], [b - b // 2]], dtype=object)
            assert matmul(ones, halves).tolist() == [[b]]
    with pytest.raises(ValueError):
        matmul(np.eye(2), np.eye(3))
    assert matmul(np.zeros((2, 0)), np.zeros((0, 3))).tolist() == [[0] * 3] * 2
    huge = np.array([[2 ** 2000]], dtype=object)
    assert matmul(huge, np.zeros((1, 1), dtype=np.int64)).tolist() == [[0]]


@st.composite
def random_complexes(draw):
    """Criterion 3's random Whitney complexes E(n, p), n in 4..7 and p in
    {0.2, 0.5, 0.8}, at a drawn seed."""
    import simplexion as sx

    model = sx.RandomModel(n=draw(st.integers(4, 7)), p=draw(st.sampled_from([0.2, 0.5, 0.8])),
                           seed=draw(st.integers(0, 10 ** 6)))
    return sx.erdos_renyi(model)


@settings(PROPS, max_examples=40)
@given(random_complexes())
def test_prop_ldl_on_connection_matrices(G):
    # D, det, inertia and g of the memoed factor of L against `factor` (on
    # every leading block) and the Fraction oracles
    from simplexion import connection as conn
    from simplexion.exact import jacobi_inertia

    L = conn.connection_matrix(G)
    n = len(L)
    _, F, D = conn._factor(G)
    dets = [1] + [factor(L[:k, :k])[1] for k in range(1, n + 1)]
    assert D == [dets[k + 1] * dets[k] for k in range(n)]
    assert conn.connection_det(G) == dets[-1] == factor(L)[1] in (1, -1)
    assert conn.inertia_of_connection(G) == jacobi_inertia(factor(L)[0])
    if n <= 40:
        want_M, want_D = fraction_ldl(L.tolist())
        assert D == want_D and dense_factor(F, n).tolist() == want_M
        assert conn.green_inverse(G).tolist() == fraction_inverse(L.tolist())
    else:
        assert np.array_equal(matmul(L, conn.green_inverse(G)), np.eye(n, dtype=np.int64))


def _with_block(n, at, block, seed=5):
    """P K P^T for a sparse unit lower triangular P and K the identity with
    the symmetric 2 x 2 block at rows and columns at, at + 1: the leading
    minors of P K P^T are those of K."""
    K = np.eye(n, dtype=object)
    K[at:at + 2, at:at + 2] = block
    rng = np.random.default_rng(seed)
    P = (np.tril(np.where(rng.random((n, n)) < 2 / n, 1, 0), -1) + np.eye(n, dtype=int)).astype(object)
    return (P @ K @ P.T).astype(np.int64)


@pytest.mark.parametrize("block, value", [([[0, 1], [1, 0]], 0), ([[2, 1], [1, 1]], 2)],
                         ids=["zero", "non-unit"])
@pytest.mark.parametrize("at", [10, 70, 120])
def test_ldl_refuses_the_first_non_unit_minor(at, block, value):
    # one zero or non-unit pivot, at row at, early, midway or late in a
    # matrix of 130 rows: ldl names it; factor agrees on the minors before it
    n = 130
    M = _with_block(n, at, block)
    with pytest.raises(InvariantViolation, match=f"pivot {at} is {value},") as exc:
        ldl(columns(M))
    assert exc.value.witness == {"pivot": at, "value": value}
    assert factor(M)[1] == (-1 if value == 0 else 1)
    assert factor(M[:at, :at]) == ([1] * at, 1)
    assert factor(M[:at + 1, :at + 1])[1] == value


# -- ranks by the column reduction of cohomology ---------------------------------


@st.composite
def rank_inputs(draw):
    """Matrices to rank: coboundaries d_k of random Whitney complexes,
    derivatives of their interaction cohomology, random sparse or dense +-1
    matrices, and sparse matrices with big-integer object entries."""
    import simplexion as sx
    from simplexion.cohomology import exterior_derivative, interaction_derivative

    kind = draw(st.sampled_from(["boundary", "interaction", "sparse", "dense", "big"]))
    if kind in ("boundary", "interaction"):
        n = draw(st.integers(3, 7) if kind == "boundary" else st.integers(3, 5))
        p = draw(st.sampled_from([0.3, 0.6, 0.9]))
        G = sx.erdos_renyi(sx.RandomModel(n=n, p=p, seed=draw(st.integers(0, 10 ** 6))))
        data = exterior_derivative(G) if kind == "boundary" else interaction_derivative(G)
        if not data.d:
            return np.zeros((1, len(G)), dtype=np.int64)
        return data.dense(draw(st.sampled_from(range(len(data.d)))))
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    if kind == "dense":
        rows, cols = min(rows, 10), min(cols, 10)
        return np.array([[draw(st.sampled_from([-1, 1])) for _ in range(cols)]
                         for _ in range(rows)], dtype=np.int64)
    density = draw(st.sampled_from([0.05, 0.15, 0.3]))
    entry = st.sampled_from([-1, 1]) if kind == "sparse" else st.sampled_from(
        [-1, 1, 3 ** 45, -(2 ** 80) + 1, 2 ** 63])
    M = np.zeros((rows, cols), dtype=np.int64 if kind == "sparse" else object)
    for i in range(rows):
        for j in range(cols):
            if draw(st.floats(0, 1)) < density:
                M[i, j] = draw(entry)
    return M


@settings(PROPS, max_examples=80)
@given(rank_inputs())
def test_prop_sparse_rank_matches_oracles(M):
    want = rank_fraction(M.tolist())
    assert len(echelon(M).pivots) == want
    rank, lows, _ = reduced(M)
    assert rank == want
    assert rank_fraction(M[lows].tolist()) == want  # the rows at the lows are independent


@settings(PROPS, max_examples=40)
@given(rank_inputs())
def test_prop_sparse_rank_without_unit_pivots(M):
    # rows scaled by 2, 3 and 5 in turn leave no +-1 entry and make most
    # quotients of the reduction fractions; the rank stays
    scale = np.array([[2], [3], [5]] * len(M), dtype=object)[:len(M)]
    assert reduced(M.astype(object) * scale)[0] == rank_fraction(M.tolist())
