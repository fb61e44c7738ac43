"""Test-only oracles: slow, independent implementations that the library's
fast routines are checked against."""

import contextlib
import itertools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from simplexion.cohomology import (
    hodge_blocks,
    is_automorphism,
    permutation_sign_on,
    simplex_image,
)
from simplexion.core import Complex, _vertex_stars, close, parity, wu_characteristic
from simplexion.errors import InvariantViolation, NumericError
from simplexion.exact import _absmax, charpoly, jacobi_inertia
from simplexion.generators import (
    RandomModel,
    erdos_renyi,
    expected_dimension,
    expected_euler,
    poly_eval,
    product_cells,
    whitney,
)
from simplexion.geometry import GraphContext
from simplexion.rng import SplitMix64


def berkowitz_charpoly(M) -> list:
    """Coefficients [1, c_1, ..., c_n] of det(x*I - M) in descending powers,
    computed division-free over exact integers (Berkowitz).
    """
    A = np.array(M, dtype=object)
    n = A.shape[0]
    if n == 0:
        return [1]
    if A.shape[0] != A.shape[1]:
        raise ValueError("characteristic polynomial needs a square matrix")
    # vector of char poly coefficients of the r x r leading block
    v = np.array([1, -A[0, 0]], dtype=object)
    for r in range(1, n):
        Ar = A[:r, :r]
        R = A[r, :r]
        S = A[:r, r]
        # column of the (r+2) x (r+1) Toeplitz factor
        q = [1, -A[r, r]]
        s = S
        for _ in range(r):
            q.append(-(R @ s))
            s = Ar @ s
        # truncated convolution: v_new = T q v with T the lower-banded Toeplitz
        new = np.zeros(r + 2, dtype=object)
        for i, qi in enumerate(q):
            if qi == 0 or i >= r + 2:
                continue
            end = min(i + len(v), r + 2)
            new[i:end] += qi * v[: end - i]
        v = new
    return [int(c) for c in v]


def charpoly_oracle(M) -> list:
    """Characteristic polynomial by cofactor expansion over Z[x]; only for
    small matrices, used to validate berkowitz_charpoly and exact.charpoly."""
    n = len(M)

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def padd(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] += y
        return out

    # entries of xI - M as coefficient lists (ascending powers)
    E = [[([int(-M[i][j])] if i != j else [int(-M[i][j]), 1]) for j in range(n)]
         for i in range(n)]

    def rec(rows, cols):
        if len(cols) == 1:
            return E[rows[0]][cols[0]]
        total = [0]
        r = rows[0]
        for i, c in enumerate(cols):
            term = pmul(E[r][c], rec(rows[1:], cols[:i] + cols[i + 1:]))
            if i % 2:
                term = [-t for t in term]
            total = padd(total, term)
        return total

    p = rec(tuple(range(n)), tuple(range(n))) if n else [1]
    return list(reversed([int(c) for c in p]))  # descending powers


def det_cofactor(M) -> int:
    """Naive cofactor-expansion determinant; the small-matrix oracle."""
    A = [list(map(int, row)) for row in M]
    n = len(A)

    def rec(rows, cols):
        if len(cols) == 1:
            return A[rows[0]][cols[0]]
        total = 0
        r = rows[0]
        rest = rows[1:]
        for i, c in enumerate(cols):
            if A[r][c] == 0:
                continue
            sub = cols[:i] + cols[i + 1:]
            total += (-1) ** i * A[r][c] * rec(rest, sub)
        return total

    if n == 0:
        return 1
    return rec(tuple(range(n)), tuple(range(n)))


def descartes_positive_roots(coeffs_desc) -> int:
    """Number of strictly positive roots of a real-rooted polynomial, by the
    sign-change count of its coefficients (exact for real-rooted input)."""
    signs = [1 if c > 0 else -1 for c in coeffs_desc if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def inertia_from_charpoly(coeffs_desc) -> tuple:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix
    from its characteristic polynomial det(xI - M)."""
    n = len(coeffs_desc) - 1
    # strip zero roots: trailing zero coefficients
    z = 0
    trimmed = list(coeffs_desc)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
        z += 1
    p = descartes_positive_roots(trimmed)
    # negative roots: substitute x -> -x, i.e. flip signs of odd-degree coeffs
    deg = len(trimmed) - 1
    flipped = [c if (deg - i) % 2 == 0 else -c for i, c in enumerate(trimmed)]
    m = descartes_positive_roots(flipped)
    if p + m + z != n:
        raise InvariantViolation(
            "sign counts inconsistent (input not real-rooted?)",
            witness={"p": p, "n": m, "z": z, "order": n},
        )
    return p, m, z


# -- the dense fraction-free (Bareiss) elimination ------------------------------
#
# `echelon` is a row echelon form for determinants and leading-minor signs,
# read by `factor`.  It runs on int64 while a bound checked before each step
# proves every product exact, and promotes the matrix to Python big-int
# object arrays otherwise.  It shares nothing with the library's sparse
# `exact.ldl`, so it is the independent oracle for the inertia, the
# determinants and the LDL^T factor.


def _promote(a: np.ndarray) -> np.ndarray:
    return a.astype(object)


def _fits_int64(bound: int, nrows: int) -> bool:
    """Whether a Bareiss step on entries of absolute value at most bound is
    exact in int64.  The step forms a*p - b*q with every factor at most
    bound, so 2*bound^2 < 2^63 would do; asking bound^2 * max(nrows, 4) <
    2^62 means bound < 2^30 up to four rows and a wider margin beyond."""
    return bound * bound * max(nrows, 4) < 1 << 62


class Echelon(NamedTuple):
    matrix: np.ndarray  # the eliminated matrix: int64, or object once promoted
    pivots: list        # pivots[k]: pivot column of row k
    rows: list          # rows[i]: index in the input of the row now at i
    # signs[k]: sign of det(A[rows[:k+1]][:, pivots[:k+1]]) times the parity
    # of the row exchanges made by step k: the sign of the leading minor
    # when no row was exchanged, the sign of det A at the last pivot of a
    # nonsingular square A
    signs: list


def echelon(A) -> Echelon:
    """Fraction-free row echelon form of the integer matrix A.

    Pivots are the first nonzero entry at or below the current row.  Each
    step is the Bareiss update (a*p - b*q) / previous pivot, so every entry
    stays a minor of A.  When the pivot is -1 or 1 and the previous pivot is
    1, the row is negated to make the pivot 1 and the update is the in-place
    a - b*q; signs records what the negation hides.
    """
    E = np.array(A)
    if E.dtype != object:
        E = E.astype(np.int64, copy=False)
    nrows, ncols = np.shape(E)
    rows = list(range(nrows))
    pivots, signs = [], []
    sign, prev, r = 1, 1, 0
    # bound >= every |entry| the remaining steps read
    bound = _absmax(E) if E.dtype != object else 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(E[r:, c])
        if len(nz) == 0:
            continue
        if nz[0]:
            i = r + int(nz[0])
            E[[r, i]] = E[[i, r]]
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        p = int(E[r, c])
        signs.append(sign if p > 0 else -sign)
        if E.dtype != object:
            if not _fits_int64(bound, nrows):
                bound = _absmax(E[r:, c:])
            if not _fits_int64(bound, nrows):
                E = _promote(E)
            else:
                top = _absmax(E[r:, c]) * _absmax(E[r, c:])
                bound = max(bound, (bound * abs(p) + top) // abs(prev))
        below = slice(r + 1, nrows)
        if prev == 1 and p in (1, -1):
            if p == -1:
                E[r] = -E[r]
                sign = -sign
            E[below, c:] -= np.outer(E[below, c], E[r, c:])
        else:
            E[below, c:] = (E[below, c:] * p - np.outer(E[below, c], E[r, c:])) // prev
        prev = int(E[r, c])
        pivots.append(c)
        r += 1
    return Echelon(E, pivots, rows, signs)


def factor(M) -> tuple:
    """(leading-minor signs, det) of a square integer matrix from one
    `echelon` pass.  signs is None when a leading principal minor is zero (a
    row exchange or a rank deficit); det is a Python int."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("factorization needs a square matrix")
    n, e = len(A), echelon(A)
    if len(e.pivots) < n:
        return None, 0
    det = e.signs[-1] * abs(int(e.matrix[-1, -1])) if n else 1
    return (e.signs if e.rows == list(range(n)) else None), det


def inertia_exact(M) -> tuple:
    """Exact (positive, negative, zero) signature of a symmetric matrix:
    Jacobi's rule on its leading principal minors (Sylvester's law of
    inertia), or, when one of them is zero and the rule does not apply, the
    characteristic polynomial with Descartes' rule."""
    A = np.array(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError("inertia needs a square matrix")
    if not (A == A.T).all():
        raise ValueError("inertia_exact needs a symmetric matrix")
    signs = factor(A)[0]
    if signs is None:
        return inertia_from_charpoly(charpoly(A))
    return jacobi_inertia(signs)


def _clear_denominators(rows) -> tuple:
    """(integer object matrix, multipliers): row i scaled by the lcm m_i of
    its entries' denominators."""
    fr = [[Fraction(v) for v in row] for row in rows]
    m = [math.lcm(*(v.denominator for v in row)) for row in fr]
    return np.array([[int(v * k) for v in row] for row, k in zip(fr, m)], dtype=object), m


def det_exact(M):
    """Exact determinant: `factor` over the integers; a Fraction (the
    determinant of the rows with cleared denominators, divided back) when
    any entry is a non-integral Fraction."""
    A, m = _clear_denominators(M.tolist() if isinstance(M, np.ndarray) else M)
    det = factor(A)[1]
    scale = math.prod(m)
    return det if scale == 1 else Fraction(det, scale)


def fraction_inverse(rows) -> list:
    """Exact rational inverse, as rows of Fractions: Gauss-Jordan elimination
    of [A | I] over the rationals."""
    n = len(rows)
    E = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if E[r][c]), None)
        if p is None:
            raise ZeroDivisionError("matrix is singular")
        E[c], E[p] = E[p], E[c]
        E[c] = [v / E[c][c] for v in E[c]]
        for r in range(n):
            f = E[r][c]
            if r != c and f:
                E[r] = [a - f * b for a, b in zip(E[r], E[c])]
    return [row[n:] for row in E]


def fraction_ldl(rows) -> tuple:
    """(M, D) with A = M diag(D) M^T, M unit lower triangular as rows of
    Fractions: symmetric Gaussian elimination over the rationals, without
    pivoting, so D[k] is the ratio of the leading minors of orders k + 1
    and k; ZeroDivisionError at the first zero pivot."""
    n = len(rows)
    A = [[Fraction(v) for v in row] for row in rows]
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    D = []
    for k in range(n):
        if not A[k][k]:
            raise ZeroDivisionError(f"pivot {k} is zero")
        D.append(A[k][k])
        for i in range(k + 1, n):
            M[i][k] = A[i][k] / D[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] -= M[i][k] * D[k] * M[j][k]
    return M, D


def minor_sum_coeffs(F, G) -> list:
    """sum over k-minors of det(F_P)det(G_P), for k = 0..m (brute force);
    the oracle for exact.cauchy_binet_coeffs."""
    F = np.array(F, dtype=object)
    G = np.array(G, dtype=object)
    n, m = F.shape
    out = [1]
    for k in range(1, m + 1):
        total = 0
        if k <= n:
            for rows in itertools.combinations(range(n), k):
                for cols in itertools.combinations(range(m), k):
                    fp = F[np.ix_(rows, cols)]
                    gp = G[np.ix_(rows, cols)]
                    total += det_cofactor(fp.tolist()) * det_cofactor(gp.tolist())
        out.append(total)
    return out


def rank_fraction(rows) -> int:
    """Rational-elimination rank; the independent oracle for every exact rank."""
    A = [[Fraction(v) for v in row] for row in rows]
    if not A:
        return 0
    nrows, ncols = len(A), len(A[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if A[r][c] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        f = A[rank][c]
        A[rank] = [v / f for v in A[rank]]
        for r in range(nrows):
            if r != rank and A[r][c] != 0:
                g = A[r][c]
                A[r] = [a - g * b for a, b in zip(A[r], A[rank])]
        rank += 1
    return rank


def entries(M) -> np.ndarray:
    """The nonzero entries of the dense matrix M as rows (row, column,
    value) in row order, as `cohomology.ChainComplexData` holds them: int64,
    or Python integers in an object array where some value does not fit in
    int64."""
    A = np.array(M, dtype=object)
    rows, cols = np.nonzero(A)
    E = np.column_stack([rows, cols, A[rows, cols]])
    with contextlib.suppress(OverflowError):
        E = E.astype(np.int64)
    return E


def chain_complex_dense(G: Complex) -> list:
    """The dense d_k of G, entry by entry over the faces of each simplex;
    the oracle for the entries of cohomology.exterior_derivative."""
    r = G.max_dim()
    bases = [G.simplices_of_dim(k) for k in range(r + 1)]
    index = [{x: i for i, x in enumerate(b)} for b in bases]
    d = []
    for k in range(r):
        mat = np.zeros((len(bases[k + 1]), len(bases[k])), dtype=np.int64)
        for row, y in enumerate(bases[k + 1]):
            for pos in range(len(y)):
                face = y[:pos] + y[pos + 1:]
                mat[row, index[k][face]] = (-1) ** pos
        d.append(mat)
    return d


def interaction_pairs(G: Complex) -> list:
    """Ordered intersecting pairs (x, y), graded by dim x + dim y, then
    lexicographic; both (x, y) and (y, x) appear when x != y.  Two simplices
    intersect exactly when both lie in one vertex star, so the pairs are
    read from the stars."""
    pairs = {(x, y) for star in _vertex_stars(G).values() for x in star for y in star}
    return sorted(pairs, key=lambda p: (len(p[0]) + len(p[1]), p))


def interaction_bases(G: Complex) -> list:
    """interaction_pairs(G) grouped by degree dim x + dim y."""
    pairs = interaction_pairs(G)
    top = max((len(x) + len(y) - 2 for x, y in pairs), default=-1)
    bases = [[] for _ in range(top + 1)]
    for p in pairs:
        bases[len(p[0]) + len(p[1]) - 2].append(p)
    return bases


def interaction_derivative_dense(G: Complex, bases=None) -> list:
    """The dense d_p of the pair derivative df(x,y) = f(dx, y) + (-1)^dim(x)
    f(x, dy), terms whose face no longer meets the partner dropped, entry by
    entry, rows and columns in the order of bases (default
    interaction_bases(G)); the oracle for the entries of
    cohomology.interaction_derivative."""
    bases = interaction_bases(G) if bases is None else bases
    top = len(bases) - 1
    index = [{p: i for i, p in enumerate(b)} for b in bases]
    mats = []
    for k in range(top):
        mat = np.zeros((len(bases[k + 1]), len(bases[k])), dtype=np.int64)
        for row, (x, y) in enumerate(bases[k + 1]):
            sy = set(y)
            for pos in range(len(x)):
                face = x[:pos] + x[pos + 1:]
                if set(face) & sy:
                    mat[row, index[k][(face, y)]] += (-1) ** pos
            sgn = (-1) ** (len(x) - 1)
            sx = set(x)
            for pos in range(len(y)):
                face = y[:pos] + y[pos + 1:]
                if sx & set(face):
                    mat[row, index[k][(x, face)]] += sgn * (-1) ** pos
        mats.append(mat)
    return mats


def betti_fraction(dims, mats) -> tuple:
    """b_k = v_k - rank d_k - rank d_{k-1}, each rank taken by rank_fraction
    on the whole matrix; the oracle for the cleared ranks of cohomology."""
    ranks = [0] + [rank_fraction(np.asarray(m).tolist()) for m in mats] + [0]
    return tuple(v - ranks[k] - ranks[k + 1] for k, v in enumerate(dims))


def induced_cohomology_reference(G: Complex, cocycles: list, maps: list) -> list:
    """What is wrong, as strings, with cocycles and maps as the cohomology of
    G and the matrices of the maps it induces.  cocycles[k] lists the class
    cocycles z_j of degree k as dense vectors over G.simplices_of_dim(k), and
    maps lists (perm, M) with M[k] the matrix of perm on H^k.  In each degree:

    * each z_j is a cocycle, d_k z_j = 0;
    * there are b_k of them, independent modulo im d_{k-1};
    * T# z_j - sum_i M[k][i][j] z_i lies in im d_{k-1}, with T# e_x =
      sign(T|x) e_T(x), for every map.

    Every rank is taken by rank_fraction on the dense d_k of
    chain_complex_dense; the oracle for cohomology.induced_cohomology_matrices."""
    d = chain_complex_dense(G)
    bases = [G.simplices_of_dim(k) for k in range(G.max_dim() + 1)]
    want = betti_fraction([len(b) for b in bases], d)
    problems = []
    for k, base in enumerate(bases):
        Z = np.array([[Fraction(v) for v in z] for z in cocycles[k]], dtype=object)
        Z = Z.reshape(len(cocycles[k]), len(base)).T  # one column per class
        image = d[k - 1].astype(object) if k else np.zeros((len(base), 0), dtype=object)
        rank = rank_fraction(image.T.tolist())
        if k < len(d) and (d[k].astype(object) @ Z).any():
            problems.append(f"degree {k}: a class cocycle is not closed")
        if Z.shape[1] != want[k] or rank_fraction(
                np.concatenate([image, Z], axis=1).T.tolist()) != rank + want[k]:
            problems.append(f"degree {k}: the class cocycles are not a basis of H^k")
        index = {x: i for i, x in enumerate(base)}
        for perm, M in maps:
            pushed = np.zeros_like(Z)
            for i, x in enumerate(base):
                pushed[index[simplex_image(x, perm)]] = permutation_sign_on(x, perm) * Z[i]
            rest = pushed - Z @ np.array(M[k], dtype=object).reshape(Z.shape[1], Z.shape[1])
            if rank_fraction(np.concatenate([image, rest], axis=1).T.tolist()) != rank:
                problems.append(f"degree {k}: the matrix of {perm} is wrong")
    return problems


def betti_numeric(G: Complex, tol: float = 1e-8) -> tuple:
    """Kernel dimensions of the numeric Hodge blocks (eigenvalues below tol);
    the floating cross-check of the exact Betti numbers."""
    out = []
    for H in hodge_blocks(G):
        if len(H) == 0:
            out.append(0)
            continue
        vals = np.linalg.eigvalsh(H.astype(float))
        out.append(int((vals < tol).sum()))
    return tuple(out)


def automorphisms_bruteforce(G: Complex) -> list:
    """Every vertex permutation that is a simplicial automorphism, in
    `itertools.permutations` order; the oracle for cohomology.automorphisms."""
    verts = G.vertices()
    perms = (dict(zip(verts, img)) for img in itertools.permutations(verts))
    return [perm for perm in perms if is_automorphism(G, perm)]


def chains_bruteforce(elems: list, less) -> set:
    """The chains of a finite poset as index tuples: the nonempty sets of
    positions in elems whose elements are pairwise comparable under the
    strict order less(a, b).  Grown one position at a time, in increasing
    index order, so it needs no linear extension."""
    def comparable(i, j):
        return less(elems[i], elems[j]) or less(elems[j], elems[i])

    out = set()
    frontier = [(i,) for i in range(len(elems))]
    while frontier:
        out.update(frontier)
        frontier = [c + (j,) for c in frontier for j in range(c[-1] + 1, len(elems))
                    if all(comparable(i, j) for i in c)]
    return out


def is_whitney_rebuild(G: Complex) -> bool:
    """Whether G is the clique complex of its 1-skeleton, by rebuilding that
    clique complex with `generators.whitney` (Bron-Kerbosch, then closure)
    on the vertices relabelled 0..m-1 and comparing.  The oracle for
    core.is_whitney."""
    index = {v: i for i, v in enumerate(G.vertices())}
    relabelled = Complex((tuple(index[v] for v in x) for x in G.simplices), _closed=True)
    edges = [x for x in relabelled.simplices if len(x) == 2]
    return whitney(len(index), edges) == relabelled


def facets_bruteforce(G: Complex) -> list:
    """Simplices contained in no other simplex, canonical order."""
    return [x for x in G if not any(set(x) < set(y) for y in G.simplices)]


def wu_characteristic_bruteforce(G: Complex, k: int = 2) -> int:
    """Direct ordered-tuple recursion with common-intersection pruning.

    Exponential; exists as the independent oracle for wu_characteristic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    simps = list(G.simplices)

    def rec(common: frozenset, depth: int) -> int:
        if depth == 0:
            return 1
        total = 0
        for y in simps:
            inter = common & frozenset(y)
            if inter:
                total += parity(y) * rec(inter, depth - 1)
        return total

    return sum(parity(x) * rec(frozenset(x), k - 1) for x in simps)


def jacobi_eigenvalues(M, tol: float = 1e-12, max_sweeps: int = 60) -> np.ndarray:
    """Cyclic Jacobi rotations; the self-contained oracle for eig_symmetric
    (quadratic per sweep, small matrices only)."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    if n == 0:
        return np.zeros(0)
    scale = float(np.abs(A).max()) or 1.0
    for _ in range(max_sweeps):
        off = math.sqrt(float((A ** 2).sum() - (np.diag(A) ** 2).sum()))
        if off <= tol * scale * n:
            return np.sort(np.diag(A))
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * math.atan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot_p = c * A[p] - s * A[q]
                rot_q = s * A[p] + c * A[q]
                A[p], A[q] = rot_p, rot_q
                col_p = c * A[:, p] - s * A[:, q]
                col_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = col_p, col_q
    raise NumericError("Jacobi iteration did not converge")


def supertraces_full(blocks, kmax: int) -> list:
    """[str(H^j) for j = 1..kmax] of H = the direct sum of the blocks, block
    k of parity (-1)^k, by the full-matrix power loop over Python integers."""
    n = sum(len(b) for b in blocks)
    H = np.zeros((n, n), dtype=object)
    w = np.zeros(n, dtype=object)
    at = 0
    for k, b in enumerate(blocks):
        H[at:at + len(b), at:at + len(b)] = np.asarray(b, dtype=object)
        w[at:at + len(b)] = (-1) ** k
        at += len(b)
    power = np.eye(n, dtype=object)
    out = []
    for _ in range(kmax):
        power = power @ H
        out.append(int((w * np.diag(power)).sum()))
    return out


def mckean_singer_full(G: Complex, ts=(0.1, 1.0, 10.0), kmax: int = 6) -> dict:
    """McKean-Singer on the whole Hodge operator H = D^2, formed over Python
    integers: the supertraces of H^1..H^kmax by the full power loop, and
    str(exp(-t H)) from the eigenvalues of H's diagonal degree blocks."""
    from simplexion.cohomology import dirac
    from simplexion.refinement import refinement_order

    elems = refinement_order(G)
    w = np.array([parity(x) for x in elems], dtype=object)
    D = dirac(G).astype(object)
    H = D @ D
    power = np.eye(len(w), dtype=object)
    exact_ok = True
    for _ in range(kmax):
        power = power @ H
        exact_ok = exact_ok and int((w * np.diag(power)).sum()) == 0
    chi = G.euler_characteristic()
    dims = [len(x) - 1 for x in elems]
    spectra = []
    for k in range(max(dims, default=-1) + 1):
        at = [i for i, d in enumerate(dims) if d == k]
        spectra.append(np.linalg.eigvalsh(H[np.ix_(at, at)].astype(float)))
    max_err = 0.0
    for t in ts:
        total = 0.0
        for k, vals in enumerate(spectra):
            if len(vals):
                total += (-1) ** k * np.exp(-t * vals).sum()
        max_err = max(max_err, abs(total - chi))
    return {"exact_zero_powers": exact_ok, "numeric_max_err": max_err, "chi": chi}


def _mask_euler(masks, n: int) -> int:
    """chi of the clique complex: signed count of cliques by DFS."""
    total = 0

    def grow(allowed: int, sign: int):
        nonlocal total
        m = allowed
        while m:
            low = m & (-m)
            v = low.bit_length() - 1
            m ^= low
            total += sign
            grow(m & masks[v], -sign)

    grow((1 << n) - 1, 1)
    return total


def _mask_dim_float(masks, n: int) -> float:
    memo = {0: -1.0}

    def rec(subset: int) -> float:
        got = memo.get(subset)
        if got is not None:
            return got
        total = 0.0
        count = 0
        s = subset
        while s:
            low = s & (-s)
            v = low.bit_length() - 1
            s ^= low
            total += rec(masks[v] & subset)
            count += 1
        val = 1.0 + total / count
        memo[subset] = val
        return val

    return rec((1 << n) - 1)


def random_statistics_oracle(n: int, p: float, trials: int, seed: int,
                             wu_sample: int = 2000) -> dict:
    """`cli.random_statistics` one trial at a time: a scalar SplitMix64 draw
    per pair, a DFS clique count, a memoized dimension recursion and the Wu
    characteristic of the complex `erdos_renyi` builds."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chi_sum = chi_sq = 0.0
    dim_sum = dim_sq = 0.0
    wu_vals = []
    model = RandomModel(n=n, p=p, seed=seed)
    for trial in range(trials):
        gen = SplitMix64.substream(seed, trial)
        masks = [0] * n
        for a, b in pairs:
            if gen.uniform() < p:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
        chi = _mask_euler(masks, n)
        dimv = _mask_dim_float(masks, n)
        chi_sum += chi
        chi_sq += chi * chi
        dim_sum += dimv
        dim_sq += dimv * dimv
        if trial < wu_sample:
            wu_vals.append(wu_characteristic(erdos_renyi(model, trial), 2))
    out = {"n": n, "p": p, "trials": trials, "seed": seed}
    pf = Fraction(p).limit_denominator(10 ** 9)
    for name, total, sq, formula in (
        ("dim", dim_sum, dim_sq, float(poly_eval(expected_dimension(n), pf))),
        ("chi", chi_sum, chi_sq, float(poly_eval(expected_euler(n), pf))),
    ):
        mean = total / trials
        var = max(sq / trials - mean * mean, 0.0)
        stderr = (var / trials) ** 0.5
        z = (mean - formula) / stderr if stderr > 0 else 0.0
        out[name] = {"mean": mean, "stderr": stderr, "formula": formula, "z": z}
    if wu_vals:
        m = sum(wu_vals) / len(wu_vals)
        var = sum((v - m) ** 2 for v in wu_vals) / len(wu_vals)
        out["wu"] = {
            "mean": m,
            "stderr": (var / len(wu_vals)) ** 0.5,
            "sample": len(wu_vals),
        }
    return out


def star_up_scan(G: Complex, x) -> frozenset:
    """The simplices containing x, by a scan of the whole complex."""
    if x not in G.simplices:
        raise KeyError(f"{x} not in complex")
    return frozenset(y for y in G.simplices if set(x).issubset(y))


def comparable_elements_scan(G: Complex, x) -> list:
    """The simplices y != x comparable to x, by a scan of the whole complex."""
    if x not in G.simplices:
        raise KeyError(f"{x} not in complex")
    sx = set(x)
    out = [y for y in G.simplices if y != x and (sx.issubset(y) or sx.issuperset(y))]
    return sorted(out, key=lambda y: (len(y), y))


def induced_scan(G: Complex, W) -> Complex:
    """The simplices inside W, by a scan of the whole complex."""
    sw = set(W)
    return Complex((x for x in G.simplices if sw.issuperset(x)), _closed=True)


def interaction_pairs_scan(G: Complex) -> list:
    """The ordered intersecting pairs, by testing all n^2 pairs."""
    elems = sorted(G.simplices, key=lambda y: (len(y), y))
    pairs = [(x, y) for x in elems for y in elems if set(x) & set(y)]
    return sorted(pairs, key=lambda p: (len(p[0]) + len(p[1]), p))


def connection_graph_scan(G: Complex, dual: bool = False) -> tuple:
    """(labels, edges) of the (dual) connection graph, testing all n^2
    pairs of simplices for a common vertex."""
    labels = sorted(G.simplices, key=lambda y: (len(y), y))
    sets = [set(x) for x in labels]
    edges = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))
             if bool(sets[i] & sets[j]) != dual]
    return labels, edges


def wu_intersection_matrix_scan(G: Complex) -> np.ndarray:
    """parity(x) parity(y) where x and y meet, else 0, pair by pair."""
    elems = sorted(G.simplices, key=lambda y: (len(y), y))
    M = np.zeros((len(elems), len(elems)), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if set(x) & set(y):
                M[i, j] = parity(x) * parity(y)
    return M


def product_connection_matrix_scan(A: Complex, B: Complex) -> np.ndarray:
    """1 where product cells (x, y) and (x', y') meet in both coordinates,
    pair by pair over `generators.product_cells`."""
    cells = [(set(x), set(y)) for x, y in product_cells(A, B)]
    out = np.zeros((len(cells), len(cells)), dtype=np.int64)
    for i, (sx, sy) in enumerate(cells):
        for j, (su, sv) in enumerate(cells):
            if sx & su and sy & sv:
                out[i, j] = 1
    return out


def containment_kirchhoff_scan(G: Complex) -> np.ndarray:
    """Kirchhoff matrix of the containment graph, testing all n^2 pairs."""
    elems = sorted(G.simplices, key=lambda y: (len(y), y))
    K = np.zeros((len(elems), len(elems)), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if i != j and (set(x) < set(y) or set(y) < set(x)):
                K[i, j] = -1
                K[i, i] += 1
    return K


class RecursiveGraphContext(GraphContext):
    """GraphContext whose removal search recurses once per vertex it removes,
    so a chain of n removals is n frames deep; the same answers and tables as
    the explicit-stack search."""

    def contractible(self, sub: frozenset) -> bool:
        if len(sub) == 1:
            return True
        if not sub:
            return False
        got = self._contract.get(sub)
        if got is not None:
            return got
        result = False  # every recursive call is on a strictly smaller set
        for v in sorted(sub):
            if self.contractible(self.adj[v] & sub) and self.contractible(
                sub - {v}
            ):
                result = True
                break
        self._contract[sub] = result
        return result


@contextlib.contextmanager
def deep_recursion(limit: int = 20_000):
    """Room for `RecursiveGraphContext`, one frame per removed vertex."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def _unit_sphere_contexts(G: Complex):
    """(simplex, recursive GraphContext of its unit sphere built as its own
    complex)."""
    from simplexion.core import one_skeleton, unit_sphere

    for x in G.simplices:
        yield x, RecursiveGraphContext(one_skeleton(unit_sphere(G, x)))


def boundary_unit_spheres(G: Complex, d: int) -> Complex:
    """The simplices whose unit sphere, built afresh, is a (d-1)-ball, closed."""
    out = [x for x, ctx in _unit_sphere_contexts(G) if ctx.d_ball(ctx.full(), d - 1)]
    return close(out) if out else Complex()


def is_d_complex_with_boundary_unit_spheres(G: Complex, d: int) -> bool:
    """Every unit sphere, built afresh, is a (d-1)-sphere or a (d-1)-ball."""
    return all(ctx.d_sphere(ctx.full(), d - 1) or ctx.d_ball(ctx.full(), d - 1)
               for _, ctx in _unit_sphere_contexts(G))
