"""Simplicial cohomology (exterior derivative, Dirac/Hodge operators, Betti
numbers), Lefschetz fixed points, Kuenneth for the strong ring, quadratic
(interaction) cohomology whose Euler characteristic is the Wu characteristic,
Alexander duality, and the Stokes pairing.

Orientations come from the global vertex order: each simplex is its sorted
vertex tuple, and all signs are parities of sorting permutations.

Both cochain complexes, the simplicial one and the interaction one on
intersecting pairs, read the face table F of `core` (F[i, p] is the position
of simplex i without its vertex p) for all degrees at once: row i of the
stacked derivative D holds (-1)^p at F[i, p], and a pair (x, y) has the
faces (F[x, p], y) and (x, F[y, p]) that are pairs again, found by one
`searchsorted` on the pair keys.  One builder, `_coboundaries`, stores each
d_k once as its nonzero entries, a read-only int64 array of rows (row,
column, sign) in row order, and checks d_{k+1} d_k = 0 on the entries
themselves, degree by degree: every product of an entry of d_{k+1} with one
of d_k is formed and summed per position, with no dense product.

Every Betti number, ordinary or quadratic, and every Lefschetz map comes
from one column reduction R_k = d_k V_k of these entries, `_reduce`, run
from degree 0 upward.  The low of a column is the row of its last nonzero
entry.  Each column of d_k, left to right, is reduced against the earlier
column with the same low until it is zero or its low is new; V_k records
the column operations.  The values are Python integers, and a Fraction
only where a quotient is not integral.  Clearing: a nonzero column r of
R_{k-1} with low j is a cocycle whose entries beyond j vanish, so d_k r = 0
writes column j of d_k as a combination of the earlier columns, and column
j reduces to zero; it is skipped.  The columns skipped are rank(d_{k-1}) of
them, and b_k counts the other columns that reduce to zero.  Their V
columns, the class cocycles, have lowest entry 1 at their own index; with
the columns of R_{k-1} they are a basis of ker d_k with distinct lows.  So
the map a vertex permutation T induces on H^k is read by reducing each
pushed-forward class cocycle T# z_j from its lowest entry upward against
that basis: its coefficients on the class cocycles are column j of the
matrix, and a low outside the basis means T# z_j is not closed.

A dense d_k is scattered from the entries only where a dense operator is the
point: Dirac, Hodge and Kuenneth operators.  The Stokes pairing applies d_k
and its transpose through the entries.  Every integer matrix-matrix product
(Hodge operators, the Kuenneth dd = 0 check, the McKean-Singer supertraces)
is `exact.matmul`, which uses a float64 BLAS product only where a bound
proves it exact.  Otherwise floating point appears only in the explicitly
numeric checks.

The chain complex and its reduction are memoed on their complex (see
`core`) for as long as it lives.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import errors
from .core import Complex, face_table, parity, up_star_weights
from .errors import InvariantViolation, ResourceLimitError, check_exact
from .exact import matmul
from .generators import poly_mul, product_cells, ring_product_complex
from .refinement import _meets, connection_matrix


# -- chain complex ------------------------------------------------------------


def _coboundaries(elems: list, dims: tuple, r, c, s, what: str) -> ChainComplexData:
    """The chain complex with basis elems, dims[k] of them in degree k, one
    degree after the other, and the entries of D in those positions: entry t
    at row r[t], ascending, and column c[t], with sign s[t].  The first
    degree k where d_{k+1} d_k = 0 fails on the entries raises
    InvariantViolation(what)."""
    edges = [0, *itertools.accumulate(dims)]
    bases = tuple(tuple(elems[a:b]) for a, b in zip(edges, edges[1:]))
    if len(dims) < 2:
        return ChainComplexData(bases, ())
    base = np.array(edges)
    # the rows of degree k hold the entries cut[k]:cut[k + 1], and row i
    # those at start[i]:start[i + 1]
    cut = r.searchsorted(base).tolist()
    start = r.searchsorted(np.arange(base[-1] + 1))
    for k in range(len(dims) - 2):
        # an entry of d_{k+1} in column i makes one term with each entry of row i
        lo, hi = cut[k + 2], cut[k + 3]
        rk, ck, sk = r[lo:hi], c[lo:hi], s[lo:hi]
        m = (start[1:] - start[:-1])[ck]
        at = (start[ck] - m.cumsum() + m).repeat(m) + np.arange(m.sum())
        key, sign = rk.repeat(m) * base[-1] + c[at], sk.repeat(m) * s[at]
        order = key.argsort(kind="stable")  # rows are in order already
        key = key[order]
        runs = (key != np.concatenate(([-1], key[:-1]))).nonzero()[0]  # each position's first
        if np.add.reduceat(sign[order], runs).any():
            raise InvariantViolation(what, witness={"degree": k})
    deg = base.searchsorted(r, "right") - 1
    e = np.array([r - base[deg], c - base[deg - 1], s]).T
    e.setflags(write=False)
    return ChainComplexData(bases, tuple(e[cut[k]:cut[k + 1]] for k in range(1, len(dims))))


@dataclass(frozen=True)
class ChainComplexData:
    """The coboundaries d_k: C^k -> C^(k+1) (shape v_{k+1} x v_k) by their
    entries, together with the bases per degree."""

    bases: tuple  # bases[k] = the basis elements of degree k, in order
    d: tuple      # d[k] = the entries of d_k, rows (row, column, sign) in row order

    @property
    def dims(self) -> tuple:
        return tuple(len(b) for b in self.bases)

    def dense(self, k: int) -> np.ndarray:
        """d_k as a dense matrix; for k = len(d), the zero map out of the top."""
        dims = self.dims + (0,)
        out = np.zeros((dims[k + 1], dims[k]), dtype=np.int64)
        if k < len(self.d):
            out[self.d[k][:, 0], self.d[k][:, 1]] = self.d[k][:, 2]
        return out


def exterior_derivative(G: Complex) -> ChainComplexData:
    """All d_k, built once per complex and memoed on it; d_{k+1} d_k = 0 is
    verified at construction."""
    return G.memo("chain", lambda: _chain_complex(G))


def _chain_complex(G: Complex) -> ChainComplexData:
    """Row i of D holds the sign (-1)^p at column F[i, p] for each face p."""
    F = face_table(G)[1]
    i, p = (F >= 0).nonzero()  # row by row, p ascending
    return _coboundaries(list(G), G.f_vector(), i, F[i, p], (-1) ** p, "dd != 0")


def _stacked_d(data: ChainComplexData) -> np.ndarray:
    """The full derivative as one n x n matrix (blocks under the diagonal)."""
    n = sum(data.dims)
    offs = np.cumsum([0] + list(data.dims))
    d = np.zeros((n, n), dtype=np.int64)
    for k, e in enumerate(data.d):  # scattered in place, without a dense d_k
        d[offs[k + 1] + e[:, 0], offs[k] + e[:, 1]] = e[:, 2]
    return d


def dirac(G: Complex) -> np.ndarray:
    """D = d + d^T as one n x n integer matrix in the canonical basis, which
    is the concatenation of the degree bases."""
    d = _stacked_d(exterior_derivative(G))
    return d + d.T


def hodge(G: Complex) -> np.ndarray:
    D = dirac(G)
    return matmul(D, D)


def hodge_blocks(G: Complex) -> list:
    """H restricted to each degree: H_k = d_k^T d_k + d_{k-1} d_{k-1}^T.

    In canonical order H = D D is exactly the direct sum of these blocks (D
    maps degree k only to k - 1 and k + 1, and d d = 0 kills the rest), so
    the Hodge spectrum is the union of theirs; `hodge` stays the definitional
    product the blocks are tested against.  The largest block has as many
    rows as the largest f-vector entry, checked against the exact dense cap
    before anything is built."""
    check_exact("largest Hodge block", max(G.f_vector(), default=0), "rows")
    data = exterior_derivative(G)
    d = [data.dense(k) for k in range(len(data.bases))]
    blocks = [matmul(dk.T, dk) for dk in d]
    for k in range(1, len(d)):
        blocks[k] += matmul(d[k - 1], d[k - 1].T)
    return blocks


# -- Betti numbers ------------------------------------------------------------


@dataclass(frozen=True)
class CohomologyReport:
    betti: tuple       # b_0, b_1, ...: also the Poincare polynomial's coefficients
    euler_poly: tuple  # coefficients v_0, v_1, ...

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def _subtract(col: dict, q, other: dict) -> None:
    """col -= q * other on {index: value} vectors, in place; the entries that
    cancel are dropped."""
    for i, w in other.items():
        w = col.get(i, 0) - q * w
        if w:
            col[i] = w
        else:
            del col[i]


def _quotient(a, b):
    """a / b: an int where b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _reduce(data: ChainComplexData) -> tuple:
    """(coboundaries, cocycles) for each degree k, from the column reduction
    R_k = d_k V_k with clearing (module docstring).  coboundaries maps the
    low of each nonzero column of R_{k-1} to that column, and cocycles maps
    each column of d_k that reduces to zero, and was not skipped, to its V
    column, in column order.  Columns are {row: value} dicts, shared through
    the memo: read, never written."""
    out, coboundaries = [], {}
    for k, v in enumerate(data.dims):
        columns = [{} for _ in range(v)]
        if k < len(data.d):
            for i, j, s in data.d[k].tolist():
                columns[j][i] = s
        pivots, cocycles = {}, {}  # low -> (R column, V column)
        for j, col in enumerate(columns):
            if j in coboundaries:
                continue
            ops = {j: 1}
            while col:
                low = max(col)
                if low not in pivots:
                    pivots[low] = col, ops
                    break
                r, w = pivots[low]
                q = _quotient(col[low], r[low])
                _subtract(col, q, r)
                _subtract(ops, q, w)
            else:
                cocycles[j] = ops
        out.append((coboundaries, cocycles))
        coboundaries = {low: r for low, (r, _) in pivots.items()}
    return tuple(out)


def _reduction(G: Complex) -> tuple:
    """`_reduce` of G's chain complex, memoed on G."""
    return G.memo("reduction", lambda: _reduce(exterior_derivative(G)))


def _report(dims: tuple, reduction: tuple) -> CohomologyReport:
    out = tuple(len(cocycles) for _, cocycles in reduction)
    return CohomologyReport(betti=out, euler_poly=dims)


def betti(G: Complex) -> CohomologyReport:
    """Betti numbers from the column reduction, memoed on G."""
    return _report(exterior_derivative(G).dims, _reduction(G))


def _supertraces(blocks: list, kmax: int) -> list:
    """[str(H^j) for j = 1..kmax] of H = the direct sum of the symmetric
    blocks H_k, block k of parity (-1)^k.  As H_k^a is symmetric,
    tr(H_k^j) = <H_k^a, H_k^b>_F for a + b = j, so no power above
    ceil(kmax / 2) is formed; the Frobenius products are `matmul`s of the
    flattened powers, so its bound proves them exact too."""
    out = [0] * kmax
    for k, H in enumerate(blocks):
        powers = [np.eye(len(H), dtype=np.int64), H]
        while len(powers) <= (kmax + 1) // 2:
            powers.append(matmul(powers[-1], H))
        for j in range(1, kmax + 1):
            X, Y = powers[j // 2], powers[j - j // 2]
            out[j - 1] += (-1) ** k * int(matmul(X.reshape(1, -1), Y.reshape(-1, 1))[0, 0])
    return out


MCKEAN_SINGER_KMAX = 6  # str(H^k) is checked exactly for 1 <= k <= this
MCKEAN_SINGER_TS = (0.1, 1.0, 10.0)  # the t grid of str(exp(-t H))


def mckean_singer(G: Complex) -> dict:
    """Supertraces of Hodge powers: str(H^k) = 0 exactly for 1 <= k <=
    MCKEAN_SINGER_KMAX, and str(exp(-t H)) = chi(G) within 1e-8 for t in
    MCKEAN_SINGER_TS.  In canonical order H is the direct sum of its degree
    blocks H_k, and a k-simplex has parity (-1)^k, so both sides work block
    by block."""
    blocks = hodge_blocks(G)
    chi = G.euler_characteristic()
    exact_ok = not any(_supertraces(blocks, MCKEAN_SINGER_KMAX))
    max_err = 0.0
    spectra = [np.linalg.eigvalsh(blk.astype(float)) for blk in blocks]
    for t in MCKEAN_SINGER_TS:
        total = 0.0
        for k, vals in enumerate(spectra):
            if len(vals):
                total += (-1) ** k * np.exp(-t * vals).sum()
        max_err = max(max_err, abs(total - chi))
    return {"exact_zero_powers": exact_ok, "numeric_max_err": max_err, "chi": chi}


# -- Lefschetz ---------------------------------------------------------------


def simplex_image(x, perm: dict) -> tuple:
    return tuple(sorted(perm[v] for v in x))


def permutation_sign_on(x, perm: dict) -> int:
    """Parity of the reordering the vertex map induces on the simplex."""
    imgs = [perm[v] for v in x]
    sign = 1
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            if imgs[i] > imgs[j]:
                sign = -sign
    return sign


def is_automorphism(G: Complex, perm: dict) -> bool:
    verts = G.vertices()
    if sorted(perm) != list(verts) or sorted(perm.values()) != list(verts):
        return False
    return all(simplex_image(x, perm) in G.simplices for x in G.simplices)


def automorphisms(G: Complex) -> list:
    """All simplicial automorphisms, in the order of `itertools.permutations`
    over the vertices; refused above errors.AUTOMORPHISM_CAP vertices.
    Images are assigned vertex by vertex, the free ones in ascending order,
    and an image that breaks adjacency or non-adjacency with a vertex
    already placed is pruned, as an automorphism preserves both; each
    complete map is then checked."""
    verts = G.vertices()
    cap = errors.AUTOMORPHISM_CAP
    if len(verts) > cap:
        raise ResourceLimitError(f"automorphism search capped at {cap} vertices")
    nbrs = {v: set() for v in verts}
    for a, b in G.simplices_of_dim(1):
        nbrs[a].add(b)
        nbrs[b].add(a)
    out, perm = [], {}

    def extend(free: list) -> None:
        if not free:
            if is_automorphism(G, perm):
                out.append(dict(perm))
            return
        v = verts[len(perm)]
        for w in free:
            if all((u in nbrs[v]) == (perm[u] in nbrs[w]) for u in perm):
                perm[v] = w
                extend([x for x in free if x != w])
                del perm[v]

    extend(list(verts))
    return out


def induced_cohomology_matrices(G: Complex, perm: dict) -> list:
    """Matrix of the pushforward T# e_x = sign(T|x) e_T(x) on each H^k, over
    exact rationals: column j holds the coefficients of T# z_j on the class
    cocycles z_i of `_reduce`, read by reducing T# z_j (module docstring).
    Raises ArithmeticError when T# z_j is not closed."""
    out = []
    for base, (coboundaries, cocycles) in zip(exterior_derivative(G).bases, _reduction(G)):
        row = {j: i for i, j in enumerate(cocycles)}
        index = {x: i for i, x in enumerate(base)} if cocycles else {}
        m = [[Fraction(0)] * len(row) for _ in row]
        for c, z in enumerate(cocycles.values()):
            image = {index[simplex_image(base[i], perm)]: permutation_sign_on(base[i], perm) * w
                     for i, w in z.items()}
            while image:
                low = max(image)
                if low in coboundaries:
                    r = coboundaries[low]
                    _subtract(image, _quotient(image[low], r[low]), r)
                elif low in cocycles:
                    m[row[low]][c] = Fraction(image[low])
                    _subtract(image, image[low], cocycles[low])
                else:
                    raise ArithmeticError("inconsistent system: T# z_j is not closed")
        out.append(m)
    return out


def lefschetz(G: Complex, perm: dict) -> dict:
    """Cohomological Lefschetz number vs the fixed-point parity sum.

    The cohomological side is the alternating sum of traces of the induced
    maps on H^k; the combinatorial side sums parity(x) sign(T|x) over the
    set-fixed simplices.  The two agree for every simplicial automorphism."""
    if not is_automorphism(G, perm):
        raise ValueError("not a simplicial automorphism")
    return _lefschetz_number(G, perm)


def _lefschetz_number(G: Complex, perm: dict) -> dict:
    """lefschetz(G, perm) for an automorphism perm of G, unchecked."""
    coh = Fraction(0)
    for k, m in enumerate(induced_cohomology_matrices(G, perm)):
        tr = sum(m[i][i] for i in range(len(m))) if m else Fraction(0)
        coh += (-1) ** k * tr
    fixed = 0
    for x in G.simplices:
        if simplex_image(x, perm) == x:
            fixed += parity(x) * permutation_sign_on(x, perm)
    if coh.denominator != 1:
        raise InvariantViolation("non-integer Lefschetz trace", witness=str(coh))
    return {"cohomological": int(coh), "fixed_point_sum": fixed}


# -- Kuenneth / strong ring ----------------------------------------------------


def _grade_sign_matrix(bases: list) -> np.ndarray:
    signs = []
    for k, b in enumerate(bases):
        signs.extend([(-1) ** k] * len(b))
    return np.diag(np.array(signs, dtype=np.int64))


def product_connection_matrix(A: Complex, B: Complex) -> np.ndarray:
    """Connection matrix of the product cells, built from the geometry:
    (x,y) and (x',y') intersect iff both coordinates intersect."""
    cells = product_cells(A, B)
    xs, ys = [x for x, _ in cells], [y for _, y in cells]
    return (_meets(xs) & _meets(ys)).astype(np.int64)


def kuenneth_check(A: Complex, B: Complex) -> dict:
    """The ring homomorphism and spectral statements for A x B:

    * Poincare polynomial of the product order complex = product of factor
      Poincare polynomials (exact Betti numbers).
    * Euler polynomial on cells is the product of factor Euler polynomials.
    * Connection matrix of the cells equals kron(L_A, L_B) exactly, so the
      connection spectra multiply.
    * Hodge operator of the product complex equals
      kron(H_A, I) + kron(I, H_B) exactly (graded tensor derivative), so the
      Hodge spectra add; the numeric spectra are compared as multisets,
      each to within 1e-6.

    The product operators are dense of order len(A) * len(B), the number of
    product cells, which is refused above the exact dense cap before
    anything is built.
    """
    check_exact("product", len(A) * len(B), "cells")
    pa = betti(A).betti
    pb = betti(B).betti
    prod = ring_product_complex(A, B)
    pprod = betti(prod).betti

    def same_poly(a, b) -> bool:  # trailing zero coefficients carry nothing
        return np.trim_zeros(list(a), "b") == np.trim_zeros(list(b), "b")

    poincare_ok = same_poly(pprod, poly_mul(pa, pb))
    ea = A.f_vector()
    eb = B.f_vector()
    cells = product_cells(A, B)
    eprod = [0] * (len(ea) + len(eb) - 1) if cells else []
    for (x, y) in cells:
        eprod[len(x) + len(y) - 2] += 1  # cells graded by dim(x) + dim(y)
    euler_ok = same_poly(eprod, poly_mul(ea, eb))

    La = connection_matrix(A)
    Lb = connection_matrix(B)
    Lprod = product_connection_matrix(A, B)
    # product_cells iterates x-major in canonical order, which is exactly
    # kron's row order
    kron_ok = np.array_equal(Lprod, np.kron(La, Lb))

    da = _stacked_d(exterior_derivative(A))
    db = _stacked_d(exterior_derivative(B))
    sa = _grade_sign_matrix(exterior_derivative(A).bases)
    na, nb = len(da), len(db)
    dprod = np.kron(da, np.eye(nb, dtype=np.int64)) + np.kron(sa, db)
    if matmul(dprod, dprod).any():
        raise InvariantViolation("product derivative does not square to zero")
    Dp = dprod + dprod.T
    Hp = matmul(Dp, Dp)
    Ha = hodge(A)
    Hb = hodge(B)
    hodge_kron_ok = np.array_equal(
        Hp,
        np.kron(Ha, np.eye(nb, dtype=np.int64))
        + np.kron(np.eye(na, dtype=np.int64), Hb),
    )

    va = np.linalg.eigvalsh(Ha.astype(float))
    vb = np.linalg.eigvalsh(Hb.astype(float))
    sums = np.sort((va[:, None] + vb[None, :]).ravel())
    vp = np.linalg.eigvalsh(Hp.astype(float))
    hodge_spec_err = float(np.abs(vp - sums).max(initial=0.0))

    ca = np.linalg.eigvalsh(La.astype(float))
    cb = np.linalg.eigvalsh(Lb.astype(float))
    prods = np.sort((ca[:, None] * cb[None, :]).ravel())
    cp = np.sort(np.linalg.eigvalsh(np.kron(La, Lb).astype(float)))
    conn_spec_err = float(np.abs(cp - prods).max(initial=0.0))

    return {
        "poincare_ok": poincare_ok,
        "euler_ok": euler_ok,
        "connection_kron_ok": bool(kron_ok),
        "hodge_kron_ok": bool(hodge_kron_ok),
        "hodge_spectrum_err": hodge_spec_err,
        "connection_spectrum_err": conn_spec_err,
        "ok": bool(
            poincare_ok
            and euler_ok
            and kron_ok
            and hodge_kron_ok
            and hodge_spec_err < 1e-6
            and conn_spec_err < 1e-6
        ),
    }


# -- interaction (quadratic) cohomology ----------------------------------------


def interaction_pair_count(G: Complex) -> int:
    """The number of ordered intersecting pairs, without listing them: by
    inclusion-exclusion over the common face, the sum over s of (-1)^dim(s)
    U(s)^2, with U(s) the number of simplices containing s."""
    U = Counter(s for z in G.simplices for k in range(1, len(z) + 1)
                for s in itertools.combinations(z, k))
    return sum(parity(s) * u * u for s, u in U.items())


def _intersecting_pairs(rows: tuple, dim: np.ndarray) -> np.ndarray:
    """The keys (dim x + dim y) n^2 + x n + y, ascending, of the ordered
    pairs of positions of intersecting simplices, from the vertex rows of a
    face table and the simplices' dimensions: each vertex star with itself."""
    n = len(dim)
    vert = np.concatenate([np.zeros(0, np.int64), *(r.ravel() for r in rows)])
    star = np.arange(n).repeat(dim + 1)[vert.argsort(kind="stable")]  # star by star
    size = np.bincount(vert)
    m = size.repeat(size)  # the size of the star at each of its entries
    first = (size.cumsum() - size).repeat(size) - m.cumsum() + m
    x, y = star.repeat(m), star[first.repeat(m) + np.arange(m.sum())]
    keys = np.sort((dim[x] + dim[y]) * n * n + x * n + y)
    return keys[keys != np.concatenate(([-1], keys[:-1]))]  # each pair once


def interaction_derivative(G: Complex) -> ChainComplexData:
    """The pairs (x, y) by degree dim x + dim y, then by the positions of x
    and y, and the entries of the pair derivative df(x, y) = f(dx, y) +
    (-1)^dim(x) f(x, dy): the terms (F[x, p], y) and (x, F[y, p]) that are
    pairs again.  dd = 0 is verified.  Refused, on a count taken before any
    pair is listed, above errors.DEFAULT_PAIR_CAP pairs."""
    count, cap = interaction_pair_count(G), errors.DEFAULT_PAIR_CAP
    if count > cap:
        raise ResourceLimitError(f"{count} interacting pairs exceed cap {cap}")
    (rows, F), n, S = face_table(G), len(G), list(G)
    dim = np.arange(len(rows)).repeat([len(r) for r in rows])
    keys = _intersecting_pairs(rows, dim)
    deg, x, y = keys // (n * n), keys // n % n, keys % n
    Fx, Fy = F[x], F[y]
    faces = np.concatenate([Fx * n + y[:, None], Fy + x[:, None] * n], axis=1)
    faces += (deg[:, None] - 1) * n * n
    at = keys.searchsorted(faces).clip(max=len(keys) - 1)
    i, q = ((np.concatenate([Fx, Fy], axis=1) >= 0) & (keys[at] == faces)).nonzero()
    signs = (-1) ** (q % F.shape[1] + (q >= F.shape[1]) * dim[x[i]])
    pairs = [(S[a], S[b]) for a, b in zip(x.tolist(), y.tolist())]
    dims = tuple(np.bincount(deg).tolist())
    return _coboundaries(pairs, dims, i, at[i, q], signs, "interaction dd != 0")


def interaction_cohomology(G: Complex) -> CohomologyReport:
    """Quadratic Betti numbers; their alternating sum is the Wu
    characteristic."""
    data = interaction_derivative(G)
    return _report(data.dims, _reduce(data))


def wu_gauss_bonnet(G: Complex) -> dict:
    """Per-vertex curvature K(v) = sum over x containing v, y meeting x of
    parity(x) parity(y) / |x|; sums exactly to the Wu characteristic."""
    U = up_star_weights(G)
    curv = {v: Fraction(0) for v in G.vertices()}
    for x in G.simplices:
        # signed count of the simplices meeting x, by inclusion-exclusion
        w = 0
        for k in range(1, len(x) + 1):
            for s in itertools.combinations(x, k):
                w += (-1) ** (k + 1) * U[s]
        share = Fraction(parity(x) * w, len(x))
        for v in x:
            curv[v] += share
    return curv


# -- Alexander duality ---------------------------------------------------------


def alexander_dual(G: Complex, vertices) -> Complex:
    """{x proper nonempty subset of V : complement of x not in G}."""
    V = tuple(sorted(set(vertices)))
    if not set(G.vertices()).issubset(V):
        raise ValueError("ground set must contain the complex's vertices")
    if len(V) > errors.ALEXANDER_CAP:
        raise ResourceLimitError(
            f"Alexander dual capped at {errors.ALEXANDER_CAP} ground vertices")
    out = []
    for k in range(1, len(V)):
        for x in itertools.combinations(V, k):
            comp = tuple(v for v in V if v not in x)
            if comp not in G.simplices:
                out.append(x)
    return Complex(out, _closed=True)


def reduced_betti(G: Complex) -> dict:
    """Reduced Betti numbers as a map degree -> value, with the convention
    that the empty complex has one unit in degree -1."""
    if G.is_empty:
        return {-1: 1}
    rep = betti(G)
    out = {}
    for k, b in enumerate(rep.betti):
        v = b - 1 if k == 0 else b
        if v:
            out[k] = v
    return out


def alexander_duality_check(G: Complex, vertices) -> dict:
    """Reduced Betti duality b~_k(G*) = b~_(n-3-k)(G) across all degrees."""
    V = tuple(sorted(set(vertices)))
    n = len(V)
    dual = alexander_dual(G, V)
    bg = reduced_betti(G)
    # V itself a simplex of G: the dual is the void complex, not {empty set}
    bd = {} if V in G.simplices else reduced_betti(dual)
    lo = -1
    hi = n
    ok = all(bd.get(k, 0) == bg.get(n - 3 - k, 0) for k in range(lo, hi))
    return {"ok": ok, "dual": dual, "reduced_G": bg, "reduced_dual": bd}


# -- Stokes --------------------------------------------------------------------


def stokes_pairing(G: Complex, k: int, form, chain) -> tuple:
    """(dF(A), F(dA)) for a k-form F and a (k+1)-chain A, in the oriented
    bases; the two integers agree (the derivative is the transpose of the
    boundary)."""
    data = exterior_derivative(G)
    if k < 0 or k >= len(data.bases) - 1:
        raise ValueError("no (k+1)-simplices for this k")
    form = np.array(form, dtype=np.int64)
    chain = np.array(chain, dtype=np.int64)
    if (len(chain), len(form)) != (data.dims[k + 1], data.dims[k]):
        raise ValueError("coefficient vector lengths do not match the bases")
    r, c, s = data.d[k].T  # d_k and d_k^T applied through the entries
    dF = np.zeros(len(chain), dtype=np.int64)
    np.add.at(dF, r, s * form[c])
    dA = np.zeros(len(form), dtype=np.int64)
    np.add.at(dA, c, s * chain[r])
    return int(dF @ chain), int(form @ dA)
