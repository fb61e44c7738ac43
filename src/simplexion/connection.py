"""The exact integer theorems the connection matrix L (L[x][y] = 1 iff x and
y intersect) carries: unimodularity, the integer Green inverse and its
energy/star formulas, eigenvalue sign counts, the hydrogen relation, trace
identities and the spectral symmetry of one-dimensional complexes.

Row and column order is always the canonical simplex order (dimension, then
lex), which makes every matrix here reproducible bit for bit and puts every
leading principal submatrix in bijection with a subcomplex; by unimodularity
all leading minors are +-1, so L = M diag(D) M^T with unit pivots D.

That factor is the sparse elimination `exact.ldl` of L's entries, listed
from the vertex stars under `errors.ENTRY_CAP` and memoed on the complex
(see `core`).  det L is the product of D, the inertia Jacobi's rule on its
prefix products, and the energy 1^T x for L x = 1, certified on L's
entries: none of the three builds the dense L.  g = L^-1 is assembled from
the factor when a check reads it, certified by L g = I, read-only, under
the exact dense cap (`errors.DEFAULT_EXACT_CAP`) that every call checks
before the memo is read, as `refinement.connection_matrix` does.

The dual-product determinant needs no elimination of its own: with Lbar =
1 - L, det(-L Lbar) = det(L)^2 det(-Lbar g), and B = -Lbar g - I = -E g is
rank one (E the all-ones matrix), so det(-Lbar g) = 1 + tr B by the matrix
determinant lemma.  The check certifies that rank on the entries of B and
runs under the dense cap of L and g.  The spectral symmetry check reads
the characteristic polynomials of L^2 and L^-2 from the one of L, and is
refused above `errors.CHARPOLY_CAP` rows before L is built.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from . import errors
from .cohomology import dirac
from .core import Complex, _vertex_stars, parity, set_euler, sphere_euler, star_up
from .errors import InvariantViolation, ResourceLimitError, check_exact
from .exact import _absmax, charpoly, jacobi_inertia, ldl, ldl_inverse, ldl_solve, matmul
from .refinement import _meets, _overlaps, connection_matrix, refinement_order, stirling_apply, stirling_matrix


def _factor(G: Complex) -> tuple:
    """(entries, M, D): L's lower entries, x and y meeting iff one vertex
    star holds both, and their factor L = M diag(D) M^T, memoed on G.  The
    pairs the stars list, sum |star(v)|^2 >= nnz(L), are checked against
    errors.ENTRY_CAP on every call, before the memo is read."""
    stars = _vertex_stars(G).values()
    predicted = sum(len(s) ** 2 for s in stars)
    if predicted > errors.ENTRY_CAP:
        raise ResourceLimitError(f"L has up to {predicted} entries; entry cap is {errors.ENTRY_CAP}")

    def build():
        index = {x: i for i, x in enumerate(G)}
        cols = [{} for _ in index]
        for s in stars:
            idx = [index[x] for x in s]
            for k, i in enumerate(idx):
                cols[i].update(dict.fromkeys(idx[k:], 1))
        return (cols, *ldl(cols))

    return G.memo("ldl", build)


def dual_connection_matrix(G: Complex) -> np.ndarray:
    """Lbar = 1 - L, a new writable array: 1 iff x and y are disjoint."""
    return 1 - connection_matrix(G)


def connection_det(G: Complex) -> int:
    """det(L) = prod D; +-1 for every simplicial complex (unimodularity)."""
    return math.prod(_factor(G)[2])


def green_inverse(G: Complex) -> np.ndarray:
    """The integer inverse g = L^-1 (exists and is integral by
    unimodularity), read-only; g(x,y) are the potential energy values."""
    check_exact("complex", len(G), "simplices")
    return G.memo("green", lambda: _certified_green(G))


def _certified_green(G: Complex) -> np.ndarray:
    g = ldl_inverse(*_factor(G)[1:])
    if not np.array_equal(matmul(connection_matrix(G), g), np.eye(len(g), dtype=np.int64)):
        raise InvariantViolation("L * g != I", witness={"n": len(g)})
    g.setflags(write=False)
    return g


def energy(G: Complex) -> int:
    """Total potential energy sum_xy g(x,y) = 1^T x for L x = 1, solved
    through the factor and certified on L's entries; equals chi(G)."""
    cols, M, D = _factor(G)
    x = ldl_solve(M, D, [1] * len(cols))
    Lx = [0] * len(cols)
    for j, col in enumerate(cols):
        for i, a in col.items():
            Lx[i] += a * x[j]
            Lx[j] += a * x[i] if i != j else 0
    if any(v != 1 for v in Lx):
        raise InvariantViolation("L x != 1", witness={"n": len(cols)})
    return sum(x)


def green_star(G: Complex, x, y) -> int:
    """parity(x) parity(y) chi(W+(x) n W+(y)), where W+ is the star and chi
    of a set of simplices is the plain parity sum.  Equals the Green inverse
    entry g(x,y)."""
    if x not in G.simplices or y not in G.simplices:
        raise KeyError("both simplices must lie in the complex")
    u = tuple(sorted(set(x) | set(y)))
    chi = set_euler(star_up(G, x) & star_up(G, y)) if u in G.simplices else 0
    return parity(x) * parity(y) * chi


def green_star_matrix(G: Complex) -> np.ndarray:
    """All green_star values at once, P Z P Z^T P with P = diag(parity) and
    Z[x, z] = 1 iff x is a face of z, |x n z| = |x|: (Z P Z^T)[x, y] is the
    parity sum over the common up-star of x and y."""
    elems = refinement_order(G)
    p = np.array([parity(x) for x in elems], dtype=np.int64)
    Z = _overlaps(elems) == np.array([len(x) for x in elems])[:, None]
    return p[:, None] * matmul(Z * p, Z.T) * p


def wu_intersection_matrix(G: Complex) -> np.ndarray:
    """M(x,y) = parity(x) parity(y) chi(W-(x) n W-(y)); its total sum is the
    Wu characteristic (the down-star analogue of the Green star formula)."""
    # W-(x) n W-(y) = nonempty subsets of x n y, whose parity sum is 1
    # whenever the common face is nonempty
    elems = refinement_order(G)
    p = np.array([parity(x) for x in elems], dtype=np.int64)
    return np.outer(p, p) * _meets(elems)


def inertia_of_connection(G: Complex) -> tuple:
    """(p, n, z) of L; p - n = chi(G) and z = 0 always.  Jacobi's rule on
    the signs of the leading minors, the prefix products of the pivots D.
    Every leading principal block of L is the connection matrix of a
    subcomplex, so each is +-1; `exact.ldl` refuses any other."""
    return jacobi_inertia(list(itertools.accumulate(_factor(G)[2], operator.mul)))


def supertrace_powers(G: Complex) -> dict:
    """str(L^k) for k = -1, 0, 1 where str(A) = sum parity(x) A(x,x);
    all three equal chi(G)."""
    elems = refinement_order(G)
    w = np.array([parity(x) for x in elems], dtype=np.int64)
    L = connection_matrix(G)
    g = green_inverse(G)
    return {
        "str_inverse": int((w * np.diag(g)).sum()),
        "str_identity": int(w.sum()),
        "str_connection": int((w * np.diag(L)).sum()),
    }


def dual_product_check(G: Complex) -> dict:
    """det(-L Lbar) = 1 - chi(G) exactly, and the eigenvalue-1-heavy
    spectrum: -Lbar g = I + B with B = -E g of rank one, so its
    characteristic polynomial is (x-1)^(n-1) (x-lam), lam = 1 + tr B.
    (That spectrum belongs to -Lbar L^-1; -L Lbar itself only shares the
    determinant - K2 is a counterexample to the stronger reading.)  B is
    formed from Lbar and the certified g, so det(-L Lbar) = det(L)^2 lam
    comes from L and g alone, not from chi, under the dense cap of both."""
    if G.is_empty:
        return {"det": 1, "det_ok": True, "charpoly_ok": True}
    chi = G.euler_characteristic()
    B = -matmul(1 - connection_matrix(G), green_inverse(G))
    B.flat[::len(B) + 1] -= 1
    lam = 1 + _rank_one_trace(B)
    d = connection_det(G) ** 2 * lam
    return {"det": d, "det_ok": d == 1 - chi, "charpoly_ok": lam == 1 - chi}


def _rank_one_trace(B: np.ndarray) -> int:
    """tr B for an integer matrix B of rank at most one, certified by
    B_ij B == B[:, j] B[i, :] at its first nonzero B_ij (int64 while
    max |B|^2 < 2^63); a nonzero 2 x 2 minor raises InvariantViolation."""
    nz = np.flatnonzero(B)
    if not nz.size:
        return 0
    i, j = divmod(int(nz[0]), B.shape[1])
    if B.dtype != object and _absmax(B) ** 2 >= 1 << 63:
        B = B.astype(object)
    bad = np.argwhere(B[i, j] * B != np.outer(B[:, j], B[i]))
    if bad.size:
        k, m = bad[0].tolist()
        raise InvariantViolation("-Lbar g - I has rank above 1",
                                 witness={"minor_rows": [i, k], "minor_cols": [j, m]})
    return int(np.trace(B))


def hydrogen_check(G: Complex) -> dict:
    """For one-dimensional complexes, L - L^-1 equals the signless Hodge
    operator H = D^2 entrywise, D = |d + d^T| the unsigned Dirac matrix."""
    if G.max_dim() != 1:
        raise ValueError("hydrogen relation needs a one-dimensional complex")
    L = connection_matrix(G)
    g = green_inverse(G)
    D = np.abs(dirac(G))
    H = matmul(D, D)
    ok = np.array_equal(L - g, H)
    out = {"ok": bool(ok)}
    if not ok:
        diff = (L - g) - H
        i, j = np.argwhere(diff != 0)[0]
        out["witness"] = {"entry": (int(i), int(j)), "delta": int(diff[i, j])}
    return out


def trace_identity(G: Complex) -> tuple:
    """Three independent computations of the same number:
    tr(L - L^-1); the sum of unit-sphere Euler characteristics; and
    f'(0) - f'(-1) for the generating function of the refinement (whose
    f-vector comes from the Stirling operator, not from refining)."""
    if G.is_empty:
        return (0, 0, 0)
    L = connection_matrix(G)
    g = green_inverse(G)
    a = int(np.trace(L) - np.trace(g))
    b = sum(sphere_euler(G, x) for x in G.simplices)
    f1 = stirling_apply(stirling_matrix(G.max_dim()), G.f_vector())
    # f(t) = 1 + sum v_k t^(k+1):  f'(0) = v_0,  f'(-1) = sum (k+1) v_k (-1)^k
    c = f1[0] - sum((k + 1) * v * (-1) ** k for k, v in enumerate(f1))
    return (a, b, c)


def spectral_symmetry_check(G: Complex) -> bool:
    """dim-1 complexes: L^2 and L^-2 are isospectral (exact characteristic
    polynomial equality), hence the connection zeta function is even; both
    polynomials come from charpoly(L) by `_square_charpolys`.  Above
    errors.CHARPOLY_CAP rows it raises ResourceLimitError before L is built."""
    if G.max_dim() != 1:
        raise ValueError("spectral symmetry needs a one-dimensional complex")
    if len(G) > errors.CHARPOLY_CAP:
        raise ResourceLimitError(
            f"spectral symmetry has {len(G)} rows; charpoly cap is {errors.CHARPOLY_CAP}")
    q, r = _square_charpolys(connection_matrix(G))
    return q == r


def _square_charpolys(A) -> tuple:
    """(q, r), descending: q = charpoly(A^2) from p = charpoly(A) alone, as
    q(x^2) = (-1)^n p(x) p(-x), whose second factor has the coefficients
    (-1)^k p_k; and r = (-1)^n q reversed, charpoly(A^-2) when det A = +-1.
    Their leading coefficients agree only if det A^2 = 1."""
    p = np.array(charpoly(A), dtype=object)
    q = np.convolve(p, p * [(-1) ** k for k in range(len(p))])[::2].tolist()
    return q, [(-1) ** (len(q) - 1) * c for c in q[::-1]]
