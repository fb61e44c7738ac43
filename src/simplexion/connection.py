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
1 - L, det(-L Lbar) = det(L)^2 det(-Lbar g), and det(-Lbar g) = (-1)^n c_n
is read from the constant term c_n of the characteristic polynomial of
-Lbar g, which the same check computes for its spectrum.  Above
`errors.CHARPOLY_CAP` rows the check is refused before L is built, as is
the spectral symmetry check, whose two characteristic polynomials cost
about n^4.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from . import errors
from .cohomology import dirac
from .core import Complex, _vertex_stars, parity, set_euler, sphere_euler, star_up, up_star_weights
from .errors import InvariantViolation, ResourceLimitError, check_exact
from .exact import charpoly, jacobi_inertia, ldl, ldl_inverse, ldl_solve, matmul
from .refinement import _meets, connection_matrix, refinement_order, stirling_apply, stirling_matrix


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
    """All green_star values at once.  Each simplex is a bitmask of its
    vertices (a Python int, exact for any vertex count), so x u y is one
    `|` and its up-star weight one dict lookup."""
    elems = refinement_order(G)
    bit = {v: 1 << i for i, v in enumerate(G.vertices())}
    mask = {x: sum(bit[v] for v in x) for x in G.simplices}
    U = {mask[s]: w for s, w in up_star_weights(G).items()}
    masks = [mask[x] for x in elems]
    W = np.array([[U.get(a | b, 0) for b in masks] for a in masks], dtype=np.int64)
    p = np.array([parity(x) for x in elems], dtype=np.int64)
    return W.reshape(len(elems), len(elems)) * np.outer(p, p)


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
    spectrum: -Lbar g = 1 - E g is a rank-one perturbation of the identity,
    so its characteristic polynomial is (x-1)^(n-1) (x-(1-chi)) exactly.
    (That spectrum belongs to -Lbar L^-1; -L Lbar itself only shares the
    determinant - K2 is a counterexample to the stronger reading.)

    The characteristic polynomial c of -Lbar g is computed, compared, and
    also gives the determinant: det(-L Lbar) = det(L)^2 det(-Lbar g) =
    det(L)^2 (-1)^n c_n, from L and g alone, not from chi.  Above
    errors.CHARPOLY_CAP rows the check raises ResourceLimitError before L or
    g is built.
    """
    if G.is_empty:
        return {"det": 1, "det_ok": True, "charpoly_ok": True}
    n = len(G)
    if n > errors.CHARPOLY_CAP:
        raise ResourceLimitError(
            f"dual product has {n} rows; charpoly cap is {errors.CHARPOLY_CAP}")
    chi = G.euler_characteristic()
    cp = charpoly(-matmul(1 - connection_matrix(G), green_inverse(G)))
    d = connection_det(G) ** 2 * (-1) ** n * cp[n]
    return {"det": d, "det_ok": d == 1 - chi,
            "charpoly_ok": cp == _charpoly_one_heavy(n, 1 - chi)}


def _charpoly_one_heavy(n: int, lam) -> list:
    """Coefficients of (x-1)^(n-1) (x-lam), descending."""
    ones = [(-1) ** k * math.comb(n - 1, k) for k in range(n)]  # (x-1)^(n-1)
    return [a - lam * b for a, b in zip(ones + [0], [0] + ones)]


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
    polynomial equality), hence the connection zeta function is even.  Above
    errors.CHARPOLY_CAP rows it raises ResourceLimitError before L or g is
    built."""
    if G.max_dim() != 1:
        raise ValueError("spectral symmetry needs a one-dimensional complex")
    if len(G) > errors.CHARPOLY_CAP:
        raise ResourceLimitError(
            f"spectral symmetry has {len(G)} rows; charpoly cap is {errors.CHARPOLY_CAP}")
    L = connection_matrix(G)
    g = green_inverse(G)
    return charpoly(matmul(L, L)) == charpoly(matmul(g, g))
