"""Barycentric refinement, the connection matrix and graph, and the
refinement operator acting on f-vectors.

The refinement G_1 of a complex G is the order complex of its containment
poset: vertices are the simplices of G (indexed in canonical order), and the
simplices of G_1 are the chains, built by `core.order_complex`.  f-vectors
transform linearly under refinement; the matrix of that map has entries
built from Stirling numbers of the second kind, which gives a cheap size
prediction, read against `errors.check_cap` before anything is built.

Which simplices of G meet is one incidence product, `_overlaps`; the
connection matrix L (memoed on G, under the exact dense cap of `errors`)
and the connection graph are both read from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .core import Complex, _faces, order_complex
from .errors import check_cap, check_exact
from .exact import matmul


def refinement_order(G: Complex) -> list:
    """The canonical vertex order of G_1: simplices by dimension, then lex.
    A fresh copy of the order G memoes for its iteration."""
    return list(G)


@lru_cache(maxsize=32)
def stirling2_row(n: int) -> tuple:
    """Stirling numbers of the second kind S2(n, 0..n)."""
    row = [1] + [0] * n
    for m in range(1, n + 1):
        new = [0] * (n + 1)
        for k in range(1, m + 1):
            new[k] = k * row[k] + row[k - 1]
        row = new
    return tuple(row)


def stirling_matrix(r: int) -> list:
    """(r+1)x(r+1) integer matrix S with S[x][y] = S2(y, x) * x! in 1-based
    indices, so that f(G_1) = S f(G) for complexes of dimension <= r."""
    fact = [1] * (r + 2)
    for i in range(1, r + 2):
        fact[i] = fact[i - 1] * i
    S = [[0] * (r + 1) for _ in range(r + 1)]
    for y in range(1, r + 2):
        row = stirling2_row(y)
        for x in range(1, r + 2):
            S[x - 1][y - 1] = row[x] * fact[x] if x <= y else 0
    return S


def stirling_apply(S: list, f) -> tuple:
    """Exact product S f, with f zero-padded to the order of S."""
    r = len(S)
    fv = list(f) + [0] * (r - len(f))
    if len(fv) > r:
        raise ValueError("operator order smaller than f-vector length")
    out = [sum(S[i][j] * fv[j] for j in range(r)) for i in range(r)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def predicted_refinement_fvector(G: Complex) -> tuple:
    r = G.max_dim()
    if r < 0:
        return ()
    return stirling_apply(stirling_matrix(r), G.f_vector())


def predicted_product_fvector(A: Complex, B: Complex) -> tuple:
    """f-vector of `generators.ring_product_complex(A, B)`: a chain of k + 1
    product cells runs through chains of i + 1 simplices of A and j + 1 of B,
    moving at least one of them in each of its k steps, so with F the
    refinement f-vectors, f_k = sum_ij F_A[i] F_B[j] C(k, i) C(i, i + j - k)."""
    fa, fb = predicted_refinement_fvector(A), predicted_refinement_fvector(B)
    out = [0] * (len(fa) + len(fb) - 1) if fa and fb else []
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            for k in range(max(i, j), i + j + 1):
                out[k] += x * y * comb(k, i) * comb(i, i + j - k)
    return tuple(out)


def barycentric(G: Complex, cap: int | None = None) -> Complex:
    """Barycentric refinement: the complex of chains of simplices of G.

    Vertex i of the result is simplex refinement_order(G)[i].  Refuses to
    build when the Stirling prediction exceeds the cap (resource guard).
    """
    check_cap("refinement", sum(predicted_refinement_fvector(G)), cap)
    return order_complex(refinement_order(G), _faces)


def connection_matrix(G: Complex) -> np.ndarray:
    """L(x,y) = 1 iff x and y intersect (0/1, symmetric, unit diagonal), in
    refinement order, read-only and memoed on G.  The exact dense cap is
    checked on every call, before the memo is read."""
    check_exact("complex", len(G), "simplices")
    return G.memo("connection", lambda: _build_connection(G))


def _build_connection(G: Complex) -> np.ndarray:
    L = _meets(refinement_order(G)).astype(np.int64)
    L.setflags(write=False)
    return L


def connection_graph(G: Complex, dual: bool = False) -> tuple:
    """Graph on the simplices of G: edges join intersecting pairs (or
    non-intersecting pairs when dual).  Returns (labels, edges) with labels
    the canonical simplex order and edges as sorted index pairs."""
    labels = refinement_order(G)
    i, j = np.nonzero(np.triu(_meets(labels) != dual, 1))
    return labels, list(zip(i.tolist(), j.tolist()))


def _meets(xs) -> np.ndarray:
    """The boolean matrix of which vertex tuples in xs share a vertex."""
    return _overlaps(xs) > 0


def _overlaps(xs) -> np.ndarray:
    """|x n y| for every pair of vertex tuples in xs: the incidence product
    B B^T, B[i, v] = 1 iff v is in xs[i]."""
    verts = {v: k for k, v in enumerate(sorted({v for x in xs for v in x}))}
    B = np.zeros((len(xs), len(verts)), dtype=np.int64)
    B[[i for i, x in enumerate(xs) for _ in x], [verts[v] for x in xs for v in x]] = 1
    return matmul(B, B.T)


def euler_unique_vector(r: int) -> list:
    """The unique (up to scale) valuation fixed by refinement: the kernel of
    S^T - I normalized to first coordinate 1.  Must equal (1, -1, 1, ...),
    which is why the alternating parity sum is the only refinement-invariant
    valuation with X(point) = 1.  S is upper triangular with S[i][i] =
    (i+1)!, so row i of (S^T - I) x = 0 gives x_i by forward substitution:
    x_i = -sum_{j<i} S[j][i] x_j / ((i+1)! - 1)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    S = stirling_matrix(r)
    x = [Fraction(1)]
    for i in range(1, r + 1):
        x.append(-sum(S[j][i] * x[j] for j in range(i)) / (S[i][i] - 1))
    return x
