"""Generators: named complexes, Whitney (clique) complexes of graphs,
Erdos-Renyi random complexes with their exact expectation polynomials, and
the Cartesian product of the strong ring.

The builders whose size can grow exponentially read the simplex cap
(`errors.cap_simplices`) on a count predicted before anything is built:
2^n - 1 for the full simplex, 3^(d+1) - 1 for the cross polytope, the
product f-vector for the ring product, and for a Whitney complex the
closure bound sum (2^|C| - 1) of its maximal cliques C, summed while the
search finds them, so it stops at the first clique past the cap.

Monte Carlo over E(n, p) for n <= 10 does not build complexes: `clique_block`
draws a block of trials from their substreams at once and reads the Euler
characteristic, the Wu characteristic and the inductive dimension of each
Whitney complex off a table of all 2^n vertex subsets, with the same values
as `erdos_renyi` followed by the `core` invariants.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .core import Complex, _faces, close, join, order_complex
from .errors import cap_simplices, check_cap, check_closure
from .refinement import predicted_product_fvector
from .rng import SplitMix64, substream_uniforms

# icosahedron graph: 12 vertices, 30 edges, every vertex degree 5
# (adjacency of the icosahedron's 1-skeleton; its clique complex is a 2-sphere)
ICOSAHEDRON_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 5), (1, 7),
    (2, 4), (2, 5), (2, 8), (3, 6), (3, 7), (3, 9), (4, 6), (4, 8), (4, 10),
    (5, 7), (5, 8), (5, 11), (6, 9), (6, 10), (7, 9), (7, 11), (8, 10),
    (8, 11), (9, 10), (9, 11), (10, 11),
]


def complete(n: int) -> Complex:
    """Closure of one (n-1)-simplex: the solid K_n."""
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    check_closure([range(n)])
    return close([range(n)])


def path(n: int) -> Complex:
    """Path complex with n vertices and n-1 edges."""
    if n < 1:
        raise ValueError("path(n) needs n >= 1")
    sets = [(i,) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
    return close(sets)


def cycle(n: int) -> Complex:
    """Cycle complex C_n (1-dimensional).  A 1-sphere for n >= 4; C_3 is the
    hollow triangle, which is not the clique complex of its skeleton."""
    if n < 3:
        raise ValueError("cycle(n) needs n >= 3")
    return close([(i, (i + 1) % n) for i in range(n)])


def two_point() -> Complex:
    """The 0-sphere: two isolated points."""
    return close([(0,), (1,)])


def cross_polytope(d: int) -> Complex:
    """Join of d+1 copies of the 0-sphere: the d-dimensional cross polytope
    boundary (octahedron for d=2), a d-sphere."""
    if d < 0:
        raise ValueError("cross_polytope(d) needs d >= 0")
    check_cap("cross polytope", 3 ** (d + 1) - 1)
    G = two_point()
    for _ in range(d):
        G = join(G, two_point())
    return G


def octahedron() -> Complex:
    return cross_polytope(2)


def icosahedron() -> Complex:
    return whitney(12, ICOSAHEDRON_EDGES)


def _check_graph(n: int, edges) -> list:
    out = []
    seen = set()
    for e in edges:
        a, b = int(e[0]), int(e[1])
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge {e} outside vertex range 0..{n - 1}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        out.append(key)
    return out


def whitney(n: int, edges) -> Complex:
    """Clique complex of a simple graph on vertices 0..n-1: the closure of
    its maximal cliques, listed by Bron-Kerbosch with pivoting.  The search
    stops at the first clique that takes the closure bound of the cliques
    found so far above the cap, and refuses with that partial bound."""
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    adj = {v: set() for v in range(n)}
    for a, b in _check_graph(n, edges):
        adj[a].add(b)
        adj[b].add(a)
    maximal = []
    bound, limit = 0, cap_simplices()

    def bk(clique, candidates, excluded):
        nonlocal bound
        if not candidates and not excluded:
            maximal.append(tuple(sorted(clique)))
            bound += (1 << len(clique)) - 1
            if bound > limit:
                check_closure(maximal)  # raises, with the bound of these cliques
            return
        pivot = max(candidates | excluded, key=lambda v: len(adj[v] & candidates))
        for v in sorted(candidates - adj[pivot]):
            bk(clique | {v}, candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    if adj:
        bk(set(), set(adj), set())
    return close(maximal)


@dataclass(frozen=True)
class RandomModel:
    """Erdos-Renyi sampling parameters; identical (n, p, seed) always
    reproduce identical complexes on any platform."""

    n: int
    p: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        if self.n < 0:
            raise ValueError("n must be >= 0")


def erdos_renyi_edges(model: RandomModel, trial: int = 0) -> list:
    """Edge sample for substream `trial`: each of the C(n,2) edges (in
    lexicographic order) is kept when the next uniform draw is < p."""
    gen = SplitMix64.substream(model.seed, trial)
    edges = []
    for a in range(model.n):
        for b in range(a + 1, model.n):
            if gen.uniform() < model.p:
                edges.append((a, b))
    return edges


def erdos_renyi(model: RandomModel, trial: int = 0) -> Complex:
    """Whitney complex of a random graph (isolated vertices kept)."""
    return whitney(model.n, erdos_renyi_edges(model, trial))


# -- batched clique statistics -------------------------------------------------

CLIQUE_MAX_N = 10
BLOCK_ENTRIES = 1 << 15  # subset-table entries per block: caps the working set


@functools.cache
def _clique_table(n: int) -> tuple:
    """Per-n constants, one row per vertex subset S (bit v set when v in S):
    - pair_bits (P,) int64: the bit of each vertex pair, lexicographic;
    - pair_nbrs (P, n) int64: the neighbour bits a pair adds to each vertex;
    - pmask (2^n, 1) int64: the pair bits inside S;
    - sign (2^n, 1) int8: (-1)^(|S|-1), 0 for the empty set;
    - levels: per size k >= 1, the sets S as (m, 1) and a (k, m) array whose
      row j holds the j-th smallest member of each S."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    subsets = np.arange(1 << n, dtype=np.int64)
    member = ((subsets[:, None] >> np.arange(n)) & 1).astype(bool)
    pair_bits = np.left_shift(1, np.arange(len(pairs)), dtype=np.int64)
    pair_nbrs = np.zeros((len(pairs), n), dtype=np.int64)
    pmask = np.zeros((1 << n, 1), dtype=np.int64)
    for i, (a, b) in enumerate(pairs):
        pair_nbrs[i, a] = 1 << b
        pair_nbrs[i, b] = 1 << a
        pmask[member[:, a] & member[:, b]] |= 1 << i
    size = member.sum(axis=1)
    sign = np.where(size % 2 == 1, 1, -1).astype(np.int8)[:, None]
    sign[0] = 0
    levels = []
    for k in range(1, n + 1):
        subs = np.flatnonzero(size == k)
        members = np.nonzero(member[subs])[1].reshape(-1, k)
        levels.append((subs[:, None], members.T.copy()))
    for table in (pair_bits, pair_nbrs, pmask, sign, *sum(levels, ())):
        table.flags.writeable = False  # shared by every caller of the cache
    return pair_bits, pair_nbrs, pmask, sign, levels


def block_trials(n: int) -> int:
    """Trials per `clique_block` call on n vertices, so that one block's
    subset table holds at most BLOCK_ENTRIES entries (128 trials at n = 8).
    Raises ValueError above n = CLIQUE_MAX_N, before anything is allocated."""
    if n > CLIQUE_MAX_N:
        raise ValueError(f"n capped at {CLIQUE_MAX_N}")
    return max(1, BLOCK_ENTRIES >> max(n, 0))


def clique_block(model: RandomModel, lo: int, hi: int,
                 wu_hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invariants of the Whitney complexes of trials lo..hi-1 of `model`, the
    graphs `erdos_renyi(model, trial)` draws: int64 arrays of the Euler
    characteristic and of the Wu characteristic omega_2 (the latter for the
    trials below wu_hi only), and a float64 array of the inductive dimension
    in the float arithmetic of the recursion dim(S) = 1 + mean over v in S,
    ascending, of dim(N(v) & S), dim(empty) = -1.  At most
    `block_trials(model.n)` trials per call."""
    n, width = model.n, hi - lo
    if width > block_trials(n):
        raise ValueError("block larger than block_trials(n)")
    pair_bits, pair_nbrs, pmask, sign, levels = _clique_table(n)
    drawn = substream_uniforms(model.seed, lo, hi, len(pair_bits)) < model.p
    edges = drawn @ pair_bits
    nbrs = np.ascontiguousarray((drawn @ pair_nbrs).T)  # (n, width)
    del drawn  # temporaries go once used: together they set the peak memory
    # subset-major tables, one column per trial
    signed = (np.bitwise_and(pmask, edges) == pmask) * sign
    chi = signed.sum(axis=0)
    # omega_2 = sum over cliques S of sign(S) U(S)^2, U the superset sum of
    # the signed clique indicator (core.wu_characteristic's inclusion-exclusion)
    up = signed[:, :max(min(hi, wu_hi) - lo, 0)].astype(np.int32)
    for i in range(n):
        half = up.reshape(1 << (n - 1 - i), 2, -1)
        half[:, 0] += half[:, 1]
    up *= up
    up *= signed[:, :up.shape[1]]
    wu = up.sum(axis=0)
    del signed, up
    # dimension level by level; each sum starts at 0.0 and adds in ascending
    # vertex order, as the scalar recursion does, so every value is identical
    dim = np.empty((1 << n, width))
    dim[0] = -1.0
    cols = np.arange(width)
    for subs, members in levels:
        total = np.zeros((len(subs), width))
        for v in members:
            at = nbrs[v]
            at &= subs
            at *= width
            at += cols  # flat index of dim[N(v) & S, trial], in range
            total += np.take(dim, at, mode="clip")  # clip: no bounds pass
        total /= len(members)
        total += 1.0
        dim[subs[:, 0]] = total
    return chi, dim[-1].copy(), wu


# -- exact expectation polynomials ------------------------------------------


def expected_dimension(n: int, _cache={0: [Fraction(-1)]}) -> list:
    """Coefficients (ascending, exact rationals) of the expected inductive
    dimension of the Whitney complex of an Erdos-Renyi graph on n vertices:
    d_{n+1} = 1 + sum_k C(n,k) p^k (1-p)^(n-k) d_k, with d_0 = -1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for m in range(1, n + 1):
        if m in _cache:
            continue
        acc = [Fraction(1)]
        for k in range(m):
            # C(m-1, k) p^k (1-p)^(m-1-k), expanded by the binomial theorem
            weight = [0] * k + [comb(m - 1, k) * comb(m - 1 - k, i) * (-1) ** i
                                for i in range(m - k)]
            term = poly_mul(weight, _cache[k])
            acc += [0] * (len(term) - len(acc))
            for i, c in enumerate(term):
                acc[i] += c
        while len(acc) > 1 and acc[-1] == 0:
            acc.pop()
        _cache[m] = acc
    return list(_cache[n])


def expected_euler(n: int) -> list:
    """Coefficients (ascending, exact integers) of the expected Euler
    characteristic on E(n, p): sum_k (-1)^(k+1) C(n,k) p^C(k,2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [Fraction(0)] * (comb(n, 2) + 1) if n else [Fraction(0)]
    for k in range(1, n + 1):
        out[comb(k, 2)] += (-1) ** (k + 1) * comb(n, k)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a, b) -> list:
    """Coefficients (ascending) of the product of two polynomials; [] when
    either factor has no coefficients."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(coeffs, p):
    acc = coeffs[-1] * 0 if coeffs else 0
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


# -- strong ring product ------------------------------------------------------


def product_cells(A: Complex, B: Complex) -> list:
    """Cells of the Cartesian product A x B: pairs (x, y) ordered
    componentwise by containment, graded by dim(x) + dim(y).  Not a
    simplicial complex; its order complex realizes (A x B)_1."""
    return [(x, y) for x in A for y in B]


def ring_product_complex(A: Complex, B: Complex, cap: int | None = None) -> Complex:
    """Order complex of the product poset: the Barycentric refinement of the
    product, a genuine simplicial complex.  Vertex i is product_cells(A,B)[i].
    Refuses to build when the predicted size exceeds the cap."""
    check_cap("product", sum(predicted_product_fvector(A, B)), cap)
    return order_complex(product_cells(A, B), _cells_below)


def _cells_below(cell):
    """The product cells strictly below (x, y): face-or-self of x times
    face-or-self of y, without (x, y) itself."""
    x, y = cell
    pairs = itertools.product((*_faces(x), x), (*_faces(y), y))
    return (c for c in pairs if c != cell)
