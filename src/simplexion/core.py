"""Finite abstract simplicial complexes and their elementary invariants.

A simplex is a nonempty strictly-increasing tuple of non-negative integer
vertex ids; a complex is a finite set of simplices closed under taking
nonempty subsets.  All values are immutable and hashable, so they are safe to
share across threads and usable as cache keys.  The empty complex is a valid
value (the (-1)-sphere, the zero of the join monoid).

`order_complex` is the one builder of the complex of chains of a poset: the
Barycentric refinement, unit spheres, level surfaces and the strong-ring
product are each one call to it.

Local queries read two indexes instead of scanning the complex: the vertex
stars (v -> the simplices containing v) for stars, links and induced
subcomplexes, and the containment graph (x -> the simplices comparable to x;
the 1-skeleton of G_1) whose neighbourhoods are unit spheres.  The
coboundaries and the intersecting pairs read a third, the face table: the
simplices as arrays of vertex indices and the positions of their faces.

`join` and `disjoint_union` count their (|G|+1)(|H|+1) - 1 and |G| + |H|
simplices and refuse above the simplex cap (`errors.check_cap`) before they
build anything.

`is_whitney` decides whether a complex is flag (the clique complex of its
1-skeleton) by looking up one-vertex extensions of its own simplices; it
builds no clique complex, so its cost is bounded by the complex it is given.

Each Complex carries one memo of what is derived from it: its sorted
simplices, vertices, f-vector, the two indexes and the face table, the
connection matrix L with its factorization and eigenvalues, the chain
complex and its reduction, whether it is flag, the clique complex, and a
GraphContext each for it and the containment graph.  An entry is built on
first use and lives as long as the complex; arrays in it are read-only.
The memo is a benign idempotent cache: two threads may both build an entry,
but they build equal values.  Equal but distinct complexes do not share a
memo.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

import numpy as np

from .errors import check_cap

Simplex = tuple  # strictly increasing tuple of non-negative ints


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonical form of a simplex: sorted tuple of distinct vertex ids."""
    vs = tuple(sorted({int(v) for v in vertices}))
    if not vs:
        raise ValueError("a simplex needs at least one vertex")
    if vs[0] < 0:
        raise ValueError("vertex ids must be non-negative")
    return vs


def dim(x: Simplex) -> int:
    return len(x) - 1


def parity(x: Simplex) -> int:
    """(-1)^dim(x), the weight a simplex contributes to Euler sums."""
    return -1 if len(x) % 2 == 0 else 1


def _sort_key(x: Simplex):
    return (len(x), x)


class Complex:
    """An immutable downward-closed set of simplices.

    Use :func:`close` to build one, or ``Complex(simplices)`` on data that
    is already closed (checked).  Iteration yields simplices in canonical
    order: by dimension, then lexicographically.
    """

    __slots__ = ("simplices", "_memo")

    def __init__(self, simplices: Iterable[Simplex] = (), *, _closed: bool = False):
        sset = frozenset(simplices)
        if not _closed:
            for x in sset:
                for k in range(1, len(x)):
                    for face in itertools.combinations(x, k):
                        if face not in sset:
                            raise ValueError(
                                f"not downward closed: {face} missing under {x}"
                            )
        self.simplices = sset
        self._memo = {}

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.memo("sorted", lambda: sorted(self.simplices, key=_sort_key)))

    def __contains__(self, x) -> bool:
        return x in self.simplices

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)  # a frozenset keeps its own hash

    def __repr__(self) -> str:
        f = self.f_vector()
        return f"Complex(f={f}, chi={self.euler_characteristic()})"

    def memo(self, key: str, build):
        """The object derived from this complex under key: build() on the
        first request, the stored object on every later one.  A build that
        raises stores nothing."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- basic invariants --------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    def vertices(self) -> tuple:
        """All vertex ids, ascending."""
        return self.memo("vertices", lambda: tuple(sorted(
            {v for x in self.simplices for v in x})))

    def max_dim(self) -> int:
        """Maximal dimension; -1 for the empty complex."""
        return max((len(x) for x in self.simplices), default=0) - 1

    def f_vector(self) -> tuple:
        """(v_0, ..., v_r): simplex counts per dimension; () when empty."""
        return self.memo("f_vector", self._count_by_dim)

    def _count_by_dim(self) -> tuple:
        counts = [0] * (self.max_dim() + 1)
        for x in self.simplices:
            counts[len(x) - 1] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        """Alternating sum of simplex parities."""
        return sum(parity(x) for x in self.simplices)

    def facets(self) -> list:
        """Maximal simplices, canonical order.  The set is closed, so x is
        maximal exactly when it is no codimension-1 face of a simplex."""
        covered = {y[:i] + y[i + 1:] for y in self.simplices if len(y) > 1
                   for i in range(len(y))}
        return sorted(self.simplices - covered, key=_sort_key)

    def simplices_of_dim(self, k: int) -> list:
        return [x for x in self if len(x) == k + 1]


EMPTY = Complex()
POINT = Complex((( 0,),), _closed=True)


def close(sets: Iterable[Iterable[int]]) -> Complex:
    """Downward closure of a family of vertex sets.  Idempotent."""
    closed = set()
    for s in sets:
        x = simplex(s)
        if x in closed:
            continue
        for k in range(1, len(x) + 1):
            closed.update(itertools.combinations(x, k))
    return Complex(closed, _closed=True)


def generating_function(G: Complex) -> list:
    """Coefficients [1, v_0, v_1, ...] of f_G(t) = 1 + sum v_k t^(k+1).

    f_G(0) - f_G(-1) = chi(G), and the join multiplies these polynomials.
    """
    return [1] + list(G.f_vector())


# -- stars, links, spheres -------------------------------------------------


def _vertex_stars(G: Complex) -> dict:
    """v -> the simplices of G containing v, in canonical order; memoed."""
    def build():
        stars = {v: [] for v in G.vertices()}
        for x in G:
            for v in x:
                stars[v].append(x)
        return {v: tuple(s) for v, s in stars.items()}
    return G.memo("vertex_stars", build)


def face_table(G: Complex) -> tuple:
    """(rows, F), memoed: rows[k] holds the k-simplices, in canonical order,
    as rows of vertex indices (positions in G.vertices()), and F[i, p] is
    the canonical position of simplex i without its vertex p, -1 past its
    dimension and on vertices.  A k-simplex is found by its key (position of
    its first k vertices) * #vertices + last vertex, which grows along the
    degree and never with the dimension; pos holds the positions of the
    prefixes of all simplices at once, one vertex longer per degree."""
    def build():
        f = G.f_vector()
        nv, base = (f or (0,))[0], [0, *itertools.accumulate(f)]
        size = np.arange(1, len(f) + 1).repeat(f)
        flat = np.fromiter(itertools.chain.from_iterable(G), np.int64, int(size.sum()))
        X = np.zeros((len(G), len(f)), dtype=np.int64)
        X[np.arange(len(f)) < size[:, None]] = flat[:nv].searchsorted(flat)
        F = np.full(X.shape, -1, dtype=np.int64)
        pos, keys = X[:, :1].flatten(), np.arange(nv)  # a vertex's key is its index
        for k in range(1, len(f)):
            b, e = base[k], base[k + 1]
            # face p < k: face p of the prefix (the empty one for an edge), then the last vertex
            up = F[base[k - 1] + pos[b:e], :k] - base[k - 2] if k > 1 else 0
            F[b:e, :k] = base[k - 1] + keys.searchsorted(up * nv + X[b:e, k, None])
            F[b:e, k] = base[k - 1] + pos[b:e]
            key = pos[b:] * nv + X[b:, k]
            keys = key[:e - b]
            pos[b:] = keys.searchsorted(key)
        X.setflags(write=False)
        F.setflags(write=False)
        return tuple(X[base[k]:base[k + 1], :k + 1] for k in range(len(f))), F
    return G.memo("faces", build)


def _containment_graph(G: Complex) -> dict:
    """x -> the frozenset of simplices y != x comparable to x; memoed.  About
    3^(d+1) pairs per d-simplex: build it only to read every unit sphere."""
    def build():
        adj = {x: set() for x in G.simplices}
        for y in G.simplices:
            for x in _faces(y):
                adj[x].add(y)
                adj[y].add(x)
        return {x: frozenset(s) for x, s in adj.items()}
    return G.memo("containment", build)


def star_up(G: Complex, x: Simplex) -> frozenset:
    """{y in G : x is a subset of y} - generally not a subcomplex."""
    if x not in G.simplices:
        raise KeyError(f"{x} not in complex")
    stars = _vertex_stars(G)
    sx = set(x)
    return frozenset(y for y in min((stars[v] for v in x), key=len) if sx.issubset(y))


def star_down(G: Complex, x: Simplex) -> Complex:
    """{y in G : y is a subset of x} - the closure of x, always a complex."""
    if x not in G.simplices:
        raise KeyError(f"{x} not in complex")
    return close([x])


def set_euler(simplices: Iterable[Simplex]) -> int:
    """Alternating parity sum of an arbitrary set of simplices (the Euler
    'characteristic' the star formulas use; the set need not be closed)."""
    return sum(parity(x) for x in simplices)


def up_star_weights(G: Complex) -> dict:
    """Map s -> sum of parity(z) over z in G containing s.

    Single pass over all (simplex, nonempty subset) incidences; backs the Wu
    characteristic and the Green star formula.
    """
    acc = {}
    for z in G.simplices:
        w = parity(z)
        for k in range(1, len(z) + 1):
            for s in itertools.combinations(z, k):
                acc[s] = acc.get(s, 0) + w
    return acc


def wu_characteristic(G: Complex, k: int = 2) -> int:
    """Sum of parity products over ordered k-tuples of simplices whose common
    intersection is nonempty; k=1 gives the Euler characteristic.

    Computed by inclusion-exclusion over the common face: with
    U(s) = sum of parity over supersets of s,
    omega_k = sum over s in G of parity(s) * U(s)^k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return G.euler_characteristic()
    U = up_star_weights(G)
    return sum(parity(s) * U[s] ** k for s in G.simplices)


def comparable_elements(G: Complex, x: Simplex) -> list:
    """Simplices y != x with y subset of x or x subset of y, canonical order."""
    return sorted([*_faces(x), *star_up(G, x) - {x}], key=_sort_key)


def unit_sphere(G: Complex, x: Simplex) -> Complex:
    """Unit sphere of x in the containment graph of G, as a complex.

    Vertices 0..m-1 index the comparable elements (see
    comparable_elements for the labels); simplices are the chains among
    them, i.e. the Whitney complex of the induced containment graph.
    """
    return order_complex(comparable_elements(G, x), _faces)


def _faces(x: Simplex) -> Iterator[Simplex]:
    """The proper nonempty faces of a simplex."""
    for k in range(1, len(x)):
        yield from itertools.combinations(x, k)


def order_complex(elems: list, below) -> Complex:
    """Order complex of a finite poset: its simplices are the chains, as
    tuples of indices into elems.

    elems lists the poset in a linear extension (every element after all
    elements below it); below(e) yields the elements strictly below e, and
    those not in elems are skipped.  Raises ValueError when below(e) names
    an element listed at or after e.
    """
    index = {e: i for i, e in enumerate(elems)}
    above = [[] for _ in elems]
    for j, e in enumerate(elems):
        for y in below(e):
            i = index.get(y)
            if i is None:
                continue
            if i >= j:
                raise ValueError(f"{y!r} is below {e!r} but not listed before it")
            above[i].append(j)
    chains = []

    def extend(chain):
        chains.append(tuple(chain))
        for j in above[chain[-1]]:
            chain.append(j)
            extend(chain)
            chain.pop()

    for i in range(len(elems)):
        extend([i])
    return Complex(chains, _closed=True)


def sphere_euler(G: Complex, x: Simplex) -> int:
    """chi of the unit sphere of x, without building the sphere.

    Splits S(x) as the join of the boundary sphere of x (closed form) and the
    up-star sphere (signed chain count over supersets), using
    1 - chi(A join B) = (1 - chi A)(1 - chi B).
    """
    if x not in G.simplices:
        raise KeyError(f"{x} not in complex")
    d = dim(x)
    chi_down = 1 + (-1) ** (d - 1) if d >= 1 else 0  # boundary of x
    ups = sorted((y for y in star_up(G, x) if y != x), key=_sort_key)
    # signed chain count: A(y) = 1 - sum A(z) over z strictly between x and y
    A = {}
    chi_up = 0
    sets = [set(y) for y in ups]
    for j, y in enumerate(ups):
        a = 1
        for i in range(j):
            if len(ups[i]) < len(y) and sets[i] < sets[j]:
                a -= A[ups[i]]
        A[y] = a
        chi_up += a
    return 1 - (1 - chi_down) * (1 - chi_up)


def link(G: Complex, x: Simplex) -> Complex:
    """Link of x: {y : y disjoint from x, y union x in G}.  Keeps the
    original vertex labels (unlike unit_sphere, which reindexes)."""
    if x not in G.simplices:
        raise KeyError(f"{x} not in complex")
    sx = set(x)
    out = []
    for z in star_up(G, x):
        rest = tuple(v for v in z if v not in sx)
        if rest:
            out.append(rest)
    return Complex(out, _closed=True)


def induced(G: Complex, W: Iterable[int]) -> Complex:
    """Induced subcomplex on a vertex subset: all simplices inside W, each
    read from the star of its least vertex.  Vertices outside G are ignored."""
    sw = set(W)
    stars = _vertex_stars(G)
    return Complex((x for v in sw for x in stars.get(v, ())
                    if x[0] == v and sw.issuperset(x)), _closed=True)


def complex_union(A: Complex, B: Complex) -> Complex:
    return Complex(A.simplices | B.simplices, _closed=True)


def complex_intersection(A: Complex, B: Complex) -> Complex:
    return Complex(A.simplices & B.simplices, _closed=True)


# -- join and disjoint union ----------------------------------------------


def _relabel(G: Complex, offset: int) -> Complex:
    """Shift all vertex ids to offset..offset+m-1 densely."""
    vmap = {v: offset + i for i, v in enumerate(G.vertices())}
    return Complex((tuple(vmap[v] for v in x) for x in G.simplices), _closed=True)


def join(G: Complex, H: Complex) -> Complex:
    """Join of two complexes: both, plus all unions of one simplex from each.

    H's vertices are relabeled above G's.  Written G + H or G ⊕ H in the
    literature (both glyphs denote this one operation); generating functions
    multiply, so 1 - chi(join) = (1-chi G)(1-chi H), and the join of spheres
    is a sphere.  The empty complex is the neutral element.  Its
    (|G|+1)(|H|+1) - 1 simplices are checked against the simplex cap
    before any is built.
    """
    check_cap("join", (len(G) + 1) * (len(H) + 1) - 1)
    g2 = _relabel(G, 0)
    h2 = _relabel(H, len(G.vertices()))
    out = set(g2.simplices) | set(h2.simplices)
    for x in g2.simplices:
        for y in h2.simplices:
            out.add(x + y)  # disjoint and ordered by construction
    return Complex(out, _closed=True)


def disjoint_union(G: Complex, H: Complex) -> Complex:
    """Disjoint union (the addition of the strong ring); relabels H above G.
    Its |G| + |H| simplices are checked against the simplex cap first."""
    check_cap("disjoint union", len(G) + len(H))
    return Complex(_relabel(G, 0).simplices | _relabel(H, len(G.vertices())).simplices,
                   _closed=True)


# -- graphs -----------------------------------------------------------------


def one_skeleton(G: Complex) -> dict:
    """Adjacency map of the 1-skeleton: vertex -> set of neighbors."""
    adj = {v: set() for v in G.vertices()}
    for x in G.simplices:
        if len(x) == 2:
            a, b = x
            adj[a].add(b)
            adj[b].add(a)
    return adj


def is_whitney(G: Complex) -> bool:
    """True when G is flag: the clique complex of its own 1-skeleton.

    Decided on G itself, building nothing: a smallest clique C missing from
    G has at least three vertices, and dropping its largest vertex v leaves
    a simplex x, so G is flag exactly when x + (v,) is in G for every
    simplex x and every common neighbour v > max(x) of its vertices.
    Memoed on G."""
    def decide():
        adj = one_skeleton(G)
        return not any(v > x[-1] and x + (v,) not in G.simplices
                       for x in G.simplices if len(x) > 1
                       for v in set.intersection(*(adj[u] for u in x)))
    return G.memo("flag", decide)
