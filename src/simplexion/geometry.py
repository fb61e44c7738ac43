"""Discrete Morse theory, curvature, valuations, level surfaces, the
inductive dimension, and the recursive homotopy hierarchy (contractible /
d-graph / d-sphere / d-ball).

Vertex-based operations here take functions on the 0-simplices and use the
induced-subcomplex unit sphere; the classical theorems (Poincare-Hopf,
Gauss-Bonnet, Sard, Morse inequalities) hold when the complex is the clique
complex of its own 1-skeleton.  A general complex is handled by passing its
Barycentric refinement, whose vertices are the simplices of the original and
which is always a clique complex.

The boundary operators read the unit sphere of a simplex x as the
neighbourhood of x in the containment graph of G (see `core`).  One
GraphContext on that graph is memoed per complex, so every simplex and both
`is_d_complex_with_boundary` and `boundary` share one set of homotopy tables.

The inductive dimension of a complex that is not flag recurses on its
containment graph, whose cliques are the simplices of the refinement; the
refinement's predicted size is checked against the simplex cap first.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .core import (
    Complex,
    _containment_graph,
    _faces,
    close,
    induced,
    is_whitney,
    link,
    one_skeleton,
    order_complex,
)
from .errors import check_cap
from .refinement import barycentric, predicted_refinement_fvector, refinement_order
from .rng import SplitMix64


# -- vertex functions ---------------------------------------------------------


def require_locally_injective(G: Complex, f: dict):
    for x in G.simplices:
        if len(x) == 2 and f[x[0]] == f[x[1]]:
            raise ValueError(f"function not locally injective on edge {x}")


def random_injective_function(G: Complex, gen: SplitMix64) -> dict:
    """Uniform random linear order of the vertices, as a function."""
    verts = list(G.vertices())
    gen.shuffle(verts)
    return {v: i for i, v in enumerate(verts)}


def _lower_set(adj: dict, f: dict, v) -> frozenset:
    fv = f[v]
    return frozenset(w for w in adj[v] if f[w] < fv)


def ph_index(G: Complex, f: dict, v, adj: dict | None = None) -> int:
    """Poincare-Hopf index 1 - chi(S^-_f(v)), where S^- is the subcomplex
    induced on the neighbors below v.  Summed over all vertices this gives
    chi(G) on clique complexes."""
    if adj is None:
        require_locally_injective(G, f)
        adj = one_skeleton(G)
    if v not in adj:
        raise KeyError(f"vertex {v} not in complex")
    return 1 - induced(G, _lower_set(adj, f, v)).euler_characteristic()


def ph_index_sum(G: Complex, f: dict) -> int:
    require_locally_injective(G, f)
    adj = one_skeleton(G)
    memo = {}
    total = 0
    for v in adj:
        key = _lower_set(adj, f, v)
        if key not in memo:
            memo[key] = induced(G, key).euler_characteristic()
        total += 1 - memo[key]
    return total


def curvature_expectation(G: Complex, v, trials: int, seed: int) -> float:
    """Monte Carlo curvature: mean Poincare-Hopf index of v over uniform
    random orders of the vertices; converges to the Levitt curvature on
    clique complexes.  Trial k draws from substream k of the seed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    adj = one_skeleton(G)
    if v not in adj:
        raise KeyError(f"vertex {v} not in complex")
    verts = sorted(adj)
    nbrs = sorted(adj[v])
    chi_memo = {}
    total = 0
    for trial in range(trials):
        gen = SplitMix64.substream(seed, trial)
        order = gen.shuffle(list(verts))
        pos = {w: i for i, w in enumerate(order)}
        low = frozenset(w for w in nbrs if pos[w] < pos[v])
        if low not in chi_memo:
            chi_memo[low] = induced(G, low).euler_characteristic()
        total += 1 - chi_memo[low]
    return total / trials


def levitt_curvature(G: Complex, v) -> Fraction:
    """Exact curvature 1 - v0(S)/2 + v1(S)/3 - ... of the link S of v.
    Summed over all vertices this is exactly chi(G), for every complex."""
    fv = link(G, (v,) if not isinstance(v, tuple) else v).f_vector()
    k = Fraction(1)
    for i, c in enumerate(fv):
        k += Fraction((-1) ** (i + 1) * c, i + 2)
    return k


def curvature_vector(G: Complex) -> dict:
    return {v: levitt_curvature(G, v) for v in G.vertices()}


# -- valuations ---------------------------------------------------------------


def valuation_eval(X, G: Complex):
    """X . f(G), zero-extended on either side."""
    fv = G.f_vector()
    return sum(Fraction(x) * c for x, c in zip(X, fv))


def valuation_check(X, A: Complex, B: Complex) -> bool:
    """The defining identity X(A i B) + X(A u B) = X(A) + X(B); exact."""
    inter = Complex(A.simplices & B.simplices, _closed=True)
    union = Complex(A.simplices | B.simplices, _closed=True)
    return (
        valuation_eval(X, inter) + valuation_eval(X, union)
        == valuation_eval(X, A) + valuation_eval(X, B)
    )


def dehn_sommerville_valuation(k: int, d: int) -> list:
    """The valuation vanishing on closed d-graphs: coefficient
    (-1)^(j+d) C(j+1, k+1) on v_j for k <= j <= d, with an extra -1 at v_k.
    (Example: k=0, d=2 gives (0, -2, 3), i.e. 3 v_2 = 2 v_1 on surfaces.)"""
    if not (0 <= k <= d):
        raise ValueError("need 0 <= k <= d")
    X = [0] * (d + 1)
    for j in range(k, d + 1):
        X[j] += (-1) ** (j + d) * comb(j + 1, k + 1)
    X[k] -= 1
    return X


def ds_curvature_check(G: Complex, d: int | None = None) -> bool:
    """For a d-graph, the localized Dehn-Sommerville curvature
    X_{k-1,d-1}(link(v)) vanishes at every vertex and every k."""
    if d is None:
        d = G.max_dim()
    if not is_d_graph(G, d):
        raise ValueError(f"not a {d}-graph")
    for v in G.vertices():
        fl = link(G, (v,)).f_vector()
        for k in range(1, d + 1):
            X = dehn_sommerville_valuation(k - 1, d - 1)
            if sum(x * c for x, c in zip(X, fl)) != 0:
                return False
    return True


# -- level surfaces -----------------------------------------------------------


def level_surface(G: Complex, f: dict, c: float) -> Complex:
    """The hypersurface {f = c}: the subcomplex of the Barycentric refinement
    induced on the simplices whose vertex values straddle c.  Vertex labels
    are indices into refinement_order(G).  For a d-graph and locally
    injective f this is a (d-1)-graph (discrete Sard)."""
    values = [f[v] for v in G.vertices()]
    if any(val == c for val in values):
        raise ValueError("level value c must avoid the range of f")
    elems = refinement_order(G)
    crossing = [
        i
        for i, x in enumerate(elems)
        if min(f[v] for v in x) < c < max(f[v] for v in x)
    ]
    # chains among crossing simplices = the induced subcomplex of G_1
    chains = order_complex([elems[i] for i in crossing], _faces)
    return Complex((tuple(crossing[i] for i in c) for c in chains), _closed=True)


# -- inductive dimension ------------------------------------------------------


def inductive_dimension(G: Complex) -> Fraction:
    """Recursive average dimension.

    For a Whitney complex, dim(G) = 1 + average over vertices of
    dim(sphere at the vertex), with dim(empty) = -1; a general complex is
    measured on its containment graph, the 1-skeleton of its Barycentric
    refinement (same value by definition).  The recursion there visits the
    chains of G, so the refinement size cap applies.
    """
    if G.is_empty:
        return Fraction(-1)
    if is_whitney(G):
        return graph_dimension(one_skeleton(G))
    check_cap("refinement", sum(predicted_refinement_fvector(G)))
    return graph_dimension(_containment_graph(G))


def graph_dimension(adj: dict) -> Fraction:
    """Inductive dimension of a graph given by an adjacency map."""
    verts = sorted(adj)
    index = {v: i for i, v in enumerate(verts)}
    masks = [0] * len(verts)
    for v, nbrs in adj.items():
        m = 0
        for w in nbrs:
            m |= 1 << index[w]
        masks[index[v]] = m
    full = (1 << len(verts)) - 1
    return _mask_dimension(masks, full, {})


def _mask_dimension(masks, subset: int, memo: dict) -> Fraction:
    if subset == 0:
        return Fraction(-1)
    got = memo.get(subset)
    if got is not None:
        return got
    total = Fraction(0)
    count = 0
    s = subset
    while s:
        low = s & (-s)
        v = low.bit_length() - 1
        total += _mask_dimension(masks, masks[v] & subset, memo)
        count += 1
        s ^= low
    val = 1 + total / count
    memo[subset] = val
    return val


# -- homotopy recursion -------------------------------------------------------


class GraphContext:
    """Memoized homotopy queries on induced subgraphs of one fixed graph.

    Subgraphs are identified by frozensets of vertices; all the recursive
    Evako-style definitions (contractible, d-sphere, d-ball, d-graph) share
    one memo table per ambient graph.  The tables hold finished answers only,
    so a query cut short by an exception leaves none behind.  Queries recurse
    only into vertex spheres, each strictly inside its vertex's neighbourhood,
    so calls nest at most clique number (dimension plus one) deep.
    """

    def __init__(self, adj: dict):
        self.adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._contract = {}
        self._sphere = {}
        self._ball = {}

    def full(self) -> frozenset:
        return frozenset(self.adj)

    def contractible(self, sub: frozenset) -> bool:
        """There is a vertex whose sphere and whose removal are both
        contractible; single points are contractible, the empty graph is not.
        The removals are searched depth first on an explicit stack of (set,
        iterator over its sorted vertices) frames; only the sphere query
        recurses.  A remainder that succeeds settles every frame True, and a
        frame that runs out of vertices is settled False."""
        if len(sub) <= 1:
            return bool(sub)
        got = self._contract.get(sub)
        if got is not None:
            return got
        stack = [(sub, iter(sorted(sub)))]
        while stack:
            s, verts = stack[-1]
            for v in verts:
                if self.contractible(self.adj[v] & s):
                    rest = s - {v}
                    got = len(rest) == 1 or self._contract.get(rest)
                    if got:
                        for t, _ in stack:
                            self._contract[t] = True
                        return True
                    if got is None:
                        stack.append((rest, iter(sorted(rest))))
                        break
            else:
                self._contract[s] = False
                stack.pop()
        return False

    def removal_order(self, sub: frozenset) -> list | None:
        """A sequence of homotopy steps reducing sub to one vertex: each
        removed vertex has contractible sphere and contractible remainder.
        None when the search fails (then sub is not contractible)."""
        order = []
        current = sub
        while len(current) > 1:
            pick = None
            for v in sorted(current):
                if self.contractible(self.adj[v] & current) and self.contractible(
                    current - {v}
                ):
                    pick = v
                    break
            if pick is None:
                return None
            order.append(pick)
            current = current - {pick}
        if not current:
            return None
        order.append(next(iter(current)))
        return order

    def d_graph(self, sub: frozenset, d: int) -> bool:
        return all(self.d_sphere(self.adj[v] & sub, d - 1) for v in sub)

    def d_sphere(self, sub: frozenset, d: int) -> bool:
        """d-graph such that removing some vertex leaves a contractible
        graph; the empty graph is the (-1)-sphere."""
        if d < 0:
            return not sub
        if not sub:
            return False
        key = (sub, d)
        got = self._sphere.get(key)
        if got is None:
            got = self.d_graph(sub, d) and any(
                self.contractible(sub - {v}) for v in sorted(sub)
            )
            self._sphere[key] = got
        return got

    def d_ball(self, sub: frozenset, d: int) -> bool:
        """Contractible d-graph-with-boundary whose boundary vertices (those
        with ball spheres) form a (d-1)-sphere; a single vertex is the 0-ball.
        """
        if d < 0:
            return False
        if d == 0:
            return len(sub) == 1
        key = (sub, d)
        got = self._ball.get(key)
        if got is None:
            got = self._ball_raw(sub, d)  # recurses in d - 1 only
            self._ball[key] = got
        return got

    def _ball_raw(self, sub: frozenset, d: int) -> bool:
        if not sub:
            return False
        boundary = set()
        for v in sub:
            s = self.adj[v] & sub
            if self.d_sphere(s, d - 1):
                continue
            if self.d_ball(s, d - 1):
                boundary.add(v)
            else:
                return False
        return (
            bool(boundary)
            and self.contractible(sub)
            and self.d_sphere(frozenset(boundary), d - 1)
        )


def _graph_context(G: Complex) -> GraphContext:
    """The GraphContext of G's 1-skeleton, memoed on G with its tables."""
    return G.memo("graph", lambda: GraphContext(one_skeleton(G)))


def _containment_context(G: Complex) -> GraphContext:
    """The GraphContext of G's containment graph, memoed on G: adj[x] is the
    unit sphere of x, and its induced subgraph the sphere's 1-skeleton."""
    return G.memo("containment_context", lambda: GraphContext(_containment_graph(G)))


def clique_complex(G: Complex) -> Complex:
    """G itself when it is the clique complex of its skeleton, else its
    Barycentric refinement (which always is); memoed on G."""
    H = G.memo("clique", lambda: None if is_whitney(G) else barycentric(G))
    return G if H is None else H


def clique_vertex_count(G: Complex) -> int:
    """The vertex count of clique_complex(G), without building it: G's own
    when G is flag, one per simplex of G for its refinement."""
    return len(G.vertices()) if is_whitney(G) else len(G)


def is_contractible(G: Complex) -> bool:
    """Recursive contractibility (collapsibility in the unit-sphere sense).
    A False answer means no reduction sequence was found by the full
    recursive search; complexes homotopic to a point but not contractible
    (dunce-hat style) are reported False by design."""
    if G.is_empty:
        return False
    H = clique_complex(G)
    ctx = _graph_context(H)
    return ctx.contractible(ctx.full())


def is_d_graph(G: Complex, d: int) -> bool:
    """Every vertex sphere is a (d-1)-sphere (discrete d-manifold)."""
    H = clique_complex(G)
    ctx = _graph_context(H)
    return ctx.d_graph(ctx.full(), d)


def is_d_sphere(G: Complex, d: int) -> bool:
    if G.is_empty:
        return d == -1
    H = clique_complex(G)
    ctx = _graph_context(H)
    return ctx.d_sphere(ctx.full(), d)


def is_d_ball(G: Complex, d: int) -> bool:
    if G.is_empty:
        return False
    H = clique_complex(G)
    ctx = _graph_context(H)
    return ctx.d_ball(ctx.full(), d)


def boundary(G: Complex, d: int) -> Complex:
    """Boundary of a d-complex with boundary: the subcomplex generated by the
    simplices whose unit sphere (in the containment graph) is a (d-1)-ball.
    The boundary of a boundary is empty."""
    ctx = _containment_context(G)
    out = [x for x in G.simplices if ctx.d_ball(ctx.adj[x], d - 1)]
    return close(out) if out else Complex()


def is_d_complex_with_boundary(G: Complex, d: int) -> bool:
    """Every unit sphere is a (d-1)-sphere or a (d-1)-ball."""
    ctx = _containment_context(G)
    return all(ctx.d_sphere(ctx.adj[x], d - 1) or ctx.d_ball(ctx.adj[x], d - 1)
               for x in G.simplices)


# -- Morse theory -------------------------------------------------------------


def morse_analysis(G: Complex, f: dict) -> dict:
    """Classify every vertex of a clique complex under f.

    A vertex is regular when S^-_f is contractible and critical when S^- is a
    sphere (the empty sphere included); f is a Morse function when every
    vertex is one of the two.  The Morse index of a critical vertex is
    1 + dim(S^-).  Returns counts c_k, the index map, and the first failing
    vertex for non-Morse input."""
    require_locally_injective(G, f)
    adj = one_skeleton(G)
    ctx = _graph_context(G)
    indices = {}
    failing = None
    for v in sorted(adj):
        low = _lower_set(adj, f, v)
        if ctx.contractible(low):
            continue
        sm = induced(G, low)
        dlow = sm.max_dim() if not sm.is_empty else -1
        if ctx.d_sphere(low, dlow):
            indices[v] = 1 + dlow
        else:
            failing = v
            break
    is_morse = failing is None
    counts = ()
    if is_morse and indices:
        top = max(indices.values())
        counts = tuple(
            sum(1 for m in indices.values() if m == k) for k in range(top + 1)
        )
    elif is_morse:
        counts = ()
    return {
        "is_morse": is_morse,
        "failing_vertex": failing,
        "indices": indices,
        "counts": counts,
    }


def morse_inequalities_hold(counts, betti) -> bool:
    """Weak (b_k <= c_k) and strong alternating Morse inequalities."""
    top = max(len(counts), len(betti))
    c = list(counts) + [0] * (top - len(counts))
    b = list(betti) + [0] * (top - len(betti))
    if any(bk > ck for bk, ck in zip(b, c)):
        return False
    for p in range(top):
        partial = sum((-1) ** k * (c[k] - b[k]) for k in range(p + 1))
        if (-1) ** p * partial < 0:
            return False
    return sum((-1) ** k * (c[k] - b[k]) for k in range(top)) == 0


def critical_points(G: Complex, f: dict) -> list:
    """Vertices whose lower sphere is not contractible (includes minima)."""
    require_locally_injective(G, f)
    adj = one_skeleton(G)
    ctx = _graph_context(G)
    out = []
    for v in sorted(adj):
        low = _lower_set(adj, f, v)
        if not ctx.contractible(low):
            out.append(v)
    return out


def reeb_sphere_check(G: Complex, d: int | None = None) -> dict:
    """Construct a function with exactly two critical points on a d-sphere.

    Strategy: pick a vertex x0 whose removal admits a full homotopy reduction;
    number the remaining vertices by the reverse removal order and put x0 on
    top.  Every intermediate vertex then has the contractible sphere it had
    when removed.  Returns the function and its critical points; 'success'
    False with reason 'budget' means the greedy searches failed, not that no
    such function exists."""
    if d is None:
        d = G.max_dim()
    H = clique_complex(G)
    if not is_d_sphere(H, d):
        raise ValueError(f"not a {d}-sphere")
    ctx = _graph_context(H)
    full = ctx.full()
    for x0 in sorted(full):
        order = ctx.removal_order(full - {x0})
        if order is None:
            continue
        f = {}
        for rank, v in enumerate(reversed(order)):
            f[v] = rank
        f[x0] = len(order)
        crit = critical_points(H, f)
        if len(crit) == 2:
            return {"success": True, "function": f, "critical": crit}
    return {"success": False, "reason": "budget", "function": None}
