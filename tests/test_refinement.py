from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexion as sx
from simplexion.core import comparable_elements
from simplexion.errors import ResourceLimitError
from simplexion.generators import product_cells
from simplexion.geometry import level_surface
from simplexion.refinement import (
    order_complex,
    predicted_product_fvector,
    predicted_refinement_fvector,
    refinement_order,
)

from oracles import chains_bruteforce


def stirling2_formula(n, k):
    """Independent Stirling numbers: inclusion-exclusion over surjections."""
    if k == 0:
        return 1 if n == 0 else 0
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def test_barycentric_k2():
    b = sx.barycentric(sx.close([(0, 1)]))
    assert b.f_vector() == (3, 2)


def test_barycentric_k3():
    b = sx.barycentric(sx.close([(0, 1, 2)]))
    assert b.f_vector() == (7, 12, 6)


def test_barycentric_preserves_euler(corpus):
    for _, G in corpus:
        if len(G) > 100:
            continue
        assert sx.barycentric(G).euler_characteristic() == G.euler_characteristic()


def test_barycentric_empty():
    assert sx.barycentric(sx.Complex()).is_empty


def test_barycentric_commutes_with_union():
    A, B = sx.cycle(4), sx.close([(0, 1, 2)])
    left = sx.barycentric(sx.disjoint_union(A, B))
    right = sx.disjoint_union(sx.barycentric(A), sx.barycentric(B))
    assert left.f_vector() == right.f_vector()
    assert left.euler_characteristic() == right.euler_characteristic()


def test_dimension_properly_colors_refinement_graph(corpus):
    # comparable simplices have different dimension, so dim is a proper
    # coloring of the containment graph (refinements are Eulerian)
    for _, G in corpus[:8]:
        if len(G) > 60:
            continue
        elems = refinement_order(G)
        b = sx.barycentric(G)
        for e in b.simplices:
            if len(e) == 2:
                assert len(elems[e[0]]) != len(elems[e[1]])


def test_dim1_refinement_bipartite_by_parity():
    # for one-dimensional complexes the containment graph is the edge
    # subdivision, bipartite with the dimension-parity classes (a vertex
    # inside a triangle of a 2-complex already breaks this, so the claim
    # is tested exactly where it is true)
    for G in (sx.cycle(4), sx.cycle(7), sx.close([(0, 1)]), sx.path(5)):
        elems = refinement_order(G)
        b = sx.barycentric(G)
        for e in b.simplices:
            if len(e) == 2:
                assert len(elems[e[0]]) % 2 != len(elems[e[1]]) % 2


def test_refinement_cap():
    with pytest.raises(ResourceLimitError):
        sx.barycentric(sx.cross_polytope(3), cap=10)


def test_stirling_matrix_entries():
    for r in range(7):
        S = sx.stirling_matrix(r)
        for x in range(1, r + 2):
            for y in range(1, r + 2):
                expected = stirling2_formula(y, x) * factorial(x)
                assert S[x - 1][y - 1] == expected
        # diagonal k!
        for k in range(1, r + 2):
            assert S[k - 1][k - 1] == factorial(k)


def test_stirling_apply_examples():
    assert sx.stirling_apply(sx.stirling_matrix(1), (2, 1)) == (3, 2)
    assert sx.stirling_apply(sx.stirling_matrix(2), (3, 3, 1)) == (7, 12, 6)


def test_stirling_matches_refinement(corpus):
    for _, G in corpus:
        if G.is_empty or len(G) > 120:
            continue
        S = sx.stirling_matrix(G.max_dim())
        assert sx.stirling_apply(S, G.f_vector()) == sx.barycentric(G).f_vector()


def test_stirling_two_levels():
    for G in (sx.close([(0, 1, 2)]), sx.cross_polytope(2)):
        b1 = sx.barycentric(G)
        b2 = sx.barycentric(b1)
        S = sx.stirling_matrix(G.max_dim())
        assert sx.stirling_apply(S, b1.f_vector()) == b2.f_vector()


def test_predicted_fvector(corpus):
    for _, G in corpus:
        if G.is_empty or len(G) > 120:
            continue
        assert predicted_refinement_fvector(G) == sx.barycentric(G).f_vector()


def test_euler_unique_vector():
    assert sx.euler_unique_vector(1) == [1, -1]
    assert sx.euler_unique_vector(3) == [1, -1, 1, -1]
    for r in range(7):
        vec = sx.euler_unique_vector(r)
        assert vec == [(-1) ** k for k in range(r + 1)]


def test_euler_vector_recovers_chi(corpus):
    for _, G in corpus:
        if G.is_empty:
            continue
        vec = sx.euler_unique_vector(6)
        f = G.f_vector()
        assert sum(a * b for a, b in zip(vec, f)) == G.euler_characteristic()


def test_connection_graph():
    k2 = sx.close([(0, 1)])
    labels, edges = sx.connection_graph(k2)
    assert labels == [(0,), (1,), (0, 1)]
    assert edges == [(0, 2), (1, 2)]
    pts = sx.close([(0,), (1,)])
    assert sx.connection_graph(pts)[1] == []
    assert sx.connection_graph(pts, dual=True)[1] == [(0, 1)]


def test_intersecting_pairs_match_scans(local_corpus):
    # the incidence-product builders against pair-by-pair scans: the
    # connection graph and its dual, the Wu intersection matrix, and the
    # product connection matrix with the point and (up to 100 simplices,
    # 800 cells) with C4, for which the kron check is independent of L
    from simplexion.cohomology import product_connection_matrix
    from simplexion.connection import connection_matrix, wu_intersection_matrix

    from oracles import (
        connection_graph_scan,
        product_connection_matrix_scan,
        wu_intersection_matrix_scan,
    )

    point, c4 = sx.close([(0,)]), sx.cycle(4)
    for name, G in local_corpus:
        for dual in (False, True):
            assert sx.connection_graph(G, dual) == connection_graph_scan(G, dual), name
        assert np.array_equal(wu_intersection_matrix(G), wu_intersection_matrix_scan(G)), name
        for H in [point] + [c4] * (len(G) <= 100):
            P = product_connection_matrix(G, H)
            assert np.array_equal(P, product_connection_matrix_scan(G, H)), name
            assert np.array_equal(P, np.kron(connection_matrix(G), connection_matrix(H))), name


def _divisors_below(m):
    return [d for d in range(1, m) if m % d == 0]


def _divides_properly(a, b):
    return a != b and b % a == 0


def test_order_complex_general_poset():
    # divisor lattice of 12 under strict divisibility
    elems = [1, 2, 3, 4, 6, 12]
    oc = order_complex(elems, _divisors_below)
    assert oc.simplices == chains_bruteforce(elems, _divides_properly)
    # chains: contractible poset with minimum -> chi = 1
    assert oc.euler_characteristic() == 1
    # divisors outside elems (1, 3, 6) are skipped
    sub = [2, 4, 12]
    assert order_complex(sub, _divisors_below).simplices == {
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}


def test_order_complex_needs_linear_extension():
    with pytest.raises(ValueError):
        order_complex([2, 1, 4], _divisors_below)  # 1 is below 2 but after it
    with pytest.raises(ValueError):
        order_complex([1, 2], lambda m: [m])  # an element below itself
    assert order_complex([], _divisors_below).is_empty


def _proper_subset(a, b):
    return set(a) < set(b)


def _cell_less(c, d):
    return c != d and set(c[0]) <= set(d[0]) and set(c[1]) <= set(d[1])


@st.composite
def closed_complexes(draw, vertices=6, facets=4):
    sets = draw(st.lists(st.sets(st.integers(0, vertices - 1), min_size=1, max_size=4),
                         max_size=facets))
    return sx.close(sets) if sets else sx.Complex()


@settings(max_examples=60, deadline=None)
@given(closed_complexes(), st.data())
def test_prop_order_complexes_are_chains(G, data):
    # barycentric, unit spheres and level surfaces against the chains of
    # their posets under proper containment
    elems = refinement_order(G)
    assert sx.barycentric(G).simplices == chains_bruteforce(elems, _proper_subset)
    for x in elems[::3]:
        want = chains_bruteforce(comparable_elements(G, x), _proper_subset)
        assert sx.unit_sphere(G, x).simplices == want
    verts = G.vertices()
    order = data.draw(st.permutations(verts))
    f = {v: i for i, v in enumerate(order)}
    c = data.draw(st.integers(0, len(verts))) - 0.5
    crossing = [i for i, x in enumerate(elems)
                if min(f[v] for v in x) < c < max(f[v] for v in x)]
    chains = chains_bruteforce([elems[i] for i in crossing], _proper_subset)
    assert level_surface(G, f, c).simplices == {
        tuple(crossing[i] for i in ch) for ch in chains}


@settings(max_examples=40, deadline=None)
@given(closed_complexes(vertices=3, facets=2), closed_complexes(vertices=3, facets=2))
def test_prop_ring_product_is_chains_of_cells(A, B):
    want = chains_bruteforce(product_cells(A, B), _cell_less)
    prod = sx.ring_product_complex(A, B)
    assert prod.simplices == want
    assert predicted_product_fvector(A, B) == prod.f_vector()


def test_simplexion_cap_env(monkeypatch):
    monkeypatch.setenv("SIMPLEXION_CAP", "10")
    with pytest.raises(ResourceLimitError):
        sx.barycentric(sx.cross_polytope(2))
    monkeypatch.delenv("SIMPLEXION_CAP")
    assert len(sx.barycentric(sx.cross_polytope(2))) == 146
