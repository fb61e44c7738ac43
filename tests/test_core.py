import itertools

import pytest

import simplexion as sx
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexion.cohomology import alexander_dual
from simplexion.core import (
    _faces,
    comparable_elements,
    face_table,
    one_skeleton,
    order_complex,
    set_euler,
)
from simplexion.generators import poly_eval
from simplexion.rng import SplitMix64

from oracles import (
    comparable_elements_scan,
    facets_bruteforce,
    induced_scan,
    is_whitney_rebuild,
    star_up_scan,
    wu_characteristic_bruteforce,
)


def brute_close(sets):
    out = set()
    for s in sets:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(itertools.combinations(s, k))
    return out


def test_close_triangle():
    G = sx.close([(0, 1, 2)])
    assert G.f_vector() == (3, 3, 1)
    assert G.simplices == frozenset(brute_close([(0, 1, 2)]))


def test_close_two_points():
    assert sx.close([(0,), (1,)]).f_vector() == (2,)


def test_close_hollow_triangle():
    G = sx.close([(0, 1), (1, 2), (2, 0)])
    assert G.f_vector() == (3, 3)
    assert G.euler_characteristic() == 0


def test_close_idempotent():
    gen = SplitMix64(5)
    for _ in range(20):
        sets = [
            tuple(sorted({gen.below(8) for _ in range(gen.below(4) + 1)}))
            for _ in range(gen.below(5) + 1)
        ]
        G = sx.close(sets)
        assert sx.close(G.simplices) == G
        assert G.simplices == frozenset(brute_close(sets))


def test_close_rejects_empty_set():
    with pytest.raises(ValueError):
        sx.close([()])


def test_complex_requires_downward_closure():
    with pytest.raises(ValueError):
        sx.Complex([(0, 1)])


def test_f_vector_examples():
    assert sx.cycle(4).f_vector() == (4, 4)
    assert sx.cross_polytope(2).f_vector() == (6, 12, 8)
    assert sx.Complex().f_vector() == ()


def test_euler_characteristic_examples():
    assert sx.cross_polytope(2).euler_characteristic() == 2
    assert sx.close([(0, 1, 2)]).euler_characteristic() == 1
    assert sx.cycle(4).euler_characteristic() == 0
    assert sx.Complex().euler_characteristic() == 0


def test_generating_function():
    assert sx.generating_function(sx.cross_polytope(2)) == [1, 6, 12, 8]
    g = sx.generating_function(sx.cycle(4))
    assert g == [1, 4, 4]
    assert poly_eval(g, -1) == 1 - sx.cycle(4).euler_characteristic()
    k2 = sx.close([(0, 1)])
    assert sx.generating_function(k2) == [1, 2, 1]


def test_chi_from_generating_function_agrees(corpus):
    for _, G in corpus:
        f = sx.generating_function(G)
        assert poly_eval(f, 0) - poly_eval(f, -1) == G.euler_characteristic()


def test_wu_examples():
    k2 = sx.close([(0, 1)])
    assert sx.wu_characteristic(k2, 2) == -1
    assert sx.wu_characteristic(sx.close([(0, 1, 2)]), 2) == 1
    point = sx.close([(0,)])
    for k in range(1, 5):
        assert sx.wu_characteristic(point, k) == 1


def test_wu_k1_is_euler(corpus):
    for _, G in corpus:
        assert sx.wu_characteristic(G, 1) == G.euler_characteristic()


def test_wu_matches_bruteforce(random_complexes):
    for G in random_complexes[:12]:
        for k in (2, 3):
            assert sx.wu_characteristic(G, k) == wu_characteristic_bruteforce(G, k)


def test_wu_quadratic_form_crosscheck(random_complexes):
    # omega_2 equals w^T L w with w the parity vector
    import numpy as np

    from simplexion.connection import connection_matrix
    from simplexion.core import parity
    from simplexion.refinement import refinement_order

    for G in random_complexes[:10]:
        if G.is_empty:
            continue
        w = np.array([parity(x) for x in refinement_order(G)])
        L = connection_matrix(G)
        assert sx.wu_characteristic(G, 2) == int(w @ L @ w)


def test_unit_sphere_k2():
    k2 = sx.close([(0, 1)])
    S = sx.unit_sphere(k2, (0, 1))
    assert S.f_vector() == (2,)
    assert S.euler_characteristic() == 2
    S0 = sx.unit_sphere(k2, (0,))
    assert S0.f_vector() == (1,)
    assert S0.euler_characteristic() == 1


def test_unit_sphere_octahedron_vertex():
    G = sx.cross_polytope(2)
    v = (G.vertices()[0],)
    S = sx.unit_sphere(G, v)
    # the sphere in the containment graph is the refined square: an 8-cycle
    assert S.f_vector() == (8, 8)
    assert S.euler_characteristic() == 0


def test_unit_sphere_missing_simplex():
    with pytest.raises(KeyError):
        sx.unit_sphere(sx.cycle(4), (9,))


def test_sphere_euler_matches_unit_sphere(corpus):
    for _, G in corpus:
        for x in list(G)[:40]:
            assert sx.sphere_euler(G, x) == sx.unit_sphere(G, x).euler_characteristic()


def test_sphere_is_join_of_stable_and_unstable(corpus):
    # S(x) equals join(S^-(x), S^+(x)) with the canonical labeling
    for _, G in corpus[:8]:
        for x in list(G)[:15]:
            elems = comparable_elements(G, x)
            downs = [y for y in elems if len(y) < len(x)]
            ups = [y for y in elems if len(y) > len(x)]
            S = sx.unit_sphere(G, x)
            J = sx.join(order_complex(downs, _faces), order_complex(ups, _faces))
            assert S == J


def test_facets_are_maximal(corpus):
    for _, G in corpus + [("empty", sx.Complex())]:
        assert G.facets() == facets_bruteforce(G)


@settings(max_examples=60)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4), max_size=5))
def test_prop_facets_are_maximal(sets):
    G = sx.close(sets) if sets else sx.Complex()
    assert G.facets() == facets_bruteforce(G)


def test_star_up_down():
    k2 = sx.close([(0, 1)])
    assert sx.star_up(k2, (0,)) == frozenset({(0,), (0, 1)})
    down = sx.star_down(k2, (0, 1))
    assert down == k2
    assert down.euler_characteristic() == 1


def test_star_intersection_is_parity(corpus):
    # chi(W+(x) n W-(x)) = parity(x)
    for _, G in corpus:
        for x in list(G)[:30]:
            inter = sx.star_up(G, x) & set(sx.star_down(G, x).simplices)
            assert set_euler(inter) == sx.parity(x)


def test_join_examples():
    p2 = sx.close([(0,), (1,)])
    c4 = sx.join(p2, p2)
    assert c4.f_vector() == (4, 4)
    assert sx.join(sx.Complex(), sx.cycle(5)).f_vector() == (5, 5)
    oct_ = sx.join(sx.join(p2, p2), p2)
    assert oct_.f_vector() == (6, 12, 8)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def test_join_generating_function_multiplies(corpus):
    small = [G for _, G in corpus if len(G) <= 40]
    for A in small:
        for B in small:
            J = sx.join(A, B)
            fa = sx.generating_function(A)
            fb = sx.generating_function(B)
            fj = sx.generating_function(J)
            assert _poly_mul(fa, fb) == fj  # exact coefficient identity


def test_disjoint_union():
    a = sx.close([(0,)])
    u = sx.disjoint_union(a, a)
    assert u.f_vector() == (2,)
    assert u.euler_characteristic() == 2
    assert sx.disjoint_union(sx.cycle(4), sx.Complex()) == sx.cycle(4)
    mix = sx.disjoint_union(sx.cycle(4), sx.close([(0, 1, 2)]))
    assert mix.euler_characteristic() == 1


def test_union_relabel_maps():
    # G keeps vertices 0..2 and H is relabeled densely above them
    G = sx.disjoint_union(sx.cycle(3), sx.close([(4, 7), (7, 9), (4, 9)]))
    assert G.vertices() == (0, 1, 2, 3, 4, 5)
    assert sx.induced(G, (0, 1, 2)) == sx.cycle(3)
    assert sx.induced(G, (3, 4, 5)) == sx.close([(3, 4), (4, 5), (3, 5)])
    assert G.f_vector() == (6, 6)


def test_inductive_dimension():
    from fractions import Fraction

    assert sx.inductive_dimension(sx.close([(0,)])) == 0
    assert sx.inductive_dimension(sx.Complex()) == -1
    assert sx.inductive_dimension(sx.close([(0, 1, 2)])) == 2
    # a graph mixing an edge with an isolated point
    G = sx.close([(0, 1), (2,)])
    assert sx.inductive_dimension(G) == Fraction(2, 3)


def test_dimension_monotone_under_refinement(corpus):
    for _, G in corpus:
        if len(G) > 40 or G.is_empty:
            continue
        assert sx.inductive_dimension(sx.barycentric(G)) >= sx.inductive_dimension(G)


def test_link_and_induced():
    G = sx.cross_polytope(2)
    v = G.vertices()[0]
    L = sx.link(G, (v,))
    assert L.f_vector() == (4, 4)  # equator square
    ind = sx.induced(G, set(G.vertices()) - {v})
    assert ind.f_vector() == (5, 8, 4)  # octahedron minus an open star = wheel


def test_is_whitney():
    assert sx.is_whitney(sx.cycle(4))
    assert sx.is_whitney(sx.cross_polytope(2))
    assert not sx.is_whitney(sx.cycle(3))  # hollow triangle
    assert sx.is_whitney(sx.barycentric(sx.cycle(3)))


def random_closures(count: int, seed: int) -> list:
    """Closures of 1..12 random sets of two to four vertex draws each, on
    3..8 vertices: flag when the sets leave no clique of their edges
    uncovered, which about half of them do."""
    out = []
    for trial in range(count):
        gen = SplitMix64.substream(seed, trial)
        n = 3 + gen.below(6)
        out.append(sx.close([[gen.below(n) for _ in range(2 + gen.below(3))]
                             for _ in range(1 + gen.below(12))]))
    return out


def test_is_whitney_matches_the_rebuilt_clique_complex(corpus, local_corpus):
    cases = [G for _, G in local_corpus]
    cases += [sx.barycentric(G) for _, G in corpus]
    cases += random_closures(600, 2019)
    flags = [sx.is_whitney(G) for G in cases]
    assert flags == [is_whitney_rebuild(G) for G in cases]
    assert 200 <= flags.count(False) <= len(cases) - 200


def test_inductive_dimension_bounded_by_max_dim(corpus):
    for _, G in corpus:
        if len(G) > 60:
            continue
        assert sx.inductive_dimension(G) <= G.max_dim()


def test_star_index_queries_match_scans(local_corpus):
    for name, G in local_corpus:
        for x in G:
            assert sx.star_up(G, x) == star_up_scan(G, x), (name, x)
            assert comparable_elements(G, x) == comparable_elements_scan(G, x), (name, x)
        V = set(G.vertices())
        adj = one_skeleton(G)
        outside = max(V) + 1
        subsets = [V, set(), {outside}] + [adj[v] for v in V] + [V - {v} | {outside} for v in V]
        for W in subsets:
            assert sx.induced(G, W) == induced_scan(G, W), (name, W)


def test_star_index_queries_reject_missing_simplex():
    G = sx.cycle(4)
    for query in (sx.star_up, comparable_elements, sx.link, sx.sphere_euler):
        with pytest.raises(KeyError):
            query(G, (0, 2))


def _assert_face_table(G):
    """rows lists G's simplices in canonical order, and F[i, p] is the
    position of x_i without its vertex p, -1 past dim x_i and on vertices."""
    rows, F = face_table(G)
    elems, verts = list(G), G.vertices()
    assert [tuple(verts[v] for v in r) for k in rows for r in k.tolist()] == elems
    index = {x: i for i, x in enumerate(elems)}
    assert F.shape == (len(G), G.max_dim() + 1)
    for i, x in enumerate(elems):
        want = [index[x[:p] + x[p + 1:]] for p in range(len(x))] if len(x) > 1 else [-1]
        assert F[i].tolist() == want + [-1] * (F.shape[1] - len(want))
    assert not F.flags.writeable and not any(k.flags.writeable for k in rows)


@settings(max_examples=60)
@given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=6), max_size=6),
       st.integers(0, 10 ** 6))
def test_prop_face_table_matches_scan(sets, shift):
    # the benchmark shifts every label by up to 10^6; positions do not move
    _assert_face_table(sx.close([[v + shift for v in s] for s in sets]))


def test_face_table_at_high_dimension(random_complexes):
    # the Alexander dual of C11 (2024 simplices, dimension 8) and K11
    # (dimension 10): no row key grows with the dimension
    dual = alexander_dual(sx.cycle(11), range(11))
    assert (len(dual), dual.max_dim()) == (2024, 8)
    for G in [dual, sx.complete(11), sx.Complex(), sx.close([(7,)]),
              sx.close([(0, 1), (5, 6, 7), (9,)])] + random_complexes:
        _assert_face_table(G)
