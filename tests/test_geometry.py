import inspect
import sys
from collections import Counter
from fractions import Fraction

import pytest

import simplexion as sx
from simplexion import geometry as geo
from simplexion.refinement import refinement_order
from simplexion.rng import SplitMix64

from oracles import (
    RecursiveGraphContext,
    boundary_unit_spheres,
    deep_recursion,
    is_d_complex_with_boundary_unit_spheres,
)


def wheel(rim=4):
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return sx.whitney(rim + 1, edges)


def solid_ball_3d():
    """Cone over the octahedron: a 3-ball with 2-sphere boundary."""
    return sx.join(sx.close([(0,)]), sx.cross_polytope(2))


def test_ph_index_dim_function(corpus):
    # on the refinement, heights = dimension gives index parity(x)
    for _, G in corpus[:10]:
        if G.is_empty or len(G) > 80:
            continue
        elems = refinement_order(G)
        H = sx.barycentric(G)
        f = {i: len(elems[i]) for i in range(len(elems))}
        from simplexion.core import one_skeleton

        adj = one_skeleton(H)
        for i, x in enumerate(elems):
            assert geo.ph_index(H, f, i, adj=adj) == sx.parity(x)


def test_ph_index_minus_dim_function(corpus):
    for _, G in corpus[:6]:
        if G.is_empty or len(G) > 40:
            continue
        elems = refinement_order(G)
        H = sx.barycentric(G)
        f = {i: -len(elems[i]) for i in range(len(elems))}
        from simplexion.core import one_skeleton

        adj = one_skeleton(H)
        for i, x in enumerate(elems):
            expected = sx.parity(x) * (1 - sx.sphere_euler(G, x))
            assert geo.ph_index(H, f, i, adj=adj) == expected


def test_ph_sum_is_euler(whitney_corpus):
    for name, G in whitney_corpus:
        if G.is_empty:
            continue
        chi = G.euler_characteristic()
        for trial in range(10):
            gen = SplitMix64.substream(99, trial)
            f = geo.random_injective_function(G, gen)
            assert geo.ph_index_sum(G, f) == chi, name


def test_ph_index_requires_local_injectivity():
    c4 = sx.cycle(4)
    with pytest.raises(ValueError):
        geo.ph_index(c4, {0: 1, 1: 1, 2: 2, 3: 3}, 0)


def test_curvature_point():
    point = sx.close([(0,)])
    assert geo.curvature_expectation(point, 0, trials=5, seed=1) == 1.0


def test_curvature_converges_to_levitt():
    G = sx.cross_polytope(2)
    v = G.vertices()[0]
    est = geo.curvature_expectation(G, v, trials=20000, seed=5)
    assert abs(est - 1 / 3) < 0.02


def test_levitt_examples():
    assert geo.levitt_curvature(sx.close([(0,)]), 0) == 1
    G = sx.cross_polytope(2)
    assert geo.levitt_curvature(G, G.vertices()[0]) == Fraction(1, 3)
    ico = sx.icosahedron()
    assert geo.levitt_curvature(ico, 0) == Fraction(1, 6)
    assert sum(geo.levitt_curvature(ico, v) for v in ico.vertices()) == 2


def test_gauss_bonnet_exact(corpus):
    # exact for every complex, including the non-clique hollow triangle
    for name, G in corpus:
        if G.is_empty:
            continue
        total = sum(geo.levitt_curvature(G, v) for v in G.vertices())
        assert total == G.euler_characteristic(), name


def test_valuation_examples():
    assert geo.valuation_eval([1, -1, 1], sx.cross_polytope(2)) == 2
    assert geo.valuation_eval([0, 1], sx.cycle(4)) == 4  # length of C4


def test_valuation_identity_random(random_complexes):
    gen = SplitMix64(77)
    G = sx.erdos_renyi(sx.RandomModel(n=8, p=0.5, seed=4))
    simps = list(G)
    for _ in range(50):
        pick_a = [s for s in simps if gen.uniform() < 0.4]
        pick_b = [s for s in simps if gen.uniform() < 0.4]
        A = sx.close(pick_a) if pick_a else sx.Complex()
        B = sx.close(pick_b) if pick_b else sx.Complex()
        X = [gen.below(7) - 3 for _ in range(4)]
        assert geo.valuation_check(X, A, B)


def test_dehn_sommerville_vanishing():
    X02 = geo.dehn_sommerville_valuation(0, 2)
    assert geo.valuation_eval(X02, sx.cross_polytope(2)) == 0
    X01 = geo.dehn_sommerville_valuation(0, 1)
    assert geo.valuation_eval(X01, sx.cycle(5)) == 0
    # 3-sphere
    X03 = geo.dehn_sommerville_valuation(0, 3)
    assert geo.valuation_eval(X03, sx.cross_polytope(3)) == 0


def test_ds_curvature_check():
    assert geo.ds_curvature_check(sx.cross_polytope(2))
    assert geo.ds_curvature_check(sx.icosahedron())
    assert geo.ds_curvature_check(sx.cycle(6), 1)
    with pytest.raises(ValueError):
        geo.ds_curvature_check(wheel(), 2)  # has boundary, not a 2-graph


def test_level_surface_octahedron():
    G = sx.cross_polytope(2)
    f = {0: 3.0, 1: -3.0, 2: 1.0, 3: -1.0, 4: 2.0, 5: -2.0}
    surf = geo.level_surface(G, f, 0.0)
    assert geo.is_d_graph(surf, 1)
    assert surf.euler_characteristic() == 0
    assert surf.f_vector() == (12, 12)


def test_level_surface_empty_and_errors():
    G = sx.cycle(4)
    f = {v: float(v) for v in G.vertices()}
    assert geo.level_surface(G, f, 10.0).is_empty
    with pytest.raises(ValueError):
        geo.level_surface(G, f, 2.0)


def test_level_surface_cross3_is_2_graph():
    G = sx.cross_polytope(3)
    gen = SplitMix64(3)
    f = geo.random_injective_function(G, gen)
    surf = geo.level_surface(G, f, len(G.vertices()) / 2 - 0.25)
    assert not surf.is_empty
    assert geo.is_d_graph(surf, 2)
    # closed 2-graph: Euler characteristic is even
    assert surf.euler_characteristic() % 2 == 0


def test_clique_vertex_count_needs_no_clique_complex(local_corpus):
    for name, G in local_corpus:
        assert geo.clique_vertex_count(G) == len(geo.clique_complex(G).vertices()), name


def test_contractibility():
    for n in range(1, 6):
        assert geo.is_contractible(sx.complete(n))
    assert geo.is_contractible(wheel())
    assert not geo.is_contractible(sx.cycle(4))
    assert not geo.is_contractible(sx.cross_polytope(2))
    assert not geo.is_contractible(sx.Complex())
    # non-clique complex goes through its refinement
    assert not geo.is_contractible(sx.cycle(3))


def test_sphere_recognition():
    assert geo.is_d_sphere(sx.Complex(), -1)
    assert not geo.is_d_sphere(sx.Complex(), 0)
    assert geo.is_d_sphere(sx.close([(0,), (1,)]), 0)
    assert not geo.is_d_sphere(sx.close([(0,)]), 0)
    for n in (4, 5, 8):
        assert geo.is_d_sphere(sx.cycle(n), 1)
    assert geo.is_d_sphere(sx.cycle(3), 1)  # via refinement
    for d in range(4):
        assert geo.is_d_sphere(sx.cross_polytope(d), d)
    assert geo.is_d_sphere(sx.icosahedron(), 2)
    assert not geo.is_d_sphere(wheel(), 2)
    assert not geo.is_d_sphere(sx.complete(4), 2)


def test_join_of_spheres_is_sphere():
    s0 = sx.close([(0,), (1,)])
    s1 = sx.cycle(4)
    assert geo.is_d_sphere(sx.join(s0, s1), 2)
    assert geo.is_d_sphere(sx.join(s0, s0), 1)


def test_balls():
    assert geo.is_d_ball(sx.close([(0,)]), 0)
    assert geo.is_d_ball(sx.path(4), 1)
    assert not geo.is_d_ball(sx.cycle(4), 1)
    assert geo.is_d_ball(wheel(), 2)
    assert geo.is_d_ball(solid_ball_3d(), 3)


def test_boundary_of_wheel():
    W = wheel()
    delta = geo.boundary(W, 2)
    assert delta.f_vector() == (4, 4)
    assert delta.euler_characteristic() == 0
    # boundary formula: chi - wu = chi(boundary)
    assert W.euler_characteristic() - sx.wu_characteristic(W, 2) == 0
    assert geo.boundary(delta, 1).is_empty


def test_boundary_formula_3_ball():
    B = solid_ball_3d()
    delta = geo.boundary(B, 3)
    assert delta.f_vector() == (6, 12, 8)
    chi, omega = B.euler_characteristic(), sx.wu_characteristic(B, 2)
    assert chi - omega == delta.euler_characteristic() == 2
    dd = geo.boundary(delta, 2)
    assert dd.is_empty


def test_boundary_of_closed_complex_empty():
    assert geo.boundary(sx.cross_polytope(2), 2).is_empty
    assert geo.boundary(sx.cycle(5), 1).is_empty


def test_boundary_matches_unit_sphere_oracle(local_corpus):
    for name, G in local_corpus:
        for d in {G.max_dim(), G.max_dim() - 1}:
            want = is_d_complex_with_boundary_unit_spheres(G, d)
            assert geo.is_d_complex_with_boundary(G, d) == want, (name, d)
            assert geo.boundary(G, d) == boundary_unit_spheres(G, d), (name, d)


def test_boundary_queries_share_one_context(monkeypatch):
    builds = Counter()
    memo = sx.Complex.memo

    def counting_memo(self, key, build):
        return memo(self, key, lambda: builds.update([key]) or build())

    monkeypatch.setattr(sx.Complex, "memo", counting_memo)
    B = solid_ball_3d()
    assert geo.is_d_complex_with_boundary(B, 3)
    assert geo.boundary(B, 3).f_vector() == (6, 12, 8)
    assert sum(geo.curvature_vector(B).values()) == 1  # reads every vertex star
    assert builds["containment_context"] == builds["containment"] == 1
    assert builds["vertex_stars"] == 1


def _homotopy_queries(ctx, d, whole_contractible=True):
    """Every homotopy query on the whole graph at dimensions d - 1 and d, and
    the boundary operators' queries on each vertex sphere at d - 1."""
    full = ctx.full()
    whole = [(ctx.d_graph(full, e), ctx.d_sphere(full, e), ctx.d_ball(full, e))
             for e in (d - 1, d)]
    if whole_contractible:
        whole.append(ctx.contractible(full))
    return whole + [(ctx.d_sphere(s, d - 1), ctx.d_ball(s, d - 1)) for s in ctx.adj.values()]


def test_homotopy_search_matches_recursive_oracle(local_corpus):
    from simplexion.core import _containment_graph, one_skeleton

    for name, G in local_corpus:
        d = G.max_dim()
        # chi != 1 rules contractibility out, and on a containment graph the
        # search that proves it can be exponential (1.25 M subsets, 45 s, on
        # random19's 26 vertices), so it is asked there only when chi = 1
        asked = (True, G.euler_characteristic() == 1)
        for adj, whole in zip((one_skeleton(G), _containment_graph(G)), asked):
            ctx, ref = geo.GraphContext(adj), RecursiveGraphContext(adj)
            with deep_recursion():
                want = _homotopy_queries(ref, d, whole)
            assert _homotopy_queries(ctx, d, whole) == want, name
            assert ctx._contract == ref._contract, name
            assert ctx._sphere == ref._sphere, name
            assert ctx._ball == ref._ball, name


@pytest.fixture
def shallow_stack():
    """A recursion limit 60 frames above the test's own depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    yield
    sys.setrecursionlimit(limit)


def test_deep_queries_fit_a_shallow_stack(shallow_stack):
    from simplexion.core import one_skeleton

    ctx = geo.GraphContext(one_skeleton(sx.path(3000)))  # 2999 removals in a row
    assert ctx.contractible(ctx.full())
    B = sx.barycentric(solid_ball_3d())
    assert geo.is_d_complex_with_boundary(B, 3)
    assert geo.boundary(B, 3).f_vector() == (26, 72, 48)
    assert geo.is_d_sphere(sx.barycentric(sx.barycentric(sx.icosahedron())), 2)


@pytest.mark.parametrize("cut", [1, 10, 100, 1000])
def test_cut_short_search_leaves_only_finished_answers(monkeypatch, cut):
    B = sx.barycentric(solid_ball_3d())
    ctx = geo._containment_context(B)
    search = geo.GraphContext.contractible
    depth = calls = 0

    def failing(self, sub):
        nonlocal depth, calls
        if depth:  # a sphere query made by a running search
            calls += 1
            if calls == cut:
                raise RuntimeError("cut short")
        depth += 1
        try:
            return search(self, sub)
        finally:
            depth -= 1

    monkeypatch.setattr(geo.GraphContext, "contractible", failing)
    with pytest.raises(RuntimeError, match="cut short"):
        geo.boundary(B, 3)
    monkeypatch.undo()
    ref = RecursiveGraphContext(ctx.adj)
    assert all(ref.contractible(s) == v for s, v in ctx._contract.items())
    assert all(ref.d_sphere(*k) == v for k, v in ctx._sphere.items())
    assert all(ref.d_ball(*k) == v for k, v in ctx._ball.items())
    assert geo.is_d_complex_with_boundary(B, 3)
    assert geo.boundary(B, 3).f_vector() == (26, 72, 48)


def test_closed_d_complex_wu_equals_chi():
    # omega = chi - chi(empty boundary) for closed d-complexes
    for G in (sx.cycle(5), sx.cross_polytope(2), sx.icosahedron()):
        assert sx.wu_characteristic(G, 2) == G.euler_characteristic()


def test_morse_c4_heights():
    res = geo.morse_analysis(sx.cycle(4), {0: 0, 1: 1, 2: 3, 3: 2})
    assert res["is_morse"]
    assert res["counts"] == (1, 1)
    assert res["indices"] == {0: 0, 2: 1}


def test_morse_dim_order_is_morse(corpus):
    # the order in which simplices are added (by dimension) is a Morse
    # function on the refinement with c_k = v_k(G)
    for _, G in corpus[:6]:
        if G.is_empty or len(G) > 40:
            continue
        elems = refinement_order(G)
        H = sx.barycentric(G)
        f = {i: i for i in range(len(elems))}  # canonical order refines dim
        res = geo.morse_analysis(H, f)
        assert res["is_morse"]
        assert res["counts"] == G.f_vector()


def test_morse_octahedron_counts():
    G = sx.cross_polytope(2)
    gen = SplitMix64(21)
    f = geo.random_injective_function(G, gen)
    res = geo.morse_analysis(G, f)
    if res["is_morse"]:
        c = res["counts"]
        assert sum((-1) ** k * ck for k, ck in enumerate(c)) == 2
        assert c[0] >= 1 and c[-1] >= 1


def test_morse_inequalities():
    from simplexion.cohomology import betti

    G = sx.cross_polytope(2)
    found = 0
    for trial in range(20):
        gen = SplitMix64.substream(31, trial)
        f = geo.random_injective_function(G, gen)
        res = geo.morse_analysis(G, f)
        if res["is_morse"]:
            found += 1
            assert geo.morse_inequalities_hold(res["counts"], betti(G).betti)
    assert found > 0


def test_reeb():
    assert geo.reeb_sphere_check(sx.close([(0,), (1,)]), 0)["success"]
    assert geo.reeb_sphere_check(sx.cycle(5), 1)["success"]
    res = geo.reeb_sphere_check(sx.cross_polytope(2), 2)
    assert res["success"]
    assert len(geo.critical_points(sx.cross_polytope(2), res["function"])) == 2
    with pytest.raises(ValueError):
        geo.reeb_sphere_check(sx.complete(3), 1)


def test_sard_random(whitney_corpus):
    for name, G in whitney_corpus:
        d = G.max_dim()
        if d < 1 or len(G.vertices()) > 15 or not geo.is_d_graph(G, d):
            continue
        gen = SplitMix64(8)
        f = geo.random_injective_function(G, gen)
        surf = geo.level_surface(G, f, len(G.vertices()) / 2 - 0.25)
        if not surf.is_empty:
            assert geo.is_d_graph(surf, d - 1), name


def test_join_of_two_circles_is_3_sphere():
    J = sx.join(sx.cycle(4), sx.cycle(5))
    assert J.euler_characteristic() == 0
    assert geo.is_d_sphere(J, 3)
