import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexion as sx
from simplexion import errors
from simplexion.core import wu_characteristic
from simplexion.generators import (
    ICOSAHEDRON_EDGES,
    block_trials,
    clique_block,
    poly_eval,
    product_cells,
)
from simplexion.rng import SplitMix64, substream_uniforms


def test_complete():
    assert sx.complete(1).f_vector() == (1,)
    assert sx.complete(4).f_vector() == (4, 6, 4, 1)
    with pytest.raises(ValueError):
        sx.complete(0)


def test_cycle_path():
    assert sx.cycle(4).f_vector() == (4, 4)
    assert sx.cycle(3).f_vector() == (3, 3)
    assert sx.path(5).f_vector() == (5, 4)
    assert sx.path(1).f_vector() == (1,)
    with pytest.raises(ValueError):
        sx.cycle(2)


def test_cross_polytope():
    assert sx.cross_polytope(0).f_vector() == (2,)
    assert sx.cross_polytope(2).f_vector() == (6, 12, 8)
    assert sx.cross_polytope(3).f_vector() == (8, 24, 32, 16)
    for d in range(4):
        assert sx.cross_polytope(d).euler_characteristic() == 1 + (-1) ** d


def test_icosahedron():
    G = sx.icosahedron()
    assert G.f_vector() == (12, 30, 20)
    assert G.euler_characteristic() == 2
    degrees = {v: 0 for v in range(12)}
    for a, b in ICOSAHEDRON_EDGES:
        degrees[a] += 1
        degrees[b] += 1
    assert set(degrees.values()) == {5}
    # every vertex link is a 5-cycle
    for v in G.vertices():
        assert sx.link(G, (v,)).f_vector() == (5, 5)


def test_whitney():
    assert sx.whitney(3, [(0, 1), (1, 2), (0, 2)]).f_vector() == (3, 3, 1)
    assert sx.whitney(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).f_vector() == (4, 4)
    assert sx.whitney(3, []).f_vector() == (3,)
    assert sx.whitney(0, []).is_empty


def test_whitney_rejects_bad_graphs():
    with pytest.raises(ValueError):
        sx.whitney(3, [(0, 0)])
    with pytest.raises(ValueError):
        sx.whitney(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        sx.whitney(2, [(0, 5)])


def test_whitney_refuses_at_the_first_clique_past_the_cap(monkeypatch):
    # K_{3 x 11}, the complete 11-partite graph with parts of 3, has 3^11
    # maximal cliques of 11 vertices, a closure bound of 177147 * 2047 =
    # 362,619,909; the search stops at clique 2443, the first to take the
    # running bound past the cap, and the listing at 3^10 cliques fits
    monkeypatch.delenv("SIMPLEXION_CAP", raising=False)
    edges = [(a, b) for a in range(33) for b in range(a + 1, 33) if a // 3 != b // 3]
    t0 = time.perf_counter()
    with pytest.raises(sx.ResourceLimitError) as err:
        sx.whitney(33, edges)
    assert time.perf_counter() - t0 < 1
    assert str(err.value) == "closure could have 5000821 simplices (cap 5000000)"
    assert 2443 * 2047 == 5000821 < 362_619_909
    # K_{3 x 3}: 27 triangles, a bound of 189, built at a cap of 189 exactly
    k333 = [(a, b) for a, b in edges if b < 9]
    monkeypatch.setattr(errors, "DEFAULT_CAP", 189)
    assert sx.whitney(9, k333).f_vector() == (9, 27, 27)
    monkeypatch.setattr(errors, "DEFAULT_CAP", 188)
    with pytest.raises(sx.ResourceLimitError, match=r"^closure could have 189 simplices \(cap 188\)$"):
        sx.whitney(9, k333)


def test_erdos_renyi_determinism():
    m = sx.RandomModel(n=6, p=0.5, seed=7)
    assert sx.erdos_renyi(m) == sx.erdos_renyi(m)
    assert sx.erdos_renyi(m, trial=3) == sx.erdos_renyi(m, trial=3)
    assert sx.erdos_renyi(m) != sx.erdos_renyi(sx.RandomModel(n=6, p=0.5, seed=8))


def test_erdos_renyi_extremes():
    assert sx.erdos_renyi(sx.RandomModel(n=5, p=0.0, seed=1)).f_vector() == (5,)
    full = sx.erdos_renyi(sx.RandomModel(n=4, p=1.0, seed=1))
    assert full == sx.complete(4)
    assert full.euler_characteristic() == 1


def test_random_model_validation():
    with pytest.raises(ValueError):
        sx.RandomModel(n=3, p=1.5, seed=0)
    with pytest.raises(ValueError):
        sx.RandomModel(n=-1, p=0.5, seed=0)


def test_expected_dimension_small():
    assert sx.expected_dimension(0) == [Fraction(-1)]
    assert sx.expected_dimension(1) == [Fraction(0)]
    assert sx.expected_dimension(2) == [Fraction(0), Fraction(1)]  # = p


def test_expected_euler_small():
    assert sx.expected_euler(2) == [2, -1]  # 2 - p
    assert sx.expected_euler(1) == [1]
    # n=3: 3 - 3p + p^3
    assert sx.expected_euler(3) == [3, -3, 0, 1]


def test_expectations_match_monte_carlo():
    # coarse 4-sigma agreement at modest trial counts
    n, p, trials = 5, 0.5, 4000
    chi_formula = float(poly_eval(sx.expected_euler(n), Fraction(1, 2)))
    dim_formula = float(poly_eval(sx.expected_dimension(n), Fraction(1, 2)))
    chis = []
    dims = []
    for trial in range(trials):
        G = sx.erdos_renyi(sx.RandomModel(n=n, p=p, seed=321), trial=trial)
        chis.append(G.euler_characteristic())
        dims.append(float(sx.inductive_dimension(G)))
    for vals, formula in ((chis, chi_formula), (dims, dim_formula)):
        mean = sum(vals) / trials
        var = sum((v - mean) ** 2 for v in vals) / trials
        stderr = (var / trials) ** 0.5
        assert abs(mean - formula) < 4 * max(stderr, 1e-9)


def test_product_cells_and_complex():
    a = sx.close([(0, 1)])
    cells = product_cells(a, a)
    assert len(cells) == 9
    prod = sx.ring_product_complex(a, a)
    # product of contractibles is contractible: chi = 1
    assert prod.euler_characteristic() == 1
    assert prod.max_dim() == 2  # dims add


def test_product_with_unit():
    b = sx.cycle(5)
    prod = sx.ring_product_complex(sx.close([(0,)]), b)
    # K1 x B has the containment poset of B: its order complex is B_1
    assert prod.f_vector() == sx.barycentric(b).f_vector()


def test_product_dimension_additive(corpus):
    small = [G for _, G in corpus if 0 < len(G) <= 12][:4]
    for A in small[:2]:
        for B in small[2:]:
            prod = sx.ring_product_complex(A, B)
            assert prod.max_dim() == A.max_dim() + B.max_dim()


def test_splitmix_portability():
    # frozen values so any platform regression is loud
    gen = SplitMix64(42)
    assert gen.next_u64() == 10996452266160306281
    gen2 = SplitMix64.substream(42, 1)
    assert gen2.next_u64() != SplitMix64.substream(42, 2).next_u64()
    u = SplitMix64(0).uniform()
    assert 0.0 <= u < 1.0


def test_product_inductive_dimension_superadditive():
    # dim((A x B)_1) >= dim(A) + dim(B), inductive dimensions exact
    cases = [
        (sx.close([(0, 1)]), sx.close([(0, 1)])),
        (sx.cycle(4), sx.close([(0, 1)])),
        (sx.close([(0, 1), (2,)]), sx.close([(0, 1)])),
    ]
    for A, B in cases:
        prod = sx.ring_product_complex(A, B)
        assert (sx.inductive_dimension(prod)
                >= sx.inductive_dimension(A) + sx.inductive_dimension(B))


@settings(max_examples=60)
@given(seed=st.integers(-2 ** 70, 2 ** 70),
       lo=st.one_of(st.integers(0, 1000), st.integers(2 ** 32, 2 ** 66)),
       count=st.integers(0, 5), k=st.integers(0, 7))
def test_substream_uniforms_match_scalar(seed, lo, count, k):
    got = substream_uniforms(seed, lo, lo + count, k)
    assert got.shape == (count, k) and got.dtype.name == "float64"
    for i in range(count):
        gen = SplitMix64.substream(seed, lo + i)
        assert got[i].tolist() == [gen.uniform() for _ in range(k)]


@settings(max_examples=40)
@given(n=st.integers(0, 8), p=st.sampled_from([0.0, 0.15, 0.5, 0.85, 1.0]),
       seed=st.integers(-2 ** 65, 2 ** 65), lo=st.integers(0, 10 ** 6),
       count=st.integers(1, 12), wu_count=st.integers(0, 12))
def test_clique_block_matches_complexes(n, p, seed, lo, count, wu_count):
    model = sx.RandomModel(n=n, p=p, seed=seed)
    chi, dim, wu = clique_block(model, lo, lo + count, lo + wu_count)
    assert len(chi) == len(dim) == count and len(wu) == min(count, wu_count)
    for i in range(count):
        G = sx.erdos_renyi(model, lo + i)
        assert chi[i] == G.euler_characteristic()
        assert abs(dim[i] - float(sx.inductive_dimension(G))) < 1e-12
        if i < wu_count:
            assert wu[i] == wu_characteristic(G, 2)


def test_clique_block_bounds():
    assert block_trials(8) == 128 and block_trials(10) == 32
    model = sx.RandomModel(n=8, p=0.5, seed=1)
    with pytest.raises(ValueError, match="block"):
        clique_block(model, 0, 129, 0)
    with pytest.raises(ValueError, match="n capped at 10"):
        clique_block(sx.RandomModel(n=11, p=0.5, seed=1), 0, 1, 0)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return n, draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))


@settings(max_examples=80)
@given(graphs())
def test_whitney_facets_are_maximal_cliques(graph):
    nx = pytest.importorskip("networkx")
    n, edges = graph
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    cliques = sorted((tuple(sorted(c)) for c in nx.find_cliques(g)),
                     key=lambda x: (len(x), x))
    assert sx.whitney(n, edges).facets() == cliques
