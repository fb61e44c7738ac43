from fractions import Fraction

import numpy as np
import pytest

import simplexion as sx
from simplexion import cohomology as coh
from simplexion import errors
from simplexion.rng import SplitMix64

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    automorphisms_bruteforce,
    betti_fraction,
    betti_numeric,
    chain_complex_dense,
    induced_cohomology_reference,
    interaction_bases,
    interaction_derivative_dense,
    interaction_pairs,
    interaction_pairs_scan,
    mckean_singer_full,
    rank_fraction,
    supertraces_full,
)


def test_exterior_derivative_k2():
    data = coh.exterior_derivative(sx.close([(0, 1)]))
    assert data.dense(0).tolist() == [[-1, 1]]
    assert data.dims == (2, 1)


def test_dirac_is_signed_incidence(corpus):
    # D[y, x] = D[x, y] = (-1)^pos when x is y without its vertex at pos
    for _, G in corpus[:12] + [("empty", sx.Complex())]:
        elems = sx.refinement.refinement_order(G)
        index = {x: i for i, x in enumerate(elems)}
        want = np.zeros((len(elems), len(elems)), dtype=np.int64)
        for y in elems:
            for pos in range(len(y) if len(y) > 1 else 0):
                i, j = index[y], index[y[:pos] + y[pos + 1:]]
                want[i, j] = want[j, i] = (-1) ** pos
        assert np.array_equal(coh.dirac(G), want)


def test_gradient_rank_c4():
    # rank(d_0) = 3: the nonzero columns of R_0, which degree 1 skips
    coboundaries = coh._reduction(sx.cycle(4))[1][0]
    assert sorted(coboundaries) == [1, 2, 3]


def test_dd_zero(corpus):
    for _, G in corpus:
        if G.is_empty or len(G) > 150:
            continue
        coh.exterior_derivative(G)  # raises on dd != 0


def _assert_same_matrices(data, want):
    assert len(data.d) == len(want)
    for k, dense in enumerate(want):
        assert np.array_equal(data.dense(k), dense)
        assert len(data.d[k]) == np.count_nonzero(dense)  # each entry once, none zero
        assert (np.diff(data.d[k][:, 0]) >= 0).all()  # in row order


def test_coboundary_entries_match_dense_loops(corpus, random_complexes):
    # also the Alexander dual of C11 (dimension 8), the empty complex, a
    # single vertex and a disconnected complex
    extra = [coh.alexander_dual(sx.cycle(11), range(11)), sx.Complex(), sx.close([(0,)]),
             sx.close([(0, 1), (5, 6, 7), (9,)])]
    for G in [G for _, G in corpus] + random_complexes + extra:
        _assert_same_matrices(coh.exterior_derivative(G), chain_complex_dense(G))
        if len(G) <= 40:
            data = coh.interaction_derivative(G)
            # the library orders each degree by position, the oracle
            # lexicographically: the same pairs, compared through the bases
            assert [sorted(b) for b in data.bases] == interaction_bases(G)
            _assert_same_matrices(data, interaction_derivative_dense(G, data.bases))


def _mutated(monkeypatch, row, how):
    """Make `_coboundaries` see the entries of D with those of one row
    changed: its first two columns swapped (each keeping the other's sign),
    or its first sign flipped."""
    real = coh._coboundaries

    def mutated(elems, dims, r, c, s, what):
        c, s = c.copy(), s.copy()
        t = np.searchsorted(r, row)
        assert how == "flip" or s[t] != s[t + 1]  # else the swap changes nothing
        if how == "swap":
            c[t:t + 2] = c[t + 1], c[t]
        else:
            s[t] = -s[t]
        return real(elems, dims, r, c, s, what)

    monkeypatch.setattr(coh, "_coboundaries", mutated)


@pytest.mark.parametrize("how", ["swap", "flip"])
@pytest.mark.parametrize("target, degree", [((0, 1, 2), 0), ((0, 1, 2, 3), 1), ((1, 2, 3), 0)])
def test_dd_check_catches_a_mutated_row(monkeypatch, how, target, degree):
    # a row of d_k, k = dim(target) - 1, breaks d_k d_{k-1} = 0 first
    G = sx.close([(0, 1, 2, 3)])
    _mutated(monkeypatch, list(G).index(target), how)
    with pytest.raises(sx.InvariantViolation, match="^dd != 0") as err:
        coh.exterior_derivative(G)
    assert err.value.witness == {"degree": degree}


@pytest.mark.parametrize("how", ["swap", "flip"])
@pytest.mark.parametrize("target, degree", [(((0, 1, 2), (0, 1, 2)), 2),
                                            (((0, 1, 2), (1, 2)), 1),
                                            (((0, 1), (0, 1)), 0)])
def test_interaction_dd_check_catches_a_mutated_row(monkeypatch, how, target, degree):
    # a pair of degree p has its row in d_{p-1}, which breaks d_{p-1} d_{p-2} = 0
    pairs = [p for b in coh.interaction_derivative(sx.close([(0, 1, 2)])).bases for p in b]
    _mutated(monkeypatch, pairs.index(target), how)
    with pytest.raises(sx.InvariantViolation, match="^interaction dd != 0") as err:
        coh.interaction_derivative(sx.close([(0, 1, 2)]))
    assert err.value.witness == {"degree": degree}


def test_betti_of_ico_3_stays_sparse():
    # 12,962 simplices: a dense int64 d_1 alone (4320 x 6480) would be 224 MB
    import tracemalloc

    G = sx.barycentric(sx.barycentric(sx.barycentric(sx.icosahedron())))
    assert len(G) == 12962
    tracemalloc.start()
    try:
        assert coh.betti(G).betti == (1, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_betti_examples():
    assert coh.betti(sx.cycle(4)).betti == (1, 1)
    assert coh.betti(sx.cross_polytope(2)).betti == (1, 0, 1)
    assert coh.betti(sx.close([(0, 1, 2)])).betti == (1, 0, 0)
    assert coh.betti(sx.icosahedron()).betti == (1, 0, 1)
    assert coh.betti(sx.cross_polytope(3)).betti == (1, 0, 0, 1)
    assert coh.betti(sx.Complex()).betti == ()
    two = sx.close([(0,), (1,)])
    assert coh.betti(two).betti == (2,)


def test_euler_poincare(corpus, random_complexes):
    for _, G in corpus:
        if len(G) > 200:
            continue
        assert coh.betti(G).euler_characteristic == G.euler_characteristic()
    for G in random_complexes[:20]:
        assert coh.betti(G).euler_characteristic == G.euler_characteristic()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["whitney", "interaction", "product", "dual"]),
       st.integers(3, 7), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 10 ** 6),
       st.sampled_from([[(0,)], [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]]))
def test_prop_cleared_betti_match_fraction_ranks(kind, n, p, seed, partner):
    # the ranks cleared across degrees against each whole matrix's rank
    if kind != "whitney":  # the oracle's rational elimination is slow
        n = min(n, {"interaction": 4, "product": 3, "dual": 6}[kind])
    G = sx.erdos_renyi(sx.RandomModel(n=n, p=p, seed=seed))
    if kind == "interaction":
        data = coh.interaction_derivative(G)
        want = betti_fraction(data.dims, [data.dense(k) for k in range(len(data.d))])
        assert coh.interaction_cohomology(G).betti == want
        return
    if kind == "product":
        G = sx.ring_product_complex(G, sx.close(partner))
    elif kind == "dual":
        G = coh.alexander_dual(G, range(n + 1))  # the last vertex is outside G
    data = coh.exterior_derivative(G)
    assert coh.betti(G).betti == betti_fraction(data.dims, [data.dense(k) for k in range(len(data.d))])


def test_clearing_drops_the_pivot_rows(corpus):
    # the columns of d_k skipped are the lows of R_{k-1}: rank(d_{k-1}) of
    # them, none a class, and each in the span of the columns of d_k before
    # it, so it would have reduced to zero
    skipped = 0
    for _, G in corpus:
        if len(G) > 70:
            continue
        data = coh.exterior_derivative(G)
        for k, (coboundaries, cocycles) in enumerate(coh._reduction(G)):
            below = data.dense(k - 1).tolist() if k else []
            assert len(coboundaries) == rank_fraction(below)
            assert not set(coboundaries) & set(cocycles)
            dk = data.dense(k)
            for j in coboundaries:
                assert rank_fraction(dk[:, :j + 1].tolist()) == rank_fraction(dk[:, :j].tolist())
            skipped += len(coboundaries)
    assert skipped > 100


def test_reduction_takes_a_fraction():
    # d_0 = [[1, 0, 1], [2, 3, 1]]: the second column meets the pivot 2 of
    # the first with a 3, and the class cocycle of the third column is
    # -e_0 + e_1 / 3 + e_2
    entries = np.array([[0, 0, 1], [0, 2, 1], [1, 0, 2], [1, 1, 3], [1, 2, 1]])
    data = coh.ChainComplexData(((0, 1, 2), (3, 4)), (entries,))
    (_, classes), (coboundaries, top) = coh._reduce(data)
    assert classes == {2: {2: 1, 0: -1, 1: Fraction(1, 3)}}
    assert coboundaries == {1: {1: 2, 0: 1}, 0: {0: Fraction(-3, 2)}} and top == {}
    assert coh._report(data.dims, coh._reduce(data)).betti == (1, 0) == betti_fraction(
        data.dims, [data.dense(0)])


def test_rp2_reduction_meets_a_two():
    # the 6-vertex real projective plane: d_1 has rank 10 over Q but not
    # over Z/2, so its reduction meets an entry 2; H^1 = H^2 = 0 over Q, and
    # each of the 60 automorphisms has Lefschetz number 1
    facets = "123 134 145 156 162 235 346 452 563 624".split()
    rp2 = sx.close([tuple(sorted(map(int, f))) for f in facets])
    assert coh.betti(rp2).betti == (1, 0, 0)
    coboundaries = coh._reduction(rp2)[2][0]
    assert len(coboundaries) == 10
    assert any(abs(v) == 2 for col in coboundaries.values() for v in col.values())
    autos = coh.automorphisms(rp2)
    assert len(autos) == 60
    for perm in autos:
        assert coh.lefschetz(rp2, perm) == {"cohomological": 1, "fixed_point_sum": 1}


def test_betti_numeric_agrees(corpus):
    for _, G in corpus:
        if G.is_empty or len(G) > 200:
            continue
        assert betti_numeric(G) == coh.betti(G).betti


def test_mckean_singer(corpus):
    res = coh.mckean_singer(sx.close([(0, 1)]))
    assert res["exact_zero_powers"] and res["numeric_max_err"] < 1e-8
    for _, G in corpus:
        if G.is_empty or len(G) > 80:
            continue
        res = coh.mckean_singer(G)
        assert res["exact_zero_powers"]
        assert res["numeric_max_err"] < 1e-8
        assert res == mckean_singer_full(G)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=4), st.data())
def test_prop_block_supertraces_match_full_powers(sizes, data):
    # symmetric blocks whose supertraces are not zero; entries up to 2^20
    # push H^3 and the Frobenius products past the float64 and int64 tiers
    scale = data.draw(st.sampled_from([3, 2 ** 10, 2 ** 20]))
    blocks = []
    for n in sizes:
        A = np.array([[data.draw(st.integers(-scale, scale)) for _ in range(n)]
                      for _ in range(n)], dtype=np.int64).reshape(n, n)
        blocks.append(A + A.T)
    kmax = data.draw(st.integers(1, 7))
    assert coh._supertraces(blocks, kmax) == supertraces_full(blocks, kmax)


def test_lefschetz_bases_once_per_complex(monkeypatch, tmp_path):
    # verify --suite lefschetz on K4 maps H^k under all 24 automorphisms
    # and the identity, from one reduction and its class cocycles
    from simplexion.cli import main
    from simplexion.jsonio import complex_to_dict, write_canonical

    calls = []
    real = coh._reduce
    monkeypatch.setattr(coh, "_reduce", lambda data: calls.append(data.dims) or real(data))
    path = str(tmp_path / "k4.json")
    write_canonical(complex_to_dict(sx.complete(4)), path)
    assert main(["verify", "-i", path, "--suite", "lefschetz", "--no-meta"]) == 0
    assert calls == [(4, 6, 4, 1)]


def test_hodge_block_str_zero_k2():
    H = coh.hodge(sx.close([(0, 1)]))
    w = np.array([1, 1, -1])
    assert int((w * np.diag(H)).sum()) == 0


def test_hodge_blocks_are_the_degree_blocks_of_hodge(local_corpus):
    # H = D D is exactly the direct sum of the H_k in canonical order, and
    # the union of the per-block spectra is the whole spectrum; the two
    # refined-large benchmark inputs are the largest blocks the CLI solves
    from simplexion.spectral import eig_symmetric

    refined = [("suspC12_1", sx.barycentric(sx.join(sx.cycle(12), sx.cross_polytope(0)))),
               ("joinC4K2_1", sx.barycentric(sx.join(sx.cycle(4), sx.complete(2)))),
               ("empty", sx.Complex())]
    for name, G in local_corpus + refined:
        H, blocks = coh.hodge(G), coh.hodge_blocks(G)
        offs = np.cumsum((0,) + G.f_vector())
        assert len(blocks) == len(offs) - 1, name
        for k, blk in enumerate(blocks):
            rows = slice(offs[k], offs[k + 1])
            assert blk.dtype == H.dtype and np.array_equal(blk, H[rows, rows]), (name, k)
            off_diagonal = H[rows].copy()
            off_diagonal[:, rows] = 0
            assert not off_diagonal.any(), (name, k)
        if G.is_empty:
            continue
        whole = eig_symmetric(H)
        merged = np.sort(np.concatenate([eig_symmetric(blk) for blk in blocks]))
        norm = float(np.abs(whole).max())
        assert np.abs(merged - whole).max() <= 1e-12 * max(1.0, norm), name


def test_lefschetz_identity(corpus):
    for _, G in corpus[:10]:
        if G.is_empty or len(G) > 70:
            continue
        res = coh.lefschetz(G, {v: v for v in G.vertices()})
        chi = G.euler_characteristic()
        assert res["cohomological"] == res["fixed_point_sum"] == chi


def test_lefschetz_c4_maps():
    c4 = sx.cycle(4)
    rot = coh.lefschetz(c4, {0: 1, 1: 2, 2: 3, 3: 0})
    assert rot == {"cohomological": 0, "fixed_point_sum": 0}
    refl = coh.lefschetz(c4, {0: 0, 2: 2, 1: 3, 3: 1})
    assert refl == {"cohomological": 2, "fixed_point_sum": 2}


def test_induced_cohomology_matrices_pinned():
    # exact outputs recorded from the per-column rational elimination this
    # code replaced: the representatives, and so the matrices, must not move
    c4 = sx.cycle(4)
    one, minus = [[Fraction(1)]], [[Fraction(-1)]]
    assert coh.induced_cohomology_matrices(c4, {0: 1, 1: 2, 2: 3, 3: 0}) == [one, one]
    assert coh.induced_cohomology_matrices(c4, {0: 0, 1: 3, 2: 2, 3: 1}) == [one, minus]
    antipode = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    mats = coh.induced_cohomology_matrices(sx.cross_polytope(2), antipode)
    assert mats == [one, [], minus]
    assert all(type(v) is Fraction for m in mats for row in m for v in row)


def test_induced_matrices_match_per_map_solves(corpus):
    # the class cocycles are a basis of each H^k, and each induced matrix
    # maps them as the pushforward does modulo coboundaries, against
    # rational ranks, on every automorphism of the corpus complexes with
    # at most 8 vertices
    for name, G in corpus:
        if len(G.vertices()) > 8:
            continue
        cocycles = [[[z.get(i, 0) for i in range(len(base))] for z in classes.values()]
                    for base, (_, classes) in zip(coh.exterior_derivative(G).bases,
                                                  coh._reduction(G))]
        maps = [(perm, coh.induced_cohomology_matrices(G, perm))
                for perm in coh.automorphisms(G)]
        assert induced_cohomology_reference(G, cocycles, maps) == [], name


def test_pullback_outside_the_span_raises():
    # swapping vertices 1 and 2 is no automorphism: it pulls the indicator of
    # the edge's component back to a cochain that is not closed
    G = sx.close([(0, 1), (2,)])
    with pytest.raises(ArithmeticError, match="inconsistent"):
        coh.induced_cohomology_matrices(G, {0: 0, 1: 2, 2: 1})


def test_lefschetz_rejects_non_automorphism():
    with pytest.raises(ValueError):
        coh.lefschetz(sx.cycle(4), {0: 1, 1: 0, 2: 2, 3: 3})


def test_all_automorphisms_of_cycles():
    for n in (4, 5, 6):
        G = sx.cycle(n)
        autos = coh.automorphisms(G)
        assert len(autos) == 2 * n  # dihedral group
        for perm in autos:
            r = coh.lefschetz(G, perm)
            assert r["cohomological"] == r["fixed_point_sum"]


def test_automorphisms_match_bruteforce(corpus):
    # the pruned search finds every automorphism, in permutation order
    # (test_lefschetz_cross3_sample slices the list), including on complexes
    # whose edges alone allow maps that the triangles then rule out
    mixed = [sx.close([(0, 1, 2), (2, 3), (3, 4, 5), (5, 6), (1, 6)]),
             sx.close([(0, 1, 2), (1, 2, 3), (0, 4), (3, 5), (6,)]),
             sx.close([(0, 1), (1, 2), (0, 2), (3, 4, 5)]),
             sx.close([])]
    for G in [G for _, G in corpus if len(G.vertices()) <= 7] + mixed:
        got = coh.automorphisms(G)
        assert [list(p.items()) for p in got] == [
            list(p.items()) for p in automorphisms_bruteforce(G)]
    assert len(coh.automorphisms(sx.cycle(8))) == 16
    # S3 on each triangle; the edges would also allow swapping the hollow one
    # with the filled one
    assert len(coh.automorphisms(mixed[2])) == 36
    with pytest.raises(sx.ResourceLimitError):
        coh.automorphisms(sx.cycle(9))


def test_kuenneth_unit():
    res = coh.kuenneth_check(sx.cycle(4), sx.close([(0,)]))
    assert res["ok"]
    prod = sx.ring_product_complex(sx.cycle(4), sx.close([(0,)]))
    assert coh.betti(prod).betti == (1, 1)


def test_kuenneth_contractible_product():
    a = sx.close([(0, 1)])
    prod = sx.ring_product_complex(a, a)
    assert coh.betti(prod).betti == (1, 0, 0)


def test_kuenneth_cell_cap_checked_before_building(monkeypatch):
    # ico_1 x C6 has 362 * 12 = 4344 product cells, so its dense product
    # operators would be 4344 x 4344; the default cap is the dense exact one
    def never(*args, **kwargs):
        raise AssertionError("product built before the cap was checked")

    monkeypatch.setattr(coh, "ring_product_complex", never)
    ico_1 = sx.barycentric(sx.icosahedron())
    assert len(ico_1) * len(sx.cycle(6)) == 4344 > errors.DEFAULT_EXACT_CAP
    with pytest.raises(sx.ResourceLimitError, match="4344 cells; exact dense cap is 3000"):
        coh.kuenneth_check(ico_1, sx.cycle(6))


def test_kuenneth_k2_c4():
    res = coh.kuenneth_check(sx.close([(0, 1)]), sx.cycle(4))
    assert res["ok"]
    assert res["hodge_spectrum_err"] < 1e-6
    assert res["connection_spectrum_err"] < 1e-6


def test_interaction_cohomology_examples():
    rep = coh.interaction_cohomology(sx.close([(0, 1)]))
    alt = sum((-1) ** k * b for k, b in enumerate(rep.betti))
    assert alt == -1
    rep = coh.interaction_cohomology(sx.cycle(4))
    assert sum((-1) ** k * b for k, b in enumerate(rep.betti)) == 0
    rep = coh.interaction_cohomology(sx.close([(0, 1, 2)]))
    assert sum((-1) ** k * b for k, b in enumerate(rep.betti)) == 1


def test_interaction_alternating_is_wu(corpus, random_complexes):
    for _, G in corpus:
        if G.is_empty or len(G) > 30:
            continue
        rep = coh.interaction_cohomology(G)
        alt = sum((-1) ** k * b for k, b in enumerate(rep.betti))
        assert alt == sx.wu_characteristic(G, 2)
    for G in random_complexes[:10]:
        if G.is_empty or coh.interaction_pair_count(G) > 1500:
            continue
        rep = coh.interaction_cohomology(G)
        alt = sum((-1) ** k * b for k, b in enumerate(rep.betti))
        assert alt == sx.wu_characteristic(G, 2)


def test_interaction_euler_poly_counts_pairs():
    rep = coh.interaction_cohomology(sx.close([(0, 1)]))
    # degree 0: (a,a),(b,b); degree 1: (a,ab),(ab,a),(b,ab),(ab,b); degree 2: (ab,ab)
    assert rep.euler_poly == (2, 4, 1)


def test_wu_gauss_bonnet(corpus):
    k2 = sx.close([(0, 1)])
    curv = coh.wu_gauss_bonnet(k2)
    assert curv == {0: Fraction(-1, 2), 1: Fraction(-1, 2)}
    for _, G in corpus:
        if G.is_empty or len(G) > 90:
            continue
        assert sum(coh.wu_gauss_bonnet(G).values()) == sx.wu_characteristic(G, 2)


def test_alexander_dual_of_complete():
    G = sx.complete(4)
    assert coh.alexander_dual(G, range(4)).is_empty


def test_alexander_duality_c5():
    res = coh.alexander_duality_check(sx.cycle(5), range(5))
    assert res["ok"]
    assert res["reduced_G"] == {1: 1}
    assert res["reduced_dual"] == {1: 1}


def test_alexander_duality_simplex_boundary():
    # boundary of the 4-simplex on 5 vertices: a 3-sphere, dual empty
    faces = [tuple(sorted(set(range(5)) - {i})) for i in range(5)]
    G = sx.close(faces)
    res = coh.alexander_duality_check(G, range(5))
    assert res["ok"]
    assert res["reduced_G"] == {3: 1}
    assert res["reduced_dual"] == {-1: 1}


def test_alexander_duality_full_simplex():
    # V is itself a simplex of K5: the dual is the void complex, which has
    # no reduced homology at all (unlike {empty set}, with b~_-1 = 1)
    res = coh.alexander_duality_check(sx.complete(5), range(5))
    assert res["ok"]
    assert res["reduced_G"] == {}
    assert res["reduced_dual"] == {}


def test_alexander_duality_random():
    gen = SplitMix64(17)
    for trial in range(6):
        G = sx.erdos_renyi(sx.RandomModel(n=6, p=0.4, seed=500 + trial))
        res = coh.alexander_duality_check(G, range(6))
        assert res["ok"]


def test_stokes_k2():
    k2 = sx.close([(0, 1)])
    lhs, rhs = coh.stokes_pairing(k2, 0, [5, 9], [1])
    assert lhs == rhs == 4  # f(b) - f(a)


def test_stokes_closed_curve():
    c4 = sx.cycle(4)
    data = coh.exterior_derivative(c4)
    # fundamental class: orient the cycle coherently
    chain = []
    for e in data.bases[1]:
        chain.append(1 if (e[0] + 1) % 4 == e[1] else -1)
    lhs, rhs = coh.stokes_pairing(c4, 0, [3, 1, 4, 1], chain)
    assert lhs == rhs == 0


def test_stokes_random_octahedron():
    G = sx.cross_polytope(2)
    data = coh.exterior_derivative(G)
    gen = SplitMix64(23)
    for k in range(2):
        for _ in range(5):
            form = [gen.below(9) - 4 for _ in range(len(data.bases[k]))]
            chain = [gen.below(9) - 4 for _ in range(len(data.bases[k + 1]))]
            lhs, rhs = coh.stokes_pairing(G, k, form, chain)
            assert lhs == rhs


def test_stokes_shape_errors():
    with pytest.raises(ValueError):
        coh.stokes_pairing(sx.close([(0, 1)]), 0, [1], [1])
    with pytest.raises(ValueError):
        coh.stokes_pairing(sx.close([(0, 1)]), 5, [1], [1])


def test_lefschetz_octahedron_full_group():
    G = sx.cross_polytope(2)
    autos = coh.automorphisms(G)
    assert len(autos) == 48  # hyperoctahedral group B_3
    for perm in autos:
        r = coh.lefschetz(G, perm)
        assert r["cohomological"] == r["fixed_point_sum"]


def test_lefschetz_library_calls_share_the_bases(monkeypatch):
    # the reduction is memoed on the complex, so the 48 maps of the
    # octahedron, called one by one, reduce it once
    calls = []
    real = coh._reduce
    monkeypatch.setattr(coh, "_reduce", lambda data: calls.append(data.dims) or real(data))
    G = sx.cross_polytope(2)
    for perm in coh.automorphisms(G):
        r = coh.lefschetz(G, perm)
        assert r["cohomological"] == r["fixed_point_sum"]
        assert len(coh.induced_cohomology_matrices(G, perm)) == 3
    assert calls == [(6, 12, 8)]


def test_lefschetz_icosahedron_generators():
    # symmetries read off the golden-ratio coordinate model
    phi = (1 + 5 ** 0.5) / 2
    pts = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            pts += [(s1, s2 * phi, 0), (0, s1, s2 * phi), (s2 * phi, 0, s1)]
    pts = sorted(set(pts))
    index = {p: i for i, p in enumerate(pts)}

    def near(p):
        for q, i in index.items():
            if sum((a - b) ** 2 for a, b in zip(p, q)) < 1e-9:
                return i
        raise KeyError(p)

    G = sx.icosahedron()
    transforms = [
        lambda p: (p[2], p[0], p[1]),       # coordinate rotation, order 3
        lambda p: (-p[0], -p[1], p[2]),     # half-turn
        lambda p: (-p[0], -p[1], -p[2]),    # antipodal (orientation-reversing)
    ]
    expected = [2, 2, 0]
    for T, L in zip(transforms, expected):
        perm = {i: near(T(p)) for p, i in index.items()}
        r = coh.lefschetz(G, perm)
        assert r["cohomological"] == r["fixed_point_sum"] == L


def test_lefschetz_cross3_sample():
    G = sx.cross_polytope(3)
    autos = coh.automorphisms(G)
    assert len(autos) == 384  # hyperoctahedral group B_4
    for perm in autos[::48]:
        r = coh.lefschetz(G, perm)
        assert r["cohomological"] == r["fixed_point_sum"]


def test_interaction_distinguishes_cylinder_from_mobius():
    # both have chi = 0 and wu = 0; the quadratic Betti vectors differ,
    # at the original triangulations and at their refinements
    cyl = sx.close([(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5),
                    (0, 3, 5)])
    mob = sx.close([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)])
    for G in (cyl, mob):
        assert G.euler_characteristic() == 0
        assert sx.wu_characteristic(G, 2) == 0
    assert coh.interaction_cohomology(cyl).betti == (0, 0, 1, 1, 0)
    assert coh.interaction_cohomology(mob).betti == (0, 0, 0, 0, 0)
    assert coh.interaction_cohomology(sx.barycentric(cyl)).betti == (0, 0, 1, 1, 0)
    assert coh.interaction_cohomology(sx.barycentric(mob)).betti == (0, 0, 0, 0, 0)


def test_interaction_pairs_match_scan(local_corpus):
    for name, G in local_corpus:
        pairs = interaction_pairs_scan(G)
        assert interaction_pairs(G) == pairs, name
        assert coh.interaction_pair_count(G) == len(pairs), name
        if len(pairs) <= errors.DEFAULT_PAIR_CAP:
            listed = [p for b in coh.interaction_derivative(G).bases for p in b]
            assert sorted(listed, key=lambda p: (len(p[0]) + len(p[1]), p)) == pairs, name


def test_pair_cap_checked_before_listing(monkeypatch):
    def unlisted(*args):
        raise AssertionError("pairs listed before the cap was checked")

    monkeypatch.setattr(coh, "_intersecting_pairs", unlisted)
    monkeypatch.setattr(errors, "DEFAULT_PAIR_CAP", 100)
    G = sx.icosahedron()
    with pytest.raises(sx.ResourceLimitError) as err:
        coh.interaction_cohomology(G)
    assert str(err.value) == f"{len(interaction_pairs_scan(G))} interacting pairs exceed cap 100"
