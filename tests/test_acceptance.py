"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a single summary line.  The shared corpus is the named
complexes (solid simplices n<=5, cycles n<=12, cross polytopes d<=3, the
icosahedron), their first Barycentric refinements within the exact-ops cap,
and 10,000 random Whitney complexes E(n<=7, p in {0.2, 0.5, 0.8}).  The
fixtures are module-scoped, so each complex's memo (its connection matrix
and Green inverse) serves every criterion that shares them.
"""

import time

import numpy as np
import pytest

import simplexion as sx
from simplexion import cohomology as coh
from simplexion import connection as conn
from simplexion import geometry as geo
from simplexion import spectral as spec
from simplexion.core import is_whitney
from simplexion.errors import DEFAULT_EXACT_CAP, DEFAULT_PAIR_CAP
from simplexion.exact import charpoly, jacobi_inertia
from simplexion.rng import SplitMix64

from oracles import berkowitz_charpoly, factor, inertia_from_charpoly

BERKOWITZ_CAP = 150
RANDOM_COUNT = 10_000
RANDOM_NS = (4, 5, 6, 7)
RANDOM_PS = (0.2, 0.5, 0.8)


def _named():
    out = [(f"K{n}", sx.complete(n)) for n in range(1, 6)]
    out += [(f"C{n}", sx.cycle(n)) for n in range(3, 13)]
    out += [(f"cross{d}", sx.cross_polytope(d)) for d in range(4)]
    out.append(("icosahedron", sx.icosahedron()))
    return out


@pytest.fixture(scope="module")
def named():
    return _named()


@pytest.fixture(scope="module")
def refinements(named):
    out = []
    for name, G in named:
        H = sx.barycentric(G)
        if len(H) <= DEFAULT_EXACT_CAP:
            out.append((name + "_1", H))
    return out


@pytest.fixture(scope="module")
def random_corpus():
    out = []
    for i in range(RANDOM_COUNT):
        model = sx.RandomModel(
            n=RANDOM_NS[i % len(RANDOM_NS)],
            p=RANDOM_PS[i % len(RANDOM_PS)],
            seed=100_000 + i,
        )
        out.append(sx.erdos_renyi(model))
    return out


def test_criterion_01_unimodularity(named, refinements, random_corpus):
    t0 = time.monotonic()
    checked = 0
    for name, G in named + refinements:
        assert conn.connection_det(G) in (1, -1), name
        checked += 1
    for G in random_corpus:
        if not G.is_empty:
            assert conn.connection_det(G) in (1, -1)
            checked += 1
    print(f"\n[criterion 1] unimodularity |det L|=1 on {checked} complexes "
          f"(exact) PASS in {time.monotonic() - t0:.1f}s")


def test_criterion_02_energy_and_green_star(named, refinements, random_corpus):
    t0 = time.monotonic()
    checked = 0
    for name, G in named + refinements:
        assert conn.energy(G) == G.euler_characteristic(), name
        checked += 1
    for G in random_corpus:
        if not G.is_empty:
            assert conn.energy(G) == G.euler_characteristic()
            checked += 1
    star_ok = 0
    for G in random_corpus[:1000]:
        if G.is_empty:
            continue
        assert np.array_equal(conn.green_star_matrix(G), conn.green_inverse(G))
        star_ok += 1
    print(f"\n[criterion 2] energy sum(g)=chi on {checked} complexes; "
          f"green-star formula on {star_ok} random complexes (exact) PASS "
          f"in {time.monotonic() - t0:.1f}s")


def test_criterion_03_inertia(named, refinements, random_corpus):
    t0 = time.monotonic()
    charpoly_runs = 0
    berkowitz_runs = 0
    minor_runs = 0
    numeric_runs = 0
    for name, G in named + refinements:
        if G.is_empty:
            continue
        L = conn.connection_matrix(G)
        chi = G.euler_characteristic()
        p, n, z = jacobi_inertia(factor(L)[0])
        assert (p - n, z) == (chi, 0), name
        minor_runs += 1
        if len(L) <= BERKOWITZ_CAP:
            cp = charpoly(L)
            assert cp == berkowitz_charpoly(L), name
            assert inertia_from_charpoly(cp) == (p, n, z), name
            charpoly_runs += 1
            berkowitz_runs += 1
        if len(L) <= 1800:
            vals = spec.eig_symmetric(L.astype(float))
            assert int((vals > 0).sum()) == p and int((vals < 0).sum()) == n, name
            numeric_runs += 1
    for G in random_corpus:
        if G.is_empty:
            continue
        L = conn.connection_matrix(G)
        chi = G.euler_characteristic()
        p, n, z = inertia_from_charpoly(charpoly(L))
        assert (p - n, z) == (chi, 0)
        charpoly_runs += 1
        assert jacobi_inertia(factor(L)[0]) == (p, n, z)
        minor_runs += 1
        vals = spec.eig_symmetric(L.astype(float))
        assert int((vals > 0).sum()) == p and int((vals < 0).sum()) == n
        numeric_runs += 1
    print(f"\n[criterion 3] inertia p-n=chi: charpoly+Descartes x{charpoly_runs} "
          f"(Berkowitz-checked x{berkowitz_runs}), minor-signs x{minor_runs}, "
          f"numeric signs x{numeric_runs} PASS in {time.monotonic() - t0:.1f}s")


def test_criterion_04_poincare_hopf_gauss_bonnet(named, refinements):
    t0 = time.monotonic()
    corpus = [(n, G) for n, G in named + refinements
              if not G.is_empty and is_whitney(G) and len(G) <= 400]
    for name, G in corpus:
        chi = G.euler_characteristic()
        for trial in range(100):
            gen = SplitMix64.substream(2024, trial)
            f = geo.random_injective_function(G, gen)
            assert geo.ph_index_sum(G, f) == chi, name
        total = sum(geo.levitt_curvature(G, v) for v in G.vertices())
        assert total == chi, name
    est = geo.curvature_expectation(sx.cross_polytope(2), 0, trials=100_000,
                                    seed=99)
    assert abs(est - 1 / 3) < 0.02
    print(f"\n[criterion 4] Poincare-Hopf 100 random f x{len(corpus)} complexes "
          f"exact; Gauss-Bonnet exact; MC curvature {est:.4f} vs 1/3 PASS "
          f"in {time.monotonic() - t0:.1f}s")


def test_criterion_05_stirling(named, refinements):
    t0 = time.monotonic()
    table = {name: G for name, G in named}
    oct1 = sx.stirling_apply(sx.stirling_matrix(2), table["cross2"].f_vector())
    assert oct1 == (26, 72, 48)
    pairs = dict(refinements)
    count = 0
    for name, G in named:
        refined = pairs.get(name + "_1")
        if refined is None or G.is_empty:
            continue
        S = sx.stirling_matrix(G.max_dim())
        assert sx.stirling_apply(S, G.f_vector()) == refined.f_vector(), name
        count += 1
    for r in range(7):
        assert sx.euler_unique_vector(r) == [(-1) ** k for k in range(r + 1)]
    print(f"\n[criterion 5] Stirling f(G_1)=S f(G) on {count} refinements; "
          f"unique refinement-invariant valuation alternates for r<=6 PASS "
          f"in {time.monotonic() - t0:.1f}s")


def test_criterion_06_spheres():
    t0 = time.monotonic()
    for d in range(4):
        G = sx.cross_polytope(d)
        assert G.euler_characteristic() == 1 + (-1) ** d
        assert geo.is_d_sphere(G, d)
    J = sx.join(sx.close([(0,), (1,)]), sx.cycle(4))
    assert geo.is_d_sphere(J, 2)
    for G, d in ((sx.close([(0,), (1,)]), 0), (sx.cycle(5), 1),
                 (sx.cross_polytope(2), 2)):
        res = geo.reeb_sphere_check(G, d)
        assert res["success"]
    print(f"\n[criterion 6] sphere recognition, Euler gem, join of spheres, "
          f"two-critical-point functions PASS in {time.monotonic() - t0:.1f}s")


def test_criterion_07_hydrogen_zeta_trace(named, refinements):
    t0 = time.monotonic()
    dim1 = [sx.close([(0, 1)]), sx.cycle(4), sx.cycle(5),
            sx.whitney(4, [(0, 1), (0, 2), (0, 3)])]
    for G in dim1:
        assert conn.hydrogen_check(G)["ok"]
        assert conn.spectral_symmetry_check(G)
        assert spec.zeta_symmetry_gap(G) < 1e-8
    count = 0
    for name, G in named + refinements:
        if G.is_empty:
            continue
        a, b, c = conn.trace_identity(G)
        assert a == b == c, name
        count += 1
    print(f"\n[criterion 7] hydrogen L-L^-1=H, zeta symmetry (exact+numeric), "
          f"trace identity on {count} complexes PASS in {time.monotonic() - t0:.1f}s")


def test_criterion_08_cohomology(named, refinements):
    t0 = time.monotonic()
    assert coh.betti(sx.cycle(4)).betti == (1, 1)
    assert coh.betti(sx.cross_polytope(2)).betti == (1, 0, 1)
    assert coh.betti(sx.icosahedron()).betti == (1, 0, 1)
    torus = sx.ring_product_complex(sx.cycle(4), sx.cycle(4))
    assert coh.betti(torus).betti == (1, 2, 1)
    count = 0
    for name, G in named + refinements:
        assert coh.betti(G).euler_characteristic == G.euler_characteristic(), name
        count += 1
    ms = 0
    for name, G in named + refinements + [("torus", torus)]:
        if G.is_empty or len(G) > 400:
            continue
        res = coh.mckean_singer(G)
        assert res["exact_zero_powers"], name
        assert res["numeric_max_err"] < 1e-8, name
        ms += 1
    print(f"\n[criterion 8] Betti fixtures + Euler-Poincare exact x{count}; "
          f"McKean-Singer exact k<=6 and numeric 1e-8 x{ms} PASS "
          f"in {time.monotonic() - t0:.1f}s")


def test_criterion_09_wu_interaction(named):
    t0 = time.monotonic()
    for d in range(4):
        assert sx.wu_characteristic(sx.complete(d + 1), 2) == (-1) ** d
    # boundary formula fixtures: wheel disks and a solid 3-ball
    wheels = []
    for rim in (4, 5, 6):
        edges = [(0, i) for i in range(1, rim + 1)]
        edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
        wheels.append((f"wheel{rim}", sx.whitney(rim + 1, edges), 2))
    ball3 = sx.join(sx.close([(0,)]), sx.cross_polytope(2))
    fixtures = wheels + [("ball3", ball3, 3)]
    for name, G, d in fixtures:
        delta = geo.boundary(G, d)
        assert (G.euler_characteristic() - sx.wu_characteristic(G, 2)
                == delta.euler_characteristic()), name
        assert geo.boundary(delta, d - 1).is_empty, name
    inter = 0
    for name, G in named:
        if G.is_empty or coh.interaction_pair_count(G) > DEFAULT_PAIR_CAP:
            continue
        rep = coh.interaction_cohomology(G)
        alt = sum((-1) ** k * b for k, b in enumerate(rep.betti))
        assert alt == sx.wu_characteristic(G, 2), name
        inter += 1
    gb = 0
    for name, G in named:
        if G.is_empty:
            continue
        assert sum(coh.wu_gauss_bonnet(G).values()) == sx.wu_characteristic(G, 2)
        gb += 1
    print(f"\n[criterion 9] Wu of solid simplices, boundary formula on "
          f"{len(fixtures)} fixtures, interaction cohomology x{inter}, "
          f"Wu Gauss-Bonnet x{gb} PASS in {time.monotonic() - t0:.1f}s")


def test_criterion_10_trees_forests():
    t0 = time.monotonic()
    assert spec.tree_forest_numbers(3, [(0, 1), (1, 2), (2, 0)])["tree"] == 9
    assert spec.tree_forest_numbers(3, [(0, 1), (1, 2), (2, 0)])["forest"] == 16
    checked = 0
    for n in range(1, 6):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            adj = {v: set() for v in range(n)}
            for a, b in edges:
                adj[a].add(b)
                adj[b].add(a)
            seen = {0}
            stack = [0]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != n:
                continue
            got = spec.tree_forest_numbers(n, edges)
            brute = spec.rooted_spanning_counts_bruteforce(n, edges)
            assert got["tree"] == brute["tree"]
            assert got["forest"] == brute["forest"]
            checked += 1
    print(f"\n[criterion 10] tree/forest counts vs exhaustive enumeration on "
          f"{checked} connected graphs (n<=5, exact) PASS "
          f"in {time.monotonic() - t0:.1f}s")


def test_criterion_11_barycentric_limit():
    t0 = time.monotonic()
    for seed_name, G in (("C4", sx.cycle(4)), ("K2", sx.close([(0, 1)]))):
        res = spec.barycentric_limit_experiment(G, levels=5)
        d = res["l1_distances"]
        assert all(a > b for a, b in zip(d, d[1:])), seed_name
        assert d[-1] < 0.05, (seed_name, d)
    print(f"\n[criterion 11] Kirchhoff spectral functions -> 4sin^2(pi x/2), "
          f"monotone, final L1 < 0.05 for C4 and K2 seeds PASS "
          f"in {time.monotonic() - t0:.1f}s")


def test_criterion_12_lefschetz():
    t0 = time.monotonic()
    pairs = 0
    for n in range(3, 9):
        G = sx.cycle(n)
        autos = coh.automorphisms(G)
        assert len(autos) == 2 * n
        for perm in autos:
            r = coh.lefschetz(G, perm)
            assert r["cohomological"] == r["fixed_point_sum"]
            pairs += 1
    oct_ = sx.cross_polytope(2)
    # generators of the octahedron symmetry: equator rotation, pole swap
    # composed with a flip, and a reflection
    gens = [
        {0: 0, 1: 1, 2: 4, 4: 3, 3: 5, 5: 2},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 4, 5: 5},
        {0: 0, 1: 1, 2: 3, 3: 2, 4: 4, 5: 5},
    ]
    for perm in gens:
        r = coh.lefschetz(oct_, perm)
        assert r["cohomological"] == r["fixed_point_sum"]
        pairs += 1
    ident = coh.lefschetz(oct_, {v: v for v in oct_.vertices()})
    assert ident["cohomological"] == ident["fixed_point_sum"] == 2
    print(f"\n[criterion 12] Lefschetz cohomological = fixed-point sum for "
          f"{pairs} automorphisms (exact) PASS in {time.monotonic() - t0:.1f}s")


def test_criterion_13_lax():
    t0 = time.monotonic()
    for G in (sx.close([(0, 1)]), sx.cycle(4)):
        for gamma in (0.0, 1.0):
            res = spec.lax_flow(G, gamma=gamma, t_end=1.0, dt=1e-3)
            assert res["eigenvalue_drift"] < 1e-6
            assert res["laplacian_drift"] < 1e-6
    print(f"\n[criterion 13] Lax flow isospectral, D(t)^2 pinned to 1e-6 at "
          f"t=1 for K2/C4, gamma in {{0,1}} PASS in {time.monotonic() - t0:.1f}s")


def test_criterion_14_random_model():
    t0 = time.monotonic()
    from simplexion.cli import random_statistics

    for p in RANDOM_PS:
        stats = random_statistics(8, p, trials=100_000, seed=7, wu_sample=0)
        assert abs(stats["dim"]["z"]) < 4, (p, stats["dim"])
        assert abs(stats["chi"]["z"]) < 4, (p, stats["chi"])
    print(f"\n[criterion 14] Monte Carlo dim/chi z-scores |z|<4 at n=8, "
          f"10^5 trials, p in {{0.2,0.5,0.8}} PASS in {time.monotonic() - t0:.1f}s")
