import math

import numpy as np
import pytest

import simplexion as sx
from simplexion import cohomology as coh
from simplexion import connection as conn
from simplexion import spectral as spec
from simplexion.rng import SplitMix64

from oracles import containment_kirchhoff_scan, factor, jacobi_eigenvalues


def test_eig_symmetric_diag():
    vals = spec.eig_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1, 2, 3])


def test_eig_symmetric_rejects_asymmetric():
    with pytest.raises(ValueError):
        spec.eig_symmetric([[0.0, 1.0], [0.0, 0.0]])


def test_eig_signs_match_inertia(corpus):
    for _, G in corpus:
        if G.is_empty or len(G) > 100:
            continue
        vals = spec.eig_symmetric(conn.connection_matrix(G).astype(float))
        p, n, z = conn.inertia_of_connection(G)
        assert int((vals > 0).sum()) == p
        assert int((vals < 0).sum()) == n


def test_kirchhoff_c4_spectrum():
    K = spec.kirchhoff_matrix(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    vals = spec.eig_symmetric(K.astype(float))
    assert np.allclose(vals, [0, 2, 2, 4], atol=1e-9)
    # an edge listed twice counts twice; a self-loop is refused
    assert spec.kirchhoff_matrix(2, [(0, 1), (1, 0)]).tolist() == [[2, -2], [-2, 2]]
    assert spec.kirchhoff_matrix(0, []).shape == (0, 0)
    with pytest.raises(ValueError, match="self-loop"):
        spec.kirchhoff_matrix(3, [(0, 1), (2, 2)])


def test_jacobi_matches_eigh():
    gen = SplitMix64(9)
    for n in (2, 4, 7):
        A = np.array([[gen.below(9) - 4 for _ in range(n)] for _ in range(n)], dtype=float)
        S = A + A.T
        assert np.allclose(jacobi_eigenvalues(S), spec.eig_symmetric(S), atol=1e-8)


def test_zeta_point_and_octahedron():
    point = sx.close([(0,)])
    assert spec.zeta_values(point, [0.3, 2.0, 1j]) == [1, 1, 1]
    G = sx.cross_polytope(2)
    z0 = spec.zeta_values(G, [0.0])[0]
    assert abs(z0 - len(G)) < 1e-9


def test_zeta_symmetry_dim1(monkeypatch):
    spectra = []
    real = spec.connection_spectrum_squared
    monkeypatch.setattr(spec, "connection_spectrum_squared",
                        lambda G: spectra.append(G) or real(G))
    for G in (sx.close([(0, 1)]), sx.cycle(4), sx.cycle(5)):
        ts = (0.5, 1.0, 2.0)
        per_t = [spec.zeta_values(G, [1j * t, -1j * t]) for t in ts]
        spectra.clear()
        gap = spec.zeta_symmetry_gap(G)
        assert len(spectra) == 1  # one spectrum serves every t
        assert gap == max(abs(plus - minus) for plus, minus in per_t)  # bit for bit
        assert gap < 1e-8


def test_limit_experiment_quick():
    res = spec.barycentric_limit_experiment(sx.cycle(4), 3, grid_points=512)
    d = res["l1_distances"]
    assert len(d) == 3 and d[0] > d[1] > d[2]
    res2 = spec.barycentric_limit_experiment(sx.cross_polytope(2), 1, grid_points=256)
    assert res2["l1_distances"] == []  # no claim checked in dimension 2
    assert len(res2["curves"]) == 1


def test_tree_forest_examples():
    assert spec.tree_forest_numbers(3, [(0, 1), (1, 2), (2, 0)]) == {
        "tree": 9, "forest": 16, "kernel_dim": 1,
    }
    res = spec.tree_forest_numbers(2, [(0, 1)])
    assert (res["tree"], res["forest"]) == (2, 3)
    res = spec.tree_forest_numbers(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert res["tree"] == 16


def test_tree_forest_bruteforce_small():
    gen = SplitMix64(30)
    for n in (2, 3, 4):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for _ in range(8):
            edges = [e for e in pairs if gen.uniform() < 0.7]
            got = spec.tree_forest_numbers(n, edges)
            brute = spec.rooted_spanning_counts_bruteforce(n, edges)
            # disconnected graphs included: they have no spanning tree
            assert got["forest"] == brute["forest"]
            assert got["tree"] == brute["tree"]


def test_forest_count_from_charpoly():
    # det(K + I) read off the characteristic polynomial of K, against the
    # brute force and an elimination; n = 0, isolated vertices and
    # disconnected graphs included
    cases = [(0, []), (1, []), (4, []), (5, [(0, 1), (2, 3)]),
             (6, [(0, 1), (1, 2), (2, 0), (3, 4)]), (5, [(0, 1), (1, 2), (2, 3), (3, 4)])]
    gen = SplitMix64(31)
    for n in (3, 5, 6):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        cases += [(n, [e for e in pairs if gen.uniform() < 0.4]) for _ in range(6)]
    for n, edges in cases:
        forest = spec.tree_forest_numbers(n, edges)["forest"]
        K = spec.kirchhoff_matrix(n, edges)
        assert forest == factor(K + np.eye(n, dtype=np.int64))[1]
        assert forest == spec.rooted_spanning_counts_bruteforce(n, edges)["forest"]


def test_wave_at_zero_and_eigenmode():
    k2 = sx.close([(0, 1)])
    u0 = [1.0, -2.0, 0.5]
    res = spec.wave_evolve(k2, u0, [0.0, 0.0, 0.0], 0.0)
    assert np.allclose(res["u"], u0)
    # eigenmode: u(t) = cos(lambda t) v
    D = coh.dirac(sx.cycle(4)).astype(float)
    lam, V = np.linalg.eigh(D)
    v = V[:, -1]
    res = spec.wave_evolve(sx.cycle(4), v, np.zeros(8), 0.7)
    assert np.allclose(res["u"], math.cos(lam[-1] * 0.7) * v, atol=1e-9)


def test_wave_second_difference_residual():
    G = sx.cycle(4)
    H = coh.hodge(G).astype(float)
    gen = SplitMix64(41)
    u0 = np.array([gen.uniform() - 0.5 for _ in range(8)])
    v0 = np.array([gen.uniform() - 0.5 for _ in range(8)])
    t = 0.9
    errs = []
    for h in (1e-2, 5e-3):
        um = spec.wave_evolve(G, u0, v0, t - h)["u"]
        uc = spec.wave_evolve(G, u0, v0, t)["u"]
        up = spec.wave_evolve(G, u0, v0, t + h)["u"]
        errs.append(np.abs((up - 2 * uc + um) / h ** 2 + H @ uc).max())
    # O(h^2): halving h quarters the residual (within slack)
    assert errs[1] < errs[0] / 2.5
    assert errs[0] < 1e-2


def test_wave_energy_conserved():
    G = sx.cycle(4)
    gen = SplitMix64(43)
    u0 = np.array([gen.uniform() for _ in range(8)])
    e0 = None
    for t in (0.0, 0.5, 1.5, 4.0):
        res = spec.wave_evolve(G, u0, np.zeros(8), t)
        e = spec.wave_energy(G, res["u"], res["u_t"])
        if e0 is None:
            e0 = e
        assert abs(e - e0) < 1e-8


def test_schrodinger_norm():
    G = sx.cycle(4)
    gen = SplitMix64(44)
    psi0 = np.array([gen.uniform() + 1j * gen.uniform() for _ in range(8)])
    n0 = np.linalg.norm(psi0)
    for t in (0.1, 1.0, 10.0):
        psi = spec.schrodinger_evolve(G, psi0, t)
        assert abs(np.linalg.norm(psi) - n0) < 1e-9
    assert np.allclose(spec.schrodinger_evolve(G, psi0, 0.0), psi0)


def test_lax_flow():
    k2 = sx.close([(0, 1)])
    res = spec.lax_flow(k2, gamma=0.0, t_end=1.0, dt=1e-3)
    assert res["eigenvalue_drift"] < 1e-8
    assert res["laplacian_drift"] < 1e-8
    res = spec.lax_flow(sx.cycle(4), gamma=1.0, t_end=1.0, dt=1e-3)
    assert res["eigenvalue_drift"] < 1e-6
    assert res["laplacian_drift"] < 1e-6
    res = spec.lax_flow(sx.cycle(4), gamma=1.0, t_end=0.0, dt=1e-3)
    assert res["steps"] == 0


def test_lax_flow_moves_d():
    # the Dirac operator itself deforms even though D^2 is pinned
    G = sx.cycle(4)
    D0 = coh.dirac(G).astype(complex)
    res = spec.lax_flow(G, gamma=0.0, t_end=0.5, dt=1e-3)
    assert np.abs(res["final"] - D0).max() > 1e-3


def test_refinement_graph_kirchhoff_matches_scan(local_corpus):
    for name, G in local_corpus:
        K = spec.refinement_graph_kirchhoff(G)
        assert np.array_equal(K, containment_kirchhoff_scan(G)), name
