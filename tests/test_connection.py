import math

import numpy as np
import pytest

import simplexion as sx
from simplexion import connection as conn
from simplexion import errors
from simplexion.refinement import refinement_order

from oracles import det_cofactor, factor


def test_connection_matrix_k2():
    L = conn.connection_matrix(sx.close([(0, 1)]))
    assert L.tolist() == [[1, 0, 1], [0, 1, 1], [1, 1, 1]]


def test_connection_matrix_point_and_pair():
    assert conn.connection_matrix(sx.close([(0,)])).tolist() == [[1]]
    pts = sx.close([(0,), (1,)])
    assert conn.connection_matrix(pts).tolist() == [[1, 0], [0, 1]]
    assert conn.dual_connection_matrix(pts).tolist() == [[0, 1], [1, 0]]


def test_L_plus_dual_is_all_ones(corpus):
    for _, G in corpus[:6]:
        if G.is_empty or len(G) > 60:
            continue
        L = conn.connection_matrix(G)
        assert ((L + conn.dual_connection_matrix(G)) == 1).all()


def test_det_small_matches_cofactor(random_complexes):
    for G in random_complexes:
        if G.is_empty or len(G) > 9:
            continue
        L = conn.connection_matrix(G)
        assert conn.connection_det(G) == det_cofactor(L.tolist())


def test_unimodularity(corpus, random_complexes):
    for _, G in corpus:
        assert conn.connection_det(G) in (1, -1)
    for G in random_complexes:
        assert conn.connection_det(G) in (1, -1)


def test_green_k2():
    g = conn.green_inverse(sx.close([(0, 1)]))
    assert g.tolist() == [[0, -1, 1], [-1, 0, 1], [1, 1, -1]]
    assert int(g.sum()) == 1


def test_energy(corpus, random_complexes):
    for _, G in corpus:
        if G.is_empty:
            continue
        assert conn.energy(G) == G.euler_characteristic()
    for G in random_complexes[:20]:
        if not G.is_empty:
            assert conn.energy(G) == G.euler_characteristic()


def test_green_diagonal_is_sphere_euler(corpus):
    for _, G in corpus:
        if G.is_empty or len(G) > 120:
            continue
        g = conn.green_inverse(G)
        elems = refinement_order(G)
        for i, x in enumerate(elems):
            assert g[i, i] == 1 - sx.sphere_euler(G, x)


def test_green_diagonal_join_splitting(corpus):
    # g(x,x) = parity(x) * (1 - chi of the up-star sphere)
    from simplexion.core import _faces, comparable_elements, order_complex

    for _, G in corpus[:6]:
        if G.is_empty or len(G) > 40:
            continue
        g = conn.green_inverse(G)
        elems = refinement_order(G)
        for i, x in enumerate(elems):
            ups = [y for y in comparable_elements(G, x) if len(y) > len(x)]
            chi_up = order_complex(ups, _faces).euler_characteristic()
            assert g[i, i] == sx.parity(x) * (1 - chi_up)


def test_green_star_examples():
    k2 = sx.close([(0, 1)])
    assert conn.green_star(k2, (0, 1), (0, 1)) == -1
    assert conn.green_star(k2, (0,), (1,)) == -1
    assert conn.green_star(k2, (0,), (0,)) == 0


def test_green_star_matches_inverse(corpus, random_complexes):
    for _, G in corpus[:10]:
        if G.is_empty or len(G) > 90:
            continue
        assert np.array_equal(conn.green_star_matrix(G), conn.green_inverse(G))
    for G in random_complexes[:25]:
        if not G.is_empty:
            assert np.array_equal(conn.green_star_matrix(G), conn.green_inverse(G))


def test_green_star_matrix_matches_entrywise(random_complexes):
    # no vertex-count limit: path(150) and C150 have more than 62 vertices,
    # and labels shifted by 10^6 index the incidence by rank, not by label
    shift = 10 ** 6
    c70 = sx.close([(shift + i, shift + (i + 1) % 70) for i in range(70)])
    for G in [c70, sx.path(150), sx.cycle(150), sx.close([(0,)])] + random_complexes[:30]:
        elems = refinement_order(G)
        M = conn.green_star_matrix(G)
        assert M.dtype == np.int64
        assert M.tolist() == [[conn.green_star(G, x, y) for y in elems] for x in elems]
    assert conn.green_star_matrix(sx.close([])).shape == (0, 0)


def test_wu_intersection_matrix(corpus):
    for _, G in corpus[:8]:
        if G.is_empty or len(G) > 60:
            continue
        M = conn.wu_intersection_matrix(G)
        assert int(M.sum()) == sx.wu_characteristic(G, 2)


def test_inertia_k2_and_identity():
    assert conn.inertia_of_connection(sx.close([(0, 1)])) == (2, 1, 0)
    pts = sx.close([(i,) for i in range(5)])
    assert conn.inertia_of_connection(pts) == (5, 0, 0)


def test_inertia_is_euler(corpus, random_complexes):
    for _, G in corpus:
        if G.is_empty or len(G) > 150:
            continue
        p, n, z = conn.inertia_of_connection(G)
        assert z == 0
        assert p - n == G.euler_characteristic()
    for G in random_complexes[:25]:
        if G.is_empty:
            continue
        p, n, z = conn.inertia_of_connection(G)
        assert (p - n, z) == (G.euler_characteristic(), 0)


def test_inertia_refuses_a_zero_leading_minor(monkeypatch):
    # every leading block of L is the connection matrix of a subcomplex, so
    # entries with a zero leading minor are a fault: here L[1][0] = 1 joins
    # two vertices of C4, and the leading block [[1, 1], [1, 1]] is singular
    from simplexion.exact import ldl

    monkeypatch.setattr(conn, "ldl", lambda cols: ldl([{**cols[0], 1: 1}] + cols[1:]))
    with pytest.raises(errors.InvariantViolation, match="pivot 1 is 0") as exc:
        conn.inertia_of_connection(sx.cycle(4))
    assert exc.value.witness == {"pivot": 1, "value": 0}


def test_supertraces(corpus):
    k2 = sx.close([(0, 1)])
    assert conn.supertrace_powers(k2) == {
        "str_inverse": 1, "str_identity": 1, "str_connection": 1,
    }
    for _, G in corpus:
        if G.is_empty or len(G) > 90:
            continue
        st = conn.supertrace_powers(G)
        chi = G.euler_characteristic()
        assert set(st.values()) == {chi}


def test_dual_product(corpus):
    point = sx.close([(0,)])
    res = conn.dual_product_check(point)
    assert res["det"] == 0 and res["det_ok"] and res["charpoly_ok"]
    res = conn.dual_product_check(sx.close([(0, 1)]))
    assert res["det"] == 0 and res["det_ok"] and res["charpoly_ok"]
    res = conn.dual_product_check(sx.cycle(4))
    assert res["det"] == 1 and res["det_ok"] and res["charpoly_ok"]
    for _, G in corpus:
        if G.is_empty or len(G) > 70:
            continue
        res = conn.dual_product_check(G)
        assert res["det_ok"] and res["charpoly_ok"]


def test_hydrogen():
    for G in (sx.close([(0, 1)]), sx.cycle(4), sx.cycle(5),
              sx.whitney(4, [(0, 1), (0, 2), (0, 3)])):
        assert conn.hydrogen_check(G)["ok"]
    with pytest.raises(ValueError):
        conn.hydrogen_check(sx.cross_polytope(2))


def test_trace_identity(corpus, random_complexes):
    assert conn.trace_identity(sx.close([(0,)])) == (0, 0, 0)
    assert conn.trace_identity(sx.close([(0, 1)])) == (4, 4, 4)
    for _, G in corpus:
        if G.is_empty or len(G) > 120:
            continue
        a, b, c = conn.trace_identity(G)
        assert a == b == c
    for G in random_complexes[:20]:
        if not G.is_empty:
            a, b, c = conn.trace_identity(G)
            assert a == b == c


def test_spectral_symmetry():
    for G in (sx.close([(0, 1)]), sx.cycle(4), sx.cycle(5)):
        assert conn.spectral_symmetry_check(G)
    # diag(2, 1): charpoly(A^2) = (y - 4)(y - 1) is not its own reversal
    q, r = conn._square_charpolys(np.diag([2, 1]))
    assert (q, r) == ([1, -5, 4], [4, -5, 1])
    with pytest.raises(ValueError):
        conn.spectral_symmetry_check(sx.complete(3))
    # above the charpoly cap it refuses on a fresh copy, before L is built
    fresh = sx.cycle(5)
    with (mock.patch.object(errors, "CHARPOLY_CAP", len(fresh) - 1),
          mock.patch.object(refinement, "_build_connection") as build,
          pytest.raises(errors.ResourceLimitError, match="charpoly cap")):
        conn.spectral_symmetry_check(fresh)
    assert build.call_count == 0


def test_green_values_on_d_complexes():
    # d-complexes have Green entries in {-1, 0, 1}
    for G in (sx.cycle(5), sx.cycle(8), sx.cross_polytope(2),
              sx.cross_polytope(3), sx.icosahedron()):
        g = conn.green_inverse(G)
        assert set(np.unique(g)).issubset({-1, 0, 1})


def test_exact_cap(monkeypatch):
    monkeypatch.setattr(errors, "DEFAULT_EXACT_CAP", 5)
    with pytest.raises(errors.ResourceLimitError,
                       match="complex has 26 simplices; exact dense cap is 5"):
        conn.connection_matrix(sx.cross_polytope(2))


def test_memo_safety(monkeypatch):
    from simplexion import cohomology as coh
    from simplexion import spectral as spec
    from simplexion.errors import ResourceLimitError
    from simplexion.exact import matmul

    G = sx.cross_polytope(2)
    g = conn.green_inverse(G)
    assert conn._factor(G) is conn._factor(G)
    # each cap is checked on every call, before the memo is read
    with monkeypatch.context() as m:
        m.setattr(errors, "DEFAULT_EXACT_CAP", 5)
        with pytest.raises(ResourceLimitError):
            conn.connection_matrix(G)
        with pytest.raises(ResourceLimitError):
            conn.green_inverse(G)
        assert conn.connection_det(G) == 1  # the sparse factor has no dense cap
    with monkeypatch.context() as m:
        m.setattr(errors, "ENTRY_CAP", 5)
        for check in (conn.connection_det, conn.energy, conn.inertia_of_connection):
            with pytest.raises(ResourceLimitError, match="entry cap is 5"):
                check(G)
    # memoed arrays are read-only
    for a in (conn.connection_matrix(G), g, coh.exterior_derivative(G).d[0],
              spec.connection_eigenvalues(G)):
        with pytest.raises(ValueError):
            a[0] = 0
    assert conn.dual_connection_matrix(G).flags.writeable
    # equal but distinct complexes keep their own memos
    H = sx.cross_polytope(2)
    assert H == G and H is not G
    assert conn.connection_matrix(H) is not conn.connection_matrix(G)
    assert conn.connection_matrix(G) is conn.connection_matrix(G)
    # g comes from elimination, never from the Green star formula it is
    # checked against
    monkeypatch.setattr(conn, "green_star_matrix", None)
    monkeypatch.setattr(conn, "green_star", None)
    K = sx.barycentric(sx.cycle(5))
    g = conn.green_inverse(K)
    assert np.array_equal(matmul(conn.connection_matrix(K), g), np.eye(len(g), dtype=np.int64))


# -- the dual-product determinant ----------------------------------------------

from unittest import mock  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from simplexion import refinement  # noqa: E402
from simplexion.exact import charpoly, matmul  # noqa: E402


@st.composite
def whitney_complexes(draw):
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    return sx.erdos_renyi(sx.RandomModel(n=n, p=p, seed=draw(st.integers(0, 10 ** 6))))


@settings(max_examples=60, deadline=None)
@given(whitney_complexes())
def test_prop_dual_product_det(G):
    L = conn.connection_matrix(G)
    M = -matmul(L, 1 - L)
    want = factor(M)[1]
    if len(M) <= 8:
        assert want == det_cofactor(M.tolist())
    res = conn.dual_product_check(G)
    assert res == {"det": want, "det_ok": True, "charpoly_ok": True}
    assert want == 1 - G.euler_characteristic()
    # with the dense cap below n the check is refused, on a fresh copy of G
    # (nothing memoed), before L is built
    fresh = sx.Complex(G.simplices, _closed=True)
    with (mock.patch.object(errors, "DEFAULT_EXACT_CAP", len(G) - 1),
          mock.patch.object(refinement, "_build_connection") as build,
          pytest.raises(errors.ResourceLimitError, match="exact dense cap")):
        conn.dual_product_check(fresh)
    assert build.call_count == 0


def _one_heavy(n: int, lam) -> list:
    """Coefficients of (x-1)^(n-1) (x-lam), descending."""
    ones = [(-1) ** k * math.comb(n - 1, k) for k in range(n)]  # (x-1)^(n-1)
    return [a - lam * b for a, b in zip(ones + [0], [0] + ones)]


@settings(max_examples=60, deadline=None)
@given(whitney_complexes())
def test_prop_rank_one_certificate_matches_charpoly(G):
    # the certificate's lam = 1 + tr B is the lam of the characteristic
    # polynomial of -Lbar g, which is (x-1)^(n-1) (x-lam)
    L, g = conn.connection_matrix(G), conn.green_inverse(G)
    cp = charpoly(-matmul(1 - L, g))
    n = len(L)
    lam = (-1) ** n * cp[n]
    assert cp == _one_heavy(n, lam)
    B = -matmul(1 - L, g) - np.eye(n, dtype=np.int64)
    assert 1 + conn._rank_one_trace(B) == lam
    assert conn.dual_product_check(G)["det"] == conn.connection_det(G) ** 2 * lam


def test_rank_one_certificate_on_python_integers():
    # entries with |B|^2 >= 2^63 are compared on Python integers: u v^T with
    # u = (1, 2^31), v = (3, 2^31) fits int64, but 3 B_11 = 3 2^62 does not
    u, v = np.array([1, 1 << 31]), np.array([3, 1 << 31])
    assert conn._rank_one_trace(np.outer(u, v)) == 3 + (1 << 62)
    assert conn._rank_one_trace(np.outer(u.astype(object) << 40, v)) == (3 + (1 << 62)) << 40
    assert conn._rank_one_trace(np.zeros((3, 3), dtype=np.int64)) == 0
    with pytest.raises(errors.InvariantViolation, match="rank above 1") as exc:
        conn._rank_one_trace(np.diag([0, 1 << 40, 1]))
    assert exc.value.witness == {"minor_rows": [1, 2], "minor_cols": [1, 2]}


def test_dual_product_certificate_catches_a_corrupt_green(monkeypatch, tmp_path, capsys):
    # g off in one entry makes B = -Lbar g - I rank two: column 1 of B = -E g,
    # whose rows are all equal, loses column 0 of Lbar, which on C5 is not
    # constant
    import json

    from simplexion.cli import main
    from simplexion.exact import ldl_inverse
    from simplexion.jsonio import complex_to_dict, write_canonical

    def corrupt_green(G):  # green_inverse without its certificate, g[0][1] + 1
        g = ldl_inverse(*conn._factor(G)[1:])
        g[0, 1] += 1
        return g

    monkeypatch.setattr(conn, "green_inverse", corrupt_green)
    with pytest.raises(errors.InvariantViolation, match="rank above 1") as exc:
        conn.dual_product_check(sx.cycle(5))
    assert set(exc.value.witness) == {"minor_rows", "minor_cols"}
    path = tmp_path / "c5.json"
    write_canonical(complex_to_dict(sx.cycle(5)), str(path))
    assert main(["verify", "-i", str(path), "--suite", "dual-product", "--no-meta"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == "fail"
    assert check["witness"]["invariant"] == "-Lbar g - I has rank above 1"
    assert check["witness"]["minor_rows"] == exc.value.witness["minor_rows"]


@pytest.mark.parametrize("n", range(3, 41))
def test_square_charpolys_on_cycles(n):
    _check_square_charpolys(sx.cycle(n))


@st.composite
def one_dimensional_complexes(draw):
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    edges = draw(st.sets(pairs, min_size=1, max_size=3 * n))
    return sx.close(sorted(edges) + [(v,) for v in range(n)])


@settings(max_examples=30, deadline=None)
@given(one_dimensional_complexes())
def test_prop_square_charpolys_on_graphs(G):
    _check_square_charpolys(G)


def _check_square_charpolys(G):
    L, g = conn.connection_matrix(G), conn.green_inverse(G)
    q, r = conn._square_charpolys(L)
    assert q == charpoly(matmul(L, L))
    assert r == charpoly(matmul(g, g))
    assert q == r and conn.spectral_symmetry_check(G)
