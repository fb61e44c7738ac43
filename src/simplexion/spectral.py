"""Floating-point spectral analysis: the symmetric eigensolver wrapper with
residual certification, connection zeta functions, the Barycentric limit
experiment, Kirchhoff tree/forest counts, wave and Schroedinger evolution,
and the isospectral Lax flow of the Dirac operator.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cohomology import dirac, hodge
from .core import Complex, _faces
from .errors import NumericError, check_cap, check_exact
from .exact import charpoly
from .refinement import (
    barycentric,
    connection_matrix,
    refinement_order,
    stirling_apply,
    stirling_matrix,
)

KERNEL_RELATIVE_CUTOFF = 1e-10


def eig_symmetric(M, *, vectors: bool = False):
    """Eigenvalues (ascending, with multiplicity) of a symmetric matrix.

    LAPACK-backed, but never trusted blindly: the input must be symmetric to
    1e-12 relative to its largest entry, else ValueError, and every returned
    pair must satisfy ||Mv - lambda v|| <= 1e-8 ||M||, else NumericError."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    if A.size == 0:
        return (np.zeros(0), np.zeros((0, 0))) if vectors else np.zeros(0)
    scale = float(np.abs(A).max()) or 1.0
    if float(np.abs(A - A.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(A)
    norm = float(max(abs(vals[0]), abs(vals[-1]))) or 1.0
    resid = np.abs(A @ vecs - vecs * vals).max(axis=0)
    if float(resid.max()) > 1e-8 * norm:
        raise NumericError(f"eigenpair residual {resid.max():.3e} above 1.0e-08*||M||")
    if vectors:
        return vals, vecs
    return vals


# -- graph Laplacians ----------------------------------------------------------


def kirchhoff_matrix(n: int, edges) -> np.ndarray:
    """Degree matrix minus adjacency matrix, as exact integers; an edge
    listed twice counts twice.  n is checked against the exact dense cap
    before anything is built."""
    check_exact("Kirchhoff matrix", n, "vertices")
    E = np.array(edges, dtype=np.int64).reshape(-1, 2)
    a, b = E[:, 0], E[:, 1]
    if (a == b).any():
        raise ValueError("self-loop")
    K = np.zeros((n, n), dtype=np.int64)
    np.add.at(K, (a, b), -1)
    np.add.at(K, (b, a), -1)
    np.add.at(K, (E.ravel(), E.ravel()), 1)
    return K


def skeleton_edges(G: Complex) -> tuple:
    """(vertex count, the edges of the 1-skeleton as pairs of indices into
    G.vertices())."""
    index = {v: i for i, v in enumerate(G.vertices())}
    return len(index), [(index[x[0]], index[x[1]]) for x in G.simplices if len(x) == 2]


def kirchhoff_of_complex(G: Complex) -> np.ndarray:
    """Kirchhoff Laplacian of the 1-skeleton."""
    return kirchhoff_matrix(*skeleton_edges(G))


# -- zeta ----------------------------------------------------------------------


def connection_eigenvalues(G: Complex) -> np.ndarray:
    """The eigenvalues of L, ascending, from `eig_symmetric`; read-only and
    memoed on G (no float copy of L and no eigenvectors are kept)."""
    L = connection_matrix(G)
    return G.memo("eigenvalues", lambda: _frozen(eig_symmetric(L.astype(float))))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def connection_spectrum_squared(G: Complex) -> np.ndarray:
    vals = connection_eigenvalues(G)
    return np.sort(vals * vals)


def zeta_values(G: Complex, s_values) -> list:
    """Connection zeta function zeta(s) = sum over eigenvalues of L^2 of
    lambda^(-s); entire in s since every eigenvalue is positive."""
    lams = connection_spectrum_squared(G)
    if (lams <= 0).any():
        raise NumericError("nonpositive eigenvalue in L^2 spectrum")
    logs = np.log(lams)
    out = []
    for s in s_values:
        out.append(complex(np.exp(-complex(s) * logs).sum()))
    return out


ZETA_TS = (0.5, 1.0, 2.0)  # the t grid of zeta_symmetry_gap


def zeta_symmetry_gap(G: Complex) -> float:
    """max |zeta(it) - zeta(-it)| over t in ZETA_TS: numerically zero for
    dim-1 complexes.  One spectrum serves every t."""
    vals = zeta_values(G, [s for t in ZETA_TS for s in (1j * t, -1j * t)])
    return max(abs(plus - minus) for plus, minus in zip(vals[::2], vals[1::2]))


# -- Barycentric limit -----------------------------------------------------------


def spectral_function(sorted_vals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """F(x) = lambda_{floor(n x)} on grid points in [0, 1)."""
    n = len(sorted_vals)
    idx = np.minimum((grid * n).astype(int), n - 1)
    return sorted_vals[idx]


def limit_curve_dim1(grid: np.ndarray) -> np.ndarray:
    """The universal dim-1 limit of Kirchhoff spectral functions."""
    return 4.0 * np.sin(np.pi * grid / 2.0) ** 2


def refinement_graph_kirchhoff(G: Complex) -> np.ndarray:
    """Kirchhoff Laplacian of the containment graph of G (the graph whose
    clique complex is the Barycentric refinement: vertices are the simplices,
    edges the comparable pairs), in the canonical simplex order."""
    index = {x: i for i, x in enumerate(G)}
    edges = [(index[f], j) for j, y in enumerate(G) for f in _faces(y)]
    return kirchhoff_matrix(len(index), edges)


def barycentric_limit_experiment(G: Complex, levels: int, grid_points: int = 2048) -> dict:
    """Refine `levels` times; at each level record the spectral function of
    the Kirchhoff Laplacian of the refinement graph of G_k (the graph that
    represents the complex), and for one-dimensional seeds its L1 distance to
    the universal limit 4 sin^2(pi x / 2).  Also reports the minimal
    |eigenvalue| of the connection operator per level (no assertion;
    invertibility-in-the-limit is an observation).  Each level's size is
    predicted from the f-vector by the Stirling operator and checked, the
    simplex cap then the Kirchhoff matrix's, before the first refinement."""
    f, S = G.f_vector(), stirling_matrix(G.max_dim())
    for _ in range(levels):
        f = stirling_apply(S, f)
        check_cap("refinement", sum(f))
        check_exact("Kirchhoff matrix", sum(f), "vertices")
    grid = (np.arange(grid_points) + 0.5) / grid_points
    is_dim1 = G.max_dim() == 1
    target = limit_curve_dim1(grid)
    H = G
    curves = []
    distances = []
    min_connection = []
    sizes = []
    for _ in range(levels):
        H = barycentric(H)
        K = refinement_graph_kirchhoff(H).astype(float)
        vals = np.sort(eig_symmetric(K))
        F = spectral_function(vals, grid)
        curves.append(F)
        sizes.append(len(H))
        if is_dim1:
            distances.append(float(np.abs(F - target).mean()))
        if len(H) <= 2200:
            lvals = connection_eigenvalues(H)
            min_connection.append(float(np.abs(lvals).min()))
        else:
            min_connection.append(None)
    return {
        "sizes": sizes,
        "curves": curves,
        "l1_distances": distances,
        "min_connection_eigenvalue": min_connection,
    }


# -- trees and forests -----------------------------------------------------------


def tree_forest_numbers(n: int, edges) -> dict:
    """Rooted spanning tree count Det(K) (pseudo-determinant; 0 for a
    disconnected graph) and rooted spanning forest count det(K + I), both
    exact from the characteristic polynomial cp(x) = det(xI - K) =
    sum_k c_k x^(n-k): det(K + I) = (-1)^n cp(-1) = sum_k (-1)^k c_k."""
    K = kirchhoff_matrix(n, edges)
    cp = charpoly(K)
    # det(xI - K) = x^n + ...; pseudo-det = (-1)^(n-z) * coefficient of x^z
    z = 0
    while z <= n and cp[n - z] == 0:
        z += 1
    # a spanning tree needs exactly one component (z == 1); n = 0 has none
    tree = (-1) ** (n - 1) * cp[n - 1] if z == 1 else 0
    forest = sum((-1) ** k * c for k, c in enumerate(cp))
    return {"tree": int(tree), "forest": int(forest), "kernel_dim": z}


def rooted_spanning_counts_bruteforce(n: int, edges) -> dict:
    """Exhaustive oracle: iterate all edge subsets, keep forests, count
    rootings (product of component sizes; trees are spanning one-component
    forests, each rooted n ways)."""
    edges = [tuple(e) for e in edges]
    tree = 0
    forest = 0
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            parent = list(range(n))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            acyclic = True
            for a, b in subset:
                ra, rb = find(a), find(b)
                if ra == rb:
                    acyclic = False
                    break
                parent[ra] = rb
            if not acyclic:
                continue
            sizes = {}
            for v in range(n):
                root = find(v)
                sizes[root] = sizes.get(root, 0) + 1
            rootings = 1
            for s in sizes.values():
                rootings *= s
            forest += rootings
            if len(sizes) == 1:
                tree += n
    return {"tree": tree, "forest": forest}


# -- wave and Schroedinger evolution ----------------------------------------------


def _dirac_eigensystem(G: Complex):
    D = dirac(G).astype(float)
    vals, vecs = eig_symmetric(D, vectors=True)
    return D, vals, vecs


def wave_evolve(G: Complex, u0, v0, t: float) -> dict:
    """d'Alembert solution of u'' = -D^2 u:
    u(t) = cos(Dt) u0 + sin(Dt) D^+ v0, with the kernel modes drifting
    linearly (t * v0 component), which is the sin(Dt)/D limit."""
    D, lam, V = _dirac_eigensystem(G)
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    a = V.T @ u0
    b = V.T @ v0
    cutoff = KERNEL_RELATIVE_CUTOFF * (np.abs(lam).max() or 1.0)
    sinc = np.where(np.abs(lam) > cutoff, np.sin(lam * t) / np.where(np.abs(lam) > cutoff, lam, 1.0), t)
    u = V @ (np.cos(lam * t) * a + sinc * b)
    udot = V @ (-lam * np.sin(lam * t) * a + np.cos(lam * t) * b)
    return {"u": u, "u_t": udot}


def schrodinger_evolve(G: Complex, psi0, t: float) -> np.ndarray:
    """psi(t) = exp(i D t) psi0; unitary, so the norm is conserved."""
    _, lam, V = _dirac_eigensystem(G)
    psi0 = np.asarray(psi0, dtype=complex)
    return V @ (np.exp(1j * lam * t) * (V.T @ psi0))


def wave_energy(G: Complex, u, udot) -> float:
    """<u, H u> + <u', u'> - conserved along wave evolution."""
    H = hodge(G).astype(float)
    u = np.asarray(u, dtype=float)
    udot = np.asarray(udot, dtype=float)
    return float(u @ H @ u + udot @ udot)


# -- Lax isospectral flow -----------------------------------------------------------


def lax_flow(G: Complex, gamma: float = 0.0, t_end: float = 1.0,
             dt: float = 1e-3, drift_tol: float = 1e-6) -> dict:
    """Integrate D' = [B, D] with B = d - d* + i gamma b (classical RK4),
    where the d/d*/b parts are read off the running matrix by the dimension
    grading: d is the block one degree up, b the diagonal blocks.

    The flow is isospectral and leaves D^2 fixed; the diagnostics report the
    eigenvalue drift and ||D(t)^2 - D(0)^2||, raising NumericError (with a
    suggested smaller step) when the drift exceeds drift_tol."""
    if dt <= 0 or t_end < 0:
        raise ValueError("need dt > 0 and t_end >= 0")
    D0 = dirac(G).astype(complex)
    dims = np.array([len(x) - 1 for x in refinement_order(G)])
    up = (dims[:, None] + 1) == dims[None, :]      # column one degree above row
    eq = dims[:, None] == dims[None, :]

    def commutator_rhs(D):
        d_part = np.where(up, D, 0)
        dstar = np.where(up.T, D, 0)
        b = np.where(eq, D, 0)
        B = d_part - dstar + 1j * gamma * b
        return B @ D - D @ B

    D = D0.copy()
    steps = int(round(t_end / dt))
    for _ in range(steps):
        k1 = commutator_rhs(D)
        k2 = commutator_rhs(D + 0.5 * dt * k1)
        k3 = commutator_rhs(D + 0.5 * dt * k2)
        k4 = commutator_rhs(D + dt * k3)
        D = D + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    lam0 = np.sort(np.linalg.eigvalsh(D0))
    lam1 = np.sort(np.linalg.eigvalsh(D))
    drift = float(np.abs(lam1 - lam0).max()) if len(lam0) else 0.0
    l_err = float(np.abs(D @ D - D0 @ D0).max())
    if drift > drift_tol or l_err > drift_tol:
        raise NumericError(
            f"Lax drift {max(drift, l_err):.2e} above {drift_tol:.0e}; "
            f"try dt={dt / 10:g}"
        )
    return {
        "eigenvalue_drift": drift,
        "laplacian_drift": l_err,
        "final": D,
        "steps": steps,
    }
