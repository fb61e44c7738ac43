"""Exact linear algebra over the integers.

Everything here certifies bit-exact results.  `ldl` is the module's one
elimination over the integers: A = M diag(D) M^T for a symmetric integer
matrix whose leading minors are all +-1, as connection matrices in
canonical order are, from its lower entries in dict columns of Python ints.
det A and the minor signs are products of D; `ldl_solve` and `ldl_inverse`
use the factor.

`matmul` is the one exact integer matrix product.  With bound = max_i
sum_k |A_ik| * max |B|, every partial sum of every entry of A @ B, in any
summation order and with or without fused multiply-adds, is an integer of
absolute value at most bound.  Integers below 2^53 are exact float64
numbers, so below that bound the product runs as a float64 BLAS dgemm and
is cast back; below 2^63 it runs in int64, and beyond on Python integers.
This is the only place floating point enters an exact result.

Beside these sit the inertia of a symmetric matrix from its leading-minor
signs (Jacobi's rule, `jacobi_inertia`) and the characteristic polynomial:
Hessenberg reduction mod primes p in int64, and the Chinese remainder
theorem over enough primes for the Hadamard bound on its coefficients.  For
order n the primes lie below 2^b, b = min(31, (62 - bitlen n) // 2), so
n p^2 < 2^62 and a sum of n products of residues never leaves int64.  The
dense fraction-free (Bareiss) elimination and the Descartes sign-count
route to the inertia are test oracles (`tests/oracles.py`), not library
paths.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator

import numpy as np

from .errors import InvariantViolation


def _absmax(a: np.ndarray) -> int:
    """max |entry| of an int64 array, without an abs() temporary."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


# -- the sparse LDL^T factorization ---------------------------------------------


def ldl(columns) -> tuple:
    """(M, D) with A = M diag(D) M^T, M unit lower triangular, for the
    symmetric integer matrix A with columns[j] = {i: A[i][j]}, i >= j, its
    nonzero entries on and below the diagonal (left unchanged); M comes as
    its strict lower columns in that form.  Right-looking elimination in
    dict columns: pivot k is column k's current diagonal entry d, column k
    over d is M's, and the lower entries of its pattern lose the outer
    product, dropping what cancels.  d is the ratio of consecutive leading
    minors; one that is not +-1 raises InvariantViolation."""
    A = [dict(c) for c in columns]
    D = []
    for k, col in enumerate(A):
        d = col.pop(k, 0)
        if d not in (1, -1):
            raise InvariantViolation(f"LDL^T pivot {k} is {d}, not +-1",
                                     witness={"pivot": k, "value": d})
        D.append(d)
        items = sorted((i, d * v) for i, v in col.items())
        col.update(items)
        for a, (j, mj) in enumerate(items):
            target, f = A[j], d * mj
            for i, mi in items[a:]:
                v = target.get(i, 0) - f * mi
                if v:
                    target[i] = v
                else:
                    del target[i]
    return A, D


def ldl_solve(M: list, D: list, b) -> list:
    """x with M diag(D) M^T x = b, for the factor of `ldl`."""
    y = list(b)
    for k, col in enumerate(M):
        for i, m in col.items():
            y[i] -= m * y[k]
    y = [v * d for v, d in zip(y, D)]
    for k in range(len(M) - 1, -1, -1):
        y[k] -= sum(m * y[i] for i, m in M[k].items())
    return y


def ldl_inverse(M: list, D: list) -> np.ndarray:
    """(M diag(D) M^T)^-1 = W^T diag(D) W for the factor of `ldl` (D = D^-1
    is +-1), the product by `matmul`.  W = M^-1 in sparse rows: row k is e_k
    less M[k][j] times row j over j < k, pushed along M's column j."""
    W = [{k: 1} for k in range(len(M))]
    for j, col in enumerate(M):
        for i, m in col.items():
            for c, v in W[j].items():
                W[i][c] = W[i].get(c, 0) - m * v
    big = any(abs(v) >> 62 for row in W for v in row.values())
    dense = np.zeros((len(W), len(W)), dtype=object if big else np.int64)
    for i, row in enumerate(W):
        dense[i, list(row)] = list(row.values())
    return matmul(dense.T * np.array(D, dtype=dense.dtype), dense)


# -- the exact product ----------------------------------------------------------


def _row_bound(A: np.ndarray) -> int:
    """max_i sum_k |A_ik| as a Python int; 0 for an empty matrix."""
    if not A.size:
        return 0
    if A.dtype == object or _absmax(A) * A.shape[1] >= 1 << 63:
        A = A.astype(object)
    return int(np.abs(A).sum(axis=1).max())


def matmul(A, B) -> np.ndarray:
    """The exact integer product A @ B of two matrices: a float64 BLAS
    product cast back to int64 while max_i sum_k |A_ik| * max |B| < 2^53,
    int64 while that bound is below 2^63, Python integers beyond (see the
    module docstring for why each tier is exact)."""
    A, B = (X if X.dtype == object else X.astype(np.int64, copy=False)
            for X in (np.asarray(A), np.asarray(B)))
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape}")
    bound = _row_bound(A) * _absmax(B)
    if bound == 0:  # a zero factor, whose other factor may not fit a float
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    if bound < 1 << 53:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    if bound < 1 << 63:
        return A.astype(np.int64) @ B.astype(np.int64)
    return A.astype(object) @ B.astype(object)


# -- characteristic polynomial and inertia ----------------------------------


# per bit size b, the primes below 2^b from the top down, found on first use
# (not at import) and only rebound to a longer prefix, so concurrent callers agree
_PRIMES: dict = {}


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin for odd 61 < q < 4,759,123,141: the bases
    2, 7 and 61 decide every such q (Jaeschke, Math. Comp. 61, 1993)."""
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 7, 61):
        x = pow(b, d, q)
        if x != 1 and all(pow(x, 1 << r, q) != q - 1 for r in range(s)):
            return False
    return True


def _primes_over(bound: int, n: int) -> tuple:
    """(primes, their product): the fewest primes below 2^b, from the top
    down, whose product exceeds bound, with b = min(31, (62 - bitlen n) // 2)
    for matrices of order n.  Then n p^2 < 2^62: a sum of n products of
    residues, plus a residue, fits int64."""
    b = min(31, (62 - n.bit_length()) // 2)
    primes, prod, k = _PRIMES.get(b, []), 1, 0
    while prod <= bound:
        if k == len(primes):
            q = primes[-1] - 2 if primes else (1 << b) - 1
            while not _is_prime(q):
                q -= 2
            primes = primes + [q]
        prod *= primes[k]
        k += 1
    if len(primes) > len(_PRIMES.get(b, ())):
        _PRIMES[b] = primes
    return primes[:k], prod


def _hadamard_bound(A: np.ndarray) -> int:
    """B = prod_j (1 + ceil(|col_j|_2)) >= sum_k |c_k|: c_k sums k x k
    principal minors, each at most the product of its columns' norms by
    Hadamard's inequality, and each such product is a term of B."""
    if A.dtype != object and _absmax(A) ** 2 * len(A) >= 1 << 63:
        A = A.astype(object)
    B = 1
    for s in (A * A).sum(axis=0).tolist():
        r = math.isqrt(s)
        B *= 1 + r + (r * r < s)
    return B


def _hessenberg_mod(A: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """R (k, n, n): A mod ps[i] brought by similarities to upper Hessenberg
    form R[i] with subdiagonal entries 0 or 1, for primes of `_primes_over`.
    Column j is skipped if it has nothing below row j+1; else it pivots on
    its first nonzero entry below the diagonal (swapped to row j+1) and
    clears the rest, by one int64 product per column.  Last, D^-1 R D with
    d_{j+1} = d_j r_{j+1,j} makes the nonzero subdiagonal entries 1.  A zero
    there splits R[i] into diagonal blocks; what lies above and right of each
    split is zeroed, as it does not change the polynomial."""
    P, P3, pl = ps[:, None], ps[:, None, None], ps.tolist()
    R = (A % P3).astype(np.int64, copy=False)
    n = R.shape[1]
    for j in range(n - 2):
        a = j + 1
        if not R[:, a + 1:, j].any():
            continue
        h = R[:, a, j]
        if not h.all():
            for i in np.flatnonzero(h == 0).tolist():  # swap the first nonzero up
                b = a + int(R[i, a:, j].astype(bool).argmax())
                R[i, [a, b]] = R[i, [b, a]]
                R[i, :, [a, b]] = R[i, :, [b, a]]
        # rows j+2.. lose m_i = u_i / h times row j+1, as p - m_i times it to
        # stay nonnegative; column j+1 gains m_i times column i, the inverse
        # operation on the right
        inv = [pow(x, -1, q) if x else 0 for x, q in zip(h.tolist(), pl)]
        m = R[:, a + 1:, j, None] * np.array(inv)[:, None, None] % P3
        blk = R[:, a + 1:, j:]
        blk += (P3 - m) * R[:, a, None, j:]
        blk %= P3
        R[:, :, a, None] += R[:, :, a + 1:] @ m
        R[:, :, a] %= P
    sub = np.diagonal(R, -1, 1, 2)
    if (sub > 1).any():  # d and 1/d per prime as prefix products, zeros read as 1
        d, dinv = [], []
        for s, q in zip(sub.tolist(), pl):
            s = [x or 1 for x in s]
            d.append(list(itertools.accumulate(s, lambda x, y: x * y % q, initial=1)))
            dinv.append(list(itertools.accumulate(
                s[::-1], lambda x, y: x * y % q, initial=pow(d[-1][-1], -1, q)))[::-1])
        R = R * np.array(d)[:, None, :] % P3 * np.array(dinv)[:, :, None] % P3
    if not sub.all():  # column c keeps the rows from its block's start on
        start = np.maximum.accumulate(np.where(sub, 0, np.arange(1, n)), axis=1)
        R[:, :, 1:] *= np.arange(n)[:, None] >= start[:, None, :]
    return R


def _charpoly_mod(A: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Characteristic polynomials, descending, of the integer matrix A mod
    each prime in ps, one row per prime.  On the Hessenberg form H of
    `_hessenberg_mod`, the polynomials of the leading blocks satisfy
    p_{c+1} = x p_c - sum_{r <= c} h_rc p_r, one int64 product per step."""
    P, P3 = ps[:, None], ps[:, None, None]
    H = (P3 - _hessenberg_mod(A, ps).transpose(0, 2, 1)) % P3  # H[:, c, r] = -h_rc
    k, n, _ = H.shape
    C = np.zeros((k, n + 1, n + 1), dtype=np.int64)  # C[:, c]: p_c, ascending
    C[:, 0, 0] = 1
    for c in range(n):
        p = C[:, c + 1, :c + 2]
        np.matmul(H[:, c, None, :c + 1], C[:, :c + 1, :c + 2], out=p[:, None])
        p[:, 1:] += C[:, c, :c + 1]
        p %= P
    return C[:, n, ::-1]


def charpoly(M) -> list:
    """Coefficients [1, c_1, ..., c_n] of det(x*I - M) in descending powers,
    for an integer matrix M: computed mod primes p with n p^2 < 2^62 in int64
    until their product exceeds 2B, B the Hadamard bound on sum |c_k|, then
    recovered in the symmetric range by the Chinese remainder theorem."""
    A = np.asarray(M)
    n = len(A)
    if n == 0:
        return [1]
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("characteristic polynomial needs a square matrix")
    with contextlib.suppress(OverflowError):  # else entries stay Python ints
        A = A.astype(np.int64, copy=False)
    primes, prod = _primes_over(2 * _hadamard_bound(A), n)
    ps = np.array(primes, dtype=np.int64)
    step = max(1, (1 << 21) // (n * n))  # primes per batch: 16 MB of residues
    residues = np.concatenate([_charpoly_mod(A, ps[i:i + step])
                               for i in range(0, len(ps), step)])
    weights = [prod // p * pow(prod // p, -1, p) for p in primes]
    coeffs = [sum(map(operator.mul, weights, r)) % prod for r in residues.T.tolist()]
    return [c - prod if 2 * c > prod else c for c in coeffs]


def jacobi_inertia(signs) -> tuple:
    """(p, n, 0) of a symmetric matrix from the signs of its nonzero leading
    principal minors: n counts the sign changes in (1, Delta_1, ...)."""
    chain = [1] + list(signs)
    neg = sum(1 for a, b in zip(chain, chain[1:]) if a != b)
    return len(signs) - neg, neg, 0


def cauchy_binet_coeffs(F, G) -> list:
    """Characteristic-polynomial coefficients p_k of F^T G with
    p(x) = sum_k p_k (-x)^(m-k); by Cauchy-Binet, p_k is the sum over
    k-subsets P of rows and columns of det(F_P) det(G_P)."""
    F = np.array(F, dtype=object)
    G = np.array(G, dtype=object)
    if F.shape != G.shape:
        raise ValueError("F and G must have identical shape")
    m = F.shape[1]
    cp = charpoly(matmul(F.T, G))  # descending: x^m + c1 x^(m-1) + ...
    # p_k = (-1)^k * coefficient of x^(m-k)
    return [(-1) ** k * cp[k] for k in range(m + 1)]
