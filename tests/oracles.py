"""Test oracles: the coefficients and the concrete representation of the
Cuntz word algebra, the dense layout of the Cuntz pair and its dump, the
lemma's polynomials evaluated and their commutator taken densely over
Fractions, the exact dyadic entries of the corrector's first iterate, the
corrector's solver as it was written on dicts, the dense fill of a sparse
product, the dense block layouts of the vsdilate dilations, random
Parseval semi-inner-product pairs, the semi-inner product itself and the
sip residuals with one fresh duality map per scalar, the Cuntz
obstruction drawn one trial at a time, and the p-norm of one vector
taken on its own, with no row kernel.

The package itself needs none of these; the tests check its word algebra,
its written pair, its lemma verdicts, its certified first bounds, its
solver, its exact products, its stored dilations, its sip identities and
its p-norms against them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from framekit.cli import dump_word_element
from framekit.cuntz import (_GEN, CuntzElement, SolveResult, _letters,
                            finite_obstruction, word)
from framekit.errors import ConvergenceError
from framekit.linops import (_Sparse, _form, as_vector, herm, inverse,
                             is_invertible, vec_pnorm)
from framekit.sip import (SipPair, _complement, _dot, _subset,
                          sip_functional)


def coeff(e: CuntzElement, left) -> complex:
    """The coefficient of the unstarred word left in e."""
    return e.table.get((_letters(left), ()), 0j)


def cells(M: np.ndarray) -> list:
    """The entries of an object array as nested lists, each CuntzElement
    by its table, so that == compares elements by their coefficients."""
    return [[x.table if type(x) is CuntzElement else x for x in row]
            for row in M.tolist()]


# --- concrete interleaving representation ---------------------------------
#
# u e_k = e_{2k}, v e_k = e_{2k+1}; here uu* + vv* = 1 holds, so equality
# is decided by applying both sides to basis vectors.


def _word_apply(w: tuple, s: tuple, k: int) -> Optional[int]:
    # right* strips low bits (u: 0, v: 1), then left appends bits, first letter lowest
    for c in s:
        if c not in _GEN:
            raise ValueError(f"no concrete action for symbol {c!r}")
        bit = 0 if c == "u" else 1
        if k % 2 != bit:
            return None
        k //= 2
    for c in reversed(w):
        if c not in _GEN:
            raise ValueError(f"no concrete action for symbol {c!r}")
        k = 2 * k + (0 if c == "u" else 1)
    return k


def concrete_apply(e: CuntzElement, x) -> dict:
    """Apply e in the interleaving representation to a finitely supported
    vector (dict index -> value, or a sequence read as e_0, e_1, ...)."""
    if not isinstance(x, dict):
        x = {i: complex(val) for i, val in enumerate(x) if complex(val) != 0}
    out: dict = {}
    for (w, s), c in e.table.items():
        for k, val in x.items():
            img = _word_apply(w, s, int(k))
            if img is not None:
                out[img] = out.get(img, 0j) + c * val
    return {k: v for k, v in out.items() if v != 0}


def concrete_equal(x: CuntzElement, y: CuntzElement, count: int = 16,
                   tol: float = 1e-12) -> bool:
    """Equality in the concrete representation, probed on e_0..e_{count-1}."""
    for k in range(count):
        a = concrete_apply(x, {k: 1.0})
        b = concrete_apply(y, {k: 1.0})
        for idx in set(a) | set(b):
            if abs(a.get(idx, 0j) - b.get(idx, 0j)) > tol:
                return False
    return True


# --- the Cuntz pair laid out dense ------------------------------------------


def dense_pair(n: int, mu, delta, b, u, v, one):
    """D_mu, X_mu as dense object matrices, cell by cell, with the ring's
    empty element in every other cell: the layout that cuntz._pair keeps
    as rows of its nonzero cells."""
    D = np.full((n, n), type(one)(), dtype=object)
    X = np.full((n, n), type(one)(), dtype=object)
    for r in range(n):
        i = r + 1
        D[r, r] = (1 / (mu * delta)) * v
        if r + 1 < n:
            X[r + 1, r] = one
            D[r + 1, r] = (1 / (mu * mu * delta)) * u
            D[r, r + 1] = i * one
        D[r, n - 1] = D[r, n - 1] + mu ** (n - i - 1) * (b[r] * u)
        X[r, n - 1] = X[r, n - 1] + (mu ** (n - i + 1) * delta) * b[r]
    return D, X


def dense_word_matrix(M) -> dict:
    """The report entry of a dense matrix of word elements, cell by cell."""
    n = M.shape[0]
    return {"n": n, "entries": [[dump_word_element(M[i, j]) for j in range(n)]
                                for i in range(n)]}


def poly_value(p, mu, delta) -> dict:
    """The lemma's polynomial p, whose key (word, i, j) stands for
    mu^i delta^j word, at the given scalars: word -> nonzero Fraction."""
    out: dict = {}
    for (w, i, j), c in p.items():
        out[w] = out.get(w, 0) + c * Fraction(mu) ** i * Fraction(delta) ** j
    return {w: c for w, c in out.items() if c}


def value_commutator(D, X, mu, delta) -> list:
    """C = D X - X D of two dense matrices of lemma polynomials, each cell
    evaluated at mu and delta first and C taken by the dense triple loop
    over word -> Fraction dicts; C[i][j] holds no zero coefficient."""
    n = D.shape[0]
    Dv, Xv = ([[poly_value(M[i, j], mu, delta) for j in range(n)]
               for i in range(n)] for M in (D, X))
    C = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                for A, B, sign in ((Dv, Xv, 1), (Xv, Dv, -1)):
                    for wa, ca in A[i][k].items():
                        for wb, cb in B[k][j].items():
                            acc[wa + wb] = acc.get(wa + wb, 0) + sign * ca * cb
            row.append({w: c for w, c in acc.items() if c})
        C.append(row)
    return C


def sparse_product(A, B):
    """A @ B of object arrays, taken in the sparse form and filled out with
    the zero of B's entries, ``type(B.flat[0])()``."""
    return (_form(A) @ _form(B)).dense(type(B.flat[0])())


def filled(X):
    """A stored operator, a rational or block form, as a matrix filled out
    with Fraction zeros."""
    return X.dense(Fraction(0))


def _cells(X, shape) -> Optional[dict]:
    """The nonzero cells (i, j) -> Fraction of X, read as the form of a
    matrix of this shape, or None when X is not such a form.  An int
    c != 0 is c I; a rational form holds nonzero ints in increasing
    column over a positive int den; a block form of h x w blocks holds,
    in increasing column, entries that are themselves such forms of one
    block, none of them zero."""
    if type(X) is int:
        return ({(k, k): Fraction(X) for k in range(shape[0])}
                if X and shape[0] == shape[1] else None)
    if type(X) is not _Sparse:
        return None
    if X.block is None:
        if not (type(X.den) is int and X.den > 0):
            return None
        h = w = 1
    else:
        if X.den is not None:
            return None
        h, w = X.block
    if (X.shape[0] * h, X.shape[1] * w) != tuple(shape):
        return None
    cells = {}
    for r, row in enumerate(X.rows):
        if [c for c, _ in row] != sorted({c for c, _ in row}):
            return None
        for c, x in row:
            if X.block is None:
                if not (type(x) is int and x):
                    return None
                cells[r, c] = Fraction(x, X.den)
                continue
            block = _cells(x, (h, w))
            if not block:
                return None
            cells.update({(r * h + i, c * w + j): v
                          for (i, j), v in block.items()})
    return cells


def same_form(X, M) -> bool:
    """Whether the stored operator X is the dense matrix M of Fractions: a
    rational form with one pair for each nonzero cell of M, reading that
    cell, or a block form with one entry for each nonzero block of M,
    reading that block: an int c for c I, or a rational form with one
    pair for each nonzero cell of the block (see ``_cells``)."""
    return _cells(X, M.shape) == {(int(i), int(j)): M[i, j]
                                  for i, j in zip(*np.nonzero(M != 0))}


def bump(X, i: int, j: int) -> None:
    """Add 1 to cell (i, j) of the rational or block form X, in place.  A
    block form's block there is replaced by a new rational form of the
    changed block (none when it becomes zero): blocks are shared between
    forms, and only X changes."""
    if X.block is None:
        cells = dict(X.rows[i])
        cells[j] = cells.get(j, 0) + X.den
        X.rows[i][:] = sorted((k, x) for k, x in cells.items() if x)
        return
    (h, w), blocks = X.block, dict(X.rows[i // X.block[0]])
    old = blocks.pop(j // w, 0)
    M = np.full((h, w), Fraction(0), dtype=object)
    if type(old) is int:
        np.fill_diagonal(M, Fraction(old))
    else:
        M = old.dense(Fraction(0))
    M[i % h, j % w] += 1
    if (M != 0).any():
        blocks[j // w] = _form(M)
    X.rows[i // h][:] = sorted(blocks.items())


# --- the dilations of vsdilate laid out dense ------------------------------
#
# Each layout fills a dense matrix over the field of T block by block; the
# operators vsdilate builds as forms are compared against them.


def zeros(n: int, m: int, like: np.ndarray) -> np.ndarray:
    """n x m zero matrix over the field of like's entries."""
    return np.full((n, m), type(like.flat[0])(), dtype=like.dtype)


def eye(n: int, like: np.ndarray) -> np.ndarray:
    out = zeros(n, n, like)
    np.fill_diagonal(out, type(like.flat[0])(1))
    return out


def powers(T: np.ndarray, k: int) -> list:
    """[I, T, ..., T^k], each after T the one before times T."""
    out = [eye(T.shape[0], T), T]
    while len(out) <= k:
        out.append(out[-1] @ T)
    return out[:k + 1]


def first_block(T: np.ndarray, blocks: int) -> tuple:
    """The embedding of V as the first of blocks copies, and the
    projection onto that copy."""
    d = T.shape[0]
    E = zeros(blocks * d, d, T)
    E[:d, :] = eye(d, T)
    P = zeros(blocks * d, blocks * d, T)
    P[:d, :d] = eye(d, T)
    return E, P


def halmos_layout(T: np.ndarray) -> dict:
    """U = [[T, I], [I, 0]] and its inverse [[0, I], [I, -T]]."""
    d = T.shape[0]
    I, Z = eye(d, T), zeros(d, d, T)
    E, P = first_block(T, 2)
    return {"embed": E, "U": np.block([[T, I], [I, Z]]), "P": P,
            "U_inv": np.block([[Z, I], [I, -T]])}


def companion_layout(T: np.ndarray, N: int) -> dict:
    """The N-step companion dilation and its inverse on V^(N+1)."""
    d, blocks = T.shape[0], N + 1
    I = eye(d, T)
    U = zeros(blocks * d, blocks * d, T)
    U[:d, :d] = T
    U[:d, N * d:] = I
    for i in range(1, blocks):
        U[i * d:(i + 1) * d, (i - 1) * d:i * d] = I
    V = zeros(blocks * d, blocks * d, T)
    for i in range(blocks - 1):
        V[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = I
    V[N * d:, :d] = I
    V[N * d:, d:2 * d] = -T
    E, P = first_block(T, blocks)
    return {"embed": E, "U": U, "P": P, "U_inv": V}


def banded_layout(T: np.ndarray, w: int) -> dict:
    """Rows and columns -w..w of the banded dilation and its inverse."""
    d, size = T.shape[0], 2 * w + 1
    I = eye(d, T)

    def at(M, i, j, block):  # i, j in -w..w
        r, c = (i + w) * d, (j + w) * d
        M[r:r + d, c:c + d] = block

    U = zeros(size * d, size * d, T)
    at(U, 0, 0, T)
    for n in range(-w, w):
        at(U, n, n + 1, I)
    V = zeros(size * d, size * d, T)
    at(V, 1, -1, -T)
    for n in range(-w + 1, w + 1):
        at(V, n, n - 1, I)
    E = zeros(size * d, d, T)
    E[w * d:(w + 1) * d] = I
    return {"U": U, "V": V, "embed": E}


def standard_layout(T: np.ndarray, K: int) -> dict:
    """The shift down one index and the collapse through T^n, truncated
    at horizon K."""
    d, blocks = T.shape[0], K + 1
    U = zeros(blocks * d, blocks * d, T)
    for i in range(K):
        U[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = eye(d, T)
    P = zeros(blocks * d, blocks * d, T)
    P[:d] = np.concatenate(powers(T, K), axis=1)
    return {"embed": first_block(T, blocks)[0], "U": U, "P": P}


def ando_layout(T: np.ndarray, S: np.ndarray, h: int) -> dict:
    """Row and column shifts on the grid 0..h x 0..h, and the collapse of
    cell (n, m) through T^n S^m."""
    d, side = T.shape[0], h + 1
    cells = side * side
    I = eye(d, T)

    def place(M, n, m, n2, m2):
        M[(n2 * side + m2) * d:(n2 * side + m2 + 1) * d,
          (n * side + m) * d:(n * side + m + 1) * d] = I

    U = zeros(cells * d, cells * d, T)
    V = zeros(cells * d, cells * d, T)
    for n in range(side):
        for m in range(side):
            if n + 1 < side:
                place(U, n, m, n + 1, m)
            if m + 1 < side:
                place(V, n, m, n, m + 1)
    P = zeros(cells * d, cells * d, T)
    Tn, Sm = powers(T, h), powers(S, h)
    P[:d] = np.concatenate([Tn[n] @ Sm[m] for n in range(side)
                            for m in range(side)], axis=1)
    return {"embed": first_block(T, cells)[0], "U": U, "V": V, "P": P}


# --- dyadic entries of the first corrector iterate ------------------------
#
# z = (1-E)^{-1} a with a_i = n·1 at i = n only; in the concrete
# representation each entry of z satisfies a terminating recursion driven
# by the parity pattern of its index pair.


@lru_cache(maxsize=None)
def _z_entry(n: int, i: int, p: int, q: int) -> Fraction:
    if not 2 <= i <= n:
        return Fraction(0)
    y = Fraction(n) if (i == n and p == q) else Fraction(0)
    if p == 0 and q == 0:
        return 2 * y
    if p % 2 == 1 and q % 2 == 0:
        i2 = i + 1
    elif p % 2 == 0 and q % 2 == 1:
        i2 = i - 1
    else:
        i2 = i
    return y + Fraction(1, 2) * _z_entry(n, i2, p >> 1, q >> 1)


def kernel_entry(n: int, i: int, p: int, q: int) -> Fraction:
    """Exact concrete entry <e_p, z_i e_q> of z = (1-E)^{-1} a."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if p < 0 or q < 0:
        raise ValueError("indices must be nonnegative")
    return _z_entry(n, i, p, q)


def first_iterate_entry(n: int, i: int, p: int, q: int) -> Fraction:
    """Exact concrete entry of the first iterate b0 = L z, 1 <= i <= n."""
    if not 1 <= i <= n:
        return Fraction(0)
    if q % 2 == 1:
        return -Fraction(1, 2) * kernel_entry(n, i, p, (q - 1) // 2)
    return -Fraction(1, 2) * kernel_entry(n, i + 1, p, q // 2)


# --- the Cuntz solver on dicts ---------------------------------------------


def solve_b_dicts(n: int, max_iters: int = 200,
                  tol: float = 1e-10) -> SolveResult:
    """cuntz.solve_b as it was written on dicts keyed by index: iterate
    b <- R(a + dF(b) + dG(b,b)) on certified norm bounds.

    R = L (1-E)^{-1} is applied through its proven component bounds
    ||z_i|| <= w_i · 8 n^2 · max_j ||y_j||/w_j with w_i = sqrt(2 - i^2/n^2)
    and ||(Lz)_i|| <= sqrt(||z_i||^2 + ||z_{i+1}||^2)/2, and T R = 1 holds
    exactly, so the residual of iterate m is y(b_{m-1}) - y(b_m), bounded
    by the same recursion applied to successive differences.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    delta = 1.0 / (2000 * n**5)
    w = {i: math.sqrt(2.0 - (i * i) / (n * n)) for i in range(2, n + 1)}

    def rmap(yb: dict) -> dict:
        peak = max(yb[j] / w[j] for j in range(2, n + 1))
        zb = {i: w[i] * 8 * n * n * peak for i in range(2, n + 1)}
        return {
            i: 0.5 * math.hypot(zb.get(i, 0.0), zb.get(i + 1, 0.0))
            for i in range(1, n + 1)
        }

    def ymap(B: dict) -> dict:
        return {
            j: (float(n) if j == n else 0.0)
            + delta * (j * B[j + 1] if j < n else 0.0)
            + 2.0 * delta * B[j] * B[n]
            for j in range(2, n + 1)
        }

    B = rmap({j: float(n) if j == n else 0.0 for j in range(2, n + 1)})
    first_bounds = tuple(B[i] for i in range(1, n + 1))
    B_prev = None
    Dlt = None
    contraction = math.inf
    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        if Dlt is None:
            dy = {
                j: delta * (j * B[j + 1] if j < n else 0.0)
                + 2.0 * delta * B[j] * B[n]
                for j in range(2, n + 1)
            }
        else:
            dy = {
                j: delta * (j * Dlt[j + 1] if j < n else 0.0)
                + 2.0 * delta * (Dlt[j] * B[n] + B_prev[j] * Dlt[n])
                for j in range(2, n + 1)
            }
        Dlt_new = rmap(dy)
        if Dlt is not None:
            contraction = max(
                Dlt_new[i] / Dlt[i] for i in range(1, n + 1) if Dlt[i] > 0
            )
        B_new_map = rmap(ymap(B))
        B_new = {i: min(B_new_map[i], B[i] + Dlt_new[i]) for i in range(1, n + 1)}
        B_prev, B, Dlt = B, B_new, Dlt_new
        if max(Dlt.values()) < tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(iterations, contraction, max(Dlt.values()))

    residual_rows = tuple(
        delta * (j * Dlt[j + 1] if j < n else 0.0)
        + 2.0 * delta * (Dlt[j] * B[n] + B_prev[j] * Dlt[n])
        for j in range(2, n + 1)
    )
    bounds = tuple(B[i] for i in range(1, n + 1))
    limit = 16.0 * math.sqrt(2.0) * n**3
    b_exact = None
    if n == 2:
        b_exact = (word(right="u", coeff=-2.0), word(right="v", coeff=-2.0))
    return SolveResult(
        delta=delta,
        iterations=iterations,
        contraction=contraction,
        bounds=bounds,
        first_bounds=first_bounds,
        bound_limit=limit,
        residual=max(residual_rows),
        residual_rows=residual_rows,
        b_exact=b_exact,
    )


# --- Parseval semi-inner-product pairs -------------------------------------


def make_parseval(p: float, d: int, m: int, seed: int = 0) -> SipPair:
    """Random omega_n with tau_n solved so the frame operator is exactly
    the identity (left inverse of the duality-map matrix)."""
    if m < d:
        raise ValueError("need m >= d vectors to reconstruct")
    rng = np.random.default_rng(seed)
    while True:
        Omega = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        W = np.vstack([sip_functional(Omega[:, n], p) for n in range(m)])
        if is_invertible(herm(W) @ W):
            break
    Tau = inverse(herm(W) @ W) @ herm(W)
    return SipPair(p, Omega, Tau)


# --- sip residuals, one duality map per scalar ------------------------------
#
# Each [v, y] is a fresh sip(v, y, p), and each partial operator builds all
# m maps again: the residuals as written before SipPair kept its maps.


def sip(x, y, p) -> complex:
    """The canonical semi-inner product [x, y] on l^p, p > 1, one fresh
    duality map at y per call."""
    p = float(p)
    if not p > 1 or math.isinf(p):
        raise ValueError("the semi-inner product needs 1 < p < inf")
    x = as_vector(x)
    w = sip_functional(y, p)
    if x.size != w.size:
        raise ValueError("vectors must share a dimension")
    return _dot(x, w)


def _maps(P: SipPair) -> np.ndarray:
    return np.vstack([sip_functional(P.Omega[:, n], P.p) for n in range(P.m)])


def partial_loop(P: SipPair, M) -> np.ndarray:
    idx = _subset(P, M)
    W = _maps(P)
    if not idx:
        return np.zeros((P.d, P.d), dtype=complex)
    return P.Tau[:, idx] @ W[idx, :]


def general_identity_loop(P: SipPair, M, x) -> float:
    x = as_vector(x)
    Sinv = inverse(P.Tau @ _maps(P))
    p = P.p

    def side(idx):
        first = sum(sip(x, P.Omega[:, n], p) * sip(P.Tau[:, n], x, p)
                    for n in idx)
        u = Sinv @ partial_loop(P, idx) @ x
        w = sum((sip(u, P.Omega[:, n], p) * (Sinv @ P.Tau[:, n])
                 for n in range(P.m)),
                np.zeros(P.d, dtype=complex))
        second = sip(partial_loop(P, idx) @ w, x, p)
        return first - second

    return abs(side(_subset(P, M)) - side(_complement(P, M)))


def _parseval_sums_loop(P: SipPair, idx: list, x: np.ndarray) -> tuple:
    p = P.p
    c = [sip(x, P.Omega[:, n], p) for n in idx]
    ct = [sip(P.Tau[:, n], x, p) for n in idx]
    first = sum((a * b for a, b in zip(c, ct)), 0j)
    second = sum((c[i] * sip(P.Tau[:, n], P.Omega[:, k], p) * ct[j]
                  for i, n in enumerate(idx) for j, k in enumerate(idx)), 0j)
    return first, second


def parseval_identity_loop(P: SipPair, M, x) -> float:
    """Without the Parseval precondition, which the tests check apart."""
    x = as_vector(x)
    (f_in, s_in), (f_out, s_out) = (_parseval_sums_loop(P, idx, x) for idx
                                    in (_subset(P, M), _complement(P, M)))
    return abs((f_in - s_in) - (f_out - s_out))


def operator_identity_loop(P: SipPair, M) -> float:
    S_M = partial_loop(P, M)
    S_Mc = partial_loop(P, _complement(P, M))
    R = S_M + S_Mc @ S_Mc - S_Mc - S_M @ S_M
    return float(np.linalg.norm(R, 2))


def lower_bound_loop(P: SipPair, M, x) -> tuple:
    """(condition_value, value, floor) of the 3/4 lower bound."""
    x = as_vector(x)
    p = P.p
    M = _subset(P, M)
    Mc = _complement(P, M)
    half = partial_loop(P, M) - 0.5 * np.eye(P.d)
    condition_value = sip(half @ half @ x, x, p).real
    value = (_parseval_sums_loop(P, M, x)[0]
             + _parseval_sums_loop(P, Mc, x)[1]).real
    return condition_value, value, 0.75 * vec_pnorm(x, p) ** 2


# --- the Cuntz obstruction, one trial at a time ----------------------------


def obstruction_loop(dim: int, trials: int, seed) -> float:
    """min ||[D, X] - I||_2 over trials pairs, D and then X drawn per trial."""
    rng = np.random.default_rng(seed)
    worst = float("inf")
    for _ in range(trials):
        D = rng.standard_normal((dim, dim))
        X = rng.standard_normal((dim, dim))
        worst = min(worst, finite_obstruction(D, X))
    return worst


def pnorm(x: np.ndarray, p: float) -> float:
    """The p-norm of a complex vector for a checked p, taken on its own:
    the scalar twin of linops._pnorm_rows, whose rows and vec_pnorm must
    equal it bit for bit.  The entries are checked only when the norm is
    not finite, as a non-finite entry always makes it."""
    v = np.abs(x)
    if math.isinf(p):
        r = float(v.max())
    elif p == 1:
        r = float(v.sum())
    elif p == 2:
        r = float(np.linalg.norm(v))
    else:
        r = mx = float(v.max())  # 0, or inf when a modulus overflows
        if mx and mx != math.inf:
            # factor out the max to avoid overflow for large p
            r = mx * float(np.power(v / mx, p).sum()) ** (1.0 / p)
    if not math.isfinite(r):
        as_vector(x)
    return r
