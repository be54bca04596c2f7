"""Dilations of linear maps on finite-dimensional vector spaces.

Every construction here is a block-matrix model: the Halmos two-block
dilation, the N-step companion dilation, a finite window of the
doubly-infinite banded dilation, the standard minimal dilation on finitely
supported sequences, an Ando-like pair of commuting shifts on a grid, the
intertwining lift between standard dilations, and a trace witness for
non-similar Halmos dilations.

``as_exact`` chooses the field; every construction keeps it. Rational
matrices are stored as Fraction objects inside dense object-dtype numpy
arrays, so every identity the theorems assert is checked with zero
residual; float64 entries serve interoperability. Identities and zeros
are built like a matrix of the same field, and tolerances are 0 for
object arrays; an identity that a check only compares against is built
as its form, one int 1 per row over denominator 1, with no matrix to
read.  The shifts, embeddings and collapses are mostly zero: each check
reads every stored operator once, when it runs, with ``linops._form``
into rows of nonzero ints over one common denominator (float arrays
stay) and multiplies only those.

Every identity that must hold up to a horizon K reads one walk of each
side: ``_orbit`` lists x, U x, ..., U^K x by left products and ``_powers``
lists I, T, ..., T^K by right products, so no power is formed twice in one
check, and each check returns its worst defect over the whole horizon.

A residual compares the two sides of an identity with ``_defect`` and
never forms their difference.  In the rational field the two forms are
compared row by row as ints, after cross-multiplying onto one
denominator when theirs differ, a missing pair reading as zero, so
zeros cost nothing, only a cell that differs is subtracted and the
worst gap becomes one Fraction at the end.  In float mode the
residual is numpy's max-abs of the difference, and every reduction,
within a matrix and over a horizon, propagates NaN, so an overflowed
power (inf - inf) gives a NaN residual wherever it sits.

The constructions build their maps from any input; a hypothesis such as
T S = S T is decided once, by the caller, from ``intertwining_gap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .linops import _Sparse, _form, _rational

FLOAT_TOL = 1e-12


def as_exact(M, rational: bool = True) -> np.ndarray:
    """2-D matrix with Fraction entries (rational) or float64 entries.

    Accepts ints, Fractions, strings like "2/3", and floats (converted to
    their exact binary value in rational mode). This is the only place the
    field is chosen: the constructions below take its output and keep it.
    """
    M = np.asarray(M, dtype=object)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2 or min(M.shape) < 1:
        raise ValueError("expected a nonempty matrix")
    if not rational:
        return M.astype(float)
    out = np.empty(M.shape, dtype=object)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            out[i, j] = Fraction(M[i, j])
    return out


def _zeros(n: int, m: int, like: np.ndarray) -> np.ndarray:
    """n x m zero matrix over the field of like's entries."""
    return np.full((n, m), type(like.flat[0])(), dtype=like.dtype)


def _eye(n: int, like: np.ndarray) -> np.ndarray:
    out = _zeros(n, n, like)
    np.fill_diagonal(out, type(like.flat[0])(1))
    return out


def _unit_form(cols, width: int, like: np.ndarray):
    """The form of the matrix over like's field with a 1 in column cols[i]
    of row i, and no entry in a row whose cols[i] is None: rows [(j, 1)]
    of int 1 over den 1 in the rational field, the array itself in float
    mode."""
    cols = list(cols)
    if like.dtype != object:
        M = np.zeros((len(cols), width), dtype=like.dtype)
        hot = [i for i, j in enumerate(cols) if j is not None]
        M[hot, [cols[i] for i in hot]] = 1
        return M
    return _Sparse([[] if j is None else [(j, 1)] for j in cols], width, 1)


def _eye_form(n: int, like: np.ndarray, lo: int = 0, hi: Optional[int] = None):
    """The form of columns lo..hi-1, all by default, of the n x n identity
    over like's field."""
    hi = n if hi is None else hi
    return _unit_form((i - lo if lo <= i < hi else None for i in range(n)),
                      hi - lo, like)


def _dense(X, like: np.ndarray) -> np.ndarray:
    """A product of forms as a matrix over like's field."""
    return X if isinstance(X, np.ndarray) else X.dense(type(like.flat[0])())


def max_abs(M) -> float:
    """Largest |entry| as a float, 0.0 for an empty matrix; numpy's
    reduction keeps a NaN wherever it sits."""
    M = np.asarray(M)
    return float(np.max(np.abs(M))) if M.size else 0.0


def _defect(A, B) -> float:
    """max |a - b| over the cells of two forms A and B, as a float: 0.0
    exactly when A equals B.  Arrays take ``max_abs(A - B)``.  Sparse
    forms are compared row by row, a missing pair reading as zero, and
    only a row that differs is subtracted, so A - B is never formed.  Two
    rational forms over different denominators are first cross-multiplied
    onto the lcm of the two."""
    if A.shape != B.shape:
        raise ValueError(f"cannot compare a {A.shape} matrix with a "
                         f"{B.shape} matrix")
    if isinstance(A, np.ndarray):
        return max_abs(A - B)
    a_rows, b_rows, den = A.rows, B.rows, A.den
    if _rational(A, B) and A.den != B.den:
        g = math.gcd(A.den, B.den)
        ka, kb = B.den // g, A.den // g
        a_rows = [[(j, a * ka) for j, a in row] for row in a_rows]
        b_rows = [[(j, b * kb) for j, b in row] for row in b_rows]
        den *= ka
    worst = 0
    for a_row, b_row in zip(a_rows, b_rows):
        if a_row != b_row:
            b = dict(b_row)
            gaps = [abs(a - b.pop(j, 0)) for j, a in a_row]
            worst = max(worst, *gaps, *map(abs, b.values()))
    return float(worst if den is None else Fraction(worst, den))


def _worst(defects) -> float:
    """The largest of the defects; NaN if any is NaN, where ``max`` would
    keep a NaN only when it comes first."""
    defects = list(defects)
    return math.nan if any(map(math.isnan, defects)) else max(defects)


def _orbit(U, x, k: int) -> list:
    """[x, U x, ..., U^k x], each the one before times U on the left."""
    out = [x]
    while len(out) <= k:
        out.append(U @ out[-1])
    return out


def _powers(T: np.ndarray, k: int) -> list:
    """Forms of [I, T, ..., T^k], each after T the one before times T."""
    out = [_eye_form(T.shape[0], T), _form(T)]
    while len(out) <= k:
        out.append(out[-1] @ out[1])
    return out[:k + 1]


def intertwining_gap(A: np.ndarray, S: np.ndarray, B: np.ndarray) -> float:
    """max-abs of A S - S B: zero when S intertwines B with A, and, for
    A = B, when S commutes with A."""
    A, S, B = map(_form, (A, S, B))
    return _defect(A @ S, S @ B)


def _trace(M: np.ndarray):
    return sum(M[i, i] for i in range(M.shape[0]))


@dataclass(frozen=True)
class DilationQuadruple:
    """(I, U, P): embedding I of V into a direct sum of copies of V,
    dilation map U, idempotent P onto the embedded copy, and U's inverse
    when the construction supplies one in closed form."""

    embed: np.ndarray
    U: np.ndarray
    P: np.ndarray
    U_inv: Optional[np.ndarray] = None

    def compression_defects(self, T: np.ndarray, k: int) -> list:
        """max-abs defects of E^T U^j E - T^j for j = 1..k, where E is
        the embedding: the first-coordinate compressions of U's powers."""
        cols = _orbit(_form(self.U), _form(self.embed), k)[1:]
        E_T = _form(self.embed.T)
        return [_defect(E_T @ c, p) for c, p in zip(cols, _powers(T, k)[1:])]

    def idempotent_defect(self) -> float:
        P = _form(self.P)
        return _defect(P @ P, P)

    def inverse_defect(self) -> float:
        if self.U_inv is None:
            raise ValueError("no closed-form inverse stored")
        U, V = _form(self.U), _form(self.U_inv)
        I = _eye_form(self.U.shape[0], self.U)
        return _worst((_defect(U @ V, I), _defect(V @ U, I)))


def _first_block_embed(T: np.ndarray, blocks: int) -> np.ndarray:
    d = T.shape[0]
    E = _zeros(blocks * d, d, T)
    E[:d, :] = _eye(d, T)
    return E


def _first_block_projection(T: np.ndarray, blocks: int) -> np.ndarray:
    d = T.shape[0]
    P = _zeros(blocks * d, blocks * d, T)
    P[:d, :d] = _eye(d, T)
    return P


def halmos(T: np.ndarray) -> DilationQuadruple:
    """U = [[T, I], [I, 0]] with inverse [[0, I], [I, -T]]; the first
    coordinate compression of U is T."""
    d = T.shape[0]
    if T.shape[1] != d:
        raise ValueError("T must be square")
    I, Z = _eye(d, T), _zeros(d, d, T)
    U = np.block([[T, I], [I, Z]])
    V = np.block([[Z, I], [I, -T]])
    return DilationQuadruple(_first_block_embed(T, 2),
                             U, _first_block_projection(T, 2), V)


@dataclass(frozen=True)
class NDilation:
    quadruple: DilationQuadruple
    horizon: int
    table: tuple  # (k, max-abs defect of E^T U^k E - T^k) for k <= N+1


def n_dilation(T: np.ndarray, N: int) -> NDilation:
    """Companion-style U on V^(N+1) with T^k = P U^k|_V for k = 1..N.

    The verification table carries k = 1..N+1; the last row records the
    defect beyond the horizon, which is I for k = N+1 since U^(N+1)
    reintroduces the identity corner.
    """
    d = T.shape[0]
    N = int(N)
    if T.shape[1] != d:
        raise ValueError("T must be square")
    if N < 1:
        raise ValueError("N must be at least 1")
    blocks = N + 1
    I = _eye(d, T)
    U = _zeros(blocks * d, blocks * d, T)
    U[:d, :d] = T
    U[:d, N * d:] = I
    for i in range(1, blocks):
        U[i * d:(i + 1) * d, (i - 1) * d:i * d] = I
    V = _zeros(blocks * d, blocks * d, T)
    for i in range(blocks - 1):
        V[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = I
    V[N * d:, :d] = I
    V[N * d:, d:2 * d] = -T
    quad = DilationQuadruple(_first_block_embed(T, blocks), U,
                             _first_block_projection(T, blocks), V)
    table = enumerate(quad.compression_defects(T, N + 1), 1)
    return NDilation(quad, N, tuple(table))


@dataclass(frozen=True)
class BandedWindow:
    """Rows/columns -w..w of the doubly-infinite banded dilation: T at the
    (0,0) block, identities on the superdiagonal; V carries the identities
    on the subdiagonal with -T at block (1,-1); embed places x at block 0.
    Powers of U compress to powers of T for n <= w-1 (mass never leaves
    the window)."""

    U: np.ndarray
    V: np.ndarray
    embed: np.ndarray
    window: int
    T: np.ndarray

    @property
    def valid_horizon(self) -> int:
        return self.window - 1

    def compression_defect(self) -> float:
        """Worst max-abs defect of E^T U^n E - T^n over n = 0..w-1."""
        h, E_T = self.valid_horizon, _form(self.embed.T)
        pairs = zip(_orbit(_form(self.U), _form(self.embed), h),
                    _powers(self.T, h))
        return _worst(_defect(E_T @ col, power) for col, power in pairs)

    def interior_identity_defect(self) -> float:
        """max-abs defect of V U - I on the interior block columns
        -w+1..w-1 (the only place the truncation cannot be felt)."""
        d, w = self.T.shape[0], self.window
        inner = slice(d, 2 * w * d)
        return _defect(_form(self.V) @ _form(self.U[:, inner]),
                       _eye_form((2 * w + 1) * d, self.U, d, 2 * w * d))


def banded_sznagy(T: np.ndarray, window: int) -> BandedWindow:
    d = T.shape[0]
    w = int(window)
    if T.shape[1] != d:
        raise ValueError("T must be square")
    if w < 2:
        raise ValueError("window must be at least 2")
    size = 2 * w + 1
    I = _eye(d, T)

    def at(M, i, j, block):  # i, j in -w..w
        r, c = (i + w) * d, (j + w) * d
        M[r:r + d, c:c + d] = block

    U = _zeros(size * d, size * d, T)
    at(U, 0, 0, T)
    for n in range(-w, w):
        at(U, n, n + 1, I)
    V = _zeros(size * d, size * d, T)
    at(V, 1, -1, -T)
    for n in range(-w + 1, w + 1):
        at(V, n, n - 1, I)
    E = _zeros(size * d, d, T)
    E[w * d:(w + 1) * d] = I
    return BandedWindow(U, V, E, w, T)


@dataclass(frozen=True)
class StandardDilation:
    """Minimal dilation on sequences truncated at the horizon: I places x
    at index 0, U shifts down one index, P collapses index n through T^n
    back to index 0."""

    quadruple: DilationQuadruple
    horizon: int
    T: np.ndarray

    def dilation_defect(self) -> float:
        """Worst max-abs defect of I T^n = P U^n I over n = 0..horizon."""
        q, K = self.quadruple, self.horizon
        E, P = _form(q.embed), _form(q.P)
        pairs = zip(_powers(self.T, K), _orbit(_form(q.U), E, K))
        return _worst(_defect(E @ power, P @ col) for power, col in pairs)

    def minimality_check(self) -> bool:
        """U^n I x over n = 0..horizon spans the truncated space: the
        stacked columns form exactly the identity matrix."""
        q = self.quadruple
        cols = _orbit(_form(q.U), _form(q.embed), self.horizon)
        n, d = q.U.shape[0], self.T.shape[0]
        return all(_defect(c, _eye_form(n, q.U, k * d, (k + 1) * d)) == 0
                   for k, c in enumerate(cols))


def standard_dilation(T: np.ndarray, horizon: int) -> StandardDilation:
    d = T.shape[0]
    K = int(horizon)
    if T.shape[1] != d:
        raise ValueError("T must be square")
    if K < 1:
        raise ValueError("horizon must be at least 1")
    blocks = K + 1
    I = _eye(d, T)
    U = _zeros(blocks * d, blocks * d, T)
    for i in range(K):
        U[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = I
    P = _zeros(blocks * d, blocks * d, T)
    P[:d] = np.concatenate([_dense(X, T) for X in _powers(T, K)], axis=1)
    quad = DilationQuadruple(_first_block_embed(T, blocks), U, P)
    return StandardDilation(quad, K, T)


@dataclass(frozen=True)
class AndoDilation:
    """Commuting pair dilated to row and column shifts on the grid
    0..horizon x 0..horizon; P collapses cell (n, m) through T^n S^m."""

    embed: np.ndarray
    U: np.ndarray
    V: np.ndarray
    P: np.ndarray
    horizon: int
    T: np.ndarray
    S: np.ndarray

    def dilation_defect(self) -> float:
        """Worst max-abs defect of I T^n S^m = P U^n V^m I over the whole
        grid n, m <= horizon."""
        h, E, P, U = self.horizon, *map(_form, (self.embed, self.P, self.U))
        Tn, Sm = _powers(self.T, h), _powers(self.S, h)
        return _worst(
            _defect(E @ (Tn[n] @ Sm[m]), P @ cell)
            for m, col in enumerate(_orbit(_form(self.V), E, h))
            for n, cell in enumerate(_orbit(U, col, h)))

    def pad_identity_check(self) -> bool:
        """Prefixing a zero column to the row-shifted array equals stacking
        a zero row over the column-shifted array.  On the grid model the
        zero-column prefix is V itself and the zero-row stack is U itself,
        so the identity reads V U = U V = diagonal shift, exactly."""
        d, side = self.T.shape[0], self.horizon + 1
        # cell (n, m) of the grid, n, m >= 1, takes cell (n - 1, m - 1)
        diag = _unit_form(
            (i - (side + 1) * d if i // (side * d) and i // d % side else None
             for i in range(side * side * d)), side * side * d, self.U)
        U, V = _form(self.U), _form(self.V)
        left = V @ U
        return _defect(left, U @ V) == 0 and _defect(left, diag) == 0


def ando_like(T: np.ndarray, S: np.ndarray, horizon: int) -> AndoDilation:
    """The grid model of a pair.  U and V commute, so it dilates the pair
    only when T and S commute; the caller decides that with
    ``intertwining_gap(T, S, T)``."""
    d = T.shape[0]
    h = int(horizon)
    if T.shape != (d, d) or S.shape != (d, d):
        raise ValueError("T and S must be square of equal size")
    if h < 1:
        raise ValueError("horizon must be at least 1")
    side = h + 1
    cells = side * side
    I = _eye(d, T)

    def place(M, n, m, n2, m2):
        M[(n2 * side + m2) * d:(n2 * side + m2 + 1) * d,
          (n * side + m) * d:(n * side + m + 1) * d] = I

    U = _zeros(cells * d, cells * d, T)
    V = _zeros(cells * d, cells * d, T)
    for n in range(side):
        for m in range(side):
            if n + 1 < side:
                place(U, n, m, n + 1, m)
            if m + 1 < side:
                place(V, n, m, n, m + 1)
    P = _zeros(cells * d, cells * d, T)
    Tn, Sm = _powers(T, h), _powers(S, h)
    P[:d] = np.concatenate([_dense(Tn[n] @ Sm[m], T) for n in range(side)
                            for m in range(side)], axis=1)
    return AndoDilation(_first_block_embed(T, cells), U, V, P, h, T, S)


@dataclass(frozen=True)
class IntertwineLift:
    """The three lifted-identity defects of R = blockdiag(S, ..., S) between
    truncated standard dilations (all zero given T1 S = S T2)."""

    shift_defect: float       # U1 R - R U2
    projection_defect: float  # R P2 - P1 R
    embedding_defect: float   # R I2 - I1 S


def intertwine_lift(T1: np.ndarray, T2: np.ndarray, S: np.ndarray,
                    horizon: int) -> IntertwineLift:
    """The lift of S; its defects vanish only when T1 S = S T2, which the
    caller decides with ``intertwining_gap(T1, S, T2)``."""
    if S.shape != (T1.shape[0], T2.shape[0]):
        raise ValueError("S must map the second space into the first")
    D1 = standard_dilation(T1, horizon)
    D2 = standard_dilation(T2, horizon)
    blocks = int(horizon) + 1
    d1, d2 = T1.shape[0], T2.shape[0]
    R = _zeros(blocks * d1, blocks * d2, S)
    for n in range(blocks):
        R[n * d1:(n + 1) * d1, n * d2:(n + 1) * d2] = S
    q1, q2 = D1.quadruple, D2.quadruple
    U1, P1, E1, U2, P2, E2, R, S = map(_form, (
        q1.U, q1.P, q1.embed, q2.U, q2.P, q2.embed, R, S))
    return IntertwineLift(_defect(U1 @ R, R @ U2), _defect(R @ P2, P1 @ R),
                          _defect(R @ E2, E1 @ S))


@dataclass(frozen=True)
class SimilarityWitness:
    trace_asymmetric: object  # trace of [[T, T-I], [T+I, T]]
    trace_halmos: object      # trace of [[T, I], [I, 0]]
    distinct: bool
    conclusive: bool


def non_similarity_witness(T: np.ndarray) -> SimilarityWitness:
    """Traces of the dilations [[T, T-I], [T+I, T]] and [[T, I], [I, 0]]
    are 2 tr T and tr T; they differ exactly when tr T != 0, certifying
    two non-similar Halmos dilations of T."""
    d = T.shape[0]
    if T.shape[1] != d:
        raise ValueError("T must be square")
    I, Z = _eye(d, T), _zeros(d, d, T)
    t1 = _trace(np.block([[T, T - I], [T + I, T]]))
    t2 = _trace(np.block([[T, I], [I, Z]]))
    tr = _trace(T)
    conclusive = abs(tr) > (0 if T.dtype == object else FLOAT_TOL)
    return SimilarityWitness(t1, t2, bool(t1 != t2), bool(conclusive))
