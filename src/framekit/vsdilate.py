"""Dilations of linear maps on finite-dimensional vector spaces.

Every construction here is a block-matrix model: the Halmos two-block
dilation, the N-step companion dilation, a finite window of the
doubly-infinite banded dilation, the standard minimal dilation on finitely
supported sequences, an Ando-like pair of commuting shifts on a grid, the
intertwining lift between standard dilations, and a trace witness for
non-similar Halmos dilations.

The field is the rationals: ``as_exact`` reads every entry as a
Fraction, so every identity the theorems assert is checked with zero
residual against tolerance 0.  Every operator is a grid of d x d blocks,
almost all of them 0 or I, and is built as a form from the start by
``_grid``: a block form (``linops._Sparse``) of its nonzero blocks, each
a rational form over its own denominator or an int c for c I.  An input
such as T is a one-block form.  A product passes identity blocks
through and skips zero blocks, so a check costs one d x d product per
pair of blocks that meet.  The dataclasses store these forms and the
checks multiply them as they are; no operator is laid out as a dense
Fraction array or read back from one.

Every identity that must hold up to a horizon K reads one walk of each
side: ``_orbit`` lists x, U x, ..., U^K x by left products and ``_powers``
lists I, T, ..., T^K by right products, so no power is formed twice in one
check, and each check returns its worst defect over the whole horizon.
The standard and Ando dilations keep the powers their P is built from,
so their checks read them instead of forming them again.

A residual compares the two sides of an identity with ``_defect`` and
never forms their difference.  Two block forms are compared block by
block (a missing block reads as zero, an int c as c I) and two blocks
row by row as ints over one denominator, so zeros and shared rows cost
nothing, only a cell that differs is subtracted and the worst gap stays
exact until the end.

The constructions build their maps from any input of the right
shapes; a hypothesis such as T S = S T is decided once, by the caller,
from ``intertwining_gap``, which checks the shapes first as the
construction does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .linops import _common, _Sparse, _form, _rational


def as_exact(M, rational: bool = True) -> np.ndarray:
    """2-D matrix with Fraction entries.

    Accepts ints, Fractions, strings like "2/3", and floats (converted to
    their exact binary value); a Fraction is kept as it is.  With
    rational False every entry is first rounded to the nearest double and
    taken as that double's exact value, Fraction(float(x)); the
    constructions below are exact either way.
    """
    M = np.asarray(M, dtype=object)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2 or min(M.shape) < 1:
        raise ValueError("expected a nonempty matrix")
    out = np.empty(M.shape, dtype=object)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            x = M[i, j]
            x = x if type(x) is Fraction else Fraction(x)
            out[i, j] = x if rational else Fraction(float(x))
    return out


def _block(T: np.ndarray) -> _Sparse:
    """The form of a matrix as one block: the 1 x 1 block form of its
    rational form, no pair when T is zero."""
    X = _form(T)
    return _Sparse([[(0, X)] if X else []], 1, block=T.shape)


def _eye(like) -> _Sparse:
    """The form of the identity on the rows of like: for a d x d matrix
    the one block 1, for a block form of n block rows n blocks 1 on the
    diagonal."""
    if isinstance(like, np.ndarray):
        n, h = 1, like.shape[0]
    else:
        n, h = like.shape[0], like.block[0]
    return _Sparse([[(i, 1)] for i in range(n)], n, block=(h, h))


def _grid(blocks: dict, rows: int, cols: int) -> _Sparse:
    """The form of a rows x cols grid of equal-shaped blocks, block (r, c)
    the one-block form blocks[r, c] and every other block zero: the block
    form holding each block's entry at (r, c)."""
    first = next(iter(blocks.values()))
    grid = [[] for _ in range(rows)]
    for (r, c), X in sorted(blocks.items()):
        grid[r] += [(c, x) for _, x in X.rows[0]]
    return _Sparse(grid, cols, block=first.block)


def _defect(A: _Sparse, B: _Sparse) -> float:
    """max |a - b| over the cells of two forms A and B, as a float: 0.0
    exactly when A equals B.  ``_gap`` takes it exactly, so A - B is never
    formed."""
    if A.shape != B.shape:
        raise ValueError(f"cannot compare a {A.shape} matrix with a "
                         f"{B.shape} matrix")
    return float(_gap(A, B))


def _gap(A, B):
    """max |a - b| over the cells of two forms, or two blocks, of one
    shape, exactly.  Rows are compared as they are, and only a row that
    differs is read, a missing pair reading as zero: two rational forms
    as ints over the den of ``_common``, two block forms block by block,
    where an int c reads as c I."""
    if type(A) is int or type(B) is int:
        if type(A) is type(B):
            return abs(A - B)
        c, X = (A, B) if type(A) is int else (B, A)
        h, w = X.shape
        A, B = X, _Sparse([[(i, c)] if c else [] for i in range(h)], w, 1)
    if _rational(A, B):
        a_rows, b_rows, den = _common(A, B)
        worst = 0
        for a_row, b_row in zip(a_rows, b_rows):
            if a_row != b_row:
                b = dict(b_row)
                gaps = [abs(a - b.pop(j, 0)) for j, a in a_row]
                worst = max(worst, *gaps, *map(abs, b.values()))
        return Fraction(worst, den)
    worst = 0
    for a_row, b_row in zip(A.rows, B.rows):
        if a_row != b_row:
            b = dict(b_row)
            gaps = [_gap(a, b.pop(j, 0)) for j, a in a_row]
            worst = max(worst, *gaps, *(_gap(0, x) for x in b.values()))
    return worst


def _orbit(U, x, k: int) -> list:
    """[x, U x, ..., U^k x], each the one before times U on the left."""
    out = [x]
    while len(out) <= k:
        out.append(U @ out[-1])
    return out


def _powers(T: np.ndarray, k: int) -> list:
    """One-block forms of [I, T, ..., T^k], each after T the one before
    times T."""
    out = [_eye(T), _block(T)]
    while len(out) <= k:
        out.append(out[-1] @ out[1])
    return out[:k + 1]


def _check_shapes(T1: np.ndarray, S: np.ndarray, T2=None) -> None:
    """Refuse matrices that cannot meet in T1 S = S T2: a pair (T2 None)
    as ``ando_like`` refuses it, a triple as ``intertwine_lift`` does."""
    d = T1.shape[0]
    if T2 is None:
        if T1.shape != (d, d) or S.shape != (d, d):
            raise ValueError("T and S must be square of equal size")
    elif S.shape != (d, T2.shape[0]):
        raise ValueError("S must map the second space into the first")
    elif T1.shape[1] != d or T2.shape[1] != T2.shape[0]:
        raise ValueError("T must be square")


def intertwining_gap(A: np.ndarray, S: np.ndarray, B=None) -> float:
    """max-abs of A S - S B: zero when S intertwines B with A; with B
    omitted, of A S - S A, zero when S commutes with A.  The shapes are
    refused first, as the construction that takes them refuses them."""
    _check_shapes(A, S, B)
    A, S = _form(A), _form(S)
    return _defect(A @ S, S @ (A if B is None else _form(B)))


@dataclass(frozen=True)
class DilationQuadruple:
    """(I, U, P): embedding I of V into a direct sum of copies of V,
    dilation map U, idempotent P onto the embedded copy, and U's inverse
    when the construction supplies one in closed form, all as forms."""

    embed: _Sparse
    U: _Sparse
    P: _Sparse
    U_inv: Optional[_Sparse] = None

    def compression_defects(self, T: np.ndarray, k: int) -> list:
        """max-abs defects of E^T U^j E - T^j for j = 1..k, where E is
        the embedding: the first-coordinate compressions of U's powers."""
        cols = _orbit(self.U, self.embed, k)[1:]
        E_T = self.embed.T
        return [_defect(E_T @ c, p) for c, p in zip(cols, _powers(T, k)[1:])]

    def idempotent_defect(self) -> float:
        return _defect(self.P @ self.P, self.P)

    def inverse_defect(self) -> float:
        if self.U_inv is None:
            raise ValueError("no closed-form inverse stored")
        U, V = self.U, self.U_inv
        I = _eye(U)
        return max(_defect(U @ V, I), _defect(V @ U, I))


def _companion(T: np.ndarray, N: int) -> DilationQuadruple:
    """U on V^(N+1) with T and I in its first block row and I on its
    subdiagonal, its closed-form inverse, and E and P on the first block."""
    if T.shape[0] != T.shape[1]:
        raise ValueError("T must be square")
    if N < 1:
        raise ValueError("N must be at least 1")
    blocks, I = N + 1, _eye(T)
    U = {(0, 0): _block(T), (0, N): I}
    U.update({(i, i - 1): I for i in range(1, blocks)})
    V = {(i, i + 1): I for i in range(N)}
    V.update({(N, 0): I, (N, 1): _block(-T)})
    return DilationQuadruple(
        _grid({(0, 0): I}, blocks, 1), _grid(U, blocks, blocks),
        _grid({(0, 0): I}, blocks, blocks), _grid(V, blocks, blocks))


def halmos(T: np.ndarray) -> DilationQuadruple:
    """U = [[T, I], [I, 0]] with inverse [[0, I], [I, -T]], the companion
    dilation at N = 1; the first coordinate compression of U is T."""
    return _companion(T, 1)


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
    N = int(N)
    quad = _companion(T, N)
    table = enumerate(quad.compression_defects(T, N + 1), 1)
    return NDilation(quad, N, tuple(table))


@dataclass(frozen=True)
class BandedWindow:
    """Rows/columns -w..w of the doubly-infinite banded dilation: T at the
    (0,0) block, identities on the superdiagonal; V carries the identities
    on the subdiagonal with -T at block (1,-1); embed places x at block 0.
    Powers of U compress to powers of T for n <= w-1 (mass never leaves
    the window)."""

    U: _Sparse
    V: _Sparse
    embed: _Sparse
    window: int
    T: np.ndarray

    @property
    def valid_horizon(self) -> int:
        return self.window - 1

    def compression_defect(self) -> float:
        """Worst max-abs defect of E^T U^n E - T^n over n = 0..w-1."""
        h, E_T = self.valid_horizon, self.embed.T
        pairs = zip(_orbit(self.U, self.embed, h), _powers(self.T, h))
        return max(_defect(E_T @ col, power) for col, power in pairs)

    def interior_identity_defect(self) -> float:
        """max-abs defect of V U - I on the interior block columns
        -w+1..w-1 (the only place the truncation cannot be felt)."""
        w = self.window
        # J: the identity's columns of those blocks; U J is U's there
        J = _grid({(c, c - 1): _eye(self.T) for c in range(1, 2 * w)},
                  2 * w + 1, 2 * w - 1)
        return _defect(self.V @ (self.U @ J), J)


def banded_sznagy(T: np.ndarray, window: int) -> BandedWindow:
    w = int(window)
    if T.shape[0] != T.shape[1]:
        raise ValueError("T must be square")
    if w < 2:
        raise ValueError("window must be at least 2")
    size, I = 2 * w + 1, _eye(T)
    # block i of -w..w is block i + w of the grid
    U = {(w, w): _block(T)}
    U.update({(i, i + 1): I for i in range(size - 1)})
    V = {(w + 1, w - 1): _block(-T)}
    V.update({(i, i - 1): I for i in range(1, size)})
    return BandedWindow(_grid(U, size, size), _grid(V, size, size),
                        _grid({(w, 0): I}, size, 1), w, T)


@dataclass(frozen=True)
class StandardDilation:
    """Minimal dilation on sequences truncated at the horizon: I places x
    at index 0, U shifts down one index, P collapses index n through T^n
    back to index 0.  powers holds I, T, ..., T^horizon, formed once for
    P and read again by the check."""

    quadruple: DilationQuadruple
    horizon: int
    powers: list

    def dilation_defect(self) -> float:
        """Worst max-abs defect of I T^n = P U^n I over n = 0..horizon."""
        q, K = self.quadruple, self.horizon
        E, P = q.embed, q.P
        pairs = zip(self.powers, _orbit(q.U, E, K))
        return max(_defect(E @ power, P @ col) for power, col in pairs)

    def minimality_check(self) -> bool:
        """U^n I x over n = 0..horizon spans the truncated space: the
        stacked columns form exactly the identity matrix."""
        q, blocks = self.quadruple, self.horizon + 1
        I = self.powers[0]
        cols = _orbit(q.U, q.embed, self.horizon)
        return all(_defect(c, _grid({(k, 0): I}, blocks, 1)) == 0
                   for k, c in enumerate(cols))


def standard_dilation(T: np.ndarray, horizon: int) -> StandardDilation:
    K = int(horizon)
    if T.shape[0] != T.shape[1]:
        raise ValueError("T must be square")
    if K < 1:
        raise ValueError("horizon must be at least 1")
    powers = _powers(T, K)
    blocks, I = K + 1, powers[0]
    U = _grid({(i + 1, i): I for i in range(K)}, blocks, blocks)
    P = _grid({(0, n): X for n, X in enumerate(powers)}, blocks, blocks)
    quad = DilationQuadruple(_grid({(0, 0): I}, blocks, 1), U, P)
    return StandardDilation(quad, K, powers)


@dataclass(frozen=True)
class AndoDilation:
    """Commuting pair dilated to row and column shifts on the grid
    0..horizon x 0..horizon; P collapses cell (n, m) through T^n S^m.
    Tn and Sm hold the powers of T and S up to the horizon, formed once
    for P and read again by the check."""

    embed: _Sparse
    U: _Sparse
    V: _Sparse
    P: _Sparse
    horizon: int
    Tn: list
    Sm: list

    def dilation_defect(self) -> float:
        """Worst max-abs defect of I T^n S^m = P U^n V^m I over the whole
        grid n, m <= horizon."""
        h, E, P, U = self.horizon, self.embed, self.P, self.U
        Tn, Sm = self.Tn, self.Sm
        return max(
            _defect(E @ (Tn[n] @ Sm[m]), P @ cell)
            for m, col in enumerate(_orbit(self.V, E, h))
            for n, cell in enumerate(_orbit(U, col, h)))

    def pad_identity_check(self) -> bool:
        """Prefixing a zero column to the row-shifted array equals stacking
        a zero row over the column-shifted array.  On the grid model the
        zero-column prefix is V itself and the zero-row stack is U itself,
        so the identity reads V U = U V = diagonal shift, exactly."""
        side, I = self.horizon + 1, self.Tn[0]
        # cell (n, m) of the grid, n, m >= 1, takes cell (n - 1, m - 1)
        diag = _grid({(n * side + m, (n - 1) * side + m - 1): I
                      for n in range(1, side) for m in range(1, side)},
                     side * side, side * side)
        left = self.V @ self.U
        return _defect(left, self.U @ self.V) == 0 and _defect(left, diag) == 0


def ando_like(T: np.ndarray, S: np.ndarray, horizon: int) -> AndoDilation:
    """The grid model of a pair.  U and V commute, so it dilates the pair
    only when T and S commute; the caller decides that with
    ``intertwining_gap(T, S)``."""
    _check_shapes(T, S)
    h = int(horizon)
    if h < 1:
        raise ValueError("horizon must be at least 1")
    side = h + 1
    cells = side * side
    I = _eye(T)
    # cell (n, m) of the grid is block n * side + m; U takes it to
    # (n + 1, m) and V to (n, m + 1)
    U = {((n + 1) * side + m, n * side + m): I
         for n in range(h) for m in range(side)}
    V = {(n * side + m + 1, n * side + m): I
         for n in range(side) for m in range(h)}
    Tn, Sm = _powers(T, h), _powers(S, h)
    P = {(0, n * side + m): Tn[n] @ Sm[m]
         for n in range(side) for m in range(side)}
    return AndoDilation(_grid({(0, 0): I}, cells, 1), _grid(U, cells, cells),
                        _grid(V, cells, cells), _grid(P, cells, cells),
                        h, Tn, Sm)


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
    _check_shapes(T1, S, T2)
    q1 = standard_dilation(T1, horizon).quadruple
    q2 = standard_dilation(T2, horizon).quadruple
    blocks, S = int(horizon) + 1, _block(S)
    R = _grid({(n, n): S for n in range(blocks)}, blocks, blocks)
    return IntertwineLift(_defect(q1.U @ R, R @ q2.U),
                          _defect(R @ q2.P, q1.P @ R),
                          _defect(R @ q2.embed, q1.embed @ S))


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
    # each trace sums the diagonals of its diagonal blocks in turn: T, T
    # for the first, T and 0 for the second, whose zeros change no sum
    diag = [T[i, i] for i in range(d)]
    t1, tr = sum(diag + diag), sum(diag)
    return SimilarityWitness(t1, tr, bool(t1 != tr), bool(tr != 0))
