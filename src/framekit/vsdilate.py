"""Dilations of linear maps on finite-dimensional vector spaces.

Every construction here is a block-matrix model: Halmos and Schur-variant
two-block dilations, the N-step companion dilation, a finite window of the
doubly-infinite banded dilation, the standard minimal dilation on finitely
supported sequences, an Ando-like pair of commuting shifts on a grid, the
intertwining lift between standard dilations, and a trace witness for
non-similar Halmos dilations.

Rational mode (the default) stores entries as Fraction objects inside
object-dtype numpy arrays, so every identity the theorems assert is checked
with zero residual; float mode uses float64 for interoperability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import NotInvertible

FLOAT_TOL = 1e-12


def as_exact(M, rational: bool = True) -> np.ndarray:
    """2-D matrix with Fraction entries (rational) or float64 entries.

    Accepts ints, Fractions, strings like "2/3", and floats (converted to
    their exact binary value in rational mode).
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


def _eye(n: int, rational: bool) -> np.ndarray:
    if not rational:
        return np.eye(n)
    out = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def _zeros(n: int, m: int, rational: bool) -> np.ndarray:
    if not rational:
        return np.zeros((n, m))
    return np.full((n, m), Fraction(0), dtype=object)


def _is_rational(M: np.ndarray) -> bool:
    return M.dtype == object


def max_abs(M) -> float:
    return float(max((abs(x) for x in np.asarray(M).flat), default=0))


def exact_inverse(M: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse with partial pivoting; exact on Fractions."""
    n, m = M.shape
    if n != m:
        raise NotInvertible("matrix is not square")
    rational = _is_rational(M)
    A = np.concatenate([M.copy(), _eye(n, rational)], axis=1)
    scale = max(max_abs(M), 1.0)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(A[r, col]))
        if (A[pivot, col] == 0 if rational
                else abs(A[pivot, col]) <= FLOAT_TOL * scale):
            raise NotInvertible("singular matrix")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
        A[col] = A[col] / A[col, col]
        for r in range(n):
            if r != col and A[r, col] != 0:
                A[r] = A[r] - A[r, col] * A[col]
    return A[:, n:]


def mat_power(M: np.ndarray, k: int) -> np.ndarray:
    out = _eye(M.shape[0], _is_rational(M))
    for _ in range(int(k)):
        out = out @ M
    return out


def _apply_power(M: np.ndarray, k: int, col: np.ndarray) -> np.ndarray:
    # M^k @ col without forming M^k (object-dtype matmul is costly)
    for _ in range(int(k)):
        col = M @ col
    return col


def _trace(M: np.ndarray):
    return sum(M[i, i] for i in range(M.shape[0]))


@dataclass(frozen=True)
class DilationQuadruple:
    """(W, I, U, P): embedding I of V into W = V^(+blocks), dilation map U,
    idempotent P onto the embedded copy, and U's inverse when the
    construction supplies one in closed form."""

    space: str
    embed: np.ndarray
    U: np.ndarray
    P: np.ndarray
    U_inv: Optional[np.ndarray] = None

    @property
    def base_dim(self) -> int:
        return self.embed.shape[1]

    def compression(self, k: int = 1) -> np.ndarray:
        """First-coordinate compression of U^k back to V."""
        return self.embed.T @ _apply_power(self.U, k, self.embed)

    def inverse_defect(self) -> float:
        if self.U_inv is None:
            raise ValueError("no closed-form inverse stored")
        n = self.U.shape[0]
        rational = _is_rational(self.U)
        return max(max_abs(self.U @ self.U_inv - _eye(n, rational)),
                   max_abs(self.U_inv @ self.U - _eye(n, rational)))


def _first_block_embed(d: int, blocks: int, rational: bool) -> np.ndarray:
    E = _zeros(blocks * d, d, rational)
    E[:d, :] = _eye(d, rational)
    return E


def _first_block_projection(d: int, blocks: int, rational: bool) -> np.ndarray:
    P = _zeros(blocks * d, blocks * d, rational)
    P[:d, :d] = _eye(d, rational)
    return P


def halmos(T, rational: bool = True) -> DilationQuadruple:
    """U = [[T, I], [I, 0]] with inverse [[0, I], [I, -T]]; the first
    coordinate compression of U is T."""
    T = as_exact(T, rational)
    d = T.shape[0]
    if T.shape[1] != d:
        raise ValueError("T must be square")
    I, Z = _eye(d, rational), _zeros(d, d, rational)
    U = np.block([[T, I], [I, Z]])
    V = np.block([[Z, I], [I, -T]])
    return DilationQuadruple("V (+) V", _first_block_embed(d, 2, rational),
                             U, _first_block_projection(d, 2, rational), V)


def schur_halmos(T, B, C, D, case: int, rational: bool = True) -> DilationQuadruple:
    """Two-block dilation U = [[T, B], [C, D]] inverted through the Schur
    complement of the invertible corner named by the case:

    1: T and D - C T^{-1} B invertible
    2: D and T - B D^{-1} C invertible
    3: B and C - D B^{-1} T invertible
    4: C and B - T C^{-1} D invertible
    """
    T, B, C, D = (as_exact(X, rational) for X in (T, B, C, D))
    d = T.shape[0]
    if any(X.shape != (d, d) for X in (T, B, C, D)):
        raise ValueError("T, B, C, D must be square of equal size")
    if case == 1:
        Ti = exact_inverse(T)
        Si = exact_inverse(D - C @ Ti @ B)
        inv = np.block([[Ti + Ti @ B @ Si @ C @ Ti, -Ti @ B @ Si],
                        [-Si @ C @ Ti, Si]])
    elif case == 2:
        Di = exact_inverse(D)
        Si = exact_inverse(T - B @ Di @ C)
        inv = np.block([[Si, -Si @ B @ Di],
                        [-Di @ C @ Si, Di + Di @ C @ Si @ B @ Di]])
    elif case == 3:
        Bi = exact_inverse(B)
        Si = exact_inverse(C - D @ Bi @ T)
        inv = np.block([[-Si @ D @ Bi, Si],
                        [Bi + Bi @ T @ Si @ D @ Bi, -Bi @ T @ Si]])
    elif case == 4:
        Ci = exact_inverse(C)
        Si = exact_inverse(B - T @ Ci @ D)
        inv = np.block([[-Ci @ D @ Si, Ci + Ci @ D @ Si @ T @ Ci],
                        [Si, -Si @ T @ Ci]])
    else:
        raise ValueError("case must be 1, 2, 3 or 4")
    U = np.block([[T, B], [C, D]])
    return DilationQuadruple("V (+) V", _first_block_embed(d, 2, rational),
                             U, _first_block_projection(d, 2, rational), inv)


@dataclass(frozen=True)
class NDilation:
    quadruple: DilationQuadruple
    horizon: int
    table: tuple  # (k, max-abs defect of compression(k) - T^k) for k <= N+1


def n_dilation(T, N: int, rational: bool = True) -> NDilation:
    """Companion-style U on V^(N+1) with T^k = P U^k|_V for k = 1..N.

    The verification table carries k = 1..N+1; the last row records the
    defect beyond the horizon, which is I for k = N+1 since U^(N+1)
    reintroduces the identity corner.
    """
    T = as_exact(T, rational)
    d = T.shape[0]
    N = int(N)
    if T.shape[1] != d:
        raise ValueError("T must be square")
    if N < 1:
        raise ValueError("N must be at least 1")
    blocks = N + 1
    I = _eye(d, rational)
    U = _zeros(blocks * d, blocks * d, rational)
    U[:d, :d] = T
    U[:d, N * d:] = I
    for i in range(1, blocks):
        U[i * d:(i + 1) * d, (i - 1) * d:i * d] = I
    V = _zeros(blocks * d, blocks * d, rational)
    for i in range(blocks - 1):
        V[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = I
    V[N * d:, :d] = I
    V[N * d:, d:2 * d] = -T
    quad = DilationQuadruple(f"V^{blocks}",
                             _first_block_embed(d, blocks, rational), U,
                             _first_block_projection(d, blocks, rational), V)
    table, power, col = [], _eye(d, rational), quad.embed
    for k in range(1, N + 2):
        power = power @ T
        col = U @ col
        table.append((k, max_abs(quad.embed.T @ col - power)))
    return NDilation(quad, N, tuple(table))


@dataclass(frozen=True)
class BandedWindow:
    """Rows/columns -w..w of the doubly-infinite banded dilation: T at the
    (0,0) block, identities on the superdiagonal; V carries the identities
    on the subdiagonal with -T at block (1,-1). Powers of U compress to
    powers of T for n <= w-1 (mass never leaves the window)."""

    U: np.ndarray
    V: np.ndarray
    window: int
    base_dim: int

    @property
    def valid_horizon(self) -> int:
        return self.window - 1

    def _center_embed(self) -> np.ndarray:
        d, w = self.base_dim, self.window
        E = _zeros((2 * w + 1) * d, d, _is_rational(self.U))
        E[w * d:(w + 1) * d] = _eye(d, _is_rational(self.U))
        return E

    def compression(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.valid_horizon:
            raise ValueError(
                f"power {n} exceeds the window's valid horizon "
                f"{self.valid_horizon}")
        E = self._center_embed()
        return E.T @ _apply_power(self.U, n, E)

    def interior_identity_defect(self) -> float:
        """max-abs defect of V U - I on the interior block columns
        -w+1..w-1 (the only place the truncation cannot be felt)."""
        d, w = self.base_dim, self.window
        G = self.V @ self.U - _eye((2 * w + 1) * d, _is_rational(self.U))
        return max_abs(G[:, d:2 * w * d])


def banded_sznagy(T, window: int, rational: bool = True) -> BandedWindow:
    T = as_exact(T, rational)
    d = T.shape[0]
    w = int(window)
    if T.shape[1] != d:
        raise ValueError("T must be square")
    if w < 2:
        raise ValueError("window must be at least 2")
    size = 2 * w + 1
    I = _eye(d, rational)

    def at(M, i, j, block):  # i, j in -w..w
        r, c = (i + w) * d, (j + w) * d
        M[r:r + d, c:c + d] = block

    U = _zeros(size * d, size * d, rational)
    at(U, 0, 0, T)
    for n in range(-w, w):
        at(U, n, n + 1, I)
    V = _zeros(size * d, size * d, rational)
    at(V, 1, -1, -T)
    for n in range(-w + 1, w + 1):
        at(V, n, n - 1, I)
    return BandedWindow(U, V, w, d)


@dataclass(frozen=True)
class StandardDilation:
    """Minimal dilation on sequences truncated at the horizon: I places x
    at index 0, U shifts down one index, P collapses index n through T^n
    back to index 0."""

    quadruple: DilationQuadruple
    horizon: int
    T: np.ndarray

    def dilation_defect(self, n: int) -> float:
        """max-abs defect of I T^n = P U^n I, exact for n <= horizon."""
        q = self.quadruple
        lhs = q.embed @ mat_power(self.T, n)
        return max_abs(lhs - q.P @ _apply_power(q.U, n, q.embed))

    def idempotent_defect(self) -> float:
        return max_abs(self.quadruple.P @ self.quadruple.P - self.quadruple.P)

    def minimality_check(self) -> bool:
        """U^n I x over n = 0..horizon spans the truncated space: the
        stacked columns form exactly the identity matrix."""
        q = self.quadruple
        pieces, col = [], q.embed
        for _ in range(self.horizon + 1):
            pieces.append(col)
            col = q.U @ col
        cols = np.concatenate(pieces, axis=1)
        rational = _is_rational(q.U)
        target = _eye(cols.shape[0], rational)
        if rational:
            return bool(np.all(cols == target))
        return max_abs(cols - target) == 0.0


def standard_dilation(T, horizon: int, rational: bool = True) -> StandardDilation:
    T = as_exact(T, rational)
    d = T.shape[0]
    K = int(horizon)
    if T.shape[1] != d:
        raise ValueError("T must be square")
    if K < 1:
        raise ValueError("horizon must be at least 1")
    blocks = K + 1
    I = _eye(d, rational)
    U = _zeros(blocks * d, blocks * d, rational)
    for i in range(K):
        U[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = I
    P = _zeros(blocks * d, blocks * d, rational)
    power = I
    for n in range(blocks):
        P[:d, n * d:(n + 1) * d] = power
        power = power @ T
    quad = DilationQuadruple(f"finitely supported sequences, indices 0..{K}",
                             _first_block_embed(d, blocks, rational), U, P)
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

    def dilation_defect(self, n: int, m: int) -> float:
        """max-abs defect of I T^n S^m = P U^n V^m I, exact when
        n + m <= horizon."""
        lhs = self.embed @ (mat_power(self.T, n) @ mat_power(self.S, m))
        rhs = self.P @ _apply_power(self.U, n,
                                    _apply_power(self.V, m, self.embed))
        return max_abs(lhs - rhs)

    def pad_identity_check(self) -> bool:
        """Prefixing a zero column to the row-shifted array equals stacking
        a zero row over the column-shifted array.  On the grid model the
        zero-column prefix is V itself and the zero-row stack is U itself,
        so the identity reads V U = U V = diagonal shift, exactly."""
        h, d = self.horizon, self.T.shape[0]
        rational = _is_rational(self.U)
        side = h + 1
        diag = _zeros(side * side * d, side * side * d, rational)
        I = _eye(d, rational)
        for n in range(h):
            for m in range(h):
                diag[((n + 1) * side + m + 1) * d:
                     ((n + 1) * side + m + 2) * d,
                     (n * side + m) * d:(n * side + m + 1) * d] = I
        left = self.V @ self.U
        right = self.U @ self.V
        if rational:
            return bool(np.all(left == right) and np.all(left == diag))
        return max_abs(left - right) == 0.0 and max_abs(left - diag) == 0.0


def ando_like(T, S, horizon: int, rational: bool = True) -> AndoDilation:
    T = as_exact(T, rational)
    S = as_exact(S, rational)
    d = T.shape[0]
    h = int(horizon)
    if T.shape != (d, d) or S.shape != (d, d):
        raise ValueError("T and S must be square of equal size")
    if h < 1:
        raise ValueError("horizon must be at least 1")
    gap = max_abs(T @ S - S @ T)
    if gap > (0 if _is_rational(T) else FLOAT_TOL):
        raise ValueError("T and S must commute")
    side = h + 1
    cells = side * side
    I = _eye(d, rational)

    def place(M, n, m, n2, m2):
        M[(n2 * side + m2) * d:(n2 * side + m2 + 1) * d,
          (n * side + m) * d:(n * side + m + 1) * d] = I

    U = _zeros(cells * d, cells * d, rational)
    V = _zeros(cells * d, cells * d, rational)
    for n in range(side):
        for m in range(side):
            if n + 1 < side:
                place(U, n, m, n + 1, m)
            if m + 1 < side:
                place(V, n, m, n, m + 1)
    P = _zeros(cells * d, cells * d, rational)
    for n in range(side):
        for m in range(side):
            P[:d, (n * side + m) * d:(n * side + m + 1) * d] = (
                mat_power(T, n) @ mat_power(S, m))
    embed = _zeros(cells * d, d, rational)
    embed[:d] = I
    return AndoDilation(embed, U, V, P, h, T, S)


@dataclass(frozen=True)
class IntertwineLift:
    """R = blockdiag(S, ..., S) between truncated standard dilations, with
    the three lifted-identity defects (all zero given T1 S = S T2)."""

    R: np.ndarray
    shift_defect: float       # U1 R - R U2
    projection_defect: float  # R P2 - P1 R
    embedding_defect: float   # R I2 - I1 S


def intertwine_lift(T1, T2, S, horizon: int,
                    rational: bool = True) -> IntertwineLift:
    T1 = as_exact(T1, rational)
    T2 = as_exact(T2, rational)
    S = as_exact(S, rational)
    if S.shape != (T1.shape[0], T2.shape[0]):
        raise ValueError("S must map the second space into the first")
    gap = max_abs(T1 @ S - S @ T2)
    if gap > (0 if _is_rational(S) else FLOAT_TOL):
        raise ValueError("T1 S = S T2 must hold")
    D1 = standard_dilation(T1, horizon, rational)
    D2 = standard_dilation(T2, horizon, rational)
    blocks = int(horizon) + 1
    d1, d2 = T1.shape[0], T2.shape[0]
    R = _zeros(blocks * d1, blocks * d2, rational)
    for n in range(blocks):
        R[n * d1:(n + 1) * d1, n * d2:(n + 1) * d2] = S
    q1, q2 = D1.quadruple, D2.quadruple
    return IntertwineLift(
        R,
        max_abs(q1.U @ R - R @ q2.U),
        max_abs(R @ q2.P - q1.P @ R),
        max_abs(R @ q2.embed - q1.embed @ S),
    )


@dataclass(frozen=True)
class SimilarityWitness:
    trace_asymmetric: object  # trace of [[T, T-I], [T+I, T]]
    trace_halmos: object      # trace of [[T, I], [I, 0]]
    distinct: bool
    conclusive: bool


def non_similarity_witness(T, rational: bool = True) -> SimilarityWitness:
    """Traces of the dilations [[T, T-I], [T+I, T]] and [[T, I], [I, 0]]
    are 2 tr T and tr T; they differ exactly when tr T != 0, certifying
    two non-similar Halmos dilations of T."""
    T = as_exact(T, rational)
    d = T.shape[0]
    if T.shape[1] != d:
        raise ValueError("T must be square")
    I, Z = _eye(d, rational), _zeros(d, d, rational)
    t1 = _trace(np.block([[T, T - I], [T + I, T]]))
    t2 = _trace(np.block([[T, I], [I, Z]]))
    tr = _trace(T)
    conclusive = (tr != 0) if _is_rational(T) else abs(tr) > FLOAT_TOL
    return SimilarityWitness(t1, t2, bool(t1 != t2), bool(conclusive))
