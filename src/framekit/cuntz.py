"""Word algebra for a pair of isometries u, v with u*u = v*v = 1 and
u*v = v*u = 0, its concrete interleaving representation, and the
almost-commuting triangular matrix pair built on top of it.

Normal-form words w sigma* (all unstarred letters left of all starred
ones) are closed under multiplication using only the relations above;
uu* + vv* = 1 is NOT a rewrite rule and holds only in the concrete
representation u e_k = e_{2k}, v e_k = e_{2k+1}, where equality is
decided by applying both sides to basis vectors.

The solver for the corrector sequence b works at two levels: exact
dyadic entries of the first iterate in the concrete representation, and
a certified interval recursion on norm bounds for everything after it
(the exact solution has no finite word table for n >= 3; its Neumann
series has unbounded coefficient mass even though the operator norms
contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .linops import NormInterval

WORD_PRUNE = 1e-14
_GEN = ("u", "v")


def _letters(part) -> tuple:
    if isinstance(part, str):
        return tuple(part)
    return tuple(str(c) for c in part)


class CuntzElement:
    """Finite linear combination of normal-form words w sigma*.

    Keys are (left, right) tuples of symbol strings; the element is
    sum coeff * left . right*. Letters other than 'u', 'v' are opaque
    atoms with no reduction rules.
    """

    __slots__ = ("table",)

    def __init__(self, table=None):
        t = {}
        for key, c in (table or {}).items():
            c = complex(c)
            if c != 0:
                t[key] = t.get(key, 0j) + c
        self.table = {k: c for k, c in t.items() if c != 0}

    def __add__(self, other: "CuntzElement") -> "CuntzElement":
        t = dict(self.table)
        for k, c in other.table.items():
            t[k] = t.get(k, 0j) + c
        return CuntzElement(t)

    def __neg__(self) -> "CuntzElement":
        return CuntzElement({k: -c for k, c in self.table.items()})

    def __sub__(self, other: "CuntzElement") -> "CuntzElement":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CuntzElement):
            return CuntzElement({k: c * complex(other) for k, c in self.table.items()})
        t: dict = {}
        for (w1, s1), c1 in self.table.items():
            for (w2, s2), c2 in other.table.items():
                red = _word_mul(w1, s1, w2, s2)
                if red is None:
                    continue
                c = c1 * c2
                if abs(c) <= WORD_PRUNE:
                    continue
                t[red] = t.get(red, 0j) + c
        return CuntzElement(t)

    def __rmul__(self, other) -> "CuntzElement":
        return self * other

    def adjoint(self) -> "CuntzElement":
        return CuntzElement({(s, w): c.conjugate() for (w, s), c in self.table.items()})

    def coeff(self, left, right=()) -> complex:
        return self.table.get((_letters(left), _letters(right)), 0j)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.table.values())

    @property
    def word_length(self) -> int:
        return max((max(len(w), len(s)) for w, s in self.table), default=0)

    @property
    def symbols(self) -> frozenset:
        syms = set()
        for w, s in self.table:
            syms.update(w)
            syms.update(s)
        return frozenset(syms)

    def prune(self, tol: float = WORD_PRUNE) -> "CuntzElement":
        return CuntzElement({k: c for k, c in self.table.items() if abs(c) > tol})

    def __eq__(self, other) -> bool:
        return isinstance(other, CuntzElement) and self.table == other.table

    def __hash__(self):
        return hash(frozenset(self.table.items()))

    def __repr__(self) -> str:
        if not self.table:
            return "CuntzElement(0)"
        parts = []
        for (w, s), c in sorted(self.table.items()):
            left = "".join(w) or "1"
            right = "".join(f"{a}*" for a in reversed(s))
            parts.append(f"({c:.6g})·{left}{right}")
        return "CuntzElement(" + " + ".join(parts) + ")"


def _word_mul(w1, s1, w2, s2):
    # cancel sigma1* against w2 letter by letter; None encodes the zero product
    i = 0
    while i < len(s1) and i < len(w2):
        a, b = s1[i], w2[i]
        if a not in _GEN or b not in _GEN:
            raise ValueError(
                "product leaves normal form: opaque symbol meets a starred generator"
            )
        if a != b:
            return None
        i += 1
    return w1 + w2[i:], s2 + s1[i:]


def word(left="", right="", coeff=1.0) -> CuntzElement:
    """Single word coeff * left . right*; strings are split into letters."""
    return CuntzElement({(_letters(left), _letters(right)): coeff})


def unit() -> CuntzElement:
    return word()


def zero() -> CuntzElement:
    return CuntzElement()


U = word("u")
V = word("v")
U_STAR = word(right="u")
V_STAR = word(right="v")


def commutator(x: CuntzElement, y: CuntzElement) -> CuntzElement:
    return x * y - y * x


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


def restriction_matrix(e: CuntzElement, depth: int) -> np.ndarray:
    """Matrix of e on the span of e_0..e_{2^depth - 1} (full images kept)."""
    n_cols = 1 << depth
    cols = [concrete_apply(e, {k: 1.0}) for k in range(n_cols)]
    n_rows = max((max(col) + 1 for col in cols if col), default=1)
    M = np.zeros((n_rows, n_cols), dtype=complex)
    for k, col in enumerate(cols):
        for idx, val in col.items():
            M[idx, k] = val
    return M


def norm_bounds(e: CuntzElement, depth: int, symbol_bounds=None) -> NormInterval:
    """Certified enclosure of the operator norm of e.

    hi is the coefficient sum (normal-form words are partial isometries;
    opaque atoms contribute their entry in symbol_bounds). lo is the
    largest singular value of the restriction to basis vectors with
    index < 2^depth, which is monotone nondecreasing in depth; elements
    with opaque atoms have no concrete action, so lo = 0 for them.
    """
    if depth < e.word_length:
        raise ValueError(f"depth {depth} < max word length {e.word_length}")
    opaque = e.symbols - set(_GEN)
    hi = 0.0
    for (w, s), c in e.table.items():
        scale = 1.0
        for sym in list(w) + list(s):
            if sym in _GEN:
                continue
            if symbol_bounds is None or sym not in symbol_bounds:
                raise ValueError(f"no bound supplied for symbol {sym!r}")
            scale *= float(symbol_bounds[sym])
        hi += abs(c) * scale
    if opaque:
        return NormInterval(0.0, hi)
    if not e.table:
        return NormInterval(0.0, 0.0)
    lo = float(np.linalg.norm(restriction_matrix(e, depth), 2))
    return NormInterval(min(lo, hi), hi)


class CuntzMatrix:
    """Square grid of elements, side >= 2."""

    __slots__ = ("grid", "n")

    def __init__(self, grid):
        rows = [tuple(row) for row in grid]
        n = len(rows)
        if n < 2 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square with side >= 2")
        for row in rows:
            for entry in row:
                if not isinstance(entry, CuntzElement):
                    raise ValueError("entries must be CuntzElement")
        self.grid = tuple(rows)
        self.n = n

    @staticmethod
    def identity(n: int) -> "CuntzMatrix":
        return CuntzMatrix(
            [[unit() if i == j else zero() for j in range(n)] for i in range(n)]
        )

    def __add__(self, other: "CuntzMatrix") -> "CuntzMatrix":
        self._check(other)
        return CuntzMatrix(
            [[self.grid[i][j] + other.grid[i][j] for j in range(self.n)]
             for i in range(self.n)]
        )

    def __sub__(self, other: "CuntzMatrix") -> "CuntzMatrix":
        self._check(other)
        return CuntzMatrix(
            [[self.grid[i][j] - other.grid[i][j] for j in range(self.n)]
             for i in range(self.n)]
        )

    def __matmul__(self, other: "CuntzMatrix") -> "CuntzMatrix":
        self._check(other)
        out = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                acc = zero()
                for k in range(self.n):
                    acc = acc + self.grid[i][k] * other.grid[k][j]
                row.append(acc)
            out.append(row)
        return CuntzMatrix(out)

    def _check(self, other):
        if not isinstance(other, CuntzMatrix) or other.n != self.n:
            raise ValueError("size mismatch")

    def entry(self, i: int, j: int) -> CuntzElement:
        return self.grid[i][j]


def matrix_iso(x: CuntzElement) -> CuntzMatrix:
    """Corner decomposition [[u*xu, u*xv], [v*xu, v*xv]]."""
    return CuntzMatrix(
        [
            [U_STAR * x * U, U_STAR * x * V],
            [V_STAR * x * U, V_STAR * x * V],
        ]
    )


def matrix_iso_inverse(M: CuntzMatrix) -> CuntzElement:
    """u a u* + u b v* + v c u* + v d v* for M = [[a, b], [c, d]]."""
    if M.n != 2:
        raise ValueError("inverse map expects a 2x2 matrix")
    a, b = M.grid[0]
    c, d = M.grid[1]
    return U * a * U_STAR + U * b * V_STAR + V * c * U_STAR + V * d * V_STAR


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


# --- certified fixed-point solver -----------------------------------------


@dataclass(frozen=True)
class SolveResult:
    """Certified norm data for the corrector sequence b_1..b_n.

    bounds[i-1] is a certified upper bound for ||b_i|| of the final
    iterate; residual bounds the sup norm of T b - a - dF(b) - dG(b,b).
    b_exact carries the finite closed form when one exists (n = 2).
    """

    n: int
    delta: float
    tol: float
    iterations: int
    contraction: float
    bounds: tuple
    first_bounds: tuple
    bound_limit: float
    bound_ok: bool
    residual: float
    residual_rows: tuple
    b_exact: Optional[tuple]

    def kernel_entry(self, i: int, p: int, q: int) -> Fraction:
        return kernel_entry(self.n, i, p, q)

    def first_iterate_entry(self, i: int, p: int, q: int) -> Fraction:
        return first_iterate_entry(self.n, i, p, q)


def solve_b(n: int, max_iters: int = 200, tol: float = 1e-10) -> SolveResult:
    """Iterate b <- R(a + dF(b) + dG(b,b)) on certified norm bounds.

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
        n=n,
        delta=delta,
        tol=tol,
        iterations=iterations,
        contraction=contraction,
        bounds=bounds,
        first_bounds=first_bounds,
        bound_limit=limit,
        bound_ok=max(bounds) <= limit,
        residual=max(residual_rows),
        residual_rows=residual_rows,
        b_exact=b_exact,
    )


# --- exact structural check of the commutator identity --------------------
#
# Free noncommutative polynomials over u, v, b_1..b_n with Fraction
# coefficients; the commutator identity below uses no relations at all,
# so this engine decides it coefficient-exactly (float coefficients
# would prune the delta^2 cross terms).


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, Fraction(0)) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _pscale(a: dict, c: Fraction) -> dict:
    return {k: v * c for k, v in a.items()} if c else {}

def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            k = wa + wb
            s = out.get(k, Fraction(0)) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _mat_commutator(A, B, n):
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                acc = _padd(acc, _pmul(A[i][k], B[k][j]))
                acc = _padd(acc, _pscale(_pmul(B[i][k], A[k][j]), Fraction(-1)))
            out[i][j] = acc
    return out


def _lemma_matrices(n: int):
    delta = Fraction(1, 2000 * n**5)
    inv = 1 / delta
    D = [[{} for _ in range(n)] for _ in range(n)]
    X = [[{} for _ in range(n)] for _ in range(n)]
    for r in range(n):
        D[r][r] = {("v",): inv}
        if r + 1 < n:
            X[r + 1][r] = {(): Fraction(1)}
            D[r + 1][r] = {("u",): inv}
            D[r][r + 1] = _padd(D[r][r + 1], {(): Fraction(r + 1)})
        i = r + 1
        D[r][n - 1] = _padd(D[r][n - 1], {(f"b{i}", "u"): Fraction(1)})
        X[r][n - 1] = _padd(X[r][n - 1], {(f"b{i}",): delta})
    return D, X, delta


@dataclass(frozen=True)
class LemmaReport:
    """Exact check that [D, X] - 1 lives in the last column only."""

    n: int
    off_column_zero: bool
    last_column_matches: bool

    @property
    def ok(self) -> bool:
        return self.off_column_zero and self.last_column_matches


def _scale_grid(M, n, mu: Fraction, shift: int):
    # conjugation by diag(mu^{n-1}, ..., mu, 1) times mu^shift
    return [
        [_pscale(M[i][j], mu ** (j - i + shift)) for j in range(n)]
        for i in range(n)
    ]


def lemma_structure(n: int, mu: Optional[Fraction] = None) -> LemmaReport:
    """Verify coefficient-exactly that the commutator of the triangular
    pair differs from the identity in the last column only, with the
    expected entries; mu rescales the pair by the diagonal similarity
    (the defect entry in row i scales by mu^{n-i})."""
    if n < 2:
        raise ValueError("n must be >= 2")
    D, X, delta = _lemma_matrices(n)
    scale = [Fraction(1)] * (n + 1)
    if mu is not None:
        mu = Fraction(mu)
        D = _scale_grid(D, n, mu, -1)
        X = _scale_grid(X, n, mu, 1)
        scale = [mu ** (n - i) for i in range(n + 1)]
    C = _mat_commutator(D, X, n)
    off = True
    for i in range(n):
        for j in range(n):
            expect = {(): Fraction(1)} if i == j else {}
            if j < n - 1 and C[i][j] != expect:
                off = False
    cmt = lambda a, b: _padd(_pmul(a, b), _pscale(_pmul(b, a), Fraction(-1)))
    sym = lambda name: {(name,): Fraction(1)}
    vv, uu = sym("v"), sym("u")
    bb = [None] + [sym(f"b{i}") for i in range(1, n + 1)]
    expected = []
    for i in range(1, n + 1):
        e = cmt(vv, bb[i])
        if i > 1:
            e = _padd(e, cmt(uu, bb[i - 1]))
        if i < n:
            e = _padd(e, _pscale(bb[i + 1], Fraction(i) * delta))
        e = _padd(e, _pscale(_pmul(bb[i], cmt(uu, bb[n])), delta))
        if i == n:
            # the (n, n) cell is diagonal, so the identity contributes there
            e = _padd(e, {(): Fraction(1 - n)})
        expected.append(_pscale(e, scale[i]))
    last = all(C[i][n - 1] == expected[i] for i in range(n))
    return LemmaReport(n=n, off_column_zero=off, last_column_matches=last)


# --- assembled matrices with certified bounds ------------------------------


@dataclass(frozen=True)
class DXBuild:
    """Rescaled pair D_mu, X_mu with certified norm and commutator data.

    Entries that involve the corrector b_i appear as opaque atoms
    "b{i}" bounded by b_bounds (for n = 2 the exact word tables are
    substituted). error_bound certifies ||[D_mu, X_mu] - 1||.
    """

    n: int
    mu: float
    delta: float
    D: CuntzMatrix
    X: CuntzMatrix
    D_interval: NormInterval
    X_interval: NormInterval
    error_bound: float
    b_bounds: dict
    structure: LemmaReport
    solution: SolveResult


def build_DX(n: int, mu: float = 0.5, tol: float = 1e-10,
             solution: Optional[SolveResult] = None) -> DXBuild:
    if not mu > 0:
        raise ValueError("mu must be positive")
    sol = solution if solution is not None else solve_b(n, tol=tol)
    if sol.n != n:
        raise ValueError("solution was computed for a different n")
    delta = sol.delta
    B = {i: sol.bounds[i - 1] for i in range(1, n + 1)}

    def bword(i: int) -> CuntzElement:
        if sol.b_exact is not None:
            return sol.b_exact[i - 1]
        return word((f"b{i}",))

    D = [[zero() for _ in range(n)] for _ in range(n)]
    X = [[zero() for _ in range(n)] for _ in range(n)]
    for r in range(n):
        i = r + 1
        D[r][r] = D[r][r] + (1.0 / (mu * delta)) * V
        if r + 1 < n:
            X[r + 1][r] = unit()
            D[r + 1][r] = (1.0 / (mu * mu * delta)) * U
            D[r][r + 1] = D[r][r + 1] + float(i) * unit()
        D[r][n - 1] = D[r][n - 1] + mu ** (n - i - 1) * (bword(i) * U)
        X[r][n - 1] = X[r][n - 1] + (mu ** (n - i + 1) * delta) * bword(i)

    D_hi = (
        1.0 / (mu * mu * delta)
        + 1.0 / (mu * delta)
        + (n - 1)
        + sum(mu ** (n - i - 1) * B[i] for i in range(1, n + 1))
    )
    D_lo = max(1.0 / (mu * mu * delta), 1.0 / (mu * delta), float(n - 1))
    X_hi = 1.0 + delta * sum(mu ** (n - i + 1) * B[i] for i in range(1, n + 1))

    if sol.b_exact is not None:
        b1, bn = sol.b_exact[0], sol.b_exact[-1]
        row1 = commutator(V, b1) + delta * sol.b_exact[1] \
            + delta * (b1 * commutator(U, bn))
        W_hi = sum(abs(c) for c in row1.table.values())
    else:
        W_hi = 2.0 * B[1] + delta * B[2] + 2.0 * delta * B[1] * B[n]
    rows = [W_hi] + list(sol.residual_rows)
    error = math.sqrt(
        sum((mu ** (n - i) * rows[i - 1]) ** 2 for i in range(1, n + 1))
    )
    return DXBuild(
        n=n,
        mu=float(mu),
        delta=delta,
        D=CuntzMatrix(D),
        X=CuntzMatrix(X),
        D_interval=NormInterval(min(D_lo, D_hi), D_hi),
        X_interval=NormInterval(1.0, X_hi),
        error_bound=error,
        b_bounds={f"b{i}": B[i] for i in range(1, n + 1)},
        structure=lemma_structure(n),
        solution=sol,
    )


@dataclass(frozen=True)
class BoundReport:
    """Norm growth and commutator decay certificates at one size."""

    n: int
    mu: float
    delta: float
    D_interval: NormInterval
    X_interval: NormInterval
    error_bound: float
    residual: float

    @property
    def d_scale(self) -> float:
        # ||D|| grows like n^5; this ratio stays bounded
        return self.D_interval.hi / self.n**5


def verify_bounds(n: int, mu: float = 0.5, tol: float = 1e-10) -> BoundReport:
    built = build_DX(n, mu=mu, tol=tol)
    return BoundReport(
        n=n,
        mu=built.mu,
        delta=built.delta,
        D_interval=built.D_interval,
        X_interval=built.X_interval,
        error_bound=built.error_bound,
        residual=built.solution.residual,
    )


def decay_reference(n1: int, n2: int) -> float:
    """Expected error-bound ratio between sizes: (n2/n1)^3 · 2^{-(n2-n1)}."""
    return (n2**3 / n1**3) * 2.0 ** (-(n2 - n1))


def finite_obstruction(D, X) -> float:
    """Distance ||[D, X] - I||_2 for concrete square matrices; always >= 1
    since the commutator is traceless."""
    D = np.atleast_2d(np.asarray(D, dtype=complex))
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    if D.shape != X.shape or D.shape[0] != D.shape[1]:
        raise ValueError("D and X must be square matrices of equal size")
    C = D @ X - X @ D - np.eye(D.shape[0])
    return float(np.linalg.norm(C, 2))
