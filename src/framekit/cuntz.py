"""Word algebra for a pair of isometries u, v with u*u = v*v = 1 and
u*v = v*u = 0, and the almost-commuting triangular matrix pair built on
top of it.

Normal-form words w sigma* (all unstarred letters left of all starred
ones) are closed under multiplication using only the relations above;
uu* + vv* = 1 is NOT a rewrite rule and holds only in the concrete
representation u e_k = e_{2k}, v e_k = e_{2k+1}.  That representation,
and the exact dyadic entries of the corrector's first iterate in it, are
test oracles (``tests/oracles.py``): the tests decide equality of words
on basis vectors with it and check the solver's first bounds against it.

The solver for the corrector sequence b is a certified interval
recursion on norm bounds (the exact solution has no finite word table
for n >= 3; its Neumann series has unbounded coefficient mass even
though the operator norms contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .linops import NormInterval, _norm_2, _norms2, _Sparse

WORD_PRUNE = 1e-14
_UNIT = ((), 0, 0)  # the key of _Poly's unit, coefficient 1
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

    @staticmethod
    def _of(table: dict) -> "CuntzElement":
        """The element of a table as __init__ leaves one: nonzero complex
        coefficients with no part -0.0 (its 0j + c makes one 0.0, and a
        sum of two such coefficients has none)."""
        out = object.__new__(CuntzElement)
        out.table = table
        return out

    def __add__(self, other: "CuntzElement") -> "CuntzElement":
        t = dict(self.table)
        for k, c in other.table.items():
            t[k] = t[k] + c if k in t else c
            if not t[k]:
                del t[k]
        return CuntzElement._of(t)

    def __neg__(self) -> "CuntzElement":
        return CuntzElement({k: -c for k, c in self.table.items()})

    def __sub__(self, other: "CuntzElement") -> "CuntzElement":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CuntzElement):
            z = complex(other)
            return CuntzElement._of({k: v for k, c in self.table.items()
                                     if (v := 0j + c * z)})
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

    def __bool__(self) -> bool:
        return bool(self.table)


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


U = word("u")
V = word("v")


def commutator(x: CuntzElement, y: CuntzElement) -> CuntzElement:
    return x * y - y * x


# --- certified fixed-point solver -----------------------------------------


@dataclass(frozen=True)
class SolveResult:
    """Certified norm data for the corrector sequence b_1..b_n.

    bounds[i-1] is a certified upper bound for ||b_i|| of the final
    iterate; residual bounds the sup norm of T b - a - dF(b) - dG(b,b).
    b_exact carries the finite closed form when one exists (n = 2).
    """

    delta: float
    iterations: int
    contraction: float
    bounds: tuple
    first_bounds: tuple
    bound_limit: float
    residual: float
    residual_rows: tuple
    b_exact: Optional[tuple]


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
    delta = 1.0 / (2000 * n**5)
    js = range(2, n + 1)
    w = [math.sqrt(2.0 - (j * j) / (n * n)) for j in js]
    scale = [x * 8 * n * n for x in w]

    # lists run over j = 2..n (y, w, scale) or i = 1..n (the bounds)
    def rmap(yb: list) -> list:
        peak = max(y / x for y, x in zip(yb, w))
        zb = [0.0] + [c * peak for c in scale] + [0.0]
        return [0.5 * math.hypot(a, b) for a, b in zip(zb, zb[1:])]

    def ymap(B: list) -> list:
        return [(float(n) if j == n else 0.0)
                + delta * (j * B[j] if j < n else 0.0)
                + 2.0 * delta * B[j - 1] * B[-1] for j in js]

    def dmap(Dlt: list, B: list, B_prev: list) -> list:
        return [delta * (j * Dlt[j] if j < n else 0.0)
                + 2.0 * delta * (Dlt[j - 1] * B[-1] + B_prev[j - 1] * Dlt[-1])
                for j in js]

    B = rmap([0.0] * (n - 2) + [float(n)])
    first_bounds = tuple(B)
    B_prev = None
    Dlt = None
    contraction = math.inf
    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        if Dlt is None:
            Dlt_new = rmap([delta * (j * B[j] if j < n else 0.0)
                            + 2.0 * delta * B[j - 1] * B[-1] for j in js])
        else:
            Dlt_new = rmap(dmap(Dlt, B, B_prev))
            contraction = max(a / b for a, b in zip(Dlt_new, Dlt) if b > 0)
        B_new = [min(a, b + d) for a, b, d in zip(rmap(ymap(B)), B, Dlt_new)]
        B_prev, B, Dlt = B, B_new, Dlt_new
        if max(Dlt) < tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(iterations, contraction, max(Dlt))

    residual_rows = tuple(dmap(Dlt, B, B_prev))
    bounds = tuple(B)
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


# --- exact structural check of the commutator identity --------------------
#
# Free noncommutative polynomials over u, v, b_1..b_n whose scalars mu and
# delta are commuting symbols, with int coefficients: the commutator
# identity below uses no relations at all, so it is decided in this ring
# first, coefficient-exactly and with no Fraction (float coefficients
# would prune the delta^2 cross terms).  Only a cell whose difference is
# left over is evaluated, with Fractions, at the given mu and delta, so
# each verdict is the one the evaluated ring would give.  D and X are
# built as linops._Sparse forms of such polynomials, rows of their
# nonzero cells, and multiplied in that form: empty cells are never
# stored or multiplied, + and - return at once on an empty operand, and
# * forms no term for one (a _Poly is never changed, so cells may share
# one).


class _Poly(dict):
    """(word, i, j) -> nonzero int, the key standing for mu^i delta^j word
    with i and j any ints; the empty polynomial is falsy.  The constructor
    drops zero terms; the operations build their results directly and
    test only the sums where two keys meet, since a product or negation
    of nonzero ints is never zero."""

    def __init__(self, terms=()):
        super().__init__((k, c) for k, c in dict(terms).items() if c)

    @staticmethod
    def _of(terms) -> "_Poly":
        """The _Poly of terms whose coefficients are all nonzero."""
        out = dict.__new__(_Poly)
        out.update(terms)
        return out

    def __add__(self, other: "_Poly") -> "_Poly":
        if not other or not self:
            return self or other
        out = _Poly._of(self)
        for k, c in other.items():
            if k in out:
                c = out[k] + c
                if not c:
                    del out[k]
                    continue
            out[k] = c
        return out

    def __neg__(self) -> "_Poly":
        return _Poly._of((k, -c) for k, c in self.items())

    def __sub__(self, other: "_Poly") -> "_Poly":
        return self + -other if other else self

    def __mul__(self, other: "_Poly") -> "_Poly":
        # the unit gives the other factor itself, two terms one term
        if len(other) == 1 and other.get(_UNIT) == 1:
            return self
        if len(self) == 1 and self.get(_UNIT) == 1:
            return other
        if len(self) == len(other) == 1:
            ((wa, ia, ja), ca), = self.items()
            ((wb, ib, jb), cb), = other.items()
            return _Poly._of({(wa + wb, ia + ib, ja + jb): ca * cb})
        out = _Poly._of(())
        for (wa, ia, ja), ca in self.items():
            for (wb, ib, jb), cb in other.items():
                k = (wa + wb, ia + ib, ja + jb)
                out[k] = out[k] + ca * cb if k in out else ca * cb
        # a key reached twice may have summed to zero
        return out if len(out) == len(self) * len(other) else _Poly(out)

    def __rmul__(self, c) -> "_Poly":
        # a scalar on the left
        if not c:
            return _Poly()
        return _Poly._of((k, c * v) for k, v in self.items())

    def __pow__(self, k: int) -> "_Poly":
        # a scalar monomial c mu^i delta^j; a negative k needs c = +-1
        ((w, i, j), c), = self.items()
        if w or k < 0 and c * c != 1:
            raise ValueError("only a unit scalar monomial has an inverse")
        return _Poly._of({((), i * k, j * k): c ** abs(k)})

    def __rtruediv__(self, c) -> "_Poly":
        return c * self ** -1


def _pair(n: int, mu, delta, b, u, v, one) -> tuple[_Sparse, _Sparse]:
    """The triangular pair D_mu, X_mu as sparse forms over the ring of
    u, v, one and b = (b_1, ..., b_n): the mu = 1 pair conjugated by
    diag(mu^{n-1}, ..., mu, 1), times 1/mu on D and mu on X. The scalars
    mu and delta are floats for dx_matrices and the monomials mu and delta
    of _Poly for the exact lemma.  The b term of a row goes to its last
    column, added to what the row already holds there or to the ring's
    empty element; a row's cells are laid out in increasing column and
    empty ones are left out.  The cells below and on the diagonal hold one
    shared u and v term each."""
    zero = type(one)()
    du, dv = (1 / (mu * mu * delta)) * u, (1 / (mu * delta)) * v
    D, X = [], []
    for r in range(n):
        i = r + 1
        d = {r - 1: du} if r else {}
        d[r] = dv
        if i < n:
            d[i] = i * one
        d[n - 1] = d.get(n - 1, zero) + mu ** (n - i - 1) * (b[r] * u)
        x = {r - 1: one} if r else {}
        x[n - 1] = zero + (mu ** (n - i + 1) * delta) * b[r]
        D.append([(j, c) for j, c in d.items() if c])
        X.append([(j, c) for j, c in x.items() if c])
    return _Sparse(D, n), _Sparse(X, n)


@dataclass(frozen=True)
class LemmaReport:
    """Exact check that [D, X] - 1 lives in the last column only."""

    off_column_zero: bool
    last_column_matches: bool

    @property
    def ok(self) -> bool:
        return self.off_column_zero and self.last_column_matches


def lemma_structure(n: int, mu: Optional[Fraction] = None) -> LemmaReport:
    """Verify coefficient-exactly that the commutator of the triangular
    pair differs from the identity in the last column only, with the
    expected entries, on the pair D_mu, X_mu that dx_matrices writes out
    (mu = None is mu = 1; the defect entry in row i scales by mu^{n-i}).
    The pair is laid out and multiplied over _Poly, with mu and delta as
    symbols; a cell is equal to what it should be when the two agree in
    that ring, and otherwise when their difference vanishes at the given
    mu and delta = 1/(2000 n^5), evaluated with Fractions."""
    mu = Fraction(1 if mu is None else mu)
    delta = Fraction(1, 2000 * n**5)
    sym = lambda w, i=0, j=0: _Poly._of({(w, i, j): 1})
    b = [f"b{i}" for i in range(1, n + 1)]
    one, empty = sym(()), _Poly()
    D, X = _pair(n, sym((), 1), sym((), 0, 1), [sym((x,)) for x in b],
                 sym(("u",)), sym(("v",)), one)

    def expected(r):
        # mu^{n-i} ([v, b_i] + [u, b_{i-1}] + i delta b_{i+1}
        # + delta b_i [u, b_n]) in row i = r + 1, and 1 - n on the diagonal
        e, t = n - r - 1, {((), 0, 0): 1 - n} if r == n - 1 else {}
        t.update({(("v", b[r]), e, 0): 1, ((b[r], "v"), e, 0): -1,
                  ((b[r], "u", b[-1]), e, 1): 1,
                  ((b[r], b[-1], "u"), e, 1): -1})
        if r:
            t.update({(("u", b[r - 1]), e, 0): 1, ((b[r - 1], "u"), e, 0): -1})
        if r < n - 1:
            t[(b[r + 1],), e, 1] = r + 1
        return _Poly._of(t)

    def equal(p, q):
        # equal in _Poly, or else their difference is zero at mu, delta
        if p == q:
            return True
        value = {}
        for (w, i, j), c in (p - q).items():
            value[w] = value.get(w, 0) + c * mu**i * delta**j
        return not any(value.values())

    # row i of C = D X - X D from the two products' rows, whose cells are
    # nonzero: C's diagonal and last column are taken as differences, and
    # every other cell, present in one product or both, is the difference
    # of the two (the empty polynomial where one is absent)
    off = last = True
    for i, (dx, xd) in enumerate(zip((D @ X).rows, (X @ D).rows)):
        a, c = dict(dx), dict(xd)
        cell = a.pop(n - 1, empty) - c.pop(n - 1, empty)
        last = last and equal(cell, expected(i))
        if i < n - 1:
            off = off and equal(a.pop(i, empty) - c.pop(i, empty), one)
        off = off and all(equal(a.get(j, empty), c.get(j, empty))
                          for j in a.keys() | c.keys())
    return LemmaReport(off_column_zero=off, last_column_matches=last)


# --- assembled matrices with certified bounds ------------------------------


@dataclass(frozen=True)
class DXBuild:
    """Certified norm and commutator data of the rescaled pair D_mu, X_mu
    that ``dx_matrices`` writes out, through the bounds b_bounds on the
    corrector's ||b_i||: error_bound certifies ||[D_mu, X_mu] - 1||, whose
    shape ``lemma_structure(n, mu)`` certifies."""

    n: int
    delta: float
    D_interval: NormInterval
    X_interval: NormInterval
    error_bound: float
    b_bounds: dict
    solution: SolveResult


def build_DX(n: int, mu: float = 0.5, tol: float = 1e-10) -> DXBuild:
    sol = solve_b(n, tol=tol)
    delta = sol.delta
    B = {i: sol.bounds[i - 1] for i in range(1, n + 1)}
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
        delta=delta,
        D_interval=NormInterval(min(D_lo, D_hi), D_hi),
        X_interval=NormInterval(1.0, X_hi),
        error_bound=error,
        b_bounds={f"b{i}": B[i] for i in range(1, n + 1)},
        solution=sol,
    )


def dx_matrices(sol: SolveResult, mu: float) -> tuple[_Sparse, _Sparse]:
    """The pair D_mu, X_mu as sparse forms of CuntzElement, for the
    corrector solved in sol. Entries that involve b_i appear as opaque
    atoms "b{i}" (for n = 2 the exact word tables are substituted)."""
    n = len(sol.bounds)
    b = sol.b_exact or [word((f"b{i}",)) for i in range(1, n + 1)]
    return _pair(n, mu, sol.delta, b, U, V, unit())


def decay_reference(n1: int, n2: int) -> float:
    """Expected error-bound ratio between sizes: (n2/n1)^3 · 2^{-(n2-n1)}."""
    return (n2**3 / n1**3) * 2.0 ** (-(n2 - n1))


def finite_obstruction(D, X):
    """||[D, X] - I||_2 of square matrices (a float) or of each pair of two
    (..., n, n) stacks; always >= 1 since the commutator is traceless."""
    D = np.atleast_2d(np.asarray(D, dtype=complex))
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    C = D @ X - X @ D - np.eye(D.shape[-1])
    return _norm_2(C) if C.ndim == 2 else _norms2(C)
