"""Dense linear-algebra kernel: vector/operator p-norms with certified
intervals, inverses, Hermitian spectra and inverse square roots, ranks and
orthonormal range bases, the one exact matrix product and the one sampled
falsification loop.

``_Sparse`` is the only product of object-dtype matrices in framekit: a
matrix kept as its rows of nonzero (column, value) pairs.  The exact
dilations of ``vsdilate`` and the Cuntz pair of ``cuntz`` are built in
that form from the start, so their operators are never laid out dense
or read back from a dense array; ``_form`` reads only a small input
matrix.  A rational form holds Python ints over one common
denominator, so a product multiplies ints and no gcd is taken until a
form is filled out dense; any other ring's entries are kept and
multiplied as they are.  A Fraction array is read into the rational
form, any other object array into the generic one.  ``vsdilate`` keeps
its dilations as block forms: generic forms whose entries are rational
forms, the blocks of a grid, or ints c for c I.

``_falsify`` is the only seeded search for counterexamples to a
perturbation hypothesis, and ``Perturbation`` the verdict of all three
perturbation certificates: hframe, pasf and ovf. ``_falsify`` draws the
sample vectors in chunks of at most CHUNK entries and passes each chunk to
the caller's sides(C) as the rows of one matrix C; all three callers
evaluate a chunk's samples at once. sides(C) returns (lhs, rhs) with one
row per sample.

One kernel, ``_pnorm_rows``, takes every vector p-norm, the norms of the
rows of a matrix; ``vec_pnorm`` is that kernel on one row, so a norm
taken in a batch and the same norm taken alone are the same bits.

Operator norms for p outside {1, 2, inf} are NP-hard to compute exactly, so
they are reported as certified intervals: the lower end comes from a
multi-start normalized ascent (any feasible point is a valid lower bound),
the upper end, ``opnorm_upper``, from interpolation between the exact
p = 1 and p = inf norms, which at p = 1 and p = inf is that exact norm.
Mixed norms ||A||_{p_in -> p_out} are reported as a certified upper bound
only, ``opnorm_mixed_upper``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NotInvertible

SINGULAR_RTOL = 1e-10
CHUNK = 1 << 14  # entries per falsification draw and per pair-scan temporary


@dataclass(frozen=True)
class NormInterval:
    """Certified enclosure lo <= ||A|| <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi + 1e-15 * max(1.0, abs(self.hi))):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")
        if self.lo < 0:
            raise ValueError("norm interval must be nonnegative")


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex matrix, rejecting NaN/Inf and empty shapes."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("expected a nonempty 2-d matrix")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.size < 1:
        raise ValueError("expected a nonempty vector")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite")
    return v


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def identity_defect(M: np.ndarray) -> float:
    """max |M - I|, entrywise, for a square M; zero exactly when M = I."""
    return float(np.abs(M - np.eye(M.shape[0])).max())


def _check_p(p) -> float:
    p = float(p)
    if math.isnan(p) or p < 1:
        raise ValueError("p must satisfy 1 <= p <= inf")
    return p


def dual_exponent(p) -> float:
    p = _check_p(p)
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def vec_pnorm(x, p) -> float:
    """(sum |x_i|^p)^(1/p), or max |x_i| for p = inf: the row kernel
    ``_pnorm_rows`` on x as one row."""
    p = _check_p(p)
    return float(_pnorm_rows(as_vector(x)[None], p)[0])


def _apply_rows(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A x for every row x of X, as the rows of the result: one stacked
    product that runs, per row, the matrix-vector product A @ x runs."""
    return (A @ X[:, :, None])[:, :, 0]


def _norm_rows(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every row of X, bit for bit: the root of the BLAS
    dot of the row with itself, or of its real part plus that of its
    imaginary part, each dot a stacked (1, m) @ (m, 1) product."""
    def dots(Y):
        return (Y[:, None, :] @ Y[:, :, None])[:, 0, 0]

    if np.iscomplexobj(X):
        return np.sqrt(dots(X.real) + dots(X.imag))
    return np.sqrt(dots(X))


def _pnorm_rows(X: np.ndarray, p: float, v=None) -> np.ndarray:
    """The p-norm of every row of X, for a checked p, each row's sum
    reduced on its own: the max modulus factored out for p outside {1, 2, inf}, so a
    large p cannot overflow.  The entries are checked only for a row whose
    norm is not finite, as a non-finite entry always makes it.  v is
    np.abs(X), for a caller that already holds it."""
    v = np.abs(X) if v is None else v
    if p == 2:
        r = _norm_rows(v)
    elif p == 1:
        r = v.sum(axis=1)
    else:
        r = v.max(axis=1)  # the norm for p = inf
        if not math.isinf(p):
            ok = (r != 0) & (r != math.inf)
            if ok.all():
                ok = slice(None)  # every row, as a view
            s = np.power(v[ok] / r[ok, None], p).sum(axis=1)
            r[ok] *= np.float_power(s, 1.0 / p)  # libm pow, as float ** is
    for row in X[~np.isfinite(r)]:
        as_vector(row)
    return r


def _dual_rows(Y: np.ndarray, p: float, q: float, ay=None) -> np.ndarray:
    """For every row y of Y, g with <g, y> = ||y||_p and ||g||_q = 1, for a
    finite p and q = dual_exponent(p); a zero row gives a zero row.  ay is
    np.abs(Y), for a caller that already holds it.  The ascent runs only
    for p outside {1, 2, inf}, but it also maps by the dual exponent of
    its p, which is 1.0 once p is past about 2^53: there p = 1 here."""
    ay = np.abs(Y) if ay is None else ay
    live = ay.any(axis=1)
    if not live.all():
        G = np.zeros_like(Y)
        if live.any():
            G[live] = _dual_rows(Y[live], p, q, ay[live])
        return G
    pos = ay > 0
    phase = Y / ay if pos.all() else np.where(pos, Y / np.where(pos, ay, 1.0),
                                              0.0)
    if p == 1:
        return phase
    G = phase * (ay / ay.max(axis=1, keepdims=True)) ** (p - 1.0)
    return G / _pnorm_rows(G, q)[:, None]


def _ascent_lower(A: np.ndarray, p: float, seed: int) -> float:
    """Best ratio ||Ax||_p / ||x||_p found by dual-norm ascent.

    Every iterate is a feasible point, so the returned value is always a
    valid lower bound regardless of convergence. The starts ascend
    together as the rows of one matrix: each row takes the steps it would
    take alone, with one matrix-vector product per row, and leaves the
    matrix when its ascent stops.
    """
    m, d = A.shape
    rng = np.random.default_rng(seed)
    Ah, q = herm(A), dual_exponent(p)
    q_dual = dual_exponent(q)  # p again, up to rounding
    starts = [np.ones(d, dtype=complex)]
    starts += list(np.eye(d, dtype=complex)[: min(d, 8)])
    try:
        _, _, vh = np.linalg.svd(A)
        starts.append(vh[0].conj())
    except np.linalg.LinAlgError:
        pass
    for _ in range(8):
        starts.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    X = np.array(starts)
    nx = _pnorm_rows(X, p)
    X, nx = X[nx != 0], nx[nx != 0]
    Y = _apply_rows(A, X / nx[:, None])
    ay = np.abs(Y)
    val = _pnorm_rows(Y, p, ay)
    # the value each start stops at; their order is immaterial, as max
    # passes over a nan anywhere after the first value 0.0
    done = [0.0]
    for _ in range(60):
        if not len(val):
            break
        # a zero row of A* g gives a zero iterate, which stops below
        Z = _apply_rows(Ah, _dual_rows(Y, p, q, ay))
        X = _dual_rows(Z, q, q_dual).conj()
        nx = _pnorm_rows(X, p)
        go = nx != 0
        if not go.all():
            done += val[~go].tolist()
            X, nx, val = X[go], nx[go], val[go]
        Y = _apply_rows(A, X / nx[:, None])
        ay = np.abs(Y)
        val_new = _pnorm_rows(Y, p, ay)
        go = ~(val_new <= val * (1 + 1e-14))
        if not go.all():
            done += np.where(val_new > val, val_new, val)[~go].tolist()
            Y, ay, val_new = Y[go], ay[go], val_new[go]
        val = val_new
    return max(done + val.tolist())


def _norm_1(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=0).max())


def _norm_inf(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=1).max())


def _norms2(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a (..., r, c) stack."""
    return np.linalg.svd(stack, compute_uv=False).max(axis=-1)


def _norm_2(A: np.ndarray) -> float:
    return float(_norms2(A))


def _vec_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def _powers(A: np.ndarray, n: int) -> list:
    return [np.linalg.matrix_power(A, k) for k in range(n)]


def opnorm_upper(A, p) -> float:
    """Certified upper bound for the operator norm of A on the p-norm.

    Exact for p in {1, 2, inf}; otherwise the interpolation bound
    ||A||_1^(1/p) * ||A||_inf^(1-1/p), which is ||A||_1 at p = 1 and
    ||A||_inf at p = inf, as x ** 1.0 == x and x ** 0.0 == 1.0.
    """
    A = as_matrix(A)
    p = _check_p(p)
    if p == 2:
        return _norm_2(A)
    return _norm_1(A) ** (1.0 / p) * _norm_inf(A) ** (1.0 - 1.0 / p)


def opnorm_interval(A, p, seed: int = 0) -> NormInterval:
    """Certified interval for the operator norm of A on the p-norm: hi is
    ``opnorm_upper``, lo equals it for p in {1, 2, inf} and is otherwise an
    ascent value."""
    A, p = as_matrix(A), _check_p(p)
    hi = opnorm_upper(A, p)
    if p in (1, 2) or math.isinf(p):
        return NormInterval(hi, hi)
    return NormInterval(min(_ascent_lower(A, p, seed), hi), hi)


def opnorm_mixed_upper(A, p_in, p_out) -> float:
    """Certified upper bound for ||A||_{p_in -> p_out}: ``opnorm_upper`` for
    p_in = p_out; otherwise the minimum of a Hoelder column bound, a
    Euclidean embedding bound and, for p_in = 2 < p_out, interpolation
    between the exact 2->2 and 2->inf norms."""
    A = as_matrix(A)
    p_in, p_out = _check_p(p_in), _check_p(p_out)
    if p_in == p_out:
        return opnorm_upper(A, p_in)
    m, d = A.shape
    q_in = dual_exponent(p_in)
    cols = np.array([vec_pnorm(A[:, j], p_out) for j in range(d)])
    hi = vec_pnorm(cols, q_in)
    smax = _norm_2(A)
    embed = (m ** max(1.0 / p_out - 0.5, 0.0)
             * smax * d ** max(0.5 - 1.0 / p_in, 0.0))
    hi = min(hi, embed)
    if p_in == 2 and p_out > 2:
        theta = 2.0 / p_out
        two_inf = max(vec_pnorm(A[i, :], 2) for i in range(m))
        hi = min(hi, smax ** theta * two_inf ** (1.0 - theta))
    return hi


@dataclass(frozen=True)
class Perturbation:
    """A perturbation certificate: its verdict, the frame bounds it predicts
    (None for no prediction) and the figures it was decided on."""

    mode: str
    valid: bool
    predicted_bounds: tuple[float, float] | None
    detail: dict = field(default_factory=dict)


def _falsify(sides, size: int, samples: int, seed: int) -> tuple[bool, dict]:
    """Seek lhs > rhs + 1e-12 over seeded complex vectors c of length size;
    returns whether none was found and a detail with the largest lhs - rhs
    seen.

    The vectors are drawn in chunks of at most CHUNK entries, as the rows
    of C = z[:, 0] + 1j z[:, 1] with z = standard_normal((rows, 2, size)):
    the stream of two standard_normal(size) draws per sample, so memory is
    bounded by the chunk, not by samples. sides(C) returns the arrays
    (lhs, rhs) with one row per row of C: one pair, or a row of pairs, per
    sample, taken in sample order and then along the row.  hframe, pasf
    and ovf each evaluate a whole chunk at once, as stacked products.
    """
    rng = np.random.default_rng(seed)
    holds, worst = True, -math.inf
    step = max(1, CHUNK // size)
    for done in range(0, samples, step):
        z = rng.standard_normal((min(step, samples - done), 2, size))
        C = z[:, 0] + 1j * z[:, 1]
        lhs, rhs = (np.asarray(x, dtype=float) for x in sides(C))
        if np.any(lhs > rhs + 1e-12):
            holds = False
        # the first of the greatest non-nan margins, as the running
        # max(worst, lhs - rhs) over one pair at a time kept it (0.0 and
        # -0.0 tie); all nan leaves worst as it is
        d = (lhs - rhs).ravel()
        if d.size:
            worst = max(worst, float(d[np.argmax(d == np.fmax.reduce(d))]))
    note = "hypothesis falsification-tested on samples, not proven"
    return holds, {"samples": samples, "worst_margin": worst, "note": note}


def singular_extremes(A) -> tuple[float, float]:
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
    return float(s[-1]), float(s[0])


def is_invertible(A) -> bool:
    smin, smax = singular_extremes(A)
    return smax > 0 and smin / smax > SINGULAR_RTOL


def inverse(A) -> np.ndarray:
    """Inverse of a square matrix; singularity decided by sigma_min/sigma_max."""
    A = as_matrix(A)
    smin, smax = singular_extremes(A)
    if smax == 0 or smin / smax <= SINGULAR_RTOL:
        raise NotInvertible(
            f"singular to working precision (sigma ratio {0 if smax == 0 else smin / smax:.3e})")
    return np.linalg.solve(A, np.eye(A.shape[0], dtype=complex))


def hermitian_extremes(S) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of a Hermitian matrix."""
    S = as_matrix(S)
    w = np.linalg.eigvalsh((S + herm(S)) / 2)
    return float(w[0]), float(w[-1])


def inverse_sqrt(S: np.ndarray) -> np.ndarray:
    """S^(-1/2) of a Hermitian positive definite S, from its eigenvectors."""
    w, Q = np.linalg.eigh(S)
    return Q @ np.diag(1.0 / np.sqrt(w)) @ herm(Q)


def _rank(s: np.ndarray, floor: float) -> int:
    """How many singular values s (largest first) exceed
    SINGULAR_RTOL * max(floor, s[0])."""
    return int((s > SINGULAR_RTOL * max(floor, s[0])).sum())


def rank(A: np.ndarray) -> int:
    """Numerical rank: the singular values above 1e-10 max(1, sigma_max)."""
    return _rank(np.linalg.svd(A, compute_uv=False), 1.0)


def range_basis(M: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of range(M): the left singular vectors whose
    singular value exceeds SINGULAR_RTOL * max(floor, sigma_max)."""
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, :_rank(s, floor)]


def complement_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(M)^perp for an M of full column rank: the
    left singular vectors past its columns."""
    return np.linalg.svd(M)[0][:, M.shape[1]:]


class _Sparse:
    """An object matrix as its rows of nonzero (column, value) pairs, in
    increasing column, and its shape; products share rows, so none is
    changed.  A rational form holds Python ints over one positive common
    denominator ``den``, cell (i, j) reading x / den; a generic form
    (``den`` None) holds ring elements with +, * and a falsy zero.

    A block form is a generic form of h x w blocks, ``block`` = (h, w):
    each entry a rational form over its own den or an int c for c I (the
    1 a product passes through); a zero block has no pair.  So a
    rational form is a ring element: * and + take a form or an int, and
    it is false when every cell is zero.  A product shares an empty row
    and skips a pair that meets one, so zero blocks cost nothing."""

    def __init__(self, rows: list, cols: int, den=None, block=None):
        self.rows, self.shape = rows, (len(rows), cols)
        self.den, self.block = den, block

    def __matmul__(self, other: "_Sparse") -> "_Sparse":
        """Row by row (Gustavson): row i sums a * b over its pairs (k, a),
        in increasing k, against the pairs (j, b) of row k, as the dense
        loop does.  An empty row of either factor costs nothing: an empty
        row of self is shared as it is, and a pair (k, a) whose row k is
        empty is skipped before a is tested.  A factor equal to 1 adds b
        itself (a row of one pair (k, 1) is row k of other); a cell that
        cancels to zero is dropped.  Rational forms multiply their ints,
        never reduced, over the product of the two denominators."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by a "
                             f"{other.shape} matrix")
        den = self.den * other.den if _rational(self, other) else None
        right, out = other.rows, []
        for row in self.rows:
            if not row:
                out.append(row)
                continue
            k, a = row[0]
            if len(row) == 1 and (not right[k] or a == 1):
                out.append(right[k])
                continue
            acc = {}
            for k, a in row:
                if not right[k]:
                    continue
                one = a == 1
                for j, b in right[k]:
                    ab = b if one else a * b
                    acc[j] = acc[j] + ab if j in acc else ab
            out.append([(j, x) for j, x in sorted(acc.items()) if x])
        block = None if self.block is None else (self.block[0],
                                                 other.block[1])
        return _Sparse(out, other.shape[1], den, block)

    def __mul__(self, other) -> "_Sparse":
        """The product of two blocks, or c times a block for an int c on
        either side (the block itself for c = 1)."""
        if type(other) is _Sparse:
            return self @ other
        if other == 1:
            return self
        return _Sparse([[(j, x * other) for j, x in row]
                        for row in self.rows], self.shape[1], self.den)

    __rmul__ = __mul__

    def __add__(self, other) -> "_Sparse":
        """The sum of two rational forms of one shape, or of a square form
        and c I for an int c, over the den of ``_common``; a cell that
        cancels to zero is dropped."""
        if type(other) is int:
            other = _Sparse([[(i, other)] for i in range(self.shape[0])],
                            self.shape[1], 1)
        a_rows, b_rows, den = _common(self, other)
        rows = []
        for a, b in zip(a_rows, b_rows):
            acc = dict(a)
            for j, x in b:
                acc[j] = acc[j] + x if j in acc else x
            rows.append([(j, x) for j, x in sorted(acc.items()) if x])
        return _Sparse(rows, self.shape[1], den)

    __radd__ = __add__

    def __bool__(self) -> bool:
        return any(self.rows)

    @property
    def T(self) -> "_Sparse":
        """The transpose, its rows in increasing column; a block form's
        blocks are transposed too."""
        rows = [[] for _ in range(self.shape[1])]
        for i, row in enumerate(self.rows):
            for j, x in row:
                rows[j].append((i, x.T if type(x) is _Sparse else x))
        block = None if self.block is None else self.block[::-1]
        return _Sparse(rows, self.shape[0], self.den, block)

    def dense(self, zero) -> np.ndarray:
        """The object array, zero in every cell without a pair; a rational
        form's cells are filled out as reduced Fractions, and a block
        form's blocks in place, c I for an int c."""
        if self.block is not None:
            h, w = self.block
            out = np.full((self.shape[0] * h, self.shape[1] * w), zero,
                          dtype=object)
            for i, row in enumerate(self.rows):
                for j, x in row:
                    cell = out[i * h:(i + 1) * h, j * w:(j + 1) * w]
                    if type(x) is int:
                        np.fill_diagonal(cell, zero + x)
                    else:
                        cell[...] = x.dense(zero)
            return out
        out = np.full(self.shape, zero, dtype=object)
        for i, row in enumerate(self.rows):
            cells = [x for _, x in row]
            if self.den is not None:
                cells = [Fraction(x, self.den) for x in cells]
            out[i, [j for j, _ in row]] = cells
        return out


def _rational(A: _Sparse, B: _Sparse) -> bool:
    """Whether two forms to be combined are rational; one of each field
    is refused."""
    if (A.den is None) != (B.den is None):
        raise TypeError("cannot combine a rational form with a generic one")
    return A.den is not None


def _common(A: _Sparse, B: _Sparse) -> tuple:
    """The rows of two rational forms over one den, and that den: their
    own when the dens agree, else both cross-multiplied onto the lcm."""
    if A.den == B.den:
        return A.rows, B.rows, A.den
    g = math.gcd(A.den, B.den)
    ka, kb = B.den // g, A.den // g
    return ([[(j, a * ka) for j, a in row] for row in A.rows],
            [[(j, b * kb) for j, b in row] for row in B.rows], A.den * ka)


def _form(M: np.ndarray):
    """An object array M as products take it: read into its sparse form,
    with one truthiness test per cell.  The field is the type of M's
    entries, read off its first cell: an array of Fractions is read into
    ints over the lcm of its denominators, any other object array keeps
    its entries."""
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in M.tolist()]
    if not M.size or type(M.flat[0]) is not Fraction:
        return _Sparse(rows, M.shape[1])
    den = math.lcm(*{x.denominator for row in rows for _, x in row})
    return _Sparse([[(j, x.numerator * (den // x.denominator)) for j, x in row]
                    for row in rows], M.shape[1], den)
