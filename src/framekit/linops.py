"""Dense linear-algebra kernel: vector/operator p-norms with certified
intervals, inverses, Hermitian spectra.

Operator norms for p outside {1, 2, inf} are NP-hard to compute exactly, so
they are reported as certified intervals: the lower end comes from a
multi-start normalized ascent (any feasible point is a valid lower bound),
the upper end from interpolation between the exact p = 1 and p = inf norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible

EQ_TOL = 1e-9
SINGULAR_RTOL = 1e-10


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

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


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
    return a.conj().T


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
    """(sum |x_i|^p)^(1/p), or max |x_i| for p = inf."""
    p = _check_p(p)
    v = np.abs(as_vector(x))
    if math.isinf(p):
        return float(v.max())
    if p == 1:
        return float(v.sum())
    if p == 2:
        return float(np.linalg.norm(v))
    mx = float(v.max())
    if mx == 0.0:
        return 0.0
    # factor out the max to avoid overflow for large p
    return mx * float(np.power(v / mx, p).sum()) ** (1.0 / p)


def _dual_vector(y: np.ndarray, p: float) -> np.ndarray:
    """A vector g with <g, y> = ||y||_p and ||g||_q = 1 (q dual to p)."""
    ay = np.abs(y)
    if not ay.any():
        return np.zeros_like(y)
    phase = np.where(ay > 0, y / np.where(ay > 0, ay, 1.0), 0.0)
    if p == 1:
        return phase
    if math.isinf(p):
        g = np.zeros_like(y)
        k = int(np.argmax(ay))
        g[k] = phase[k]
        return g
    w = (ay / ay.max()) ** (p - 1.0)
    g = phase * w
    return g / vec_pnorm(g, dual_exponent(p))


def _ascent_lower(A: np.ndarray, p_in: float, p_out: float, seed: int,
                  starts: int, iters: int = 60) -> float:
    """Best ratio ||Ax||_p_out / ||x||_p_in found by dual-norm ascent.

    Every iterate is a feasible point, so the returned value is always a
    valid lower bound regardless of convergence.
    """
    m, d = A.shape
    rng = np.random.default_rng(seed)
    q_in = dual_exponent(p_in)
    best = 0.0
    starts_list = [np.ones(d, dtype=complex)]
    starts_list += [e for e in np.eye(d, dtype=complex)[: min(d, 8)]]
    try:
        _, _, vh = np.linalg.svd(A)
        starts_list.append(vh[0].conj())
    except np.linalg.LinAlgError:
        pass
    for _ in range(starts):
        starts_list.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    for x in starts_list:
        x = np.asarray(x, dtype=complex)
        nx = vec_pnorm(x, p_in)
        if nx == 0:
            continue
        x = x / nx
        val = vec_pnorm(A @ x, p_out)
        for _ in range(iters):
            y = A @ x
            g = _dual_vector(y, p_out)
            z = herm(A) @ g
            if not np.abs(z).any():
                break
            x_new = _dual_vector(z, q_in).conj()
            nx = vec_pnorm(x_new, p_in)
            if nx == 0:
                break
            x_new = x_new / nx
            val_new = vec_pnorm(A @ x_new, p_out)
            if val_new <= val * (1 + 1e-14):
                val = max(val, val_new)
                break
            x, val = x_new, val_new
        best = max(best, val)
    return best


def _norm_1(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=0).max())


def _norm_inf(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=1).max())


def _norm_2(A: np.ndarray) -> float:
    return float(np.linalg.svd(A, compute_uv=False)[0])


def opnorm_interval(A, p, seed: int = 0, starts: int = 8) -> NormInterval:
    """Certified interval for the operator norm of A on the p-norm.

    Exact for p in {1, 2, inf}; otherwise lo is an ascent value and hi is the
    interpolation bound ||A||_1^(1/p) * ||A||_inf^(1-1/p).
    """
    A = as_matrix(A)
    p = _check_p(p)
    if p == 1:
        v = _norm_1(A)
        return NormInterval(v, v)
    if math.isinf(p):
        v = _norm_inf(A)
        return NormInterval(v, v)
    if p == 2:
        v = _norm_2(A)
        return NormInterval(v, v)
    hi = _norm_1(A) ** (1.0 / p) * _norm_inf(A) ** (1.0 - 1.0 / p)
    lo = _ascent_lower(A, p, p, seed=seed, starts=starts)
    lo = min(lo, hi)
    return NormInterval(lo, hi)


def opnorm_mixed_interval(A, p_in, p_out, seed: int = 0,
                          starts: int = 8) -> NormInterval:
    """Certified interval for ||A||_{p_in -> p_out}.

    Exact cases: p_in = p_out in {1, 2, inf}; p_in = 1 (max column p_out-norm);
    p_out = inf (max row dual-norm). Otherwise lo by ascent and hi as the
    minimum of a Hoelder column bound, a Euclidean embedding bound and, for
    p_in = 2 <= p_out, interpolation between the exact 2->2 and 2->inf norms.
    """
    A = as_matrix(A)
    p_in, p_out = _check_p(p_in), _check_p(p_out)
    if p_in == p_out:
        return opnorm_interval(A, p_in, seed=seed, starts=starts)
    m, d = A.shape
    if p_in == 1:
        v = max(vec_pnorm(A[:, j], p_out) for j in range(d))
        return NormInterval(v, v)
    if math.isinf(p_out):
        q_in = dual_exponent(p_in)
        v = max(vec_pnorm(A[i, :], q_in) for i in range(m))
        return NormInterval(v, v)
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
    lo = _ascent_lower(A, p_in, p_out, seed=seed, starts=starts)
    lo = min(lo, hi)
    return NormInterval(lo, hi)


def singular_extremes(A) -> tuple[float, float]:
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
    return float(s[-1]), float(s[0])


def is_invertible(A, rtol: float = SINGULAR_RTOL) -> bool:
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        return False
    smin, smax = singular_extremes(A)
    return smax > 0 and smin / smax > rtol


def inverse(A) -> np.ndarray:
    """Inverse of a square matrix; singularity decided by sigma_min/sigma_max."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("inverse requires a square matrix")
    smin, smax = singular_extremes(A)
    if smax == 0 or smin / smax <= SINGULAR_RTOL:
        raise NotInvertible(
            f"singular to working precision (sigma ratio {0 if smax == 0 else smin / smax:.3e})")
    return np.linalg.solve(A, np.eye(A.shape[0], dtype=complex))


def hermitian_extremes(S, tol: float = 1e-8) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of a Hermitian matrix."""
    S = as_matrix(S)
    if S.shape[0] != S.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.abs(S).max()))
    if float(np.abs(S - herm(S)).max()) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh((S + herm(S)) / 2)
    return float(w[0]), float(w[-1])
