"""Weak operator-valued frames at finite block size.

A pair of families A_n, Psi_n: K^d -> K^r whose frame operator
S = sum_n Psi_n* A_n is invertible. The stacked analysis operators
theta_A, theta_Psi place block n in rows n*r..(n+1)*r of K^(m*r), so the
block embeddings L_n satisfy L_n* L_k = delta_{nk} I and sum L_n L_n* = I
by construction. S need not be positive or Hermitian; frame bounds are
the extreme singular values. Every defect a report checks is defined
here once; the triple hypothesis is sampled by ``linops._falsify``.

Block norms are taken by ``linops._norms2``, one SVD call over a stack:
the same LAPACK routine np.linalg.norm(M, 2) runs per matrix, so each
value is bit-identical to a loop over the blocks. The group kernels take
one such call per element g, so a step holds O(|G|^2 r^2) numbers, not
O(|G|^3 r^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linops
from .errors import HypothesisViolated
from .linops import (Perturbation, _apply_rows, _falsify, _norm_2, _norm_rows,
                     _norms2, herm, inverse, singular_extremes)

SIMILAR_TOL = 1e-8
RIESZ_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8
DILATE_TOL = 1e-8
REP_TOL = 1e-10


def _l2(values) -> float:
    return float(np.sqrt(np.sum(np.square(values))))


@dataclass(frozen=True)
class OvfPair:
    """Block families A, Psi of shape (m, r, d): m operators K^d -> K^r."""

    A: np.ndarray
    Psi: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        Psi = np.asarray(self.Psi, dtype=complex)
        if A.ndim != 3 or A.shape != Psi.shape or min(A.shape) < 1:
            raise ValueError("A and Psi must be equal-shape (m, r, d) stacks")
        for name, M in (("A", A), ("Psi", Psi)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Psi", Psi)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.A.shape[1]

    @property
    def d(self) -> int:
        return self.A.shape[2]

    @property
    def theta_A(self) -> np.ndarray:
        return self.A.reshape(self.m * self.r, self.d)

    @property
    def theta_Psi(self) -> np.ndarray:
        return self.Psi.reshape(self.m * self.r, self.d)

    def frame_operator(self) -> np.ndarray:
        return herm(self.theta_Psi) @ self.theta_A

    def projection(self) -> np.ndarray:
        """P = theta_A S^{-1} theta_Psi*, idempotent onto range(theta_A)."""
        S = self.frame_operator()
        return self.theta_A @ inverse(S) @ herm(self.theta_Psi)

    def is_parseval(self) -> bool:
        return (_norm_2(self.frame_operator() - np.eye(self.d))
                <= ORTHONORMAL_TOL)


@dataclass(frozen=True)
class OvfCheck:
    is_ovf: bool
    lower: float
    upper: float


def check(P: OvfPair) -> OvfCheck:
    """Invertibility of S with the optimal bounds 1/||S^{-1}||, ||S||."""
    S = P.frame_operator()
    lo, hi = singular_extremes(S)
    return OvfCheck(linops.is_invertible(S), lo, hi)


def canonical_dual(P: OvfPair) -> OvfPair:
    """(A_n S^{-1}, Psi_n (S^{-1})*); applying it twice returns the
    original pair and the bounds invert to (1/b, 1/a)."""
    Sinv = inverse(P.frame_operator())
    return OvfPair(P.A @ Sinv, P.Psi @ herm(Sinv))


def duality_residual(P: OvfPair, Q: OvfPair) -> float:
    """max(||sum Psi_n* B_n - I||, ||sum Phi_n* A_n - I||)."""
    I = np.eye(P.d)
    return max(_norm_2(herm(P.theta_Psi) @ Q.theta_A - I),
               _norm_2(herm(Q.theta_Psi) @ P.theta_A - I))


def block_gap(P: OvfPair, Q: OvfPair) -> float:
    """Largest entry of |A_n - B_n| and |Psi_n - Phi_n|."""
    return max(float(np.abs(P.A - Q.A).max()),
               float(np.abs(P.Psi - Q.Psi).max()))


def similarity(P: OvfPair, Q: OvfPair,
               tol: float = SIMILAR_TOL) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The unique invertible (R_AB, R_PsiPhi) with B_n = A_n R_AB and
    Phi_n = Psi_n R_PsiPhi, present exactly when the idempotents
    P_{A,Psi} and P_{B,Phi} coincide."""
    if P.A.shape != Q.A.shape:
        raise ValueError("shape mismatch")
    if _norm_2(P.projection() - Q.projection()) > tol:
        return None
    Sinv = inverse(P.frame_operator())
    R_ab = Sinv @ herm(P.theta_Psi) @ Q.theta_A
    R_pp = herm(Sinv) @ herm(P.theta_A) @ Q.theta_Psi
    return R_ab, R_pp


@dataclass(frozen=True)
class OvfClass:
    riesz: bool
    orthonormal: bool


def orthonormal_gap(P: OvfPair) -> float:
    """max(||S - I||, max_{n,k} ||A_n Psi_k* - delta_{nk} I_r||)."""
    C = P.A[:, None] @ herm(P.Psi)[None, :]
    n = np.arange(P.m)
    C[n, n] -= np.eye(P.r)
    # max() over a list in (n, k) order: a NaN norm never replaces a gap
    return max([_norm_2(P.frame_operator() - np.eye(P.d)),
                *_norms2(C).ravel().tolist()])


def classify(P: OvfPair) -> OvfClass:
    """Riesz: the idempotent is the identity of the stacked space.
    Orthonormal: Parseval with A_n Psi_k* = delta_{nk} I_r."""
    riesz = _norm_2(P.projection() - np.eye(P.m * P.r)) <= RIESZ_TOL
    orthonormal = P.is_parseval() and orthonormal_gap(P) <= ORTHONORMAL_TOL
    return OvfClass(riesz, orthonormal)


@dataclass(frozen=True)
class OvfDilation:
    """Orthonormal pair on K^d (+) range(theta_A)^perp, stored in the
    coordinates (h, c) with c the coefficients along an orthonormal basis
    of range(theta_A)^perp; the first d columns of every block restrict to
    the original operators."""

    pair: OvfPair
    base_dim: int

    def restrict(self) -> OvfPair:
        d = self.base_dim
        return OvfPair(self.pair.A[:, :, :d], self.pair.Psi[:, :, :d])


def dilate(P: OvfPair) -> OvfDilation:
    """Extend a Parseval pair with equal analysis ranges and an orthogonal
    projection idempotent to an orthonormal pair on the stacked space.

    B_n(h, g) = A_n h + L_n* g for g in range(theta_A)^perp, and the same
    tail for Phi_n; every hypothesis failure is reported by name.
    """
    S = P.frame_operator()
    I = np.eye(P.d)
    Pr = P.projection()
    failures = []
    if _norm_2(S - I) > DILATE_TOL:
        failures.append("not Parseval")
    QA, QP = linops.range_basis(P.theta_A), linops.range_basis(P.theta_Psi)
    if _norm_2(QA @ herm(QA) - QP @ herm(QP)) > DILATE_TOL:
        failures.append("analysis ranges differ")
    if (_norm_2(Pr - herm(Pr)) > DILATE_TOL
            or _norm_2(Pr @ Pr - Pr) > DILATE_TOL):
        failures.append("idempotent is not an orthogonal projection")
    if failures:
        raise HypothesisViolated("; ".join(failures))
    C = linops.complement_basis(P.theta_A)  # basis of range(theta_A)^perp
    theta_B = np.hstack([P.theta_A, C])
    theta_Phi = np.hstack([P.theta_Psi, C])
    mr = P.m * P.r
    pair = OvfPair(theta_B.reshape(P.m, P.r, mr),
                   theta_Phi.reshape(P.m, P.r, mr))
    return OvfDilation(pair, P.d)


def _group_table(rep: dict):
    """Validated (labels, T, mul, inv) of a finite unitary representation
    given as a label -> matrix mapping: T stacks the matrices, mul[g, h] is
    the first k with T[g] T[h] within REP_TOL of T[k], inv[g] the last h
    with T[g] T[h] within REP_TOL of I. Each g is tested for unitarity, then
    its products: a refusal names the first failure in label order."""
    labels = tuple(rep)
    mats = [linops.as_matrix(M) for M in rep.values()]
    d = mats[0].shape[0]
    for g, M in zip(labels, mats):
        if M.shape != (d, d):
            raise ValueError(f"representation entry {g!r} is not unitary")
    T = np.stack(mats)
    I = np.eye(d)
    unitary = ~(_norms2(herm(T) @ T - I) > REP_TOL)
    # the identity as a last candidate tests every product for an inverse
    candidates = np.concatenate([T, I[None]])
    rows = []  # rows[g][h, k]: T[g] T[h] within REP_TOL of candidate k
    for n, g in enumerate(labels):
        if not unitary[n]:
            raise ValueError(f"representation entry {g!r} is not unitary")
        rows.append(_norms2((T[n] @ T)[:, None] - candidates) <= REP_TOL)
        if not rows[n][:, :-1].any(axis=1).all():
            raise ValueError("representation is not closed under products")
    close = np.stack(rows)
    to_I = close[:, :, -1]
    if not (_norms2(I - T) <= REP_TOL).any() or not to_I.any(axis=1).all():
        raise ValueError("representation must contain identity and inverses")
    inv = len(labels) - 1 - to_I[:, ::-1].argmax(axis=1)
    return labels, T, close[:, :, :-1].argmax(axis=2), inv


def gc1_residual(rep: dict, pair: OvfPair, table=None) -> float:
    """Largest defect, over (g, p, q) in G^3, in the group conditions
    A_{gp} A_{gq}* = A_p A_q*, A_{gp} Psi_{gq}* = A_p Psi_q*,
    Psi_{gp} Psi_{gq}* = Psi_p Psi_q*; zero exactly when some unitary
    representation generates the family from its identity blocks.

    table is _group_table(rep), when the caller has it. Each side's |G|^2
    block products are formed once; each g gathers its (gp, gq) cells.
    """
    labels, _, mul, _ = _group_table(rep) if table is None else table
    Ah, Ph = herm(pair.A)[None, :], herm(pair.Psi)[None, :]
    X = np.stack([pair.A[:, None] @ Ah, pair.A[:, None] @ Ph,
                  pair.Psi[:, None] @ Ph])
    worst = 0.0
    for row in mul:
        defects = _norms2(X[:, row[:, None], row] - X)
        # fmax, like max(), never lets a NaN norm replace worst
        worst = float(np.fmax.reduce(defects, axis=None, initial=worst))
    return worst


@dataclass(frozen=True)
class GroupOvf:
    labels: tuple
    pair: OvfPair
    commutant_residual: float
    gc1_residual: float


def group_generated(rep: dict, A, Psi) -> GroupOvf:
    """Family A_g = A pi_{g^{-1}}, Psi_g = Psi pi_{g^{-1}} over a finite
    group given as a label -> unitary table.

    commutant_residual is max_g ||S pi_g - pi_g S||; the frame operator of
    a generated family commutes with the representation, so both reported
    residuals vanish up to rounding.
    """
    A = linops.as_matrix(A)
    Psi = linops.as_matrix(Psi)
    table = _group_table(rep)
    labels, T, _, inv = table
    pair = OvfPair(A @ T[inv], Psi @ T[inv])
    S = pair.frame_operator()
    commutant = max(_norms2(S @ T - T @ S).tolist())
    return GroupOvf(labels, pair, commutant,
                    gc1_residual(rep, pair, table=table))


def perturb_certificate(P: OvfPair, B, mode: str = "quadratic",
                        alpha: float = 0.0, beta: float = 0.0,
                        gamma: float = 0.0, samples: int = 256,
                        seed: int = 0) -> Perturbation:
    """Stability of (B_n, Psi_n) when B_n replaces A_n.

    quadratic: checks sum_n ||A_n - B_n|| ||Psi_n (S*)^{-1}|| < 1 exactly
    and predicts the bounds
    (1 - that sum) / ||(S*)^{-1}||  and  ||theta_Psi|| (sqrt(sum ||A_n - B_n||^2) + ||theta_A||).

    triple: requires max(alpha + gamma ||theta_Psi (S*)^{-1}||, beta) < 1,
    then seeks a counterexample to the truncated-sum inequality
    ||sum_{n<=k} (A_n* - B_n*) y_n|| <= alpha ||sum A_n* y_n||
      + beta ||sum B_n* y_n|| + gamma (sum ||y_n||^2)^(1/2)
    over seeded random stacked vectors (a sampled falsification, not a
    proof). A chunk of samples is evaluated one prefix k at a time, as the
    rows zero-padded after block k: ``linops._apply_rows`` and
    ``_norm_rows`` run per row the operations of theta_A* y_k and its
    norm, so every cell equals the per-prefix product bit for bit. Predicts
    (1 - alpha - gamma ||theta_Psi (S*)^{-1}||) / ((1 + beta) ||(S*)^{-1}||)
    and ||theta_Psi|| ((1 + alpha) ||theta_A|| + gamma) / (1 - beta).
    """
    B = np.asarray(B, dtype=complex)
    Sinv_star = herm(inverse(P.frame_operator()))
    if mode == "quadratic":
        gaps = _norms2(P.A - B)
        weights = _norms2(P.Psi @ Sinv_star)
        total = float(np.dot(gaps, weights))
        if total >= 1:
            raise HypothesisViolated(
                f"sum ||A_n - B_n|| ||Psi_n (S*)^{{-1}}|| = {total} >= 1")
        lo = (1 - total) / _norm_2(Sinv_star)
        hi = _norm_2(P.theta_Psi) * (_l2(gaps) + _norm_2(P.theta_A))
        return Perturbation("quadratic", True, (lo, hi))
    reach = alpha + gamma * _norm_2(P.theta_Psi @ Sinv_star)
    if max(reach, beta) >= 1:
        raise HypothesisViolated(
            f"max(alpha + gamma ||theta_Psi (S*)^{{-1}}||, beta) = "
            f"{max(reach, beta)} >= 1")
    thA, thB = herm(P.theta_A), herm(B.reshape(P.m * P.r, P.d))

    def sides(C):
        # prefix k of every sample, zero-padded after block k, grows in one
        # buffer; each row runs the matrix-vector products and norms of
        # thA @ y_k, thB @ y_k and np.linalg.norm
        Y = np.zeros_like(C)
        lhs, rhs = np.empty((2, len(C), P.m))
        for k in range(P.m):
            Y[:, k * P.r:(k + 1) * P.r] = C[:, k * P.r:(k + 1) * P.r]
            a, b = _apply_rows(thA, Y), _apply_rows(thB, Y)
            lhs[:, k] = _norm_rows(a - b)
            rhs[:, k] = (alpha * _norm_rows(a) + beta * _norm_rows(b)
                         + gamma * _norm_rows(Y))
        return lhs, rhs

    holds, detail = _falsify(sides, P.m * P.r, samples, seed)
    lo = (1 - reach) / ((1 + beta) * _norm_2(Sinv_star))
    hi = (_norm_2(P.theta_Psi) * ((1 + alpha) * _norm_2(P.theta_A) + gamma)
          / (1 - beta))
    return Perturbation("triple", holds, (lo, hi), detail)

