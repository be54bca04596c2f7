"""Weak operator-valued frames at finite block size.

A pair of families A_n, Psi_n: K^d -> K^r whose frame operator
S = sum_n Psi_n* A_n is invertible. The stacked analysis operators
theta_A, theta_Psi place block n in rows n*r..(n+1)*r of K^(m*r), so the
block embeddings L_n satisfy L_n* L_k = delta_{nk} I and sum L_n L_n* = I
by construction. S need not be positive or Hermitian; frame bounds are
the extreme singular values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linops
from .errors import HypothesisViolated
from .linops import NotInvertible, herm, inverse, singular_extremes

DUAL_TOL = 1e-9
SIMILAR_TOL = 1e-8
RIESZ_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8
DILATE_TOL = 1e-8
REP_TOL = 1e-10


def _norm2(A) -> float:
    return float(np.linalg.norm(np.atleast_2d(A), 2))


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

    def is_parseval(self, tol: float = ORTHONORMAL_TOL) -> bool:
        return _norm2(self.frame_operator() - np.eye(self.d)) <= tol


def block_embedding(m: int, r: int, n: int) -> np.ndarray:
    """L_n: K^r -> K^(m*r), the n-th block column of the identity."""
    if not 0 <= n < m:
        raise ValueError("block index out of range")
    L = np.zeros((m * r, r))
    L[n * r:(n + 1) * r] = np.eye(r)
    return L


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


def from_factors(U, V, r: int = 1) -> OvfPair:
    """Pair with A_n = L_n* U, Psi_n = L_n* V for (m*r) x d factors with
    V*U invertible; the frame operator is V*U by construction."""
    U = linops.as_matrix(U)
    V = linops.as_matrix(V)
    r = int(r)
    if U.shape != V.shape or r < 1 or U.shape[0] % r:
        raise ValueError("U, V must be equal-shape stacks of r-row blocks")
    inverse(herm(V) @ U)  # NotInvertible on a singular V*U
    m = U.shape[0] // r
    return OvfPair(U.reshape(m, r, U.shape[1]), V.reshape(m, r, V.shape[1]))


def canonical_dual(P: OvfPair) -> OvfPair:
    """(A_n S^{-1}, Psi_n (S^{-1})*); applying it twice returns the
    original pair and the bounds invert to (1/b, 1/a)."""
    Sinv = inverse(P.frame_operator())
    return OvfPair(P.A @ Sinv, P.Psi @ herm(Sinv))


def duality_check(P: OvfPair, Q: OvfPair, tol: float = DUAL_TOL) -> bool:
    """sum Psi_n* B_n = sum Phi_n* A_n = I within tol."""
    if P.A.shape != Q.A.shape:
        raise ValueError("shape mismatch")
    I = np.eye(P.d)
    return (_norm2(herm(P.theta_Psi) @ Q.theta_A - I) <= tol
            and _norm2(herm(Q.theta_Psi) @ P.theta_A - I) <= tol)


def orthogonality_check(P: OvfPair, Q: OvfPair, tol: float = DUAL_TOL) -> bool:
    """sum Psi_n* B_n = sum Phi_n* A_n = 0 within tol."""
    if P.A.shape != Q.A.shape:
        raise ValueError("shape mismatch")
    return (_norm2(herm(P.theta_Psi) @ Q.theta_A) <= tol
            and _norm2(herm(Q.theta_Psi) @ P.theta_A) <= tol)


def similarity(P: OvfPair, Q: OvfPair,
               tol: float = SIMILAR_TOL) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The unique invertible (R_AB, R_PsiPhi) with B_n = A_n R_AB and
    Phi_n = Psi_n R_PsiPhi, present exactly when the idempotents
    P_{A,Psi} and P_{B,Phi} coincide."""
    if P.A.shape != Q.A.shape:
        raise ValueError("shape mismatch")
    if _norm2(P.projection() - Q.projection()) > tol:
        return None
    Sinv = inverse(P.frame_operator())
    R_ab = Sinv @ herm(P.theta_Psi) @ Q.theta_A
    R_pp = herm(Sinv) @ herm(P.theta_A) @ Q.theta_Psi
    return R_ab, R_pp


@dataclass(frozen=True)
class OvfClass:
    riesz: bool
    orthonormal: bool


def classify(P: OvfPair) -> OvfClass:
    """Riesz: the idempotent is the identity of the stacked space.
    Orthonormal: Parseval with A_n Psi_k* = delta_{nk} I_r."""
    riesz = _norm2(P.projection() - np.eye(P.m * P.r)) <= RIESZ_TOL
    orthonormal = False
    if P.is_parseval():
        gap = 0.0
        for n in range(P.m):
            for k in range(P.m):
                C = P.A[n] @ herm(P.Psi[k])
                if n == k:
                    C = C - np.eye(P.r)
                gap = max(gap, _norm2(C))
        orthonormal = gap <= ORTHONORMAL_TOL
    return OvfClass(riesz, orthonormal)


def _range_basis(M: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > s[0] * linops.SINGULAR_RTOL))
    return u[:, :rank]


@dataclass(frozen=True)
class OvfDilation:
    """Orthonormal pair on K^d (+) range(theta_A)^perp, stored in the
    coordinates (h, c) with c the coefficients along the columns of
    complement; the first d columns of every block restrict to the
    original operators."""

    pair: OvfPair
    base_dim: int
    complement: np.ndarray

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
    if _norm2(S - I) > DILATE_TOL:
        failures.append("not Parseval")
    QA, QP = _range_basis(P.theta_A), _range_basis(P.theta_Psi)
    if _norm2(QA @ herm(QA) - QP @ herm(QP)) > DILATE_TOL:
        failures.append("analysis ranges differ")
    if _norm2(Pr - herm(Pr)) > DILATE_TOL or _norm2(Pr @ Pr - Pr) > DILATE_TOL:
        failures.append("idempotent is not an orthogonal projection")
    if failures:
        raise HypothesisViolated("; ".join(failures))
    u, _, _ = np.linalg.svd(P.theta_A)
    C = u[:, P.d:]  # orthonormal basis of range(theta_A)^perp
    theta_B = np.hstack([P.theta_A, C])
    theta_Phi = np.hstack([P.theta_Psi, C])
    mr = P.m * P.r
    pair = OvfPair(theta_B.reshape(P.m, P.r, mr),
                   theta_Phi.reshape(P.m, P.r, mr))
    return OvfDilation(pair, P.d, C)


def _as_op(X, d: int) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.ndim == 0:
        return complex(X) * np.eye(d)
    return linops.as_matrix(X)


def interpolate(P: OvfPair, Q: OvfPair, C, D, E, F) -> OvfPair:
    """(A_n C + B_n D, Psi_n E + Phi_n F) for Parseval orthogonal P, Q and
    weights with C*E + D*F = I; scalars c, d, e, f stand for c I etc."""
    if P.A.shape != Q.A.shape:
        raise ValueError("shape mismatch")
    C, D, E, F = (_as_op(X, P.d) for X in (C, D, E, F))
    if not (P.is_parseval() and Q.is_parseval()):
        raise HypothesisViolated("both pairs must be Parseval")
    if not orthogonality_check(P, Q):
        raise HypothesisViolated("pairs must be orthogonal")
    if _norm2(herm(C) @ E + herm(D) @ F - np.eye(P.d)) > DUAL_TOL:
        raise HypothesisViolated("weights must satisfy C*E + D*F = I")
    return OvfPair(P.A @ C + Q.A @ D, P.Psi @ E + Q.Psi @ F)


def direct_sum(P: OvfPair, Q: OvfPair) -> OvfPair:
    """(A_n (+) B_n, Psi_n (+) Phi_n) on K^d (+) K^d for orthogonal pairs;
    the frame operator is the block diagonal of the two frame operators."""
    if P.A.shape != Q.A.shape:
        raise ValueError("shape mismatch")
    if not orthogonality_check(P, Q):
        raise HypothesisViolated("pairs must be orthogonal")
    A = np.concatenate([P.A, Q.A], axis=2)
    Psi = np.concatenate([P.Psi, Q.Psi], axis=2)
    return OvfPair(A, Psi)


def _match(table: dict, M: np.ndarray, tol: float):
    for g, Mg in table.items():
        if _norm2(M - Mg) <= tol:
            return g
    return None


def _group_table(rep: dict):
    """Validated (labels, matrices, multiplication, inverses) of a finite
    unitary representation given as a label -> matrix mapping."""
    table = {g: linops.as_matrix(M) for g, M in rep.items()}
    d = next(iter(table.values())).shape[0]
    I = np.eye(d)
    mul, inv = {}, {}
    for g, Mg in table.items():
        if Mg.shape != (d, d) or _norm2(herm(Mg) @ Mg - I) > REP_TOL:
            raise ValueError(f"representation entry {g!r} is not unitary")
        for h, Mh in table.items():
            k = _match(table, Mg @ Mh, REP_TOL)
            if k is None:
                raise ValueError("representation is not closed under products")
            mul[g, h] = k
            if _norm2(Mg @ Mh - I) <= REP_TOL:
                inv[g] = h
    if _match(table, I, REP_TOL) is None or len(inv) != len(table):
        raise ValueError("representation must contain identity and inverses")
    return tuple(table), table, mul, inv


def gc1_residual(rep: dict, pair: OvfPair) -> float:
    """Largest defect, over (g, p, q) in G^3, in the group conditions
    A_{gp} A_{gq}* = A_p A_q*, A_{gp} Psi_{gq}* = A_p Psi_q*,
    Psi_{gp} Psi_{gq}* = Psi_p Psi_q*; zero exactly when some unitary
    representation generates the family from its identity blocks."""
    labels, _, mul, _ = _group_table(rep)
    if pair.m != len(labels):
        raise ValueError("pair must have one block per group element")
    idx = {g: n for n, g in enumerate(labels)}
    Ag, Pg = pair.A, pair.Psi
    worst = 0.0
    for g in labels:
        for p in labels:
            for q in labels:
                gp, gq = idx[mul[g, p]], idx[mul[g, q]]
                p_, q_ = idx[p], idx[q]
                worst = max(
                    worst,
                    _norm2(Ag[gp] @ herm(Ag[gq]) - Ag[p_] @ herm(Ag[q_])),
                    _norm2(Ag[gp] @ herm(Pg[gq]) - Ag[p_] @ herm(Pg[q_])),
                    _norm2(Pg[gp] @ herm(Pg[gq]) - Pg[p_] @ herm(Pg[q_])),
                )
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
    labels, table, _, inv = _group_table(rep)
    blocks_A = np.stack([A @ table[inv[g]] for g in labels])
    blocks_P = np.stack([Psi @ table[inv[g]] for g in labels])
    pair = OvfPair(blocks_A, blocks_P)
    S = pair.frame_operator()
    commutant = max(_norm2(S @ table[g] - table[g] @ S) for g in labels)
    return GroupOvf(labels, pair, commutant, gc1_residual(rep, pair))


@dataclass(frozen=True)
class OvfPerturbation:
    mode: str
    hypothesis_holds: bool
    predicted: tuple[float, float]
    measured: OvfCheck


def perturb_certificate(P: OvfPair, B, mode: str = "quadratic",
                        alpha: float = 0.0, beta: float = 0.0,
                        gamma: float = 0.0, samples: int = 256,
                        seed: int = 0) -> OvfPerturbation:
    """Stability of (B_n, Psi_n) when B_n replaces A_n.

    quadratic: checks sum_n ||A_n - B_n|| ||Psi_n (S*)^{-1}|| < 1 exactly
    and predicts the bounds
    (1 - that sum) / ||(S*)^{-1}||  and  ||theta_Psi|| (sqrt(sum ||A_n - B_n||^2) + ||theta_A||).

    triple: requires max(alpha + gamma ||theta_Psi (S*)^{-1}||, beta) < 1,
    then seeks a counterexample to the truncated-sum inequality
    ||sum_{n<=k} (A_n* - B_n*) y_n|| <= alpha ||sum A_n* y_n||
      + beta ||sum B_n* y_n|| + gamma (sum ||y_n||^2)^(1/2)
    over seeded random stacked vectors (a sampled falsification, not a
    proof); predicts
    (1 - alpha - gamma ||theta_Psi (S*)^{-1}||) / ((1 + beta) ||(S*)^{-1}||)
    and ||theta_Psi|| ((1 + alpha) ||theta_A|| + gamma) / (1 - beta).
    """
    B = np.asarray(B, dtype=complex)
    if B.shape != P.A.shape:
        raise ValueError("B must match the shape of A")
    Sinv_star = herm(inverse(P.frame_operator()))
    new = OvfPair(B, P.Psi)
    measured = check(new)
    if mode == "quadratic":
        gaps = [_norm2(P.A[n] - B[n]) for n in range(P.m)]
        weights = [_norm2(P.Psi[n] @ Sinv_star) for n in range(P.m)]
        total = float(np.dot(gaps, weights))
        if total >= 1:
            raise HypothesisViolated(
                f"sum ||A_n - B_n|| ||Psi_n (S*)^{{-1}}|| = {total} >= 1")
        lo = (1 - total) / _norm2(Sinv_star)
        hi = _norm2(P.theta_Psi) * (_l2(gaps) + _norm2(P.theta_A))
        return OvfPerturbation("quadratic", True, (lo, hi), measured)
    if mode != "triple":
        raise ValueError("mode must be 'quadratic' or 'triple'")
    if min(alpha, beta, gamma) < 0:
        raise ValueError("alpha, beta, gamma must be nonnegative")
    reach = alpha + gamma * _norm2(P.theta_Psi @ Sinv_star)
    if max(reach, beta) >= 1:
        raise HypothesisViolated(
            f"max(alpha + gamma ||theta_Psi (S*)^{{-1}}||, beta) = "
            f"{max(reach, beta)} >= 1")
    rng = np.random.default_rng(seed)
    thA, thB = herm(P.theta_A), herm(new.theta_A)
    holds = True
    for _ in range(samples):
        y = rng.normal(size=P.m * P.r) + 1j * rng.normal(size=P.m * P.r)
        for k in range(1, P.m + 1):
            yk = np.zeros_like(y)
            yk[:k * P.r] = y[:k * P.r]
            left = np.linalg.norm(thA @ yk - thB @ yk)
            right = (alpha * np.linalg.norm(thA @ yk)
                     + beta * np.linalg.norm(thB @ yk)
                     + gamma * np.linalg.norm(yk))
            if left > right + 1e-12:
                holds = False
    lo = (1 - reach) / ((1 + beta) * _norm2(Sinv_star))
    hi = _norm2(P.theta_Psi) * ((1 + alpha) * _norm2(P.theta_A) + gamma) / (1 - beta)
    return OvfPerturbation("triple", holds, (lo, hi), measured)


def best_approximation_residual(P: OvfPair, y, z) -> float:
    """For h = sum A_n* y_n = sum Psi_n* z_n, the defect in
    sum <y_n, z_n> = sum <Psi~_n h, A~_n h> + sum <y_n - Psi~_n h, z_n - A~_n h>
    with A~, Psi~ the canonical dual blocks."""
    y = np.asarray(y, dtype=complex).reshape(P.m * P.r)
    z = np.asarray(z, dtype=complex).reshape(P.m * P.r)
    h1 = herm(P.theta_A) @ y
    h2 = herm(P.theta_Psi) @ z
    if np.linalg.norm(h1 - h2) > DUAL_TOL * max(1.0, np.linalg.norm(h1)):
        raise ValueError("y and z must synthesize the same vector")
    dual = canonical_dual(P)
    ah = dual.theta_A @ h1
    ph = dual.theta_Psi @ h1
    left = np.vdot(z, y)
    right = np.vdot(ah, ph) + np.vdot(ah - z, ph - y)
    return abs(left - right)
