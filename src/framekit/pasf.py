"""Approximate Schauder frames for K^d carrying the l^p norm.

A pair is a family of functionals f_n (rows of F) and vectors tau_n
(columns of T) whose frame operator S = T F is invertible. Frame bounds
are certified p-operator-norm intervals, duality and similarity are exact
matrix identities, and dilation extends any pair to an approximate Riesz
basis on K^d (+) range(I - P_{f,tau}). Every defect a report checks is
defined here once; the general hypothesis is sampled by ``linops._falsify``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .errors import HypothesisViolated, NotADual, NotInvertible
from .linops import (NormInterval, Perturbation, _falsify, inverse,
                     opnorm_interval, opnorm_upper, vec_pnorm)

DUAL_TOL = 1e-9
SIMILAR_TOL = 1e-8
RIESZ_TOL = 1e-9


@dataclass(frozen=True)
class PAsf:
    """(F, T, p): functionals as rows of F (m x d), vectors as columns of
    T (d x m)."""

    p: float
    F: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        p = float(self.p)
        if not p >= 1:
            raise ValueError("p must satisfy 1 <= p < inf")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "F", linops.as_matrix(self.F))
        object.__setattr__(self, "T", linops.as_matrix(self.T))
        if self.F.shape != (self.T.shape[1], self.T.shape[0]):
            raise ValueError("F must be m x d and T d x m")

    @property
    def d(self) -> int:
        return self.T.shape[0]

    @property
    def m(self) -> int:
        return self.T.shape[1]

    @property
    def q(self) -> float:
        return linops.dual_exponent(self.p)

    @property
    def frame_operator(self) -> np.ndarray:
        return self.T @ self.F

    def projection(self) -> np.ndarray:
        """The idempotent P_{f,tau} = F S^(-1) T on coefficient space."""
        return self.F @ inverse(self.frame_operator) @ self.T


@dataclass(frozen=True)
class PasfCheck:
    is_pasf: bool
    lower: NormInterval | None
    upper: NormInterval


def check(P: PAsf, seed: int = 0) -> PasfCheck:
    """Frame bounds as certified intervals: the lower bound is the
    reciprocal of the ||S^(-1)||_p interval (none when ``inverse`` finds
    S singular), the upper is the ||S||_p interval."""
    S = P.frame_operator
    upper = opnorm_interval(S, P.p, seed=seed)
    try:
        inv_iv = opnorm_interval(inverse(S), P.p, seed=seed)
    except NotInvertible:
        return PasfCheck(False, None, upper)
    lower = NormInterval(1.0 / inv_iv.hi, 1.0 / inv_iv.lo)
    return PasfCheck(True, lower, upper)


def shift_pair(m: int, p: float) -> PAsf:
    """The truncated right/left shift pair: F embeds K^(m-1) by a right
    shift, T drops the first coordinate, so S = I exactly."""
    if m < 2:
        raise ValueError("need m >= 2")
    d = m - 1
    F = np.zeros((m, d))
    T = np.zeros((d, m))
    for i in range(d):
        F[i + 1, i] = 1.0
        T[i, i + 1] = 1.0
    return PAsf(p, F, T)


def canonical_dual(P: PAsf) -> PAsf:
    """Dual pair (f_n S^(-1), S^(-1) tau_n)."""
    Sinv = inverse(P.frame_operator)
    return PAsf(P.p, P.F @ Sinv, Sinv @ P.T)


def dual_residual(P: PAsf, Q: PAsf) -> float:
    """max(|T_P F_Q - I|, |T_Q F_P - I|), entrywise: the duality defect."""
    return max(linops.identity_defect(P.T @ Q.F),
               linops.identity_defect(Q.T @ P.F))


def dual_from_operators(P: PAsf, U, V) -> PAsf:
    """Dual pair parametrized by operators U (m x d), V (d x m):

    g_n = f_n S^(-1) + zeta_n U - f_n S^(-1) T U,
    omega_n = S^(-1) tau_n + V e_n - V F S^(-1) tau_n.

    The reconstruction identities hold for every U, V; what can fail is the
    new pair's own frame operator W G = S^(-1) + V U - V F S^(-1) T U.
    Valid exactly when that operator is invertible.
    """
    U = linops.as_matrix(U)
    V = linops.as_matrix(V)
    if U.shape != (P.m, P.d) or V.shape != (P.d, P.m):
        raise ValueError("U must be m x d and V d x m")
    Sinv = inverse(P.frame_operator)
    G = P.F @ Sinv + U - P.F @ Sinv @ P.T @ U
    W = Sinv @ P.T + V - V @ P.F @ Sinv @ P.T
    validity = Sinv + V @ U - V @ P.F @ Sinv @ P.T @ U
    # scale against the summands so exact cancellation reads as singular
    scale = max(float(np.abs(M).max()) for M in
                (Sinv, V @ U, V @ P.F @ Sinv @ P.T @ U))
    smin, smax = linops.singular_extremes(validity)
    if smax <= 1e-10 * max(scale, 1e-300) or smin / max(smax, 1e-300) <= 1e-10:
        raise NotADual("validity operator S^(-1) + VU - VFS^(-1)TU is singular")
    return PAsf(P.p, G, W)


def similarity(P: PAsf, Q: PAsf, tol: float = SIMILAR_TOL):
    """If P and Q are similar (equal coefficient projections), return the
    pair of invertible operators (T_fg, T_tw) with g_n = f_n T_fg and
    omega_n = T_tw tau_n; otherwise None."""
    if (P.d, P.m, P.p) != (Q.d, Q.m, Q.p):
        raise ValueError("pairs must share shape and exponent")
    if float(np.abs(P.projection() - Q.projection()).max()) > tol:
        return None
    Sinv = inverse(P.frame_operator)
    T_fg = Sinv @ P.T @ Q.F
    T_tw = Q.T @ P.F @ Sinv
    return T_fg, T_tw


def dilate(P: PAsf) -> PAsf:
    """Extend the pair to an approximate Riesz basis of K^d (+) range(I-P):

    omega_n = tau_n (+) (I-P) e_n, g_n = f_n (+) restriction to the range,
    second summands written in an orthonormal basis of range(I - P). The
    first d coordinates return the input exactly.
    """
    m, d = P.m, P.d
    Pm = P.projection()
    Q = np.eye(m) - Pm
    B = linops.range_basis(Q, 1.0)  # orthonormal basis of range(I - P)
    G1 = np.hstack([P.F, B])
    T1 = np.vstack([P.T, linops.herm(B) @ Q])
    return PAsf(P.p, G1, T1)


def riesz_residual(P: PAsf) -> float:
    """Entrywise max of |F S^(-1) T - I_m|; zero exactly for an approximate
    Riesz basis. Raises NotInvertible when S is singular."""
    Sinv = inverse(P.frame_operator)
    return linops.identity_defect(P.F @ Sinv @ P.T)


def shift_dilation_table(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The classical table for dilating the shift pair at truncation m.

    Entry n is (tau_n, P tau_n) with tau_n = L e_n and P = R L, written as
    length-m vectors: row 1 is (0, 0), row 2 is (e_1, 0), and row n >= 3 is
    (e_{n-1}, e_{n-1}).
    """
    table = []
    for n in range(1, m + 1):
        tau = np.zeros(m)
        if n >= 2:
            tau[n - 2] = 1.0
        second = np.zeros(m)
        if n >= 3:
            second[n - 2] = 1.0
        table.append((tau, second))
    return table


def perturb_certificate(P: PAsf, Omega, mode: str = "quadratic",
                        alpha: float = 0.0, beta: float = 0.0, gamma: float = 0.0,
                        case: int = 1, G=None,
                        r: float = 0.0, s: float = 0.0, t: float = 0.0,
                        seed: int = 0, samples: int = 256) -> Perturbation:
    """Certificates that (f_n, omega_n) stays an approximate Schauder frame.

    quadratic: lam = sum ||tau_n - omega_n||^q must satisfy
    lam < 1 / ||theta_f S^(-1)||^q, decided conservatively with the
    certified upper bounds. general: the coefficient inequality with
    parameters (alpha, gamma, beta) is falsification-tested on seeded
    samples; predicted bounds follow the closed formulas. two_sided: the
    requested summability condition (1-4) for a jointly perturbed pair
    (g_n, omega_n) is evaluated as a numeric sum, reported valid iff < 1:
    cases 1 and 2 apply S^(-1) to the vectors, cases 3 and 4 to the
    functionals; odd cases weigh by (tau_n, g_n), even ones by (omega_n, f_n).
    """
    Omega = linops.as_matrix(Omega)
    if Omega.shape != P.T.shape:
        raise ValueError("replacement vectors must be d x m")
    p, q = P.p, P.q
    Sinv = inverse(P.frame_operator)
    theta_f_sinv = opnorm_upper(P.F @ Sinv, p)
    sinv_norm = opnorm_upper(Sinv, p)
    theta_tau = opnorm_upper(P.T, p)
    theta_f = opnorm_upper(P.F, p)
    diff = P.T - Omega

    if mode == "quadratic":
        lam = float(sum(vec_pnorm(diff[:, n], p) ** q for n in range(P.m)))
        valid = lam * theta_f_sinv ** q < 1.0
        bounds = None
        if valid:
            lo = (1 - lam ** (1 / p) * theta_f_sinv) / sinv_norm
            hi = (theta_tau + lam ** (1 / p)) * theta_f
            bounds = (lo, hi)
        return Perturbation("quadratic", valid, bounds, {"lambda": lam})

    if mode == "general":
        if max(alpha + gamma * theta_f_sinv, beta) >= 1:
            raise HypothesisViolated(
                "need max(alpha + gamma ||theta_f S^-1||, beta) < 1")
        norms = lambda A, C: linops._pnorm_rows(linops._apply_rows(A, C), p)
        valid, detail = _falsify(
            lambda C: (norms(diff, C), alpha * norms(P.T, C)
                       + gamma * linops._pnorm_rows(C, p)
                       + beta * norms(Omega, C)),
            P.m, samples, seed)
        lo = (1 - (alpha + gamma * theta_f_sinv)) / ((1 + beta) * sinv_norm)
        hi = ((1 + alpha) / (1 - beta) * theta_tau
              + gamma / (1 - beta)) * theta_f
        return Perturbation("general", valid, (lo, hi), detail)

    if G is None:
        raise ValueError("two_sided mode needs the replacement functionals G")
    G = linops.as_matrix(G)
    if G.shape != P.F.shape:
        raise ValueError("replacement functionals must be m x d")
    if not 1 <= int(case) <= 4:
        raise ValueError("case must be 1..4")
    if max(beta, s) >= 1:
        raise HypothesisViolated("need max(beta, s) < 1")
    vec = (lambda x: Sinv @ x) if case <= 2 else (lambda x: x)
    fun = (lambda y: y) if case <= 2 else (lambda y: y @ Sinv)
    V, W = (P.T, G) if case % 2 else (Omega, P.F)
    total = float(sum(
        vec_pnorm(fun(P.F[n] - G[n]), q) * vec_pnorm(vec(V[:, n]), p)
        + vec_pnorm(fun(W[n]), q)
        * vec_pnorm(vec(P.T[:, n] - Omega[:, n]), p)
        for n in range(P.m)))
    valid = total < 1.0
    upper = (((1 + alpha) / (1 - beta) * theta_tau + gamma / (1 - beta))
             * ((1 + r) / (1 - s) * theta_f + t / (1 - s)))
    return Perturbation(
        "two_sided", valid, (0.0, upper) if valid else None,
        {"case": int(case), "condition_sum": total,
         "note": "only the upper bound is certified in two_sided mode"})


@dataclass(frozen=True)
class Expansion:
    expanded: PAsf
    n_min: int


def expand_to_asf(P_weak: PAsf, Q: PAsf, lam: float = 1.0) -> Expansion:
    """Append (g_n, (I - S_P) omega_n) from a reconstructing pair Q to make
    the combined frame operator the identity.

    Also reports N_min = rank(lam I - S_P), the minimal number of nonzero
    vectors any such expansion with combined operator lam I must append.
    """
    if P_weak.d != Q.d:
        raise ValueError("pairs must act on the same space")
    if linops.identity_defect(Q.T @ Q.F) > DUAL_TOL:
        raise ValueError("Q must reconstruct: T_Q F_Q = I within 1e-9")
    Sp = P_weak.frame_operator
    defect = np.eye(P_weak.d) - Sp
    appended = defect @ Q.T
    F_comb = np.vstack([P_weak.F, Q.F])
    T_comb = np.hstack([P_weak.T, appended])
    n_min = linops.rank(lam * np.eye(P_weak.d) - Sp)
    return Expansion(PAsf(P_weak.p, F_comb, T_comb), n_min)
