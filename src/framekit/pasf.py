"""Approximate Schauder frames for K^d carrying the l^p norm.

A pair is a family of functionals f_n (rows of F) and vectors tau_n
(columns of T) whose frame operator S = T F is invertible. Frame bounds
are certified p-operator-norm intervals, duality and similarity are exact
matrix identities, and dilation extends any pair to an approximate Riesz
basis on K^d (+) range(I - P_{f,tau}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linops
from .errors import HypothesisViolated, NotADual, NotInvertible
from .linops import NormInterval, inverse, opnorm_interval, vec_pnorm

DUAL_TOL = 1e-9
SIMILAR_TOL = 1e-8
PARSEVAL_TOL = 1e-8
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

    def functional(self, n: int) -> np.ndarray:
        return self.F[n, :]

    def vector(self, n: int) -> np.ndarray:
        return self.T[:, n]

    def projection(self) -> np.ndarray:
        """The idempotent P_{f,tau} = F S^(-1) T on coefficient space."""
        return self.F @ inverse(self.frame_operator) @ self.T

    def is_pasf(self) -> bool:
        return linops.is_invertible(self.frame_operator)

    def is_parseval(self, tol: float = PARSEVAL_TOL) -> bool:
        return float(np.abs(self.frame_operator - np.eye(self.d)).max()) <= tol


@dataclass(frozen=True)
class PasfCheck:
    is_pasf: bool
    lower: NormInterval | None
    upper: NormInterval


def check(P: PAsf, seed: int = 0) -> PasfCheck:
    """Frame bounds as certified intervals: the lower bound is the
    reciprocal of the ||S^(-1)||_p interval, the upper is the ||S||_p
    interval."""
    upper = opnorm_interval(P.frame_operator, P.p, seed=seed)
    if not P.is_pasf():
        return PasfCheck(False, None, upper)
    inv_iv = opnorm_interval(inverse(P.frame_operator), P.p, seed=seed)
    lower = NormInterval(1.0 / inv_iv.hi, 1.0 / inv_iv.lo)
    return PasfCheck(True, lower, upper)


def from_shift_operators(U, V, p: float) -> PAsf:
    """Pair built from an analysis operator U (m x d) and synthesis V (d x m):
    f_n = row n of U, tau_n = column n of V."""
    P = PAsf(p, U, V)
    if not P.is_pasf():
        raise NotInvertible("V U is singular; the operators do not form a pair")
    return P


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


def dual_check(P: PAsf, Q: PAsf, tol: float = DUAL_TOL) -> bool:
    """Duality: T_P F_Q = I and T_Q F_P = I."""
    if (P.d, P.m, P.p) != (Q.d, Q.m, Q.p):
        raise ValueError("pairs must share shape and exponent")
    eye = np.eye(P.d)
    return (float(np.abs(P.T @ Q.F - eye).max()) <= tol
            and float(np.abs(Q.T @ P.F - eye).max()) <= tol)


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


def orthogonality_check(P: PAsf, Q: PAsf, tol: float = DUAL_TOL) -> bool:
    """Orthogonality: T_P F_Q = 0 and T_Q F_P = 0."""
    if (P.d, P.m, P.p) != (Q.d, Q.m, Q.p):
        raise ValueError("pairs must share shape and exponent")
    return (float(np.abs(P.T @ Q.F).max()) <= tol
            and float(np.abs(Q.T @ P.F).max()) <= tol)


def interpolate(P: PAsf, Q: PAsf, A, B, C, D) -> PAsf:
    """Mix two Parseval orthogonal pairs through operators with CA + DB = I:
    the pair (f_n A + g_n B, C tau_n + D omega_n) is again Parseval."""
    A, B, C, D = (linops.as_matrix(M) for M in (A, B, C, D))
    if not (P.is_parseval() and Q.is_parseval()):
        raise ValueError("both pairs must be Parseval within 1e-8")
    if not orthogonality_check(P, Q):
        raise ValueError("pairs must be orthogonal")
    if float(np.abs(C @ A + D @ B - np.eye(P.d)).max()) > DUAL_TOL:
        raise ValueError("need C A + D B = I")
    return PAsf(P.p, P.F @ A + Q.F @ B, C @ P.T + D @ Q.T)


@dataclass(frozen=True)
class PasfDilation:
    pasf: PAsf
    range_basis: np.ndarray  # orthonormal basis of range(I - P) in K^m
    riesz: bool


def dilate(P: PAsf) -> PasfDilation:
    """Extend the pair to an approximate Riesz basis of K^d (+) range(I-P):

    omega_n = tau_n (+) (I-P) e_n, g_n = f_n (+) restriction to the range,
    second summands written in an orthonormal basis of range(I - P). The
    first d coordinates return the input exactly.
    """
    m, d = P.m, P.d
    Pm = P.projection()
    Q = np.eye(m) - Pm
    U, s, _ = np.linalg.svd(Q)
    r2 = int((s > 1e-10 * max(1.0, s[0] if s.size else 1.0)).sum())
    B = U[:, :r2]
    G1 = np.hstack([P.F, B])
    T1 = np.vstack([P.T, linops.herm(B) @ Q])
    out = PAsf(P.p, G1, T1)
    return PasfDilation(out, B, riesz_check(out))


def riesz_check(P: PAsf, tol: float = RIESZ_TOL) -> bool:
    """Approximate Riesz basis iff F S^(-1) T = I_m."""
    try:
        Sinv = inverse(P.frame_operator)
    except NotInvertible:
        return False
    return float(np.abs(P.F @ Sinv @ P.T - np.eye(P.m)).max()) <= tol


def shift_dilation_table(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The classical table for dilating the shift pair at truncation m.

    Entry n is (tau_n, P tau_n) with tau_n = L e_n and P = R L, written as
    length-m vectors: row 1 is (0, 0), row 2 is (e_1, 0), and row n >= 3 is
    (e_{n-1}, e_{n-1}).
    """
    if m < 2:
        raise ValueError("need m >= 2")
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


def _functional_norm(row, q: float) -> float:
    return vec_pnorm(row, q)


@dataclass(frozen=True)
class PerturbationReport:
    mode: str
    valid: bool
    predicted_bounds: tuple[float, float] | None
    detail: dict = field(default_factory=dict)


def perturb_certificate(P: PAsf, Omega, mode: str = "quadratic",
                        alpha: float = 0.0, beta: float = 0.0, gamma: float = 0.0,
                        case: int = 1, G=None,
                        r: float = 0.0, s: float = 0.0, t: float = 0.0,
                        seed: int = 0, samples: int = 256) -> PerturbationReport:
    """Certificates that (f_n, omega_n) stays an approximate Schauder frame.

    quadratic: lam = sum ||tau_n - omega_n||^q must satisfy
    lam < 1 / ||theta_f S^(-1)||^q, decided conservatively with the upper
    ends of the norm intervals. general: the coefficient inequality with
    parameters (alpha, gamma, beta) is falsification-tested on seeded
    samples; predicted bounds follow the closed formulas. two_sided: the
    requested summability condition (1-4) for a jointly perturbed pair
    (g_n, omega_n) is evaluated as a numeric sum, reported valid iff < 1.
    """
    Omega = linops.as_matrix(Omega)
    if Omega.shape != P.T.shape:
        raise ValueError("replacement vectors must be d x m")
    p, q = P.p, P.q
    Sinv = inverse(P.frame_operator)
    theta_f_sinv = opnorm_interval(P.F @ Sinv, p, seed=seed)
    sinv_iv = opnorm_interval(Sinv, p, seed=seed)
    theta_tau = opnorm_interval(P.T, p, seed=seed)
    theta_f = opnorm_interval(P.F, p, seed=seed)
    diff = P.T - Omega

    if mode == "quadratic":
        lam = float(sum(vec_pnorm(diff[:, n], p) ** q for n in range(P.m)))
        valid = lam * theta_f_sinv.hi ** q < 1.0
        bounds = None
        if valid:
            lo = (1 - lam ** (1 / p) * theta_f_sinv.hi) / sinv_iv.hi
            hi = (theta_tau.hi + lam ** (1 / p)) * theta_f.hi
            bounds = (lo, hi)
        return PerturbationReport("quadratic", valid, bounds, {"lambda": lam})

    if mode == "general":
        if max(alpha + gamma * theta_f_sinv.hi, beta) >= 1:
            raise HypothesisViolated(
                "need max(alpha + gamma ||theta_f S^-1||, beta) < 1")
        rng = np.random.default_rng(seed)
        falsified = False
        worst = -math.inf
        for _ in range(samples):
            c = rng.standard_normal(P.m) + 1j * rng.standard_normal(P.m)
            lhs = vec_pnorm(diff @ c, p)
            rhs = (alpha * vec_pnorm(P.T @ c, p) + gamma * vec_pnorm(c, p)
                   + beta * vec_pnorm(Omega @ c, p))
            worst = max(worst, lhs - rhs)
            if lhs > rhs + 1e-12:
                falsified = True
        lo = (1 - (alpha + gamma * theta_f_sinv.hi)) / ((1 + beta) * sinv_iv.hi)
        hi = ((1 + alpha) / (1 - beta) * theta_tau.hi
              + gamma / (1 - beta)) * theta_f.hi
        return PerturbationReport(
            "general", not falsified, (lo, hi),
            {"samples": samples, "worst_margin": worst,
             "note": "hypothesis falsification-tested on samples, not proven"})

    if mode == "two_sided":
        if G is None:
            raise ValueError("two_sided mode needs the replacement functionals G")
        G = linops.as_matrix(G)
        if G.shape != P.F.shape:
            raise ValueError("replacement functionals must be m x d")
        if not 1 <= int(case) <= 4:
            raise ValueError("case must be 1..4")
        if max(beta, s) >= 1:
            raise HypothesisViolated("need max(beta, s) < 1")
        fn = [P.functional(n) for n in range(P.m)]
        gn = [G[n, :] for n in range(P.m)]
        taun = [P.vector(n) for n in range(P.m)]
        omn = [Omega[:, n] for n in range(P.m)]
        if case == 1:
            total = sum(_functional_norm(fn[n] - gn[n], q) * vec_pnorm(Sinv @ taun[n], p)
                        + _functional_norm(gn[n], q) * vec_pnorm(Sinv @ (taun[n] - omn[n]), p)
                        for n in range(P.m))
        elif case == 2:
            total = sum(_functional_norm(fn[n] - gn[n], q) * vec_pnorm(Sinv @ omn[n], p)
                        + _functional_norm(fn[n], q) * vec_pnorm(Sinv @ (taun[n] - omn[n]), p)
                        for n in range(P.m))
        elif case == 3:
            total = sum(_functional_norm((fn[n] - gn[n]) @ Sinv, q) * vec_pnorm(taun[n], p)
                        + _functional_norm(gn[n] @ Sinv, q) * vec_pnorm(taun[n] - omn[n], p)
                        for n in range(P.m))
        else:
            total = sum(_functional_norm((fn[n] - gn[n]) @ Sinv, q) * vec_pnorm(omn[n], p)
                        + _functional_norm(fn[n] @ Sinv, q) * vec_pnorm(taun[n] - omn[n], p)
                        for n in range(P.m))
        total = float(total)
        valid = total < 1.0
        upper = (((1 + alpha) / (1 - beta) * theta_tau.hi + gamma / (1 - beta))
                 * ((1 + r) / (1 - s) * theta_f.hi + t / (1 - s)))
        return PerturbationReport(
            "two_sided", valid, (0.0, upper) if valid else None,
            {"case": int(case), "condition_sum": total,
             "note": "only the upper bound is certified in two_sided mode"})

    raise ValueError("mode must be quadratic, general or two_sided")


@dataclass(frozen=True)
class Expansion:
    expanded: PAsf
    appended_vectors: np.ndarray
    n_min: int


def expand_to_asf(P_weak: PAsf, Q: PAsf, lam: float = 1.0) -> Expansion:
    """Append (g_n, (I - S_P) omega_n) from a reconstructing pair Q to make
    the combined frame operator the identity.

    Also reports N_min = rank(lam I - S_P), the minimal number of nonzero
    vectors any such expansion with combined operator lam I must append.
    """
    if P_weak.d != Q.d:
        raise ValueError("pairs must act on the same space")
    if float(np.abs(Q.T @ Q.F - np.eye(Q.d)).max()) > DUAL_TOL:
        raise ValueError("Q must reconstruct: T_Q F_Q = I within 1e-9")
    Sp = P_weak.frame_operator
    defect = np.eye(P_weak.d) - Sp
    appended = defect @ Q.T
    F_comb = np.vstack([P_weak.F, Q.F])
    T_comb = np.hstack([P_weak.T, appended])
    sv = np.linalg.svd(lam * np.eye(P_weak.d) - Sp, compute_uv=False)
    n_min = int((sv > 1e-10 * max(1.0, sv[0] if sv.size else 1.0)).sum())
    return Expansion(PAsf(P_weak.p, F_comb, T_comb), appended, n_min)
