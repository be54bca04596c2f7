"""Finite frames for C^d: bounds, duals, the reconstruction algorithm,
identity residuals, Naimark-style dilation and perturbation certificates.

A frame is stored by its synthesis matrix (vectors as columns). The
analysis operator maps h to the coefficient vector (<h, tau_n>)_n, the
frame operator is S = sum_n <., tau_n> tau_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linops
from .errors import DependentInput, HypothesisViolated, NotAFrame
from .linops import herm, inverse

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class HilbertFrame:
    """Finite vector family in C^d, columns of the synthesis matrix."""

    synthesis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "synthesis", linops.as_matrix(self.synthesis))

    @classmethod
    def from_vectors(cls, vectors) -> "HilbertFrame":
        cols = [linops.as_vector(v) for v in vectors]
        if len({c.size for c in cols}) != 1:
            raise ValueError("frame vectors must share a dimension")
        return cls(np.column_stack(cols))

    @property
    def d(self) -> int:
        return self.synthesis.shape[0]

    @property
    def m(self) -> int:
        return self.synthesis.shape[1]

    @property
    def analysis(self) -> np.ndarray:
        return herm(self.synthesis)

    @property
    def frame_operator(self) -> np.ndarray:
        return self.synthesis @ self.analysis

    @property
    def gram(self) -> np.ndarray:
        return self.analysis @ self.synthesis

    def vector(self, n: int) -> np.ndarray:
        return self.synthesis[:, n]

    def coefficients(self, h) -> np.ndarray:
        return self.analysis @ linops.as_vector(h)

    def is_frame(self) -> bool:
        smin, smax = linops.singular_extremes(self.synthesis)
        return smax > 0 and smin / smax > RANK_RTOL

    def is_parseval(self, tol: float = 1e-8) -> bool:
        return float(np.abs(self.frame_operator - np.eye(self.d)).max()) <= tol


def frame_bounds(F: HilbertFrame) -> tuple[float, float]:
    """Optimal frame bounds (a, b); a = 0 signals a non-frame."""
    lo, hi = linops.hermitian_extremes(F.frame_operator)
    if lo <= RANK_RTOL * max(hi, 1.0):
        return 0.0, hi
    return lo, hi


def canonical_dual(F: HilbertFrame) -> HilbertFrame:
    """Frame of vectors S^(-1) tau_n; bounds are the reciprocals of F's."""
    if not F.is_frame():
        raise NotAFrame("canonical dual requires a frame")
    return HilbertFrame(inverse(F.frame_operator) @ F.synthesis)


def parsevalize(F: HilbertFrame) -> HilbertFrame:
    """Frame of vectors S^(-1/2) tau_n; its frame operator is the identity."""
    if not F.is_frame():
        raise NotAFrame("Parsevalization requires a frame")
    S = (F.frame_operator + herm(F.frame_operator)) / 2
    w, Q = np.linalg.eigh(S)
    root_inv = Q @ np.diag(1.0 / np.sqrt(w)) @ herm(Q)
    return HilbertFrame(root_inv @ F.synthesis)


def frame_algorithm(F: HilbertFrame, h, n_iters: int) -> tuple[list[np.ndarray], float]:
    """Iterates h_k = h_{k-1} + 2/(a+b) S (h - h_{k-1}) starting from 0.

    Returns the iterates h_1..h_n and the contraction rate
    rho = (b - a)/(b + a), which certifies ||h_k - h|| <= rho^k ||h||.
    """
    a, b = frame_bounds(F)
    if a <= 0:
        raise NotAFrame("reconstruction requires a frame")
    h = linops.as_vector(h)
    S = F.frame_operator
    relax = 2.0 / (a + b)
    rho = (b - a) / (b + a)
    iterates = []
    hk = np.zeros_like(h)
    for _ in range(n_iters):
        hk = hk + relax * (S @ (h - hk))
        iterates.append(hk.copy())
    return iterates, rho


def _subset_mask(m: int, M) -> np.ndarray:
    mask = np.zeros(m, dtype=bool)
    for n in M:
        n = int(n)
        if not 0 <= n < m:
            raise ValueError(f"subset index {n} out of range 0..{m - 1}")
        mask[n] = True
    return mask


@dataclass(frozen=True)
class IdentityReport:
    general_residual: float
    parseval_residual: float | None
    lower_bound_value: float | None


def frame_identity_residuals(F: HilbertFrame, M, h, mode: str = "auto") -> IdentityReport:
    """Residuals of the two frame identities for the index split (M, M^c).

    general: sum_{n in M} |<h,tau_n>|^2 - sum_n |<S_M h, dual_n>|^2 takes the
    same value on M and M^c. parseval (Parseval frames only): the second sum
    is replaced by ||sum_{n in M} <h,tau_n> tau_n||^2, and in addition
    sum_{n in M} |<h,tau_n>|^2 + ||sum_{n in M^c} <h,tau_n> tau_n||^2
    is reported; it is bounded below by (3/4)||h||^2.
    """
    if mode not in ("auto", "general", "parseval"):
        raise ValueError("mode must be auto, general or parseval")
    h = linops.as_vector(h)
    mask = _subset_mask(F.m, M)
    coeff = F.coefficients(h)
    parseval = F.is_parseval()
    if mode == "parseval" and not parseval:
        raise ValueError("frame operator is not the identity within 1e-8")

    dual = canonical_dual(F)

    def general_side(msk):
        s_m_h = F.synthesis[:, msk] @ coeff[msk]
        return float((np.abs(coeff[msk]) ** 2).sum()
                     - (np.abs(dual.coefficients(s_m_h)) ** 2).sum())

    general_residual = abs(general_side(mask) - general_side(~mask))

    parseval_residual = None
    lower_bound_value = None
    if parseval and mode != "general":
        def parseval_side(msk):
            s_m_h = F.synthesis[:, msk] @ coeff[msk]
            return float((np.abs(coeff[msk]) ** 2).sum()
                         - np.linalg.norm(s_m_h) ** 2)

        parseval_residual = abs(parseval_side(mask) - parseval_side(~mask))
        s_rest = F.synthesis[:, ~mask] @ coeff[~mask]
        lower_bound_value = float((np.abs(coeff[mask]) ** 2).sum()
                                  + np.linalg.norm(s_rest) ** 2)
    return IdentityReport(general_residual, parseval_residual, lower_bound_value)


def riesz_basis_check(F: HilbertFrame) -> bool:
    """Riesz basis iff the family is exact: m = d and the Gram is invertible."""
    return F.m == F.d and linops.is_invertible(F.gram)


@dataclass(frozen=True)
class NaimarkDilation:
    space_dim: int
    frame: HilbertFrame
    projection: np.ndarray  # maps the dilation space onto the first d coords


def naimark_dilate(F: HilbertFrame) -> NaimarkDilation:
    """Extend tau_n to a Riesz basis omega_n = tau_n (+) (I - P) e_n of C^m.

    P is the canonical coefficient-space projection Theta S^(-1) Theta^H;
    the second summand is written in an orthonormal basis of range(I - P),
    so the dilation space has dimension d + (m - d). For a Parseval frame
    the omega_n are orthonormal.
    """
    if not F.is_frame():
        raise NotAFrame("dilation requires a frame")
    m, d = F.m, F.d
    P = F.analysis @ inverse(F.frame_operator) @ F.synthesis
    Q = np.eye(m) - P
    U, s, _ = np.linalg.svd(Q)
    r2 = int((s > RANK_RTOL * max(1.0, s[0] if s.size else 1.0)).sum())
    if r2 != m - d:
        raise NotAFrame("coefficient projection has unexpected rank")
    B = U[:, :r2]
    tail = herm(B) @ Q  # coordinates of (I-P) e_n in the basis of range(I-P)
    omega = np.vstack([F.synthesis, tail])
    proj = np.hstack([np.eye(d), np.zeros((d, r2))])
    return NaimarkDilation(d + r2, HilbertFrame(omega), proj)


@dataclass(frozen=True)
class PerturbationCertificate:
    mode: str
    valid: bool
    predicted_bounds: tuple[float, float] | None
    detail: dict = field(default_factory=dict)


def perturb_certificate(F: HilbertFrame, G: HilbertFrame, mode: str,
                        alpha: float = 0.0, beta: float = 0.0, gamma: float = 0.0,
                        seed: int = 0, samples: int = 256) -> PerturbationCertificate:
    """Frame-bound certificate for a perturbed family G.

    quadratic: if c = sum ||tau_n - omega_n||^2 < a then G is a frame with
    bounds a(1 - sqrt(c/a))^2, b(1 + sqrt(c/b))^2.

    general: under ||sum c_n(tau_n - omega_n)|| <= alpha ||sum c_n tau_n||
    + beta ||sum c_n omega_n|| + gamma ||c|| with max(alpha + gamma/sqrt(a),
    beta) < 1, G is a frame with bounds
    a (1 - (alpha + beta + gamma/sqrt(a)) / (1 + beta))^2 and
    b (1 + (alpha + beta + gamma/sqrt(b)) / (1 - beta))^2.
    The inequality is a hypothesis; it is falsification-tested on seeded
    coefficient vectors, not proven.
    """
    if F.d != G.d or F.m != G.m:
        raise ValueError("families must share shape")
    a, b = frame_bounds(F)
    if a <= 0:
        raise NotAFrame("perturbation certificates require a frame")
    diff = G.synthesis - F.synthesis
    if mode == "quadratic":
        c = float((np.abs(diff) ** 2).sum())
        valid = c < a
        bounds = None
        if valid:
            bounds = (a * (1 - math.sqrt(c / a)) ** 2,
                      b * (1 + math.sqrt(c / b)) ** 2)
        return PerturbationCertificate("quadratic", valid, bounds, {"c": c})
    if mode != "general":
        raise ValueError("mode must be quadratic or general")
    if max(alpha + gamma / math.sqrt(a), beta) >= 1:
        raise HypothesisViolated(
            "need max(alpha + gamma/sqrt(a), beta) < 1 for the general certificate")
    rng = np.random.default_rng(seed)
    worst = -math.inf
    falsified = False
    for _ in range(samples):
        cvec = rng.standard_normal(F.m) + 1j * rng.standard_normal(F.m)
        lhs = np.linalg.norm(diff @ cvec)
        rhs = (alpha * np.linalg.norm(F.synthesis @ cvec)
               + beta * np.linalg.norm(G.synthesis @ cvec)
               + gamma * np.linalg.norm(cvec))
        worst = max(worst, lhs - rhs)
        if lhs > rhs + 1e-12:
            falsified = True
    mu = (alpha + beta + gamma / math.sqrt(a)) / (1 + beta)
    nu = (alpha + beta + gamma / math.sqrt(b)) / (1 - beta)
    bounds = (a * (1 - mu) ** 2, b * (1 + nu) ** 2)
    return PerturbationCertificate(
        "general", not falsified, bounds,
        {"samples": samples, "worst_margin": worst,
         "note": "hypothesis falsification-tested on samples, not proven"})


def gram_schmidt(vectors) -> np.ndarray:
    """Orthonormal columns spanning the input, in order; raises on dependence."""
    cols = [linops.as_vector(v) for v in vectors]
    if len({c.size for c in cols}) != 1:
        raise ValueError("vectors must share a dimension")
    scale = max(np.linalg.norm(c) for c in cols)
    if scale == 0:
        raise DependentInput("all vectors vanish")
    out: list[np.ndarray] = []
    for c in cols:
        w = c.astype(complex)
        for q in out:  # modified Gram-Schmidt, two passes
            w = w - np.vdot(q, w) * q
        for q in out:
            w = w - np.vdot(q, w) * q
        n = np.linalg.norm(w)
        if n <= 1e-12 * scale:
            raise DependentInput("dependent vector encountered")
        out.append(w / n)
    return np.column_stack(out)


def mercedes_frame() -> HilbertFrame:
    """Three unit vectors at mutual angle 120 degrees in R^2; tight, bound 3/2."""
    r3 = math.sqrt(3.0)
    return HilbertFrame(np.array([[0.0, -r3 / 2, r3 / 2],
                                  [1.0, -0.5, -0.5]]))


def harmonic_frame(n: int, m: int) -> HilbertFrame:
    """m-th roots of unity rows: v_k = m^(-1/2) (1, w^k, ..., w^((n-1)k)).

    Parseval for every m >= n.
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    k = np.arange(m)
    rows = np.arange(n)
    return HilbertFrame(np.exp(2j * math.pi * np.outer(rows, k) / m) / math.sqrt(m))


def lines_frame(n: int) -> HilbertFrame:
    """Unit vectors along n equiangular lines in R^2; tight, bound n/2."""
    if n < 2:
        raise ValueError("need n >= 2")
    ang = math.pi * np.arange(n) / n
    return HilbertFrame(np.vstack([np.cos(ang), np.sin(ang)]))


def make_named_frame(spec: str) -> HilbertFrame:
    """Build a named frame from a string like "mercedes", "harmonic(2,4)",
    "lines(5)"."""
    text = spec.strip().lower()
    if text == "mercedes":
        return mercedes_frame()
    for name, builder, arity in (("harmonic", harmonic_frame, 2),
                                 ("lines", lines_frame, 1)):
        if text.startswith(name + "(") and text.endswith(")"):
            args = [t.strip() for t in text[len(name) + 1:-1].split(",")]
            if len(args) != arity or not all(t.isdigit() for t in args):
                raise ValueError(f"{name} expects {arity} integer argument(s)")
            return builder(*map(int, args))
    raise ValueError(f"unknown named frame: {spec!r}")
