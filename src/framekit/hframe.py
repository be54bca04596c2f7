"""Finite frames for C^d: bounds, duals, the reconstruction algorithm,
identity residuals, Naimark-style dilation and perturbation certificates.

A frame is stored by its synthesis matrix (vectors as columns). The
analysis operator maps h to the coefficient vector (<h, tau_n>)_n, the
frame operator is S = sum_n <., tau_n> tau_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linops, pasf
from .errors import HypothesisViolated, NotAFrame
from .linops import (Perturbation, _apply_rows, _falsify, _norm_rows, herm,
                     inverse)

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

    def coefficients(self, h) -> np.ndarray:
        return self.analysis @ linops.as_vector(h)

    def is_frame(self) -> bool:
        return frame_bounds(self)[0] > 0

    @property
    def parseval_residual(self) -> float:
        """max |S - I|, entrywise; zero exactly for a Parseval frame."""
        return linops.identity_defect(self.frame_operator)

    def is_parseval(self) -> bool:
        return self.parseval_residual <= 1e-8


def frame_bounds(F: HilbertFrame) -> tuple[float, float]:
    """Optimal frame bounds (a, b); a = 0 signals a non-frame."""
    lo, hi = linops.hermitian_extremes(F.frame_operator)
    if lo <= RANK_RTOL * hi:
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
    return HilbertFrame(linops.inverse_sqrt(S) @ F.synthesis)


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
        mask[int(n)] = True
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
    h = linops.as_vector(h)
    mask = _subset_mask(F.m, M)
    coeff = F.coefficients(h)
    parseval = F.is_parseval()
    if mode == "parseval" and not parseval:
        raise ValueError("frame operator is not the identity within 1e-8")

    dual = canonical_dual(F)
    # each side's energy sum_{n in M} |<h,tau_n>|^2 and its S_M h
    (e_in, s_in), (e_out, s_out) = [
        ((np.abs(coeff[msk]) ** 2).sum(), F.synthesis[:, msk] @ coeff[msk])
        for msk in (mask, ~mask)]
    general_residual = abs(
        float(e_in - (np.abs(dual.coefficients(s_in)) ** 2).sum())
        - float(e_out - (np.abs(dual.coefficients(s_out)) ** 2).sum()))
    if not parseval or mode == "general":
        return IdentityReport(general_residual, None, None)
    norm = linops._vec_norm
    parseval_residual = abs(float(e_in - norm(s_in) ** 2)
                            - float(e_out - norm(s_out) ** 2))
    return IdentityReport(general_residual, parseval_residual,
                          float(e_in + norm(s_out) ** 2))


def naimark_dilate(F: HilbertFrame) -> HilbertFrame:
    """Extend tau_n to a Riesz basis omega_n = tau_n (+) (I - P) e_n of C^m.

    This is ``pasf.dilate`` of the pair (analysis rows, synthesis columns):
    P is the canonical coefficient-space projection Theta S^(-1) Theta^H,
    and the second summand is written in an orthonormal basis of
    range(I - P), so the dilation space has dimension d + (m - d). For a
    Parseval frame the omega_n are orthonormal.
    """
    if not F.is_frame():
        raise NotAFrame("dilation requires a frame")
    omega = pasf.dilate(pasf.PAsf(2.0, F.analysis, F.synthesis)).T
    if omega.shape[0] != F.m:
        raise NotAFrame("coefficient projection has unexpected rank")
    return HilbertFrame(omega)


def perturb_certificate(F: HilbertFrame, G: HilbertFrame, mode: str,
                        alpha: float = 0.0, beta: float = 0.0, gamma: float = 0.0,
                        seed: int = 0, samples: int = 256) -> Perturbation:
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
        return Perturbation("quadratic", valid, bounds, {"c": c})
    if max(alpha + gamma / math.sqrt(a), beta) >= 1:
        raise HypothesisViolated(
            "need max(alpha + gamma/sqrt(a), beta) < 1 for the general certificate")
    norms = lambda A, C: _norm_rows(_apply_rows(A, C))
    valid, detail = _falsify(
        lambda C: (norms(diff, C), alpha * norms(F.synthesis, C)
                   + beta * norms(G.synthesis, C) + gamma * _norm_rows(C)),
        F.m, samples, seed)
    mu = (alpha + beta + gamma / math.sqrt(a)) / (1 + beta)
    nu = (alpha + beta + gamma / math.sqrt(b)) / (1 - beta)
    bounds = (a * (1 - mu) ** 2, b * (1 + nu) ** 2)
    return Perturbation("general", valid, bounds, detail)


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
