"""Lipschitz (p,q)-Bessel multipliers on sampled pointed metric spaces.

M x = sum_n lambda_n f_n(x) tau_n, built from a symbol lambda, a pointed
Lipschitz p-Bessel family f_n (f_n(base) = 0) and vectors tau_n in K^d.
The module measures Lipschitz numbers by exhaustive pair scans and checks
them against the certified products of Bessel constants. The scans run in
metricframe's chunked pair kernel, whose batched product Tau @ diff and
norm are the scalar ones bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linops, metricframe
from .linops import dual_exponent, vec_pnorm

BASE_TOL = 1e-12


@dataclass(frozen=True)
class Multiplier:
    """Symbol, pointed family and vector family of a (p,q)-Bessel multiplier.

    bessel_b and bessel_d override the measured constants when supplied;
    reports carry the source of whichever was used. The output space K^d
    is normed by out_norm (2 by default).
    """

    sample: metricframe.MetricSample
    family: metricframe.LipschitzFamily
    Tau: np.ndarray
    lam: np.ndarray
    p: float
    out_norm: float = 2.0
    bessel_b: Optional[float] = None
    bessel_d: Optional[float] = None

    def __post_init__(self):
        p = float(self.p)
        if not 1 < p < math.inf:
            raise ValueError("multipliers need 1 < p < inf")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "out_norm", float(self.out_norm))
        if self.sample.base is None:
            raise ValueError("multipliers need a pointed sample")
        if self.family.values.shape[1] != self.sample.n:
            raise ValueError("family table does not match the sample")
        base_vals = np.abs(self.family.values[:, self.sample.base])
        if base_vals.max(initial=0.0) > BASE_TOL:
            raise ValueError("family must vanish at the base point")
        Tau = linops.as_matrix(self.Tau)
        lam = linops.as_vector(self.lam)
        if Tau.shape[1] != self.family.m or lam.size != self.family.m:
            raise ValueError("vectors and symbol must match the family length")
        object.__setattr__(self, "Tau", Tau)
        object.__setattr__(self, "lam", lam)
        for name in ("bessel_b", "bessel_d"):
            v = getattr(self, name)
            if v is not None and not float(v) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def q(self) -> float:
        return dual_exponent(self.p)

    @property
    def m(self) -> int:
        return self.family.m

    def family_bessel(self) -> tuple[float, str]:
        """Upper p-Bessel constant b of the family, with its source."""
        if self.bessel_b is not None:
            return float(self.bessel_b), "supplied"
        _, b = metricframe.metric_frame_bounds(self.sample, self.family, self.p)
        return b, "measured"

    def vector_bessel(self) -> tuple[float, str]:
        """q-Bessel constant d of the vectors: the norm of
        phi -> (phi(tau_n))_n from the dual of (K^d, out_norm) into l^q,
        certified by the mixed operator-norm upper bound (exact for
        q in {1, 2, inf})."""
        if self.bessel_d is not None:
            return float(self.bessel_d), "supplied"
        return linops.opnorm_mixed_upper(
            self.Tau.T, dual_exponent(self.out_norm), self.q), "measured"


def apply(M: Multiplier, point_index: int) -> np.ndarray:
    """sum_n lambda_n f_n(x) tau_n at the sample point with that index."""
    j = int(point_index)
    if not 0 <= j < M.sample.n:
        raise ValueError(f"unknown point index {point_index}")
    return M.Tau @ (M.lam * M.family.values[:, j])


def _pair_lip(M: Multiplier, coeff: np.ndarray, Tau: np.ndarray) -> float:
    """max over pairs of ||Tau (coeff * (f(x)-f(y)))||_out / d(x,y); points
    at distance 0 must give the same output, else ValueError."""
    num = metricframe._PairNorms(M.family.values, M.out_norm, Tau, coeff)
    return max(0.0, metricframe._over_dist(M.sample, num)[1])


@dataclass(frozen=True)
class LipReport:
    measured: float
    certified: float
    b: float
    b_source: str
    d: float
    d_source: str


def lip_bound_check(M: Multiplier) -> LipReport:
    """Measured Lipschitz number of the multiplier against b d ||lambda||_inf."""
    if M.sample.n < 2:
        raise ValueError("need at least 2 points")
    b, bs = M.family_bessel()
    d, ds = M.vector_bessel()
    measured = _pair_lip(M, M.lam, M.Tau)
    certified = b * d * float(np.abs(M.lam).max())
    return LipReport(measured, certified, b, bs, d, ds)


def tail_decay(M: Multiplier, cut: int) -> tuple[float, float]:
    """Lipschitz number of the part beyond the cut against b d max_{n>=cut}|lambda|.

    The discarded head is the finite-rank approximant; a symbol tending to
    zero makes the bound shrink with the cut.
    """
    cut = int(cut)
    if not 0 <= cut < M.m:
        raise ValueError("cut must lie in [0, m)")
    b, _ = M.family_bessel()
    d, _ = M.vector_bessel()
    tail = M.lam.copy()
    tail[:cut] = 0.0
    measured = _pair_lip(M, tail, M.Tau)
    bound = b * d * float(np.abs(M.lam[cut:]).max())
    return measured, bound


def continuity(M: Multiplier, symbol=None, vectors=None) -> tuple[float, float]:
    """Lipschitz distance to the multiplier with a replaced symbol or
    replaced vectors, with the corresponding certified bound:

    symbol:  measured <= b d ||lambda' - lambda||_p
    vectors: measured <= b ||lambda||_p (sum_n ||tau'_n - tau_n||^q)^(1/q)
    """
    if (symbol is None) == (vectors is None):
        raise ValueError("replace exactly one of symbol, vectors")
    b, _ = M.family_bessel()
    if symbol is not None:
        lam2 = linops.as_vector(symbol)
        if lam2.size != M.m:
            raise ValueError("replacement symbol has the wrong length")
        d, _ = M.vector_bessel()
        measured = _pair_lip(M, lam2 - M.lam, M.Tau)
        return measured, b * d * vec_pnorm(lam2 - M.lam, M.p)
    Tau2 = linops.as_matrix(vectors)
    if Tau2.shape != M.Tau.shape:
        raise ValueError("replacement vectors have the wrong shape")
    measured = _pair_lip(M, M.lam, Tau2 - M.Tau)
    # contiguous rows, so each row's norm is vec_pnorm of that column
    gaps = linops._pnorm_rows(np.ascontiguousarray((Tau2 - M.Tau).T), M.out_norm)
    return measured, b * vec_pnorm(M.lam, M.p) * vec_pnorm(gaps, M.q)
