"""Semi-inner products on finite l^p and the frame identities they carry.

For p > 1 the space l^p_d admits the canonical semi-inner product

    [x, y] = sum_j x_j conj(y_j) |y_j|^(p-2) / ||y||_p^(p-2),   [x, 0] = 0,

linear in x, with [x, x] = ||x||_p^2 and |[x, y]| <= ||x|| ||y||. Frame-type
families (omega_n, tau_n) act through partial operators
S_M x = sum_{n in M} [x, omega_n] tau_n; the module checks the resulting
identities and the 3/4 lower bound.

A SipPair computes its duality maps w_n = [., omega_n] once, so a check takes
m + 1 maps and O(m^2) dot products: each [v, y] is _dot(v, w), the sum
(v * w).sum() with w = sip_functional(y, p), the bits of a fresh map per
scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linops
from .linops import inverse, vec_pnorm

PARSEVAL_TOL = 1e-8


def _dot(v: np.ndarray, w: np.ndarray) -> complex:  # [v, y], w the map at y
    return complex((v * w).sum())


def sip_functional(y, p) -> np.ndarray:
    """Row w with [x, y] = w . x for all x (the duality map at y).

    Computed as w_j = ||y||_p conj(y_j / |y_j|) u_j^(p-1) with
    u_j = |y_j| / ||y||_p <= 1: no power of ||y||_p is formed, so nothing
    overflows or turns into NaN at any scale of y.
    """
    y = linops.as_vector(y)
    ny = vec_pnorm(y, p)
    w = np.zeros_like(y)
    if ny == 0.0:
        return w
    ay = np.abs(y)
    nz = ay > 0
    a, yn = ay[nz], y[nz]
    # conj(y_j / |y_j|) by real divisions: complex division by a
    # subnormal |y_j| overflows in numpy
    w[nz] = (yn.real / a - 1j * (yn.imag / a)) * (a / ny) ** (p - 1)
    return ny * w


@dataclass(frozen=True)
class SipPair:
    """Family (omega_n, tau_n) in l^p_d, stored as columns of Omega and Tau."""

    p: float
    Omega: np.ndarray
    Tau: np.ndarray

    def __post_init__(self):
        p = float(self.p)
        if not p > 1 or math.isinf(p):
            raise ValueError("need 1 < p < inf")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "Omega", linops.as_matrix(self.Omega))
        object.__setattr__(self, "Tau", linops.as_matrix(self.Tau))
        if self.Omega.shape != self.Tau.shape:
            raise ValueError("Omega and Tau must share shape")
        object.__setattr__(self, "_W", np.vstack(
            [sip_functional(self.Omega[:, n], p) for n in range(self.m)]))
        self._W.flags.writeable = False

    @property
    def d(self) -> int:
        return self.Omega.shape[0]

    @property
    def m(self) -> int:
        return self.Omega.shape[1]

    def functionals(self) -> np.ndarray:
        """Read-only W (m x d), row n the duality map of omega_n."""
        return self._W

    def frame_operator(self) -> np.ndarray:
        return self.Tau @ self.functionals()

    def is_parseval(self) -> bool:
        return linops.identity_defect(self.frame_operator()) <= PARSEVAL_TOL


def _subset(P: SipPair, M) -> list[int]:
    return sorted({int(n) for n in M})


def partial_operator(P: SipPair, M) -> np.ndarray:
    """S_M = sum_{n in M} [., omega_n] tau_n, linear in x for every p."""
    idx = _subset(P, M)
    W = P.functionals()
    if not idx:
        return np.zeros((P.d, P.d), dtype=complex)
    return P.Tau[:, idx] @ W[idx, :]


def _complement(P: SipPair, M) -> list[int]:
    chosen = set(_subset(P, M))
    return [n for n in range(P.m) if n not in chosen]


def general_identity_residual(P: SipPair, M, x) -> float:
    """Residual of the index-split identity for an arbitrary pair with
    invertible frame operator:

    sum_{n in M} [x, omega_n][tau_n, x] - sum_n [S_M x, dual w_n][dual t_n, (S_M)* x]

    takes the same value on M and its complement. The canonical dual is
    realized as dual t_n = S^(-1) tau_n with [u, dual w_n] = [S^(-1) u, w_n],
    and the trailing slot (S_M)* x is eliminated through the defining
    relation [w, (S_M)* x] = [S_M w, x]; no generalized adjoint is built.
    """
    x = linops.as_vector(x)
    W, wx = P.functionals(), sip_functional(x, P.p)
    Sinv = inverse(P.frame_operator())
    dual = [Sinv @ P.Tau[:, n] for n in range(P.m)]

    def side(idx):
        first = sum(_dot(x, W[n]) * _dot(P.Tau[:, n], wx) for n in idx)
        u = linops.as_vector(Sinv @ partial_operator(P, idx) @ x)
        w = sum((_dot(u, W[n]) * dual[n] for n in range(P.m)),
                np.zeros(P.d, dtype=complex))
        second = _dot(linops.as_vector(partial_operator(P, idx) @ w), wx)
        return first - second

    return abs(side(_subset(P, M)) - side(_complement(P, M)))


def _parseval_sums(P: SipPair, idx: list, x, wx, both=True) -> tuple:
    """The two sums of the Parseval identities over idx: sum_{n in idx}
    [x,w_n][t_n,x] and sum_{n,k in idx} [x,w_n][t_n,w_k][t_k,x] (None in
    place of the second unless both); wx is the duality map at x."""
    W = P.functionals()
    c = [_dot(x, W[n]) for n in idx]
    ct = [_dot(P.Tau[:, n], wx) for n in idx]
    first = sum((a * b for a, b in zip(c, ct)), 0j)
    if not both:
        return first, None
    second = sum((c[i] * _dot(P.Tau[:, n], W[k]) * ct[j]
                  for i, n in enumerate(idx) for j, k in enumerate(idx)), 0j)
    return first, second


def parseval_identity_residual(P: SipPair, M, x) -> float:
    """Residual of the Parseval form of the identity:

    sum_{n in M} [x,w_n][t_n,x] - sum_{n,k in M} [x,w_n][t_n,w_k][t_k,x]
    equals the same expression over the complement.
    """
    if not P.is_parseval():
        raise ValueError("frame operator is not the identity within 1e-8")
    x = linops.as_vector(x)
    wx = sip_functional(x, P.p)
    (f_in, s_in), (f_out, s_out) = (_parseval_sums(P, idx, x, wx) for idx in
                                    (_subset(P, M), _complement(P, M)))
    return abs((f_in - s_in) - (f_out - s_out))


def operator_identity_residual(P: SipPair, M) -> float:
    """||S_M + S_{M^c}^2 - S_{M^c} - S_M^2|| for a Parseval pair."""
    S_M = partial_operator(P, M)
    S_Mc = partial_operator(P, _complement(P, M))
    R = S_M + S_Mc @ S_Mc - S_Mc - S_M @ S_M
    return linops._norm_2(R)


@dataclass(frozen=True)
class LowerBoundReport:
    condition_value: float
    condition_holds: bool
    value: float
    floor: float  # (3/4) ||x||_p^2
    deficit: float  # max(floor - value, 0)


def lower_bound_check(P: SipPair, M, x) -> LowerBoundReport:
    """The 3/4 lower bound for Parseval pairs.

    Whenever [(S_M - I/2)^2 x, x] >= 0 (checked with a -1e-10 allowance),
    the quantity sum_{n in M} [x,w_n][t_n,x]
    + sum_{n,k in M^c} [x,w_n][t_n,w_k][t_k,x] is at least
    (3/4) ||x||_p^2; the deficit is how far it falls short.
    """
    if not P.is_parseval():
        raise ValueError("frame operator is not the identity within 1e-8")
    x = linops.as_vector(x)
    p = P.p
    M = _subset(P, M)
    Mc = _complement(P, M)
    S_M = partial_operator(P, M)
    half = S_M - 0.5 * np.eye(P.d)
    wx = sip_functional(x, p)
    condition_value = _dot(linops.as_vector(half @ half @ x), wx).real
    condition_holds = condition_value >= -1e-10
    value = (_parseval_sums(P, M, x, wx, both=False)[0]
             + _parseval_sums(P, Mc, x, wx)[1]).real
    floor = 0.75 * vec_pnorm(x, p) ** 2
    deficit = max(floor - value, 0.0)
    return LowerBoundReport(condition_value, condition_holds, value, floor,
                            deficit)
