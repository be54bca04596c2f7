"""Metric (Lipschitz) p-frames on finite sampled metric spaces.

A family of Lipschitz functions f_n is a metric p-frame when

    a d(x,y) <= (sum_n |f_n(x) - f_n(y)|^p)^(1/p) <= b d(x,y)

for all points x, y. On a finite sample everything is decidable by an
exhaustive pair scan: bounds, Bessel constants, perturbation hypotheses.
Families cut from infinite series carry a certified truncation remainder
that widens the reported upper bound.

One kernel, _extremes, runs every pair scan here and in the multiplier
module, in numpy chunks of at most CHUNK elements per temporary. Where the
batched arithmetic is the scalar one (1- and max-norms, moduli) its values
are final; elsewhere they only screen, and every pair whose a-priori
rounding window can reach an extreme is recomputed on the scalar vec_pnorm
path. Reported extremes therefore equal the exhaustive scalar scan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linops
from .errors import HypothesisViolated
from .linops import vec_pnorm

DIST_TOL = 1e-12
CHUNK = 1 << 14  # array elements per temporary of a pair scan
_U = 2.0 ** -53
_TINY, _HUGE = 2.0 ** -500, 2.0 ** 500


@dataclass(frozen=True)
class MetricSample:
    """Finite metric space: point labels, a distance table, optional base.

    The table must be symmetric with zero diagonal and satisfy the
    triangle inequality within 1e-12; labels are opaque except where an
    operation states otherwise.
    """

    points: tuple
    dist: np.ndarray
    base: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        D = np.asarray(self.dist, dtype=float)
        n = len(self.points)
        if n < 1 or D.shape != (n, n):
            raise ValueError("distance table must be square and match the points")
        if not np.all(np.isfinite(D)):
            raise ValueError("distances must be finite")
        if D.min() < 0:
            raise ValueError("distances must be nonnegative")
        if np.abs(np.diagonal(D)).max(initial=0.0) > DIST_TOL:
            raise ValueError("diagonal must be zero")
        if np.abs(D - D.T).max(initial=0.0) > DIST_TOL:
            raise ValueError("distance table must be symmetric")
        for k in range(n):
            if (D - (D[:, [k]] + D[[k], :])).max() > DIST_TOL:
                raise ValueError("triangle inequality fails through point "
                                 f"{self.points[k]!r}")
        if self.base is not None and not 0 <= int(self.base) < n:
            raise ValueError("base index out of range")
        object.__setattr__(self, "dist", D)
        if self.base is not None:
            object.__setattr__(self, "base", int(self.base))

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class LipschitzFamily:
    """Sampled function family: values[n][j] = f_n(point j).

    remainder bounds the l^1 tail of Lipschitz numbers of any terms
    dropped when an infinite family was cut; 0 means the table is the
    whole family.
    """

    values: np.ndarray
    remainder: float = 0.0

    def __post_init__(self):
        V = np.asarray(self.values)
        if V.ndim != 2 or V.shape[0] < 1 or V.shape[1] < 1:
            raise ValueError("expected an m x N value table")
        if not np.all(np.isfinite(V.real)) or not np.all(np.isfinite(V.imag)):
            raise ValueError("family values must be finite")
        r = float(self.remainder)
        if not r >= 0 or math.isinf(r):
            raise ValueError("remainder must be finite and nonnegative")
        object.__setattr__(self, "values", V)
        object.__setattr__(self, "remainder", r)

    @property
    def m(self) -> int:
        return self.values.shape[0]


def sample_from_points(points, base: Optional[int] = None) -> MetricSample:
    """Sample of the real line: numeric labels, d(x, y) = |x - y|."""
    x = np.asarray(points, dtype=float).reshape(-1)
    return MetricSample(tuple(x.tolist()), np.abs(x[:, None] - x[None, :]), base)


def sample_from_vectors(X, p, base: Optional[int] = None) -> MetricSample:
    """Sample of K^d with the p-norm metric; labels are the columns of X."""
    X = linops.as_matrix(X)
    n = X.shape[1]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            D[i, j] = D[j, i] = vec_pnorm(X[:, i] - X[:, j], p)
    labels = tuple(tuple(X[:, j].tolist()) for j in range(n))
    return MetricSample(labels, D, base)


def _check_sizes(S: MetricSample, F: LipschitzFamily):
    if F.values.shape[1] != S.n:
        raise ValueError("family table does not match the sample size")
    if S.n < 2:
        raise ValueError("need at least 2 points")


def _pairs(n: int, width: int):
    """Index arrays (i, j) of the pairs i < j in row-major order, at most
    CHUNK // width pairs at a time."""
    start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    step = max(1, CHUNK // width)
    for k0 in range(0, start[-1], step):
        k = np.arange(k0, min(k0 + step, start[-1]))
        i = np.searchsorted(start, k, side="right") - 1
        yield i, k - start[i] + i + 1


def _extremes(n: int, width: int, block, exact):
    """Least and greatest exact(i, j) over the pairs i < j of n points.

    block(i, j) screens a chunk: arrays (val, err) with |exact - val| <= err,
    err = 0 where val is exact and inf or nan where nothing is known; a nan
    val with err = 0, or a nan from exact, skips the pair. Only pairs whose
    window val +- err reaches an extreme go to exact.
    """
    known = [math.inf, -math.inf]  # extremes of the exact values so far
    reach = [math.inf, -math.inf]  # least val + err, greatest val - err
    held = np.empty((4, 0))  # i, j, val, err of screened pairs still in play
    for i, j in _pairs(n, width):
        val, err = block(i, j)
        sure = err == 0
        known = [np.fmin.reduce(val[sure], initial=known[0]),
                 np.fmax.reduce(val[sure], initial=known[1])]
        reach = [np.fmin.reduce(val + err, initial=reach[0]),
                 np.fmax.reduce(val - err, initial=reach[1])]
        new = ~sure
        I, J, V, E = held = np.hstack([held, [i[new], j[new], val[new], err[new]]])
        held = held[:, ~((V - E > reach[0]) & (V + E < reach[1]))]
    for i, j in held[:2].T.astype(int).tolist():
        x = exact(i, j)
        if not math.isnan(x):
            known = [min(known[0], x), max(known[1], x)]
    return known[0], known[1]


class _PairNorms:
    """Norms ||Tau (coeff (f(x_i) - f(x_j)))||_p over pairs of points, with
    values[n][j] = f_n(point j); Tau and coeff are optional.

    at(i, j) is the scalar vec_pnorm path. chunk(i, j) does many pairs with
    numpy and bounds its distance from at() by err. Both paths give the
    norm of one vector within relative gamma_(w+16) (Higham's
    gamma_k = k u / (1 - k u), w the longest vector) plus 2^-500 (squares
    underflowing in the unscaled p = 2 path), and the product within
    sqrt(2) gamma_(m+2) |Tau| |coeff diff| per entry. err is 0 for 1- and
    max-norms without Tau, whose reductions are the scalar ones, and on
    zero rows; it is inf from 2^500 up, where the p = 2 path may overflow.
    """

    def __init__(self, values, p, Tau=None, coeff=None):
        self.values, self.p = values, linops._check_p(p)
        self.Tau, self.coeff = Tau, coeff
        self.rows = np.ascontiguousarray(values.T)
        self.width = max(values.shape[0], 0 if Tau is None else Tau.shape[0])
        self.g = (self.width + 16) * _U / (1 - (self.width + 16) * _U)
        self.exact = Tau is None and self.p in (1, math.inf)

    def at(self, i: int, j: int) -> float:
        diff = self.values[:, i] - self.values[:, j]
        return vec_pnorm(diff if self.Tau is None
                         else self.Tau @ (self.coeff * diff), self.p)

    def _norms(self, A: np.ndarray) -> np.ndarray:
        a, p = np.abs(A), self.p
        if p == 1:
            return a.sum(axis=1)
        mx = a.max(axis=1)
        if math.isinf(p):
            return mx
        with np.errstate(divide="ignore", invalid="ignore"):
            s = mx * np.power(a / mx[:, None], p).sum(axis=1) ** (1.0 / p)
        return np.where(mx > 0, s, 0.0)

    def chunk(self, i: np.ndarray, j: np.ndarray):
        D = self.rows[i] - self.rows[j]
        if self.Tau is None:
            N = top = self._norms(D)
        else:
            D = self.coeff * D
            N = self._norms(D @ self.Tau.T)
            top = self._norms(np.abs(D) @ np.abs(self.Tau).T)
        err = 0.0 if self.exact else 6 * self.g * (N + top) + 4 * _TINY
        return N, np.where(top < _HUGE, np.where(D.any(axis=1), err, 0.0), math.inf)


def _over_dist(S: MetricSample, num: _PairNorms) -> tuple[float, float]:
    """Extremes of num / d(x_i, x_j) over the pairs at positive distance;
    a pair at distance 0 whose norm exceeds DIST_TOL raises ValueError."""
    def block(i, j):
        N, e = num.chunk(i, j)
        d = S.dist[i, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.where(d > 0, N / d, math.nan), np.where(
                d > 0, e / d, np.where(N + e <= DIST_TOL, 0.0, math.inf)))

    def exact(i, j):
        x, d = num.at(i, j), S.dist[i, j]
        if d <= 0 and x > DIST_TOL:
            raise ValueError("points at distance 0 take different values: "
                             "no finite upper bound")
        return x / d if d > 0 else math.nan

    return _extremes(S.n, num.width, block, exact)


def _pair_ratios(S: MetricSample, values: np.ndarray, p) -> tuple[float, float]:
    """Least and greatest ||f(x_i) - f(x_j)||_p / d(x_i, x_j) over i < j."""
    if not 1 <= float(p) < math.inf:
        raise ValueError("metric p-frames need 1 <= p < inf")
    lo, hi = _over_dist(S, _PairNorms(values, float(p)))
    if lo > hi:
        raise ValueError("degenerate sample: all pairwise distances are 0")
    return lo, hi


def metric_frame_bounds(S: MetricSample, F: LipschitzFamily, p) -> tuple[float, float]:
    """Sampled frame bounds (a, b) = extreme pairwise ratios.

    A dropped tail can only increase each pairwise sum, so the measured
    minimum stays a valid lower bound while the upper bound widens by the
    remainder (the l^1 tail dominates the l^p tail for every p >= 1).
    """
    _check_sizes(S, F)
    a, b = _pair_ratios(S, F.values, p)
    return a, b + F.remainder


def lipschitz_number(S: MetricSample, values) -> float:
    """max |f(x) - f(y)| / d(x, y) over sampled pairs; inf if a zero-distance
    pair separates values."""
    v = np.asarray(values).reshape(-1)
    if v.size != S.n:
        raise ValueError("value row does not match the sample size")

    def block(i, j):
        diff, d = v[i] - v[j], S.dist[i, j]
        num = np.hypot(diff.real, diff.imag)  # the scalar abs() of each pair
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(d > 0, num / d,
                           np.where(num > DIST_TOL, math.inf, math.nan))
        return val, np.zeros_like(val)

    return max(0.0, _extremes(S.n, 1, block, None)[1])


_NAME = re.compile(r"^\s*(log|rational)\s*\(\s*([^,()]+?)\s*(?:,\s*([^,()]+?)\s*)?\)\s*$")


def make_named_family(name: str, S: MetricSample, m: int) -> LipschitzFamily:
    """Built-in 1-frame families cut at m terms, with a certified remainder.

    log(a): on [a, inf) with a >= 1, rows 1, log(x), (log x)^2/2!, ...;
    the pairwise 1-sums telescope to |x - y|. rational(a, b): on
    [a, b] with 1 < a, rows (1 - 1/x)^n for n = 0..m-1; geometric sums
    again give |x - y|. Remainders bound the dropped Lipschitz tail via
    the ratio test (log) or the differentiated geometric series (rational).
    """
    mt = _NAME.match(name)
    if not mt:
        raise ValueError(f"unknown family {name!r}; use log(a) or rational(a,b)")
    if m < 1:
        raise ValueError("need at least one term")
    try:
        x = np.asarray([float(pt) for pt in S.points])
    except (TypeError, ValueError):
        raise ValueError("named families need numeric point labels") from None
    kind = mt.group(1)

    if kind == "log":
        if mt.group(3) is not None:
            raise ValueError("log takes a single parameter: log(a)")
        a = float(mt.group(2))
        if not a >= 1:
            raise ValueError("log family needs a >= 1")
        if x.min() < a - DIST_TOL:
            raise ValueError("sample leaves the domain [a, inf)")
        A, B = x.min(), x.max()
        c = math.log(max(B, 1.0))
        if m <= c:
            raise ValueError("too few terms to certify the tail: need m > log(max point)")
        rows = [np.ones_like(x)]
        term = np.ones_like(x)
        logs = np.log(x)
        for n in range(1, m):
            term = term * logs / n
            rows.append(term)
        # Lip(f_n) <= (log B)^(n-1)/((n-1)! A); geometric majorant from n = m
        t = c ** (m - 1) / math.factorial(m - 1)
        r = (t / (1.0 - c / m)) / A
        return LipschitzFamily(np.vstack(rows), r)

    if mt.group(3) is None:
        raise ValueError("rational takes two parameters: rational(a,b)")
    a, b = float(mt.group(2)), float(mt.group(3))
    if not 1 < a <= b:
        raise ValueError("rational family needs 1 < a <= b")
    if x.min() < a - DIST_TOL or x.max() > b + DIST_TOL:
        raise ValueError("sample leaves the domain [a, b]")
    A = x.min()
    t = 1.0 - 1.0 / x.max()
    base = 1.0 - 1.0 / x
    rows = [base ** n for n in range(m)]
    # Lip(f_n) <= n t^(n-1)/A^2; the tail sum has the closed form below
    r = (t ** (m - 1) * (m * (1 - t) + t) / (1 - t) ** 2) / A ** 2
    return LipschitzFamily(np.vstack(rows), r)


@dataclass(frozen=True)
class CombineReport:
    mode: str
    lam: complex
    predicted: tuple[float, float]
    measured: tuple[float, float]
    family: LipschitzFamily


def combine(S: MetricSample, F: LipschitzFamily, G: Optional[LipschitzFamily],
            lam, mode: str, p=1) -> CombineReport:
    """Scale a frame family or add a Bessel family to it.

    scale: lam*F has bounds (|lam| a, |lam| b). add: F + lam*G has bounds
    (a - |lam| d, b + |lam| d) where d is the measured Bessel bound of G,
    provided |lam| < a/d. Measured bounds of the combined family are
    reported next to the predictions.
    """
    _check_sizes(S, F)
    lam = complex(lam)
    al = abs(lam)
    a, b = metric_frame_bounds(S, F, p)
    if mode == "scale":
        fam = LipschitzFamily(lam * F.values, al * F.remainder)
        predicted = (al * a, al * b)
    elif mode == "add":
        if G is None:
            raise ValueError("add mode needs a second family")
        _check_sizes(S, G)
        if G.values.shape[0] != F.m:
            raise ValueError("families must have the same number of terms")
        d = _pair_ratios(S, G.values, p)[1] + G.remainder
        if not al * d < a:
            raise HypothesisViolated(
                f"|lam| d = {al * d:.6g} must stay below the lower bound {a:.6g}")
        fam = LipschitzFamily(F.values + lam * G.values,
                              F.remainder + al * G.remainder)
        predicted = (a - al * d, b + al * d)
    else:
        raise ValueError("mode must be 'scale' or 'add'")
    return CombineReport(mode, lam, predicted, metric_frame_bounds(S, fam, p), fam)


@dataclass(frozen=True)
class MetricPerturbation:
    hypothesis_holds: bool
    predicted: tuple[float, float]
    measured: tuple[float, float]


def perturb_certificate(S: MetricSample, F: LipschitzFamily, G: LipschitzFamily,
                        alpha: float, beta: float, gamma: float, p) -> MetricPerturbation:
    """Pairwise perturbation certificate for a candidate family G.

    Checks exhaustively (the sample is finite, so this is the whole
    hypothesis, not a sampling) that for all pairs

    ||(f-g)(x)-(f-g)(y)||_p <= alpha ||f(x)-f(y)||_p + beta ||g(x)-g(y)||_p
                               + gamma d(x,y),

    and reports the implied bounds ((1-alpha)a - gamma)/(1+beta) and
    ((1+alpha)b + gamma)/(1-beta). Certificates apply to the recorded
    tables; truncation remainders are not part of the hypothesis.
    """
    _check_sizes(S, F)
    _check_sizes(S, G)
    if G.values.shape != F.values.shape:
        raise ValueError("families must share the table shape")
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    if min(alpha, beta, gamma) < 0:
        raise HypothesisViolated("alpha, beta, gamma must be nonnegative")
    if alpha >= 1 or beta >= 1:
        raise HypothesisViolated("need alpha < 1 and beta < 1")
    a, b = _pair_ratios(S, F.values, p)
    if not gamma < (1 - alpha) * a:
        raise HypothesisViolated("need gamma < (1 - alpha) a")

    norms = [_PairNorms(V, p) for V in (F.values - G.values, F.values, G.values)]

    def block(i, j):
        (lhs, el), (f, ef), (g, eg) = (nm.chunk(i, j) for nm in norms)
        rhs = alpha * f + beta * g + gamma * S.dist[i, j]
        err = el + alpha * ef + beta * eg
        return (lhs - (rhs + 1e-12),
                np.where(err == 0, 0.0, err + 16 * _U * (lhs + rhs + 1e-12)))

    def exact(i, j):
        lhs, f, g = (nm.at(i, j) for nm in norms)
        return lhs - (alpha * f + beta * g + gamma * S.dist[i, j] + 1e-12)

    # lhs > rhs + 1e-12 exactly when their rounded difference is positive
    holds = not _extremes(S.n, F.m, block, exact)[1] > 0
    predicted = (((1 - alpha) * a - gamma) / (1 + beta),
                 ((1 + alpha) * b + gamma) / (1 - beta))
    measured = _pair_ratios(S, G.values, p)
    return MetricPerturbation(holds, predicted, measured)


def diff_lip_radius(S: MetricSample, F: LipschitzFamily, G: LipschitzFamily, p) -> float:
    """r = (sum_n Lip(f_n - g_n)^p)^(1/p) over the sample; when r < a the
    perturbed family is a frame with bounds (a - r, b + r)."""
    _check_sizes(S, F)
    _check_sizes(S, G)
    if G.values.shape != F.values.shape:
        raise ValueError("families must share the table shape")
    lips = [lipschitz_number(S, F.values[n] - G.values[n]) for n in range(F.m)]
    return float(vec_pnorm(np.asarray(lips), p))


@dataclass(frozen=True)
class ReconstructionReport:
    max_deviation: float
    reconstructor_lipschitz: float


def reconstruction_check(S: MetricSample, F: LipschitzFamily,
                         reconstructor: Callable, p=1) -> ReconstructionReport:
    """Feed each point's coefficient column through the reconstructor and
    measure the worst distance back to the point (numeric labels), plus a
    sampled Lipschitz number of the reconstructor on those columns."""
    _check_sizes(S, F)
    if S.base is None:
        raise ValueError("reconstruction needs a pointed sample")
    try:
        pts = np.asarray([float(x) for x in S.points])
    except (TypeError, ValueError):
        raise ValueError("reconstruction needs numeric point labels") from None
    outs = np.asarray([reconstructor(F.values[:, j]) for j in range(S.n)],
                      dtype=float)
    deviation = float(np.abs(outs - pts).max())
    gaps = _PairNorms(F.values, p)

    def block(i, j):
        N, e = gaps.chunk(i, j)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.abs(outs[i] - outs[j]) / N
            err = np.where(N > e, val * e / (N - e), math.inf)
        return np.where(N > 0, val, math.nan), np.where(e > 0, err, 0.0)

    def exact(i, j):
        gap = gaps.at(i, j)
        return abs(outs[i] - outs[j]) / gap if gap > 0 else math.nan

    lip = max(0.0, _extremes(S.n, gaps.width, block, exact)[1])
    return ReconstructionReport(deviation, lip)


def log_family_reconstructor(coeffs) -> float:
    """Inverts the log family: 1 + |sum of the non-constant coefficients|."""
    c = np.asarray(coeffs).reshape(-1)
    return float(1.0 + abs(c[1:].sum()))


def stability_bounds(theta_lip: float, S_lip: float,
                     alpha: float, gamma: float) -> tuple[float, float]:
    """Frame bounds surviving a perturbation of the analysis map when a
    Lipschitz reconstruction with number S_lip exists: requires
    alpha*theta_lip + gamma <= 1/S_lip and returns
    (1/S_lip - (alpha*theta_lip + gamma), theta_lip + (alpha*theta_lip + gamma))."""
    theta_lip, S_lip = float(theta_lip), float(S_lip)
    alpha, gamma = float(alpha), float(gamma)
    if min(theta_lip, S_lip) <= 0 or min(alpha, gamma) < 0:
        raise ValueError("Lipschitz numbers must be positive, alpha and gamma nonnegative")
    drift = alpha * theta_lip + gamma
    if drift > 1.0 / S_lip:
        raise HypothesisViolated("alpha*theta_lip + gamma exceeds 1/S_lip")
    return 1.0 / S_lip - drift, theta_lip + drift
