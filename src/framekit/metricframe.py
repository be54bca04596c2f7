"""Metric (Lipschitz) p-frames on finite sampled metric spaces.

A family of Lipschitz functions f_n is a metric p-frame when

    a d(x,y) <= (sum_n |f_n(x) - f_n(y)|^p)^(1/p) <= b d(x,y)

for all points x, y. On a finite sample the frame bounds are decidable by
an exhaustive pair scan; MetricSample's O(n^3) triangle scan is skipped on
line tables, which provably pass it. Families cut from infinite series
carry a certified truncation remainder that widens the upper bound.

One kernel, _over_dist, runs every pair scan here and in the multiplier
module, in numpy chunks of at most CHUNK elements per temporary. Each
chunk's norms come from linops' row kernels, which run per pair the
operations of vec_pnorm and of a matrix-vector product, so every batched
value is the scalar one and the reported extremes equal the exhaustive
scalar scan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linops

DIST_TOL = 1e-12
CHUNK = 1 << 14  # array elements per temporary of a pair scan


@dataclass(frozen=True)
class MetricSample:
    """Finite metric space: point labels, a distance table, optional base.

    The table must be symmetric with zero diagonal and satisfy the
    triangle inequality, each within 1e-12 times its largest distance;
    labels are opaque except where an operation states otherwise.

    The O(n^3) triangle scan is skipped on a line table, numpy's |x_i - x_j|
    bit for bit of labels all int or float (not bool) under 2^1023 in size,
    where it cannot fail: each entry and finite sum it forms is exact times
    1 + e, |e| <= u = 2^-53, so each excess D[i, j] - (D[i, k] + D[k, j]) is
    at most about 3u |x_i - x_j|, far under the slack 1e-12 max D, and is
    exact, hence at most 0, when every entry is subnormal.
    """

    points: tuple
    dist: np.ndarray
    base: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "dist", np.asarray(self.dist, dtype=float))
        points, D, n, base = self.points, self.dist, self.n, self.base
        if n < 1 or D.shape != (n, n):
            raise ValueError("distance table must be square and match the points")
        if not np.all(np.isfinite(D)):
            raise ValueError("distances must be finite")
        if D.min() < 0:
            raise ValueError("distances must be nonnegative")
        slack = DIST_TOL * D.max()
        if np.abs(np.diagonal(D)).max(initial=0.0) > slack:
            raise ValueError("diagonal must be zero")
        if np.abs(D - D.T).max(initial=0.0) > slack:
            raise ValueError("distance table must be symmetric")
        if base is not None and (isinstance(base, bool)
                                 or not isinstance(base, (int, np.integer))):
            raise ValueError("base must be an integer point index")
        if base is not None and not 0 <= base < n:
            raise ValueError("base index out of range")
        object.__setattr__(self, "base", None if base is None else int(base))
        x = np.array([float(p) for p in points  # other labels leave x short
                      if type(p) in (int, float) and abs(p) < 2.0 ** 1023])
        line = np.array_equal(D, np.abs(x[:, None] - x[None, :]))
        if not line and (k := _triangle_violation(D, slack)) is not None:
            raise ValueError(f"triangle inequality fails through point {points[k]!r}")

    @property
    def n(self) -> int:
        return len(self.points)


def _triangle_violation(D: np.ndarray, slack: float) -> Optional[int]:
    """First k with D[i, j] - (D[i, k] + D[k, j]) > slack for some i, j, or
    None: each row block takes the least sum over the k below the least failure
    so far and, rounding being monotone, fails exactly when its per-k scan does."""
    n = len(D)
    rows, first = max(1, 4 * CHUNK // n), n
    with np.errstate(over="ignore"):  # a sum that overflows to inf never fails
        for r in range(0, n, rows):
            R = D[r:r + rows]
            low, s = np.full((2, len(R), n), np.inf)
            for k in range(first):
                np.minimum(low, np.add(R[:, k, None], D[k], out=s), out=low)
            if (R - low).max() > slack:
                first = next(k for k in range(first) if
                             (R - (R[:, [k]] + D[[k], :])).max() > slack)
    return first if first < n else None


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
    return MetricSample(x.tolist(), np.abs(x[:, None] - x[None, :]), base)


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


class _PairNorms:
    """Norms ||Tau (coeff (f(x_i) - f(x_j)))||_p over pairs of points, with
    values[n][j] = f_n(point j); Tau and coeff are optional.

    chunk(i, j) does many pairs at once: the rows of the pair differences
    go through linops._apply_rows and linops._pnorm_rows, which run per row
    the operations of Tau @ x and vec_pnorm, so each norm equals the scalar
    one bit for bit.
    """

    def __init__(self, values, p, Tau=None, coeff=None):
        self.p = linops._check_p(p)
        self.Tau, self.coeff = Tau, coeff
        self.rows = np.ascontiguousarray(values.T)
        self.width = max(values.shape[0], 0 if Tau is None else Tau.shape[0])

    def chunk(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        D = self.rows[i] - self.rows[j]
        if self.Tau is not None:
            D = linops._apply_rows(self.Tau, self.coeff * D)
        return linops._pnorm_rows(D, self.p)


def _over_dist(S: MetricSample, num: _PairNorms) -> tuple[float, float]:
    """Least and greatest num / d(x_i, x_j) over the pairs i < j at positive
    distance (inf, -inf when there are none); a pair at distance 0 whose
    norm exceeds DIST_TOL raises ValueError."""
    lo, hi = math.inf, -math.inf
    for i, j in _pairs(S.n, num.width):
        N, d = num.chunk(i, j), S.dist[i, j]
        far = d > 0
        if (N[~far] > DIST_TOL).any():
            raise ValueError("points at distance 0 take different values: "
                             "no finite upper bound")
        r = N[far] / d[far]
        lo, hi = r.min(initial=lo), r.max(initial=hi)
    return float(lo), float(hi)


def metric_frame_bounds(S: MetricSample, F: LipschitzFamily, p) -> tuple[float, float]:
    """Sampled frame bounds (a, b): the least and greatest ratio
    ||f(x_i) - f(x_j)||_p / d(x_i, x_j) over the pairs i < j.

    A dropped tail can only increase each pairwise sum, so the measured
    minimum stays a valid lower bound while the upper bound widens by the
    remainder (the l^1 tail dominates the l^p tail for every p >= 1).
    """
    _check_sizes(S, F)
    if not 1 <= float(p) < math.inf:
        raise ValueError("metric p-frames need 1 <= p < inf")
    a, b = _over_dist(S, _PairNorms(F.values, float(p)))
    if a > b:
        raise ValueError("degenerate sample: all pairwise distances are 0")
    return a, b + F.remainder


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
        # Lip(f_n) <= (log B)^(n-1)/((n-1)! A); geometric majorant from n = m,
        # in log space as (m-1)! overflows at m = 172; c = 0 leaves 0^0 = 1
        t = (math.exp((m - 1) * math.log(c) - math.lgamma(m)) if c > 0
             else float(m == 1))
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


def reconstruction_deviation(S: MetricSample, F: LipschitzFamily) -> float:
    """Invert the log family at each point, as 1 + |sum of the non-constant
    coefficients|, and return the worst distance back to the point (numeric
    labels)."""
    _check_sizes(S, F)
    if S.base is None:
        raise ValueError("reconstruction needs a pointed sample")
    try:
        pts = np.asarray([float(x) for x in S.points])
    except (TypeError, ValueError):
        raise ValueError("reconstruction needs numeric point labels") from None
    # contiguous rows keep each column's sum in numpy's pairwise order;
    # hypot is the scalar abs, which np.abs of a complex array is not
    s = np.ascontiguousarray(F.values[1:].T).sum(axis=1)
    outs = 1.0 + np.hypot(s.real, s.imag)
    return float(np.abs(outs - pts).max())
