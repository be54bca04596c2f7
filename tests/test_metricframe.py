import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit import linops
from framekit.metricframe import (
    LipschitzFamily,
    MetricSample,
    make_named_family,
    metric_frame_bounds,
    reconstruction_deviation,
    sample_from_points,
)


def pair_ratio_oracle(points, dist, values, p):
    # plain loops, no shared helpers
    lo, hi = math.inf, 0.0
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            s = sum(abs(values[k][i] - values[k][j]) ** p
                    for k in range(len(values))) ** (1.0 / p)
            lo = min(lo, s / dist[i][j])
            hi = max(hi, s / dist[i][j])
    return lo, hi


def line_sample(seed, n, lo, hi, base=None):
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.uniform(lo, hi, n - 2))
    return sample_from_points(np.concatenate([[lo], pts, [hi]]), base)


def test_sample_validation():
    with pytest.raises(ValueError):
        MetricSample(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        MetricSample(("a", "b"), np.array([[0.5, 1.0], [1.0, 0.0]]))  # diagonal
    D = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])  # 5 > 1 + 1
    with pytest.raises(ValueError):
        MetricSample(("a", "b", "c"), D)
    with pytest.raises(ValueError):
        MetricSample(("a",), np.zeros((1, 1)), base=3)
    # a base that is not an integer is refused, not truncated to a point
    for base in (1.5, True, 1.0, "1"):
        with pytest.raises(ValueError, match="base must be an integer"):
            MetricSample(("a", "b"), np.array([[0, 1.0], [1.0, 0]]), base=base)


def full_check(S):
    """The public constructor runs every check, the triangle scan too."""
    return MetricSample(S.points, S.dist, S.base)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_sample_validation_is_scale_relative(scale):
    # points on a line are a metric by construction at any scale
    pts = np.sort(np.random.default_rng(4).uniform(0.0, 1.0, 12)) * scale
    S = full_check(sample_from_points(pts))
    assert S.n == 12
    # a 1% triangle violation is refused at every scale
    D = np.array([[0.0, 1.0, 2.02], [1.0, 0.0, 1.0], [2.02, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        MetricSample(("a", "b", "c"), D * scale)
    with pytest.raises(ValueError, match="symmetric"):
        MetricSample(("a", "b"), np.array([[0.0, 1.0], [1.01, 0.0]]) * scale)
    with pytest.raises(ValueError, match="diagonal"):
        MetricSample(("a", "b"), np.array([[0.01, 1.0], [1.0, 0.0]]) * scale)


def test_sample_from_points_near_overflow():
    pts = np.sort(np.random.default_rng(3).uniform(1.0, 1e308, 10))
    assert full_check(sample_from_points(pts, base=0)).n == 10


def test_triangle_scan_overflow_is_silent():
    # sums of two distances near 1e308 round to inf, which never fails the
    # triangle inequality, so the scan neither refuses nor warns
    x = np.linspace(0.0, 1.0, 20) * 1.5e308
    D = np.abs(x[:, None] - x[None, :])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = MetricSample(tuple(range(20)), D)
    assert np.array_equal(S.dist, D)


@settings(max_examples=60, deadline=None)
@given(pts=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=30),
       k=st.integers(-500, 500))
def test_points_are_a_metric_by_construction(pts, k):
    for x in (np.asarray(pts) * 2.0 ** k,
              np.asarray(pts) * 8.9e307):  # differences up to 1.78e308
        S = sample_from_points(x, base=0)
        T = full_check(S)
        assert T.points == S.points and np.array_equal(T.dist, S.dist)


def test_constructed_samples_keep_the_cheap_checks():
    with pytest.raises(ValueError, match="base index"):
        sample_from_points([0.0, 1.0], base=2)
    with np.errstate(all="ignore"):
        for pts in ([0.0, 1e308, -1e308], [0.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                sample_from_points(pts)


def test_base_is_checked_before_the_triangle_scan():
    D = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])  # 5 > 1 + 1
    with pytest.raises(ValueError, match="base index out of range"):
        MetricSample(("a", "b", "c"), D, base=3)


def test_bounds_match_pair_scan_oracle():
    S = line_sample(0, 12, 1.0, 4.0)
    rng = np.random.default_rng(1)
    V = rng.standard_normal((5, 12))
    F = LipschitzFamily(V)
    for p in (1, 1.5, 2, 3):
        a, b = metric_frame_bounds(S, F, p)
        lo, hi = pair_ratio_oracle(S.points, S.dist, V, p)
        assert abs(a - lo) <= 1e-12 * max(1.0, lo)
        assert abs(b - hi) <= 1e-12 * max(1.0, hi)


def test_bounds_widen_by_remainder_on_top_only():
    S = line_sample(2, 6, 0.0, 1.0)
    V = np.vstack([np.asarray(S.points)])
    a0, b0 = metric_frame_bounds(S, LipschitzFamily(V), 1)
    a1, b1 = metric_frame_bounds(S, LipschitzFamily(V, remainder=0.25), 1)
    assert a1 == a0 and b1 == b0 + 0.25


def test_bounds_reject_degenerate_samples():
    S = MetricSample((0, 1), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        metric_frame_bounds(S, LipschitzFamily(np.zeros((1, 2))), 1)
    # two points at distance 0 separated by the family: no upper bound
    D = np.array([[0, 0, 1.0], [0, 0, 1.0], [1.0, 1.0, 0]])
    S = MetricSample((0, 1, 2), D)
    with pytest.raises(ValueError):
        metric_frame_bounds(S, LipschitzFamily(np.array([[0.0, 1.0, 2.0]])), 1)
    # same situation but with equal values is allowed
    F = LipschitzFamily(np.array([[1.0, 1.0, 2.0]]))
    a, b = metric_frame_bounds(S, F, 1)
    assert a == b == 1.0


def test_log_family_is_a_1_frame():
    S = line_sample(3, 30, 1.0, 10.0)
    F = make_named_family("log(1)", S, 30)
    assert F.remainder < 1e-8
    a, b = metric_frame_bounds(S, F, 1)
    assert abs(a - 1.0) <= 1e-8 and abs(b - 1.0) <= 1e-8
    # telescoping check on every sampled pair: sums reproduce |x - y|
    for i in range(S.n):
        for j in range(i + 1, S.n):
            s = np.abs(F.values[:, i] - F.values[:, j]).sum()
            assert abs(s - S.dist[i, j]) <= F.remainder + 1e-12


def test_log_family_tail_is_finite_past_171_terms():
    # (m - 1)! leaves the float range at m = 172; the tail c^(m-1)/(m-1)!
    # is taken in log space and matches the exact quotient
    S = line_sample(7, 10, 1.0, 20.0)
    c = Fraction(math.log(20.0))
    for m in (4, 40, 171, 172, 200):
        got = make_named_family("log(1)", S, m).remainder
        want = float(c ** (m - 1) / math.factorial(m - 1) / (1 - c / m))
        assert got > 0
        assert math.isclose(got, want, rel_tol=1e-11)
    # every point at 1: c = 0 and only the first term has a tail, 0^0 = 1
    S = sample_from_points([1.0 - 1e-12, 1.0])
    assert make_named_family("log(1)", S, 1).remainder == 1 / (1.0 - 1e-12)
    assert make_named_family("log(1)", S, 2).remainder == 0.0


def test_rational_family_is_a_1_frame():
    S = line_sample(4, 25, 2.0, 3.0)
    F = make_named_family("rational(2, 3)", S, 60)
    a, b = metric_frame_bounds(S, F, 1)
    assert abs(a - 1.0) <= 1e-7 and abs(b - 1.0) <= 1e-7
    for i in range(S.n):
        for j in range(i + 1, S.n):
            s = np.abs(F.values[:, i] - F.values[:, j]).sum()
            assert abs(s - S.dist[i, j]) <= F.remainder + 1e-12


def test_named_family_rejections():
    S = line_sample(5, 8, 1.0, 10.0)
    with pytest.raises(ValueError):
        make_named_family("gauss(1)", S, 10)
    with pytest.raises(ValueError):
        make_named_family("log(2)", S, 10)  # sample starts at 1 < 2
    with pytest.raises(ValueError):
        make_named_family("log(1)", S, 2)  # cannot certify: m <= log 10
    with pytest.raises(ValueError):
        make_named_family("rational(2,3)", S, 10)  # sample leaves [2, 3]
    with pytest.raises(ValueError):
        make_named_family("rational(0.5, 3)", S, 10)


def test_single_term_family_is_not_a_frame():
    S = line_sample(6, 10, 2.0, 3.0)
    F = make_named_family("rational(2,3)", S, 1)  # just the constant row
    a, b = metric_frame_bounds(S, F, 1)
    assert a == 0.0


def vector_sample(X, p):
    # the columns of X with the p-norm metric
    n = X.shape[1]
    D = [[linops.vec_pnorm(X[:, i] - X[:, j], p) for j in range(n)]
         for i in range(n)]
    return MetricSample(tuple(range(n)), np.array(D))


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_pnorm_tables_pass_the_triangle_scan(p):
    # every p-norm is a metric, so the full scan must accept its tables
    # however close their triangles come to equality
    rng = np.random.default_rng(17)
    X = rng.standard_normal((3, 25))
    X[:, 5:10] = X[:, [4]] * np.arange(2, 7)  # collinear points: equality
    S = vector_sample(X, p)
    assert S.n == 25 and S.dist[4, 9] == pytest.approx(
        5 * linops.vec_pnorm(X[:, 4], p), rel=1e-12)


def test_linear_frame_restricted_to_samples():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 3))
    X = rng.standard_normal((3, 9))
    S = vector_sample(X, 2)
    F = LipschitzFamily(A @ X)
    a, b = metric_frame_bounds(S, F, 2)
    smin, smax = linops.singular_extremes(A)
    assert smin - 1e-10 <= a <= b <= smax + 1e-10
    # p != 2: the certified operator-norm interval still caps the top ratio
    S15 = vector_sample(X, 1.5)
    a15, b15 = metric_frame_bounds(S15, F, 1.5)
    assert b15 <= linops.opnorm_interval(A, 1.5).hi + 1e-10


def test_reconstruction_log_family_binding_remainder():
    # truncate where the tail dominates float noise: the comparison with the
    # remainder is then a real theorem check, not a rounding artifact
    S = line_sample(18, 40, 1.0, 20.0, base=0)
    F = make_named_family("log(1)", S, 12)
    dev = reconstruction_deviation(S, F)
    assert dev > 1e-6  # the tail is visibly nonzero here
    assert dev <= F.remainder


def test_reconstruction_log_family_deep_truncation():
    # at 40 terms the certified tail (~1e-28) sits far below double
    # precision, so the deviation is pure representation noise
    S = line_sample(18, 40, 1.0, 20.0, base=0)
    F = make_named_family("log(1)", S, 40)
    dev = reconstruction_deviation(S, F)
    assert dev <= F.remainder + 1e-12


def test_reconstruction_identity_frame():
    # log-form tables: the non-constant rows sum to x - 1, exactly on
    # [1, 1.5], and then to x - 1 + 0.125, so 1 + |sum| is x and x + 0.125
    S = line_sample(19, 9, 1.0, 1.5, base=0)
    x = np.asarray(S.points)
    exact = LipschitzFamily(np.vstack([np.ones_like(x), x - 1.0]))
    off = LipschitzFamily(np.vstack([np.ones_like(x), x - 1.0,
                                     np.full_like(x, 0.125)]))
    assert reconstruction_deviation(S, exact) == 0.0
    assert reconstruction_deviation(S, off) == 0.125


@pytest.mark.parametrize("seed", range(20))
def test_reconstruction_deviation_equals_the_column_loop(seed):
    # per-column sums of up to 60 non-constant rows, real and complex,
    # large enough that the last bit of each modulus survives the 1 +
    rng = np.random.default_rng(seed)
    S = line_sample(seed, int(rng.integers(2, 40)), 1.0, 20.0, base=0)
    V = 100.0 * rng.standard_normal((int(rng.integers(1, 61)), S.n))
    if seed % 2:
        V = V + 1j * rng.standard_normal(V.shape)
    pts = np.asarray(S.points)
    want = max(abs(float(1.0 + abs(V[1:, j].sum())) - pts[j])
               for j in range(S.n))
    assert reconstruction_deviation(S, LipschitzFamily(V)) == want


def test_reconstruction_needs_pointed_numeric_sample():
    S = line_sample(20, 5, 0.0, 1.0)  # no base
    F = LipschitzFamily(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        reconstruction_deviation(S, F)
    S2 = MetricSample(("x", "y"), np.array([[0, 1.0], [1.0, 0]]), base=0)
    with pytest.raises(ValueError):
        reconstruction_deviation(S2, LipschitzFamily(np.zeros((1, 2))))
