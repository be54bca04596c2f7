import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit import linops
from framekit.metricframe import (
    CombineReport,
    HypothesisViolated,
    LipschitzFamily,
    MetricSample,
    combine,
    diff_lip_radius,
    lipschitz_number,
    log_family_reconstructor,
    make_named_family,
    metric_frame_bounds,
    perturb_certificate,
    reconstruction_check,
    sample_from_points,
    sample_from_vectors,
    stability_bounds,
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


@settings(max_examples=60, deadline=None)
@given(pts=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=30),
       k=st.integers(-500, 500))
def test_points_are_a_metric_by_construction(pts, k):
    for x in (np.asarray(pts) * 2.0 ** k,
              np.asarray(pts) * 8.9e307):  # differences up to 1.78e308
        S = sample_from_points(x, base=0)
        with np.errstate(over="ignore"):  # sums near 1e308 reach inf
            T = full_check(S)
        assert T.points == S.points and np.array_equal(T.dist, S.dist)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
       n=st.integers(1, 16), k=st.integers(-500, 500),
       p=st.sampled_from([1, 1.5, 2, 3, math.inf]), cplx=st.booleans())
def test_vectors_are_a_metric_by_construction(seed, d, n, k, p, cplx):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n)) * 2.0 ** k
    if cplx:
        X = X + 1j * rng.standard_normal((d, n)) * 2.0 ** k
    full_check(sample_from_vectors(X, p))


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


def test_lipschitz_number_of_square_on_unit_interval():
    pts = np.linspace(0.0, 1.0, 17)
    S = sample_from_points(pts)
    got = lipschitz_number(S, pts ** 2)
    # |x^2 - y^2|/|x - y| = x + y, maximized by the two largest points
    want = pts[-1] + pts[-2]
    assert abs(got - want) <= 1e-12
    assert lipschitz_number(S, np.ones(17)) == 0.0
    assert abs(lipschitz_number(S, pts) - 1.0) <= 1e-12


def test_lipschitz_number_infinite_on_merged_points():
    D = np.array([[0, 0.0], [0.0, 0]])
    S = MetricSample((0, 1), D)
    assert lipschitz_number(S, [0.0, 1.0]) == math.inf


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


def test_linear_frame_restricted_to_samples():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 3))
    X = rng.standard_normal((3, 9))
    S = sample_from_vectors(X, 2)
    F = LipschitzFamily(A @ X)
    a, b = metric_frame_bounds(S, F, 2)
    smin, smax = linops.singular_extremes(A)
    assert smin - 1e-10 <= a <= b <= smax + 1e-10
    # p != 2: the certified operator-norm interval still caps the top ratio
    S15 = sample_from_vectors(X, 1.5)
    a15, b15 = metric_frame_bounds(S15, F, 1.5)
    assert b15 <= linops.opnorm_interval(A, 1.5).hi + 1e-10


def test_combine_scale_is_exact():
    S = line_sample(8, 9, 1.0, 2.0)
    F = make_named_family("log(1)", S, 20)
    a, b = metric_frame_bounds(S, F, 1)
    rep = combine(S, F, None, 2.0, "scale")
    assert isinstance(rep, CombineReport)
    assert rep.predicted == (2 * a, 2 * b)
    assert rep.measured == rep.predicted


def linear_family(S, coeffs):
    # rows c_k * x are Lipschitz with number exactly |c_k|
    x = np.asarray(S.points)
    return LipschitzFamily(np.outer(np.asarray(coeffs), x))


def test_combine_add_containment():
    S = line_sample(9, 10, 1.0, 3.0)
    F = make_named_family("log(1)", S, 25)
    rng = np.random.default_rng(10)
    G = linear_family(S, 0.01 * rng.standard_normal(F.m))
    rep = combine(S, F, G, 0.5, "add")
    assert rep.predicted[0] > 0
    assert rep.predicted[0] - 1e-12 <= rep.measured[0]
    assert rep.measured[1] <= rep.predicted[1] + 1e-12


def test_combine_identity_and_violations():
    S = line_sample(11, 7, 1.0, 2.0)
    F = make_named_family("log(1)", S, 20)
    Z = LipschitzFamily(np.zeros(F.values.shape))
    rep = combine(S, F, Z, 1.0, "add")
    assert rep.predicted == rep.measured == metric_frame_bounds(S, F, 1)
    big = LipschitzFamily(100.0 * np.ones((F.m, S.n)) * np.asarray(S.points))
    with pytest.raises(HypothesisViolated):
        combine(S, F, big, 1.0, "add")
    with pytest.raises(ValueError):
        combine(S, F, None, 1.0, "blend")
    with pytest.raises(ValueError):
        combine(S, F, None, 1.0, "add")


def test_perturb_identical_family():
    S = line_sample(12, 8, 1.0, 4.0)
    F = make_named_family("log(1)", S, 25)
    rep = perturb_certificate(S, F, F, 0.0, 0.0, 0.0, 1)
    a, b = metric_frame_bounds(S, F, 1)
    assert rep.hypothesis_holds
    assert rep.predicted == (a - F.remainder, b - F.remainder) or rep.predicted[0] <= a
    assert rep.measured[0] >= rep.predicted[0] - 1e-12
    assert rep.measured[1] <= rep.predicted[1] + 1e-12


def test_perturb_lip_radius_route():
    S = line_sample(13, 12, 1.0, 3.0)
    F = make_named_family("log(1)", S, 25)
    rng = np.random.default_rng(14)
    G = LipschitzFamily(F.values + linear_family(S, 0.01 * rng.uniform(1, 2, F.m)).values)
    r = diff_lip_radius(S, F, G, 1)
    a, b = metric_frame_bounds(S, F, 1)
    assert r < a
    rep = perturb_certificate(S, F, G, 0.0, 0.0, r * (1 + 1e-12), 1)
    assert rep.hypothesis_holds  # gamma = r makes the inequality definitional
    assert rep.measured[0] >= a - r - 1e-9
    assert rep.measured[1] <= b + r + 1e-9


def test_perturb_detects_violation():
    S = line_sample(15, 8, 1.0, 2.0)
    F = make_named_family("log(1)", S, 20)
    rng = np.random.default_rng(16)
    G = LipschitzFamily(F.values + 0.1 * rng.standard_normal(F.values.shape))
    rep = perturb_certificate(S, F, G, 0.0, 0.0, 1e-9, 1)
    assert not rep.hypothesis_holds


def test_perturb_parameter_violations():
    S = line_sample(17, 6, 1.0, 2.0)
    F = make_named_family("log(1)", S, 20)
    a, _ = metric_frame_bounds(S, F, 1)
    with pytest.raises(HypothesisViolated):
        perturb_certificate(S, F, F, 1.0, 0.0, 0.0, 1)
    with pytest.raises(HypothesisViolated):
        perturb_certificate(S, F, F, 0.0, 1.0, 0.0, 1)
    with pytest.raises(HypothesisViolated):
        perturb_certificate(S, F, F, 0.0, 0.0, a, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0]))
def test_perturbation_theorem_containment(seed, p):
    rng = np.random.default_rng(seed)
    S = sample_from_points(np.cumsum(0.1 + rng.uniform(0, 1, 6)))
    F = LipschitzFamily(rng.standard_normal((4, 6)))
    G = LipschitzFamily(F.values + 0.01 * rng.standard_normal((4, 6)))
    a, b = metric_frame_bounds(S, F, p)
    # smallest gamma that makes the hypothesis true on every pair
    gamma = max(
        linops.vec_pnorm((F.values - G.values)[:, i] - (F.values - G.values)[:, j], p)
        / S.dist[i, j]
        for i in range(6) for j in range(i + 1, 6)
    ) * (1 + 1e-9)
    if gamma >= a:
        return
    rep = perturb_certificate(S, F, G, 0.0, 0.0, gamma, p)
    assert rep.hypothesis_holds
    assert rep.predicted[0] - 1e-12 <= rep.measured[0]
    assert rep.measured[1] <= rep.predicted[1] + 1e-12


def test_reconstruction_log_family_binding_remainder():
    # truncate where the tail dominates float noise: the comparison with the
    # remainder is then a real theorem check, not a rounding artifact
    S = line_sample(18, 40, 1.0, 20.0, base=0)
    F = make_named_family("log(1)", S, 12)
    rep = reconstruction_check(S, F, log_family_reconstructor, 1)
    assert rep.max_deviation > 1e-6  # the tail is visibly nonzero here
    assert rep.max_deviation <= F.remainder
    assert rep.reconstructor_lipschitz <= 1.0 + 1e-12


def test_reconstruction_log_family_deep_truncation():
    # at 40 terms the certified tail (~1e-28) sits far below double
    # precision, so the deviation is pure representation noise
    S = line_sample(18, 40, 1.0, 20.0, base=0)
    F = make_named_family("log(1)", S, 40)
    rep = reconstruction_check(S, F, log_family_reconstructor, 1)
    assert rep.max_deviation <= F.remainder + 1e-12
    assert rep.reconstructor_lipschitz <= 1.0 + 1e-12


def test_reconstruction_identity_frame():
    S = line_sample(19, 9, 0.0, 1.0, base=0)
    F = LipschitzFamily(np.asarray(S.points).reshape(1, -1))
    rep = reconstruction_check(S, F, lambda c: c[0], 1)
    assert rep.max_deviation == 0.0
    assert abs(rep.reconstructor_lipschitz - 1.0) <= 1e-12
    off = reconstruction_check(S, F, lambda c: c[0] + 0.125, 1)
    assert off.max_deviation == 0.125


def test_reconstruction_needs_pointed_numeric_sample():
    S = line_sample(20, 5, 0.0, 1.0)  # no base
    F = LipschitzFamily(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        reconstruction_check(S, F, lambda c: 0.0, 1)
    S2 = MetricSample(("x", "y"), np.array([[0, 1.0], [1.0, 0]]), base=0)
    with pytest.raises(ValueError):
        reconstruction_check(S2, LipschitzFamily(np.zeros((1, 2))), lambda c: 0.0, 1)


def test_stability_bounds_formula():
    assert stability_bounds(2.0, 1.0, 0.0, 0.0) == (1.0, 2.0)
    lo, hi = stability_bounds(2.0, 1.0, 0.1, 0.05)
    assert abs(lo - 0.75) <= 1e-15 and abs(hi - 2.25) <= 1e-15
    with pytest.raises(HypothesisViolated):
        stability_bounds(2.0, 1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        stability_bounds(0.0, 1.0, 0.1, 0.1)
