import math

import numpy as np
import pytest

from framekit import linops, multiplier
from framekit.metricframe import LipschitzFamily, metric_frame_bounds, sample_from_points
from framekit.multiplier import Multiplier, apply, continuity, lip_bound_check, tail_decay


def apply_oracle(lam, values, Tau, j):
    # plain loop over terms
    out = np.zeros(Tau.shape[0], dtype=complex)
    for n in range(len(lam)):
        out = out + lam[n] * values[n, j] * Tau[:, n]
    return out


def lip_oracle(points, dist, lam, values, Tau, out_norm):
    best = 0.0
    for i in range(len(points)):
        for j in range(len(points)):
            if i == j or dist[i][j] == 0:
                continue
            mi = apply_oracle(lam, values, Tau, i)
            mj = apply_oracle(lam, values, Tau, j)
            best = max(best, linops.vec_pnorm(mi - mj, out_norm) / dist[i][j])
    return best


def pointed_instance(seed, d=4, m=6, n=9, p=2.0, out_norm=2.0):
    rng = np.random.default_rng(seed)
    points = np.sort(rng.uniform(0.0, 3.0, n - 1))
    points = tuple([0.0] + list(points))
    S = sample_from_points(points, base=0)
    x = np.asarray(points)
    # rows c_k * x vanish at the base and have Lipschitz number |c_k|
    coeffs = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
    F = LipschitzFamily(np.outer(coeffs, x))
    Tau = rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m))
    lam = rng.normal(size=m) + 1j * rng.normal(size=m)
    return Multiplier(S, F, Tau, lam, p, out_norm)


def test_apply_matches_direct_sum():
    M = pointed_instance(0)
    for j in range(M.sample.n):
        want = apply_oracle(M.lam, M.family.values, M.Tau, j)
        np.testing.assert_allclose(apply(M, j), want, atol=1e-12)


def test_apply_at_base_is_zero():
    M = pointed_instance(1)
    assert np.all(apply(M, M.sample.base) == 0)


def test_apply_unknown_point():
    M = pointed_instance(2)
    with pytest.raises(ValueError, match="unknown point"):
        apply(M, M.sample.n)
    with pytest.raises(ValueError, match="unknown point"):
        apply(M, -1)


def test_symbol_linearity_exact_on_integer_data():
    S = sample_from_points((0.0, 1.0, 2.0, 4.0), base=0)
    vals = np.array([[0.0, 1.0, 2.0, 4.0],
                     [0.0, 2.0, 4.0, 8.0],
                     [0.0, 1.0, 0.0, 2.0]])
    Tau = np.array([[1.0, 2.0, 0.0],
                    [0.0, 1.0, 3.0]])
    lam = np.array([1.0, 2.0, 3.0])
    mu = np.array([4.0, 0.0, 5.0])
    F = LipschitzFamily(vals)
    M = Multiplier(S, F, Tau, lam, 2.0)
    for j in range(4):
        left = apply(Multiplier(S, F, Tau, lam + mu, 2.0), j)
        right = apply(M, j) + apply(Multiplier(S, F, Tau, mu, 2.0), j)
        assert np.array_equal(left, right)


def test_symbol_linearity_random():
    M = pointed_instance(3)
    rng = np.random.default_rng(30)
    mu = rng.normal(size=M.m) + 1j * rng.normal(size=M.m)
    with_symbol = lambda lam: Multiplier(  # noqa: E731
        M.sample, M.family, M.Tau, lam, M.p, M.out_norm)
    for j in range(M.sample.n):
        left = apply(with_symbol(M.lam + mu), j)
        right = apply(M, j) + apply(with_symbol(mu), j)
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_rejects_unpointed_sample():
    S = sample_from_points((0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="pointed"):
        Multiplier(S, LipschitzFamily(np.zeros((2, 3))), np.eye(2), [1, 1], 2.0)


def test_rejects_family_not_vanishing_at_base():
    S = sample_from_points((0.0, 1.0, 2.0), base=0)
    vals = np.array([[1.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="vanish"):
        Multiplier(S, LipschitzFamily(vals), np.eye(1), [1.0], 2.0)


def test_rejects_shape_mismatches():
    S = sample_from_points((0.0, 1.0, 2.0), base=0)
    F = LipschitzFamily(np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]]))
    with pytest.raises(ValueError, match="symbol"):
        Multiplier(S, F, np.eye(2), [1.0], 2.0)
    with pytest.raises(ValueError, match="match the sample"):
        Multiplier(S, LipschitzFamily(np.zeros((2, 4))), np.eye(2), [1, 1], 2.0)
    with pytest.raises(ValueError):
        Multiplier(S, F, np.eye(2), [1.0, 2.0], 1.0)


def test_single_term_lipschitz_is_norm_times_lip():
    # one term: Lip(lam_1 f_1 tau_1) = |lam_1| ||tau_1|| Lip(f_1) on the table
    S = sample_from_points((0.0, 1.0, 3.0), base=0)
    F = LipschitzFamily(np.array([[0.0, 2.0, 6.0]]))  # 2x, Lip = 2
    Tau = np.array([[3.0], [4.0]])  # norm 5
    M = Multiplier(S, F, Tau, [0.5], 2.0)
    rep = lip_bound_check(M)
    assert math.isclose(rep.measured, 5.0, rel_tol=1e-12)
    assert rep.measured <= rep.certified + 1e-9


def test_lip_measured_matches_oracle_and_bound_holds():
    for seed in range(6):
        M = pointed_instance(seed, p=2.0 if seed % 2 else 1.5)
        rep = lip_bound_check(M)
        want = lip_oracle(M.sample.points, M.sample.dist, M.lam,
                          M.family.values, M.Tau, M.out_norm)
        assert math.isclose(rep.measured, want, rel_tol=1e-12)
        assert rep.measured <= rep.certified + 1e-9
        assert rep.b_source == "measured" and rep.d_source == "measured"


def test_lip_bound_certified_product():
    M = pointed_instance(7)
    rep = lip_bound_check(M)
    b, _ = M.family_bessel()
    d, _ = M.vector_bessel()
    assert rep.certified == b * d * np.abs(M.lam).max()
    # p = 2, out = 2: d is the exact largest singular value
    assert math.isclose(d, np.linalg.svd(M.Tau, compute_uv=False)[0],
                        rel_tol=1e-12)


def test_supplied_constants_are_reported():
    M = pointed_instance(8)
    loose = Multiplier(M.sample, M.family, M.Tau, M.lam, M.p,
                       bessel_b=50.0, bessel_d=50.0)
    rep = lip_bound_check(loose)
    assert rep.b_source == "supplied" and rep.d_source == "supplied"
    assert rep.certified == 2500.0 * np.abs(M.lam).max()
    with pytest.raises(ValueError, match="positive"):
        Multiplier(M.sample, M.family, M.Tau, M.lam, M.p, bessel_b=0.0)


def test_family_bessel_matches_metric_bounds():
    M = pointed_instance(9, p=1.5)
    b, src = M.family_bessel()
    assert src == "measured"
    assert b == metric_frame_bounds(M.sample, M.family, 1.5)[1]


def test_tail_decay_bound_and_monotonicity():
    rng = np.random.default_rng(10)
    M = pointed_instance(10, m=8)
    lam = 2.0 ** -np.arange(8.0)
    M = Multiplier(M.sample, M.family, M.Tau, lam, M.p, M.out_norm)
    prev = math.inf
    for cut in range(M.m):
        measured, bound = tail_decay(M, cut)
        assert measured <= bound + 1e-9
        assert bound <= prev + 1e-15
        prev = bound
    # geometric symbol: bound halves with each cut
    m0, b0 = tail_decay(M, 0)
    m4, b4 = tail_decay(M, 4)
    assert math.isclose(b4, b0 / 16.0, rel_tol=1e-12)
    assert m4 <= m0 + 1e-15


def test_tail_decay_full_head_leaves_zero():
    M = pointed_instance(11)
    measured, bound = tail_decay(M, M.m - 1)
    tail = np.zeros(M.m, dtype=complex)
    tail[-1] = M.lam[-1]
    want = lip_oracle(M.sample.points, M.sample.dist, tail,
                      M.family.values, M.Tau, M.out_norm)
    assert math.isclose(measured, want, rel_tol=1e-12)
    with pytest.raises(ValueError, match="cut"):
        tail_decay(M, M.m)


def test_continuity_symbol_bound():
    for seed in (12, 13):
        M = pointed_instance(seed, p=3.0)
        rng = np.random.default_rng(seed + 100)
        lam2 = M.lam + 0.1 * (rng.normal(size=M.m) + 1j * rng.normal(size=M.m))
        measured, bound = continuity(M, symbol=lam2)
        want = lip_oracle(M.sample.points, M.sample.dist, lam2 - M.lam,
                          M.family.values, M.Tau, M.out_norm)
        assert math.isclose(measured, want, rel_tol=1e-12)
        assert measured <= bound + 1e-9


def test_continuity_symbol_zero_gap():
    M = pointed_instance(14)
    measured, bound = continuity(M, symbol=M.lam.copy())
    assert measured == 0.0 and bound == 0.0


def test_continuity_vectors_bound():
    # d = 12 puts twelve entries in each gap: read as strided rows, the
    # 1- and 2-norms of the gaps would sum out of vec_pnorm's order
    cases = [(15, 4, 6, 2.0), (16, 4, 6, 2.0)]
    cases += [(seed, 12, 20, 1.0 + seed % 2) for seed in range(18, 24)]
    for seed, d, m, out_norm in cases:
        M = pointed_instance(seed, d=d, m=m, p=1.5, out_norm=out_norm)
        rng = np.random.default_rng(seed + 200)
        Tau2 = M.Tau + 0.05 * (rng.normal(size=M.Tau.shape)
                               + 1j * rng.normal(size=M.Tau.shape))
        measured, bound = continuity(M, vectors=Tau2)
        want = lip_oracle(M.sample.points, M.sample.dist, M.lam,
                          M.family.values, Tau2 - M.Tau, M.out_norm)
        assert math.isclose(measured, want, rel_tol=1e-12)
        assert measured <= bound + 1e-9
        # no d factor in the vector route
        b, _ = M.family_bessel()
        gaps = [linops.vec_pnorm(Tau2[:, n] - M.Tau[:, n], M.out_norm)
                for n in range(M.m)]
        assert bound == (b * linops.vec_pnorm(M.lam, M.p)
                         * linops.vec_pnorm(np.array(gaps), M.q))


def test_continuity_requires_exactly_one_replacement():
    M = pointed_instance(17)
    with pytest.raises(ValueError, match="exactly one"):
        continuity(M)
    with pytest.raises(ValueError, match="exactly one"):
        continuity(M, symbol=M.lam, vectors=M.Tau)
    with pytest.raises(ValueError, match="length"):
        continuity(M, symbol=M.lam[:-1])
    with pytest.raises(ValueError, match="shape"):
        continuity(M, vectors=M.Tau[:, :-1])


def test_injectivity_on_riesz_vectors():
    # nonvanishing rows away from the base + full-column-rank vectors:
    # distinct symbols must separate at some sampled point
    rng = np.random.default_rng(18)
    for trial in range(20):
        d, m, n = 5, 4, 7
        points = tuple([0.0] + list(np.sort(rng.uniform(0.5, 4.0, n - 1))))
        S = sample_from_points(points, base=0)
        coeffs = rng.uniform(0.5, 2.0, m)
        F = LipschitzFamily(np.outer(coeffs, np.asarray(points)))
        Tau = rng.normal(size=(d, m))
        while np.linalg.matrix_rank(Tau) < m:
            Tau = rng.normal(size=(d, m))
        lam = rng.normal(size=m)
        mu = lam.copy()
        k = rng.integers(m)
        mu[k] += rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
        A = Multiplier(S, F, Tau, lam, 2.0)
        B = Multiplier(S, F, Tau, mu, 2.0)
        sep = max(linops.vec_pnorm(apply(A, j) - apply(B, j), 2.0)
                  for j in range(n))
        assert sep > 1e-12


def test_out_norm_changes_measured_and_certified():
    M1 = pointed_instance(19, out_norm=1.0)
    Minf = Multiplier(M1.sample, M1.family, M1.Tau, M1.lam, M1.p, math.inf)
    r1, rinf = lip_bound_check(M1), lip_bound_check(Minf)
    assert r1.measured <= r1.certified + 1e-9
    assert rinf.measured <= rinf.certified + 1e-9
    assert r1.measured >= rinf.measured  # l1 dominates linf on K^d
    assert r1.d >= rinf.d
