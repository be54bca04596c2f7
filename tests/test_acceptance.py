"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test is self-contained and seeded; `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion. Timed criteria measure the
mandated work with perf_counter and assert the budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from framekit import (
    cli,
    cuntz,
    hframe,
    linops,
    metricframe,
    multiplier,
    ovf,
    pasf,
    sip,
    vsdilate,
)
from framekit.vsdilate import as_exact
from oracles import filled, make_parseval, sip as semi_inner


def random_frame(rng, d, m):
    while True:
        T = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        F = hframe.HilbertFrame(T)
        if F.is_frame():
            return F


def conditioned_invertible(rng, d):
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, d)) @ q2


def conditioned_pasf(rng, p, d, m):
    # reject near-singular frame operators so 1e-8 targets are meaningful
    while True:
        P = pasf.PAsf(p, rng.standard_normal((m, d)), rng.standard_normal((d, m)))
        lo, hi = linops.singular_extremes(P.frame_operator)
        if lo > 0.05 * max(hi, 1e-300):
            return P


def random_subset(rng, m):
    size = int(rng.integers(0, m + 1))
    return sorted(int(i) for i in rng.choice(m, size=size, replace=False))


def test_a01_mercedes_frame_is_tight_at_three_halves():
    F = hframe.mercedes_frame()
    hframe.frame_bounds(F)  # warm the numeric path before timing
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        a, b = hframe.frame_bounds(F)
        best = min(best, time.perf_counter() - t0)
    assert abs(a - 1.5) <= 1e-12
    assert abs(b - 1.5) <= 1e-12
    assert best < 1e-3


def test_a02_doubled_first_basis_vector_has_bounds_one_two():
    for d in range(2, 51):
        e1 = np.zeros((d, 1))
        e1[0, 0] = 1.0
        F = hframe.HilbertFrame(np.hstack([e1, np.eye(d)]))
        a, b = hframe.frame_bounds(F)
        assert abs(a - 1.0) <= 1e-12
        assert abs(b - 2.0) <= 1e-12


def test_a03_frame_algorithm_meets_its_contraction_envelope():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(100):
        d = int(rng.integers(1, 13))
        m = int(rng.integers(d, 31))
        F = random_frame(rng, d, m)
        h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        iterates, rho = hframe.frame_algorithm(F, h, 50)
        hn = float(np.linalg.norm(h))
        for k, hk in enumerate(iterates, start=1):
            assert np.linalg.norm(hk - h) <= rho**k * hn + 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_a04_parseval_identity_and_lower_bound_in_bulk():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(d, 17))
        F = hframe.parsevalize(random_frame(rng, d, m))
        M = random_subset(rng, m)
        h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rep = hframe.frame_identity_residuals(F, M, h)
        assert rep.general_residual <= 1e-10
        assert rep.parseval_residual is not None
        assert rep.parseval_residual <= 1e-10
        assert rep.lower_bound_value is not None
        assert rep.lower_bound_value >= 0.75 * np.linalg.norm(h) ** 2 - 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_a05_shift_dilation_table_at_m_eight():
    table = pasf.shift_dilation_table(8)
    assert len(table) == 8
    zero = np.zeros(8)

    def e(k):
        v = np.zeros(8)
        v[k - 1] = 1.0
        return v

    assert np.array_equal(table[0][0], zero) and np.array_equal(table[0][1], zero)
    assert np.array_equal(table[1][0], e(1)) and np.array_equal(table[1][1], zero)
    for n in range(3, 9):
        assert np.array_equal(table[n - 1][0], e(n - 1))
        assert np.array_equal(table[n - 1][1], e(n - 1))


def test_a06_dilation_is_riesz_and_restricts_exactly():
    rng = np.random.default_rng(606)
    ps = (1.0, 1.5, 2.0, 3.0)
    for trial in range(200):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(d, 11))
        P = conditioned_pasf(rng, ps[trial % 4], d, m)
        D = pasf.dilate(P)
        assert pasf.riesz_residual(D) <= 1e-8
        assert np.array_equal(D.F[:, :P.d], P.F)
        assert np.array_equal(D.T[:P.d, :], P.T)


def test_a07_similarity_recovers_the_transforming_operators():
    rng = np.random.default_rng(707)
    for trial in range(100):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(d, 11))
        P = conditioned_pasf(rng, 2.0, d, m)
        A = conditioned_invertible(rng, d)
        B = conditioned_invertible(rng, d)
        Q = pasf.PAsf(P.p, P.F @ A, B @ P.T)
        assert float(np.abs(P.projection() - Q.projection()).max()) <= 1e-9
        got = pasf.similarity(P, Q)
        assert got is not None
        T_fg, T_tw = got
        assert float(np.abs(T_fg - A).max()) <= 1e-8
        assert float(np.abs(T_tw - B).max()) <= 1e-8


def test_a08_all_duals_pass_dual_check_and_singular_cases_raise():
    rng = np.random.default_rng(808)
    produced = 0
    while produced < 100:
        d = int(rng.integers(1, 6))
        m = int(rng.integers(d, 10))
        P = conditioned_pasf(rng, 2.0, d, m)
        U = 0.3 * rng.standard_normal((m, d))
        V = 0.3 * rng.standard_normal((d, m))
        try:
            Q = pasf.dual_from_operators(P, U, V)
        except pasf.NotADual:
            continue
        assert pasf.dual_residual(P, Q) <= pasf.DUAL_TOL
        produced += 1

    # exact cancellations in the validity operator S^-1 + VU - VFS^-1TU
    for a in (1.0, 2.0, 4.0, 8.0, 16.0):
        P = pasf.shift_pair(2, 2.0)  # d = 1, S = [1]
        with pytest.raises(pasf.NotADual):
            pasf.dual_from_operators(P, [[a], [0.0]], [[-1.0 / a, 0.0]])
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        P = pasf.shift_pair(3, 2.0)  # d = 2, I - FT = diag(1, 0, 0)
        # validity = I - v u^T with u . v = 1: exactly rank-deficient
        U = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        V = np.array([[-t, 0.0, 0.0], [t - 1.0, 0.0, 0.0]])
        with pytest.raises(pasf.NotADual):
            pasf.dual_from_operators(P, U, V)


def test_a09_semi_inner_product_axioms_and_p_two_agreement():
    rng = np.random.default_rng(909)
    for p in (1.5, 2.0, 3.0):
        for _ in range(10_000):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            sxy = semi_inner(x, y, p)
            assert abs(semi_inner(x, x, p) - linops.vec_pnorm(x, p) ** 2) <= 1e-10
            assert abs(sxy) <= linops.vec_pnorm(x, p) * linops.vec_pnorm(y, p) + 1e-10
            assert abs(semi_inner(a * x, b * y, p) - a * np.conj(b) * sxy) <= 1e-10

    rng = np.random.default_rng(919)
    for p in (1.5, 2.0, 3.0):
        for d, m, seed in ((2, 4, 1), (3, 7, 2), (4, 6, 3)):
            P = make_parseval(p, d, m, seed=seed)
            for _ in range(5):
                M = random_subset(rng, m)
                x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                assert sip.general_identity_residual(P, M, x) <= 1e-8
                assert sip.parseval_identity_residual(P, M, x) <= 1e-8

    # at p = 2 the semi-inner product is the inner product, so every object
    # must land on the Hilbert-space implementation
    F = random_frame(np.random.default_rng(929), 3, 6)
    P2 = sip.SipPair(2.0, F.synthesis, F.synthesis)
    assert float(np.abs(P2.frame_operator() - F.frame_operator).max()) <= 1e-10
    for _ in range(20):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        M = random_subset(rng, 6)
        assert float(np.abs(P2.functionals() @ x - F.coefficients(x)).max()) <= 1e-10
        S_M = sum((np.outer(F.synthesis[:, n], np.conj(F.synthesis[:, n]))
                   for n in M), np.zeros((3, 3), dtype=complex))
        assert float(np.abs(sip.partial_operator(P2, M) - S_M).max()) <= 1e-10
        r_sip = sip.general_identity_residual(P2, M, x)
        r_hil = hframe.frame_identity_residuals(F, M, x).general_residual
        assert abs(r_sip - r_hil) <= 1e-10


def test_a10_lower_bound_holds_whenever_its_condition_does():
    rng = np.random.default_rng(1010)
    held = 0
    for p in (1.5, 2.0, 3.0):
        P = make_parseval(p, 3, 7, seed=10)
        for _ in range(300):
            M = random_subset(rng, 7)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rep = sip.lower_bound_check(P, M, x)
            if not rep.condition_holds:
                continue
            held += 1
            assert rep.value >= 0.75 * linops.vec_pnorm(x, p) ** 2 - 1e-9
            assert rep.deficit <= 1e-9
    assert held >= 100  # the claim must have been exercised


def test_a11_log_family_is_a_metric_one_frame_with_reconstruction():
    rng = np.random.default_rng(1111)
    pts = np.sort(rng.uniform(1.0, 20.0, 200))
    S = metricframe.sample_from_points(pts, base=0)
    fam = metricframe.make_named_family("log(1)", S, 40)
    assert fam.remainder < 1e-8
    a, b = metricframe.metric_frame_bounds(S, fam, 1)
    assert abs(a - 1.0) <= 1e-6
    assert abs(b - 1.0) <= 1e-6
    dev = metricframe.reconstruction_deviation(S, fam)
    # the certified tail sits far below double precision here, so the
    # comparison carries the usual representation floor
    assert dev <= fam.remainder + 1e-12


def test_a12_multiplier_bounds_hold_with_tiny_slack():
    for seed in range(50):
        rng = np.random.default_rng(1200 + seed)
        n_pts = int(rng.integers(4, 9))
        m = int(rng.integers(3, 8))
        d = int(rng.integers(2, 5))
        points = tuple([0.0] + sorted(rng.uniform(0.1, 3.0, n_pts - 1)))
        S = metricframe.sample_from_points(points, base=0)
        coeffs = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
        fam = metricframe.LipschitzFamily(np.outer(coeffs, points))
        Tau = rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m))
        lam = rng.normal(size=m) + 1j * rng.normal(size=m)
        M = multiplier.Multiplier(S, fam, Tau, lam, 2.0)

        rep = multiplier.lip_bound_check(M)
        assert rep.measured <= rep.certified + 1e-9
        for cut in range(m):
            measured, bound = multiplier.tail_decay(M, cut)
            assert measured <= bound + 1e-9
        measured, bound = multiplier.continuity(
            M, symbol=lam * rng.uniform(0.2, 1.8, m))
        assert measured <= bound + 1e-9
        measured, bound = multiplier.continuity(
            M, vectors=Tau + 0.3 * rng.normal(size=(d, m)))
        assert measured <= bound + 1e-9


def test_a13_ovf_dual_involution_dilation_and_group_family():
    rng = np.random.default_rng(1313)
    for _ in range(20):
        while True:
            A = rng.normal(size=(4, 2, 5)) + 1j * rng.normal(size=(4, 2, 5))
            Psi = rng.normal(size=(4, 2, 5)) + 1j * rng.normal(size=(4, 2, 5))
            P = ovf.OvfPair(A, Psi)
            if ovf.check(P).is_ovf:
                break
        back = ovf.canonical_dual(ovf.canonical_dual(P))
        assert float(np.abs(back.A - P.A).max()) <= 1e-10
        assert float(np.abs(back.Psi - P.Psi).max()) <= 1e-10

    for seed in range(50):
        rng = np.random.default_rng(1350 + seed)
        A = rng.normal(size=(4, 2, 5)) + 1j * rng.normal(size=(4, 2, 5))
        S = ovf.OvfPair(A, A).frame_operator()
        P = ovf.OvfPair(A, A @ linops.herm(np.linalg.inv(S)))
        dil = ovf.dilate(P)
        big = dil.pair
        assert ovf.classify(big).orthonormal
        gap = float(np.linalg.norm(big.frame_operator() - np.eye(big.d), 2))
        for n in range(big.m):
            for k in range(big.m):
                C = big.A[n] @ linops.herm(big.Psi[k])
                if n == k:
                    C = C - np.eye(big.r)
                gap = max(gap, float(np.linalg.norm(C, 2)))
        assert gap <= 1e-8

    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    rep = {k: np.linalg.matrix_power(R, k) for k in range(4)}
    rng = np.random.default_rng(1399)
    for _ in range(5):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        fam = ovf.group_generated(rep, A, Psi)
        assert fam.commutant_residual <= 1e-10
        assert fam.gc1_residual <= 1e-10


def test_a14_rational_dilations_are_exact_with_horizon_regression():
    T = as_exact([["1/2", "1/4"], [0, "1/3"]], True)

    quad = vsdilate.halmos(T)
    assert quad.compression_defects(T, 1) == [0]
    assert quad.idempotent_defect() == 0
    P = filled(quad.P)
    assert np.array_equal(P @ P, P)
    assert quad.inverse_defect() == 0

    nd = vsdilate.n_dilation(T, 3)
    assert all(defect == 0 for k, defect in nd.table if k <= 3)

    bw = vsdilate.banded_sznagy(T, 5)
    assert bw.interior_identity_defect() == 0
    assert bw.compression_defect() == 0

    sd = vsdilate.standard_dilation(T, 4)
    assert sd.dilation_defect() == 0
    assert sd.quadruple.idempotent_defect() == 0
    assert sd.minimality_check()

    S = as_exact([["1/5", 0], [0, "1/5"]], True)
    ad = vsdilate.ando_like(T, S, 3)
    assert ad.dilation_defect() == 0
    assert ad.pad_identity_check()

    lift = vsdilate.intertwine_lift(T, T, as_exact(np.eye(2), True), 3)
    assert lift.shift_defect == 0
    assert lift.projection_defect == 0
    assert lift.embedding_defect == 0

    # one-step dilations stop certifying at the horizon: for T = [2] the
    # compression of U^2 is 5, not 4
    T2 = as_exact([[2]], True)
    nd2 = vsdilate.n_dilation(T2, 1)
    E, U = map(filled, (nd2.quadruple.embed, nd2.quadruple.U))
    comp = E.T @ U @ U @ E
    assert comp[0][0] == 5
    assert (T2 @ T2)[0][0] == 4
    assert nd2.quadruple.compression_defects(T2, 2) == [0, 1]
    assert dict(nd2.table)[2] == 1


def test_a15_commutator_decay_and_norm_growth_across_sizes():
    t0 = time.perf_counter()
    built = {}
    for n in (6, 8, 10, 12):
        built[n] = cuntz.build_DX(n, 0.5)
        sol = built[n].solution
        assert sol.residual < 1e-8
        # every ||b_i|| under 16 sqrt(2) n^3
        assert max(sol.bounds) <= sol.bound_limit
        assert max(sol.bounds) <= 16.0 * math.sqrt(2.0) * n**3
        # [D, X] - I in the last column only
        assert cuntz.lemma_structure(n, Fraction(0.5)).ok
        assert built[n].X_interval.hi <= 2.0
    for n1, n2 in ((6, 8), (8, 10), (10, 12)):
        ratio = built[n2].error_bound / built[n1].error_bound
        ref = cuntz.decay_reference(n1, n2)
        assert max(ratio / ref, ref / ratio) <= 1.1
    assert time.perf_counter() - t0 < 180.0


def test_a16_no_small_matrix_pair_commutes_to_the_identity():
    rng = np.random.default_rng(1616)
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        D = rng.standard_normal((dim, dim))
        X = rng.standard_normal((dim, dim))
        assert cuntz.finite_obstruction(D, X) >= 1.0 - 1e-9


def test_a17_ando_grid_at_horizon_six_within_budget():
    T = as_exact([["1/2", 0, 0], [0, "2/3", 0], [0, 0, 3]], True)
    S = as_exact([[5, 0, 0], [0, "-1/7", 0], [0, 0, "3/4"]], True)
    t0 = time.perf_counter()
    ad = vsdilate.ando_like(T, S, 6)
    assert ad.dilation_defect() == 0
    assert ad.pad_identity_check()
    assert time.perf_counter() - t0 < 10.0


def test_a18_cuntz_lemma_at_sixty_within_budget():
    t0 = time.perf_counter()
    assert cuntz.lemma_structure(60).ok
    assert cuntz.lemma_structure(60, Fraction(1, 5)).ok
    assert time.perf_counter() - t0 < 0.8


def test_a19_logframe_at_thousand_points_within_budget(capsys):
    # points on a line are a metric by construction: no triangle scan
    t0 = time.perf_counter()
    assert cli.main(["metric", "logframe", "--points", "1000", "--terms",
                     "40", "--seed", "7", "--json"]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert '"status":"pass"' in capsys.readouterr().out


def test_a20_thousand_point_table_validated_within_budget(monkeypatch):
    # |x - y| + 1 off the diagonal keeps every triangle but is not the line
    # table of its labels, so the constructor runs the full triangle scan
    x = np.sort(np.random.default_rng(20).uniform(1.0, 30.0, 1000))
    D = np.abs(x[:, None] - x[None, :])
    E = D + 1.0 - np.eye(1000)
    t0 = time.perf_counter()
    S = metricframe.MetricSample(tuple(x.tolist()), E, 0)
    assert time.perf_counter() - t0 < 2.5
    E[1, 4] = E[4, 1] = E[1, 4] + 1.5  # one distance raised: refused
    with pytest.raises(ValueError, match="triangle inequality fails"):
        metricframe.MetricSample(S.points, E, 0)

    def scan(D, slack):
        raise AssertionError("a line table was scanned")

    # the line table itself is a metric by construction: no scan
    monkeypatch.setattr(metricframe, "_triangle_violation", scan)
    assert metricframe.MetricSample(S.points, D, 0).n == 1000
