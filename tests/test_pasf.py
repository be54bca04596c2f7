import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit import hframe, linops
from framekit.pasf import (
    DUAL_TOL,
    RIESZ_TOL,
    Expansion,
    HypothesisViolated,
    NotADual,
    PAsf,
    canonical_dual,
    check,
    dilate,
    dual_residual,
    dual_from_operators,
    expand_to_asf,
    perturb_certificate,
    riesz_residual,
    shift_dilation_table,
    shift_pair,
    similarity,
)


def random_pasf(seed, d, m, p):
    rng = np.random.default_rng(seed)
    while True:
        F = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        T = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        P = PAsf(p, F, T)
        if linops.is_invertible(P.frame_operator):
            return P


def test_shift_pair_has_identity_frame_operator():
    for p in (1, 1.5, 2, 3):
        P = shift_pair(6, p)
        assert np.array_equal(P.frame_operator, np.eye(5))
        rep = check(P)
        assert rep.is_pasf
        assert rep.lower.lo <= 1.0 <= rep.lower.hi + 1e-12
        assert rep.upper.lo - 1e-12 <= 1.0 <= rep.upper.hi


def test_check_bounds_enclose_sampled_action():
    P = random_pasf(0, 3, 6, 1.5)
    rep = check(P)
    rng = np.random.default_rng(1)
    S = P.frame_operator
    for _ in range(50):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ratio = linops.vec_pnorm(S @ x, 1.5) / linops.vec_pnorm(x, 1.5)
        assert rep.lower.lo * (1 - 1e-10) <= ratio <= rep.upper.hi * (1 + 1e-10)


def test_check_flags_singular_pair():
    F = np.array([[1.0, 0.0], [0.0, 0.0]])
    T = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = check(PAsf(2, F, T))
    assert not rep.is_pasf and rep.lower is None


@pytest.mark.parametrize("singular", [False, True])
def test_check_forms_the_frame_operator_and_decides_invertibility_once(
        singular, monkeypatch):
    # the intervals as they were taken with S formed three times and its
    # singular values taken in is_pasf and again in inverse
    P = random_pasf(4, 3, 6, 3.0)
    if singular:
        P = PAsf(3.0, P.F, np.vstack([P.T[:2], 0 * P.T[2]]))
    S = P.T @ P.F
    upper = linops.opnorm_interval(S, 3.0, seed=2)
    lower = None
    if linops.is_invertible(S):
        iv = linops.opnorm_interval(linops.inverse(S), 3.0, seed=2)
        lower = (1.0 / iv.hi, 1.0 / iv.lo)
    forms, svds = [], []
    frame_operator = PAsf.frame_operator.fget
    singular_extremes = linops.singular_extremes
    monkeypatch.setattr(PAsf, "frame_operator", property(
        lambda Q: forms.append(1) or frame_operator(Q)))
    monkeypatch.setattr(linops, "singular_extremes",
                        lambda A: svds.append(1) or singular_extremes(A))
    rep = check(P, seed=2)
    assert (len(forms), len(svds)) == (1, 1)
    assert rep.is_pasf is (lower is not None) is (not singular)
    assert (rep.upper.lo.hex(), rep.upper.hi.hex()) == (upper.lo.hex(),
                                                        upper.hi.hex())
    if lower is not None:
        assert (rep.lower.lo.hex(), rep.lower.hi.hex()) == tuple(
            x.hex() for x in lower)


def test_projection_is_idempotent():
    for seed, p in ((3, 1), (4, 2), (5, 2.5)):
        P = random_pasf(seed, 3, 7, p)
        Pm = P.projection()
        assert np.abs(Pm @ Pm - Pm).max() < 1e-9


def test_canonical_dual_passes_dual_check():
    P = random_pasf(7, 4, 9, 3)
    Q = canonical_dual(P)
    assert dual_residual(P, Q) <= DUAL_TOL
    # involution: the dual of the dual is the original pair
    R = canonical_dual(Q)
    assert np.abs(R.F - P.F).max() < 1e-9
    assert np.abs(R.T - P.T).max() < 1e-9


def test_dual_from_operators_generates_valid_duals():
    P = random_pasf(11, 3, 7, 2)
    rng = np.random.default_rng(12)
    for _ in range(10):
        U = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        V = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        Q = dual_from_operators(P, U, V)
        assert dual_residual(P, Q) <= DUAL_TOL


def test_dual_from_operators_raises_on_singular_validity():
    P = random_pasf(13, 2, 6, 2)
    Sinv = linops.inverse(P.frame_operator)
    Qc = np.eye(6) - P.projection()
    rng = np.random.default_rng(14)
    U = rng.standard_normal((6, 2))
    # choose V with V (I - P) U = -S^(-1), killing the validity operator
    Y = -np.linalg.pinv(Qc @ U)
    V = Sinv @ Y
    with pytest.raises(NotADual):
        dual_from_operators(P, U, V)


def test_zero_operators_return_canonical_dual():
    P = random_pasf(15, 3, 5, 1.5)
    Q = dual_from_operators(P, np.zeros((5, 3)), np.zeros((3, 5)))
    C = canonical_dual(P)
    assert np.abs(Q.F - C.F).max() < 1e-12
    assert np.abs(Q.T - C.T).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_similarity_recovers_transition_operators(seed, p):
    rng = np.random.default_rng(seed)
    d, m = 3, 6
    P = random_pasf(seed, d, m, p)
    while True:
        Rf = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Rt = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if linops.is_invertible(Rf) and linops.is_invertible(Rt):
            break
    Q = PAsf(p, P.F @ Rf, Rt @ P.T)
    got = similarity(P, Q)
    assert got is not None
    T_fg, T_tw = got
    assert np.abs(T_fg - Rf).max() < 1e-8
    assert np.abs(T_tw - Rt).max() < 1e-8
    assert np.abs(P.F @ T_fg - Q.F).max() < 1e-8
    assert np.abs(T_tw @ P.T - Q.T).max() < 1e-8


def test_similarity_of_canonical_dual_is_s_inverse():
    P = random_pasf(21, 3, 6, 2)
    Sinv = linops.inverse(P.frame_operator)
    T_fg, T_tw = similarity(P, canonical_dual(P))
    assert np.abs(T_fg - Sinv).max() < 1e-9
    assert np.abs(T_tw - Sinv).max() < 1e-9


def test_similarity_returns_none_for_unrelated_pairs():
    P = random_pasf(22, 3, 7, 2)
    Q = random_pasf(23, 3, 7, 2)
    assert similarity(P, Q) is None


@settings(max_examples=16, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_dilate_gives_riesz_basis_with_exact_restriction(seed, p):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    m = int(rng.integers(d + 1, 9))
    P = random_pasf(seed, d, m, p)
    out = dilate(P)
    assert riesz_residual(out) <= RIESZ_TOL
    assert out.d == m  # d + (m - d)
    # the first d coordinates restore the input with no tolerance
    assert np.array_equal(out.F[:, :d], P.F)
    assert np.array_equal(out.T[:d, :], P.T)
    # frame operator splits as S (+) I
    S1 = out.frame_operator
    assert np.abs(S1[:d, :d] - P.frame_operator).max() < 1e-12
    assert np.abs(S1[d:, d:] - np.eye(m - d)).max() < 1e-9
    assert np.abs(S1[:d, d:]).max() < 1e-9
    assert np.abs(S1[d:, :d]).max() < 1e-9


def test_dilate_trivial_when_projection_is_identity():
    P = random_pasf(41, 3, 3, 2)
    assert np.abs(P.projection() - np.eye(3)).max() < 1e-9
    out = dilate(P)
    assert out.F.shape == P.F.shape
    assert np.array_equal(out.F, P.F)
    assert np.array_equal(out.T, P.T)


def test_riesz_check_square_vs_redundant():
    assert riesz_residual(random_pasf(43, 3, 3, 2)) <= RIESZ_TOL
    assert riesz_residual(random_pasf(44, 3, 6, 2)) > RIESZ_TOL


def test_riesz_residual_raises_on_singular_pairs():
    with pytest.raises(linops.NotInvertible):
        riesz_residual(PAsf(2, np.ones((3, 2)), np.ones((2, 3))))
    # S = 1e-11 I is invertible, but the dilated operator diag(S, I) is
    # singular to working precision: dilate still returns the pair
    base = shift_pair(5, 2.0)
    P = PAsf(2, 1e-11 * base.F, base.T)
    with pytest.raises(linops.NotInvertible):
        riesz_residual(dilate(P))


def shift_table_oracle(m):
    # tau_n = L e_n and second block (R L) tau_n with explicit truncations
    L = np.zeros((m, m))
    R = np.zeros((m, m))
    for i in range(m - 1):
        L[i, i + 1] = 1.0
        R[i + 1, i] = 1.0
    eye = np.eye(m)
    out = []
    for n in range(m):
        tau = L @ eye[:, n]
        out.append((tau, R @ L @ tau))
    return out


def test_shift_dilation_table_matches_operator_oracle():
    for m in (2, 5, 8):
        table = shift_dilation_table(m)
        oracle = shift_table_oracle(m)
        for (t1, s1), (t2, s2) in zip(table, oracle):
            assert np.array_equal(t1, t2)
            assert np.array_equal(s1, s2)


def test_shift_dilation_table_m8_rows():
    table = shift_dilation_table(8)
    e = np.eye(8)
    assert np.array_equal(table[0][0], np.zeros(8))
    assert np.array_equal(table[0][1], np.zeros(8))
    assert np.array_equal(table[1][0], e[:, 0])
    assert np.array_equal(table[1][1], np.zeros(8))
    for n in range(3, 9):
        assert np.array_equal(table[n - 1][0], e[:, n - 2])
        assert np.array_equal(table[n - 1][1], e[:, n - 2])


def test_perturb_zero_perturbation_envelope():
    P = random_pasf(51, 3, 6, 1.5)
    rep = perturb_certificate(P, P.T, mode="quadratic")
    assert rep.valid and rep.detail["lambda"] == 0.0
    Sinv = linops.inverse(P.frame_operator)
    lo_expect = 1.0 / linops.opnorm_interval(Sinv, 1.5).hi
    hi_expect = (linops.opnorm_interval(P.T, 1.5).hi
                 * linops.opnorm_interval(P.F, 1.5).hi)
    lo, hi = rep.predicted_bounds
    assert lo == pytest.approx(lo_expect, rel=1e-12)
    assert hi == pytest.approx(hi_expect, rel=1e-12)


def test_perturb_quadratic_small_perturbation():
    P = random_pasf(52, 3, 6, 2)
    rng = np.random.default_rng(53)
    Omega = P.T + 1e-3 * rng.standard_normal((3, 6))
    rep = perturb_certificate(P, Omega, mode="quadratic")
    assert rep.valid
    lo, hi = rep.predicted_bounds
    new = check(PAsf(2, P.F, Omega))
    assert new.is_pasf
    # certified interval of the perturbed pair intersects the prediction
    assert new.lower.lo <= hi + 1e-9 and lo <= new.upper.hi + 1e-9


def test_perturb_quadratic_rejects_large_perturbation():
    P = shift_pair(6, 2)
    rep = perturb_certificate(P, P.T + 10.0, mode="quadratic")
    assert not rep.valid and rep.predicted_bounds is None


def test_perturb_general_mode():
    P = random_pasf(54, 3, 6, 2)
    rep = perturb_certificate(P, 1.05 * P.T, mode="general", alpha=0.05)
    assert rep.valid
    assert "falsification" in rep.detail["note"]
    bad = perturb_certificate(P, random_pasf(55, 3, 6, 2).T, mode="general",
                              alpha=0.01, gamma=0.01)
    assert not bad.valid
    with pytest.raises(HypothesisViolated):
        perturb_certificate(P, P.T, mode="general", beta=1.0)


def test_perturb_two_sided_conditions():
    P = random_pasf(56, 3, 6, 2)
    rng = np.random.default_rng(57)
    G = P.F + 1e-4 * rng.standard_normal((6, 3))
    Omega = P.T + 1e-4 * rng.standard_normal((3, 6))
    for case in (1, 2, 3, 4):
        rep = perturb_certificate(P, Omega, mode="two_sided", case=case, G=G)
        assert rep.valid
        assert rep.detail["condition_sum"] < 1
    huge = perturb_certificate(P, P.T + 50.0, mode="two_sided", case=1, G=G)
    assert not huge.valid
    with pytest.raises(ValueError):
        perturb_certificate(P, Omega, mode="two_sided", case=5, G=G)
    with pytest.raises(ValueError):
        perturb_certificate(P, Omega, mode="two_sided", case=1)


def deficient_shift_pasf(d, p):
    # functionals drop the first coordinate, vectors shift it back in:
    # S = diag(0, 1, ..., 1)
    F = np.zeros((d - 1, d))
    T = np.zeros((d, d - 1))
    for i in range(d - 1):
        F[i, i + 1] = 1.0
        T[i + 1, i] = 1.0
    return PAsf(p, F, T)


def test_expand_to_asf_shift_example():
    P = deficient_shift_pasf(5, 2)
    S = P.frame_operator
    assert np.array_equal(S, np.diag([0.0, 1, 1, 1, 1]))
    Q = PAsf(2, np.eye(5), np.eye(5))
    exp = expand_to_asf(P, Q)
    # (I - S) e_1 = e_1 and (I - S) e_n = 0: exactly one appended vector
    appended = exp.expanded.T[:, P.m:]
    nonzero_cols = [n for n in range(5) if np.abs(appended[:, n]).max() > 0]
    assert nonzero_cols == [0]
    assert np.array_equal(appended[:, 0], np.eye(5)[:, 0])
    assert np.abs(exp.expanded.frame_operator - np.eye(5)).max() < 1e-9
    assert exp.n_min == 1


def test_expand_to_asf_trivial_and_rank():
    Q = PAsf(2, np.eye(4), np.eye(4))
    P = shift_pair(5, 2)  # S = I already
    exp = expand_to_asf(P, PAsf(2, np.eye(4), np.eye(4)))
    assert np.abs(exp.expanded.T[:, P.m:]).max() == 0.0
    rng = np.random.default_rng(58)
    A = rng.standard_normal((4, 2))
    weak = PAsf(2, A.T.copy(), A)  # rank-2 frame operator
    exp = expand_to_asf(weak, Q, lam=1.0)
    oracle = np.linalg.matrix_rank(np.eye(4) - weak.frame_operator)
    assert exp.n_min == oracle
    with pytest.raises(ValueError):
        expand_to_asf(weak, PAsf(2, 2 * np.eye(4), np.eye(4)))


def test_p2_results_agree_with_hframe():
    H = hframe.parsevalize(hframe.HilbertFrame(
        np.random.default_rng(60).standard_normal((3, 7))))
    P = PAsf(2, H.analysis, H.synthesis)
    a, b = hframe.frame_bounds(H)
    rep = check(P)
    assert rep.lower.lo == pytest.approx(a, abs=1e-10)
    assert rep.upper.hi == pytest.approx(b, abs=1e-10)
    D = canonical_dual(P)
    HD = hframe.canonical_dual(H)
    assert np.abs(D.T - HD.synthesis).max() < 1e-10
