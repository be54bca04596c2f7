import math

import numpy as np
import pytest

from framekit import cli, hframe, linops, ovf
from framekit.linops import herm
from framekit.ovf import (
    HypothesisViolated,
    OvfPair,
    canonical_dual,
    check,
    classify,
    dilate,
    duality_residual,
    gc1_residual,
    group_generated,
    perturb_certificate,
    similarity,
)


def frame_op_oracle(A, Psi):
    # plain block loop
    S = np.zeros((A.shape[2], A.shape[2]), dtype=complex)
    for n in range(A.shape[0]):
        S = S + np.conj(Psi[n]).T @ A[n]
    return S


def random_pair(seed, m=4, r=2, d=5):
    rng = np.random.default_rng(seed)
    while True:
        A = rng.normal(size=(m, r, d)) + 1j * rng.normal(size=(m, r, d))
        Psi = rng.normal(size=(m, r, d)) + 1j * rng.normal(size=(m, r, d))
        P = OvfPair(A, Psi)
        if check(P).is_ovf:
            return P


def parseval_pair(seed, m=4, r=2, d=5):
    # Psi_n = A_n (S_A^{-1})* makes S = I with equal analysis ranges and a
    # Hermitian idempotent
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, r, d)) + 1j * rng.normal(size=(m, r, d))
    SA = frame_op_oracle(A, A)
    P = OvfPair(A, A @ herm(np.linalg.inv(SA)))
    assert ovf._norm2(P.frame_operator() - np.eye(P.d)) <= 1e-10
    return P


def rotation_rep():
    g = np.array([[0.0, -1.0], [1.0, 0.0]])
    return {k: np.linalg.matrix_power(g, k) for k in range(4)}


def test_frame_operator_matches_block_oracle():
    P = random_pair(0)
    np.testing.assert_allclose(P.frame_operator(),
                               frame_op_oracle(P.A, P.Psi), atol=1e-12)
    # integer data: stacked and block-wise sums agree bit for bit
    rng = np.random.default_rng(1)
    A = rng.integers(-5, 6, size=(3, 2, 4)).astype(float)
    Psi = rng.integers(-5, 6, size=(3, 2, 4)).astype(float)
    Q = OvfPair(A, Psi)
    assert np.array_equal(Q.frame_operator(), frame_op_oracle(Q.A, Q.Psi))


def test_check_single_block_and_parseval():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(1, 5, 5)) + 1j * rng.normal(size=(1, 5, 5))
    P = OvfPair(A, A)  # S = A*A, invertible when A is
    rep = check(P)
    assert rep.is_ovf
    s = np.linalg.svd(A[0], compute_uv=False)
    assert math.isclose(rep.lower, s[-1] ** 2, rel_tol=1e-10)
    assert math.isclose(rep.upper, s[0] ** 2, rel_tol=1e-10)
    Q = parseval_pair(3)
    r = check(Q)
    assert r.is_ovf and abs(r.lower - 1) <= 1e-10 and abs(r.upper - 1) <= 1e-10


def test_check_detects_singular_operator():
    A = np.zeros((2, 2, 3))
    A[0, 0, 0] = 1.0
    P = OvfPair(A, A)
    rep = check(P)
    assert not rep.is_ovf


def test_canonical_dual_involution_and_bounds():
    P = random_pair(6)
    D = canonical_dual(P)
    DD = canonical_dual(D)
    assert np.linalg.norm(DD.A - P.A) <= 1e-10
    assert np.linalg.norm(DD.Psi - P.Psi) <= 1e-10
    a, b = check(P).lower, check(P).upper
    ad, bd = check(D).lower, check(D).upper
    assert math.isclose(ad, 1 / b, rel_tol=1e-9)
    assert math.isclose(bd, 1 / a, rel_tol=1e-9)


def test_canonical_dual_of_parseval_is_itself():
    P = parseval_pair(7)
    D = canonical_dual(P)
    np.testing.assert_allclose(D.A, P.A, atol=1e-9)
    np.testing.assert_allclose(D.Psi, P.Psi, atol=1e-9)


def test_duality_with_canonical_dual():
    P = random_pair(8)
    assert duality_residual(P, canonical_dual(P)) <= 1e-9
    assert duality_residual(P, P) > 1e-9  # P is far from Parseval
    assert duality_residual(parseval_pair(9), parseval_pair(9)) <= 1e-9


def test_similarity_recovers_generators():
    P = random_pair(13)
    rng = np.random.default_rng(14)
    R1 = rng.normal(size=(5, 5)) + np.eye(5) * 3
    R2 = rng.normal(size=(5, 5)) + np.eye(5) * 3
    Q = OvfPair(P.A @ R1, P.Psi @ R2)
    got = similarity(P, Q)
    assert got is not None
    np.testing.assert_allclose(got[0], R1, atol=1e-8)
    np.testing.assert_allclose(got[1], R2, atol=1e-8)


def test_similarity_identity_and_canonical_dual():
    P = random_pair(15)
    R1, R2 = similarity(P, P)
    np.testing.assert_allclose(R1, np.eye(5), atol=1e-9)
    np.testing.assert_allclose(R2, np.eye(5), atol=1e-9)
    Sinv = np.linalg.inv(P.frame_operator())
    R1, R2 = similarity(P, canonical_dual(P))
    np.testing.assert_allclose(R1, Sinv, atol=1e-8)
    np.testing.assert_allclose(R2, herm(Sinv), atol=1e-8)


def test_similarity_absent_for_unrelated_pair():
    assert similarity(random_pair(16), random_pair(17)) is None


def test_classify_block_basis_is_orthonormal():
    m, r = 3, 2
    L = np.eye(m * r).reshape(m, r, m * r)  # the block embeddings L_n*
    P = OvfPair(L, L)
    got = classify(P)
    assert got.riesz and got.orthonormal


def test_classify_square_stack_riesz_overcomplete_not():
    rng = np.random.default_rng(18)
    U = rng.normal(size=(6, 6)) + np.eye(6) * 2
    V = rng.normal(size=(6, 6)) + np.eye(6) * 2
    P = OvfPair(U.reshape(3, 2, 6), V.reshape(3, 2, 6))  # m * r = d = 6
    assert classify(P).riesz
    Q = random_pair(19)  # m * r = 8 > d = 5
    assert not classify(Q).riesz


def test_dilate_parseval_to_orthonormal():
    P = parseval_pair(20)
    dil = dilate(P)
    assert dil.pair.d == P.m * P.r
    got = classify(dil.pair)
    assert got.riesz and got.orthonormal
    rest = dil.restrict()
    assert np.array_equal(rest.A, P.A)
    assert np.array_equal(rest.Psi, P.Psi)


def test_gaps_of_a_dilation():
    P = parseval_pair(23)
    dil = dilate(P)
    assert ovf.block_gap(dil.restrict(), P) == 0.0
    assert ovf.orthonormal_gap(dil.pair) <= ovf.ORTHONORMAL_TOL
    # Parseval but not orthonormal: the gap is the block products' defect
    assert ovf.orthonormal_gap(P) > ovf.ORTHONORMAL_TOL
    assert not classify(P).orthonormal
    Q = random_pair(24)
    assert ovf.block_gap(Q, canonical_dual(canonical_dual(Q))) <= 1e-9
    assert ovf.block_gap(Q, P) > 0


def test_dilate_orthonormal_input_has_trivial_tail():
    m, r = 3, 2
    L = np.eye(m * r).reshape(m, r, m * r)  # the block embeddings L_n*
    P = OvfPair(L, L)
    dil = dilate(P)
    assert dil.pair.d == P.d  # range(theta_A)^perp is {0}
    assert np.array_equal(dil.pair.A, P.A)


def test_dilate_rejects_non_parseval():
    with pytest.raises(HypothesisViolated, match="Parseval"):
        dilate(random_pair(21))


def test_dilate_reports_all_failures():
    # Parseval but theta_Psi range differs from theta_A range
    rng = np.random.default_rng(22)
    A = rng.normal(size=(4, 2, 3))
    S = frame_op_oracle(A, A)
    Psi = A @ herm(np.linalg.inv(S))
    Psi[0] = Psi[0] + 0.5 * rng.normal(size=(2, 3))
    A2 = A @ np.linalg.inv(frame_op_oracle(A, Psi))
    P = OvfPair(A2, Psi)  # S = I but ranges differ
    assert P.is_parseval()
    with pytest.raises(HypothesisViolated, match="ranges differ"):
        dilate(P)


def test_group_generated_cyclic_rotations():
    rng = np.random.default_rng(31)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    got = group_generated(rotation_rep(), A, Psi)
    assert got.pair.m == 4
    assert got.commutant_residual <= 1e-10
    assert got.gc1_residual <= 1e-10
    # identity element contributes the raw generator blocks
    e = got.labels.index(0)
    assert np.array_equal(got.pair.A[e], A)


def test_group_generated_trivial_group():
    got = group_generated({"e": np.eye(3)}, np.eye(3), np.eye(3))
    assert got.pair.m == 1
    assert got.commutant_residual == 0.0 and got.gc1_residual == 0.0


def test_group_rejects_bad_tables():
    with pytest.raises(ValueError, match="not unitary"):
        group_generated({"e": np.eye(2), "g": 2 * np.eye(2)},
                        np.eye(2), np.eye(2))
    c, s = math.cos(1.0), math.sin(1.0)
    rot = np.array([[c, -s], [s, c]])
    with pytest.raises(ValueError, match="closed"):
        group_generated({"e": np.eye(2), "g": rot}, np.eye(2), np.eye(2))


def test_gc1_detects_hand_perturbed_family():
    rng = np.random.default_rng(32)
    A = rng.normal(size=(2, 2))
    got = group_generated(rotation_rep(), A, A)
    blocks = got.pair.A.copy()
    blocks[2] = blocks[2] + 0.3 * rng.normal(size=(2, 2))
    bad = OvfPair(blocks, got.pair.Psi)
    assert gc1_residual(rotation_rep(), bad) > 0.01


def test_perturb_quadratic_trivial_and_small():
    P = random_pair(33)
    rep = perturb_certificate(P, P.A, mode="quadratic")
    a, b = check(P).lower, check(P).upper
    assert math.isclose(rep.predicted_bounds[0], a, rel_tol=1e-9)
    assert rep.predicted_bounds[1] >= b - 1e-12
    assert rep.valid
    rng = np.random.default_rng(34)
    B = P.A + 1e-3 * (rng.normal(size=P.A.shape)
                      + 1j * rng.normal(size=P.A.shape))
    rep = perturb_certificate(P, B, mode="quadratic")
    measured = check(OvfPair(B, P.Psi))
    assert measured.is_ovf
    assert rep.predicted_bounds[0] <= measured.lower + 1e-12
    assert measured.upper <= rep.predicted_bounds[1] + 1e-12


def test_perturb_quadratic_rejects_large():
    P = random_pair(35)
    with pytest.raises(HypothesisViolated, match=">= 1"):
        perturb_certificate(P, -P.A, mode="quadratic")


def test_perturb_triple_bounds_and_falsification():
    P = random_pair(36)
    rng = np.random.default_rng(37)
    B = P.A + 1e-3 * rng.normal(size=P.A.shape)
    gamma = sum(np.linalg.norm(P.A[n] - B[n], 2) for n in range(P.m))
    rep = perturb_certificate(P, B, mode="triple", gamma=gamma)
    measured = check(OvfPair(B, P.Psi))
    assert rep.valid
    assert measured.is_ovf
    assert rep.predicted_bounds[0] <= measured.lower + 1e-12
    assert measured.upper <= rep.predicted_bounds[1] + 1e-12
    # gamma too small to cover the gap: sampling finds a counterexample
    rep = perturb_certificate(P, B, mode="triple", gamma=1e-9)
    assert not rep.valid


def test_perturb_triple_rejects_reach_past_one():
    P = random_pair(38)
    with pytest.raises(HypothesisViolated, match=">= 1"):
        perturb_certificate(P, P.A, mode="triple", beta=1.0)


def test_perturb_mode_outside_the_choices_is_refused(capsys):
    # the command line holds the only list of modes
    code = cli.main(["ovf", "perturb", "--in", "pair.json", "--b", "b.json",
                     "--mode", "cubic"])
    err = capsys.readouterr().err
    assert code == 2
    assert [ln for ln in err.splitlines() if "error:" in ln] == [
        "error: argument --mode: invalid choice: 'cubic' "
        "(choose from 'quadratic', 'triple')"]


def test_rank_one_blocks_match_hilbert_frame():
    # r = 1 with Psi = A: blocks are <., tau_n> for the frame columns
    fr = hframe.make_named_frame("harmonic(3,7)")
    tau = fr.synthesis
    A = np.stack([herm(tau[:, [n]]) for n in range(7)])
    P = OvfPair(A, A)
    a, b = hframe.frame_bounds(fr)
    rep = check(P)
    assert math.isclose(rep.lower, a, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(rep.upper, b, rel_tol=1e-9, abs_tol=1e-12)
    dual = canonical_dual(P)
    dual_fr = hframe.canonical_dual(fr)
    for n in range(7):
        np.testing.assert_allclose(np.conj(dual.A[n][0]),
                                   dual_fr.synthesis[:, n], atol=1e-10)


def test_pair_validation():
    with pytest.raises(ValueError, match="equal-shape"):
        OvfPair(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)))
    with pytest.raises(ValueError, match="finite"):
        OvfPair(np.full((1, 1, 1), np.nan), np.ones((1, 1, 1)))
    with pytest.raises(ValueError, match="equal-shape"):
        OvfPair(np.eye(3), np.eye(3))
