import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert linops._norm_2(P.frame_operator() - np.eye(P.d)) <= 1e-10
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


def test_group_refuses_an_entry_of_another_shape_by_name():
    # checked before any product, so numpy never meets mismatched shapes
    for bad in (np.ones((2, 3)), np.ones((2, 1)), np.eye(3)):
        with pytest.raises(ValueError,
                           match="^representation entry 'x' is not unitary$"):
            group_generated({"e": np.eye(2), "r": -np.eye(2), "x": bad},
                            np.eye(2), np.eye(2))


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


# ---------------------------------------------- the block loops as oracles
# The per-block loops that the stacked kernels replace, one
# np.linalg.norm(M, 2) per matrix. The kernels must return the same floats,
# tables and blocks bit for bit, and refuse a representation with the
# message of the loop's first failure in table order.


def _norm2_loop(M):
    return float(np.linalg.norm(np.atleast_2d(M), 2))


def _match_loop(table, M, tol):
    for g, Mg in table.items():
        if _norm2_loop(M - Mg) <= tol:
            return g
    return None


def _group_table_loop(rep):
    table = {g: linops.as_matrix(M) for g, M in rep.items()}
    d = next(iter(table.values())).shape[0]
    I = np.eye(d)
    mul, inv = {}, {}
    for g, Mg in table.items():
        if Mg.shape != (d, d) or _norm2_loop(herm(Mg) @ Mg - I) > ovf.REP_TOL:
            raise ValueError(f"representation entry {g!r} is not unitary")
        for h, Mh in table.items():
            k = _match_loop(table, Mg @ Mh, ovf.REP_TOL)
            if k is None:
                raise ValueError("representation is not closed under products")
            mul[g, h] = k
            if _norm2_loop(Mg @ Mh - I) <= ovf.REP_TOL:
                inv[g] = h
    if _match_loop(table, I, ovf.REP_TOL) is None or len(inv) != len(table):
        raise ValueError("representation must contain identity and inverses")
    return tuple(table), table, mul, inv


def _gc1_loop(rep, pair):
    labels, _, mul, _ = _group_table_loop(rep)
    idx = {g: n for n, g in enumerate(labels)}
    Ag, Pg = pair.A, pair.Psi
    worst = 0.0
    for g in labels:
        for p in labels:
            for q in labels:
                gp, gq = idx[mul[g, p]], idx[mul[g, q]]
                p_, q_ = idx[p], idx[q]
                worst = max(
                    worst,
                    _norm2_loop(Ag[gp] @ herm(Ag[gq]) - Ag[p_] @ herm(Ag[q_])),
                    _norm2_loop(Ag[gp] @ herm(Pg[gq]) - Ag[p_] @ herm(Pg[q_])),
                    _norm2_loop(Pg[gp] @ herm(Pg[gq]) - Pg[p_] @ herm(Pg[q_])),
                )
    return worst


def _group_generated_loop(rep, A, Psi):
    A = linops.as_matrix(A)
    Psi = linops.as_matrix(Psi)
    labels, table, _, inv = _group_table_loop(rep)
    blocks_A = np.stack([A @ table[inv[g]] for g in labels])
    blocks_P = np.stack([Psi @ table[inv[g]] for g in labels])
    pair = OvfPair(blocks_A, blocks_P)
    S = pair.frame_operator()
    commutant = max(_norm2_loop(S @ table[g] - table[g] @ S) for g in labels)
    return labels, pair, commutant, _gc1_loop(rep, pair)


def _orthonormal_gap_loop(P):
    gap = _norm2_loop(P.frame_operator() - np.eye(P.d))
    for n in range(P.m):
        for k in range(P.m):
            C = P.A[n] @ herm(P.Psi[k])
            if n == k:
                C = C - np.eye(P.r)
            gap = max(gap, _norm2_loop(C))
    return gap


def _quadratic_loop(P, B):
    """(lo, hi) of the quadratic certificate, or the refusal message."""
    Sinv_star = herm(linops.inverse(P.frame_operator()))
    gaps = [_norm2_loop(P.A[n] - B[n]) for n in range(P.m)]
    weights = [_norm2_loop(P.Psi[n] @ Sinv_star) for n in range(P.m)]
    total = float(np.dot(gaps, weights))
    if total >= 1:
        return f"sum ||A_n - B_n|| ||Psi_n (S*)^{{-1}}|| = {total} >= 1"
    lo = (1 - total) / _norm2_loop(Sinv_star)
    hi = _norm2_loop(P.theta_Psi) * (ovf._l2(gaps) + _norm2_loop(P.theta_A))
    return lo, hi


def _rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _dihedral(k):
    """D_k as 2 x 2 rotations and reflections."""
    s = np.diag([1.0, -1.0])
    rots = [_rotation(2 * math.pi * j / k) for j in range(k)]
    return rots + [s @ R for R in rots]


def _s3():
    """S_3 as 3 x 3 permutation matrices."""
    return [np.eye(3)[list(p)] for p in itertools.permutations(range(3))]


@st.composite
def _group_case(draw):
    """A finite unitary group in shuffled label order, with a seed for the
    blocks: C_k (k <= 12) conjugated by a random orthogonal Q, D4 or S3."""
    kind = draw(st.sampled_from(["cyclic", "d4", "s3"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "cyclic":
        k = draw(st.integers(1, 12))
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        mats = [Q @ _rotation(2 * math.pi * j / k) @ Q.T for j in range(k)]
    else:
        mats = _dihedral(4) if kind == "d4" else _s3()
    order = draw(st.permutations(range(len(mats))))
    rep = {f"g{n}": mats[n] for n in order}
    r = draw(st.sampled_from([1, 2, 3]))
    complex_blocks = draw(st.booleans())
    return rep, rng, r, complex_blocks


def _blocks(rng, shape, complex_blocks):
    M = rng.normal(size=shape)
    return M + 1j * rng.normal(size=shape) if complex_blocks else M


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"refused: {exc}"


def _same_group_ovf(got, want):
    labels, pair, commutant, gc1 = want
    assert got.labels == labels
    assert np.array_equal(got.pair.A, pair.A)
    assert np.array_equal(got.pair.Psi, pair.Psi)
    assert got.commutant_residual == commutant
    assert got.gc1_residual == gc1


@settings(max_examples=60, deadline=None)
@given(_group_case())
def test_group_kernels_equal_the_block_loops(case):
    rep, rng, r, complex_blocks = case
    d = next(iter(rep.values())).shape[0]
    labels, table, mul, inv = _group_table_loop(rep)
    got_labels, T, got_mul, got_inv = ovf._group_table(rep)
    assert got_labels == labels
    assert np.array_equal(T, np.stack([table[g] for g in labels]))
    assert {(g, h): labels[got_mul[i, j]] for i, g in enumerate(labels)
            for j, h in enumerate(labels)} == mul
    assert {g: labels[got_inv[i]] for i, g in enumerate(labels)} == inv
    A = _blocks(rng, (r, d), complex_blocks)
    Psi = _blocks(rng, (r, d), complex_blocks)
    want = _group_generated_loop(rep, A, Psi)
    _same_group_ovf(group_generated(rep, A, Psi), want)
    # a family no representation generates: the residual is of order one
    m = len(rep)
    P = OvfPair(_blocks(rng, (m, r, d), complex_blocks),
                _blocks(rng, (m, r, d), complex_blocks))
    assert gc1_residual(rep, P) == _gc1_loop(rep, P)
    assert ovf.orthonormal_gap(P) == _orthonormal_gap_loop(P)
    assert ovf.orthonormal_gap(want[1]) == _orthonormal_gap_loop(want[1])


@settings(max_examples=60, deadline=None)
@given(_group_case(), st.integers(0, 100), st.sampled_from(["scale", "swap",
                                                            "random"]))
def test_corrupted_representations_get_the_loop_message(case, pick, how):
    rep, rng, r, complex_blocks = case
    labels = list(rep)
    g = labels[pick % len(labels)]
    if how == "scale":
        rep[g] = 1.01 * rep[g]
    elif how == "swap":  # another element, so one label is repeated
        rep[g] = rep[labels[(pick + 1) % len(labels)]]
    else:
        rep[g] = rng.normal(size=rep[g].shape)
    d = rep[g].shape[0]
    A = _blocks(rng, (r, d), complex_blocks)
    want = _outcome(_group_generated_loop, rep, A, A)
    got = _outcome(group_generated, rep, A, A)
    if isinstance(want, str):
        assert got == want
    else:
        _same_group_ovf(got, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 3),
       st.booleans(), st.sampled_from([1e-3, 0.1, 3.0]))
def test_quadratic_certificate_equals_the_block_loop(seed, m, r, complex_blocks,
                                                     size):
    rng = np.random.default_rng(seed)
    d = 3
    P = OvfPair(_blocks(rng, (m, r, d), complex_blocks) + np.eye(r, d),
                _blocks(rng, (m, r, d), complex_blocks) + np.eye(r, d))
    if not check(P).is_ovf:
        return
    B = P.A + size * _blocks(rng, P.A.shape, complex_blocks)
    want = _quadratic_loop(P, B)
    try:
        got = perturb_certificate(P, B, mode="quadratic").predicted_bounds
    except HypothesisViolated as exc:
        got = str(exc)
    assert got == want
