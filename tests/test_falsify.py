"""The one sampled falsification loop, ``linops._falsify``, against the
three loops it replaced.

``hframe_loop``, ``pasf_loop`` and ``ovf_loop`` are verbatim copies of the
seeded loops that ``hframe``, ``pasf`` and ``ovf`` ran before the shared
sampler existed, and ``two_sided_sum`` is a verbatim copy of the four
separate condition sums of ``pasf``'s two_sided mode. The library must
reproduce their verdicts and margins exactly (``==``), so that reports do
not move by a single bit. That still holds now that the sampler draws its
vectors in chunks and ``ovf`` evaluates a chunk one prefix at a time on
the row kernels of ``linops``: the near-tie test puts ``ovf``'s worst
prefix within 8 ulp of the slack, where a cell that rounded otherwise
would flip the verdict.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from framekit import hframe, linops, ovf, pasf
from framekit.errors import HypothesisViolated
from framekit.linops import herm, inverse, vec_pnorm


def hframe_loop(F, G, alpha, beta, gamma, seed, samples):
    diff = G.synthesis - F.synthesis
    rng = np.random.default_rng(seed)
    worst = -math.inf
    falsified = False
    for _ in range(samples):
        cvec = rng.standard_normal(F.m) + 1j * rng.standard_normal(F.m)
        lhs = np.linalg.norm(diff @ cvec)
        rhs = (alpha * np.linalg.norm(F.synthesis @ cvec)
               + beta * np.linalg.norm(G.synthesis @ cvec)
               + gamma * np.linalg.norm(cvec))
        worst = max(worst, lhs - rhs)
        if lhs > rhs + 1e-12:
            falsified = True
    return not falsified, worst


def pasf_loop(P, Omega, alpha, beta, gamma, seed, samples):
    p = P.p
    diff = P.T - Omega
    rng = np.random.default_rng(seed)
    falsified = False
    worst = -math.inf
    for _ in range(samples):
        c = rng.standard_normal(P.m) + 1j * rng.standard_normal(P.m)
        lhs = vec_pnorm(diff @ c, p)
        rhs = (alpha * vec_pnorm(P.T @ c, p) + gamma * vec_pnorm(c, p)
               + beta * vec_pnorm(Omega @ c, p))
        worst = max(worst, lhs - rhs)
        if lhs > rhs + 1e-12:
            falsified = True
    return not falsified, worst


def ovf_loop(P, B, alpha, beta, gamma, seed, samples):
    new = ovf.OvfPair(B, P.Psi)
    rng = np.random.default_rng(seed)
    thA, thB = herm(P.theta_A), herm(new.theta_A)
    holds = True
    for _ in range(samples):
        y = rng.normal(size=P.m * P.r) + 1j * rng.normal(size=P.m * P.r)
        for k in range(1, P.m + 1):
            yk = np.zeros_like(y)
            yk[:k * P.r] = y[:k * P.r]
            left = np.linalg.norm(thA @ yk - thB @ yk)
            right = (alpha * np.linalg.norm(thA @ yk)
                     + beta * np.linalg.norm(thB @ yk)
                     + gamma * np.linalg.norm(yk))
            if left > right + 1e-12:
                holds = False
    return holds


def ovf_cells(P, B, alpha, beta, seed, samples):
    """ovf_loop's left side, its alpha and beta part of the right side and
    ||y_k||, in its arithmetic, for every sample and prefix."""
    new = ovf.OvfPair(B, P.Psi)
    rng = np.random.default_rng(seed)
    thA, thB = herm(P.theta_A), herm(new.theta_A)
    cells = []
    for _ in range(samples):
        y = rng.normal(size=P.m * P.r) + 1j * rng.normal(size=P.m * P.r)
        for k in range(1, P.m + 1):
            yk = np.zeros_like(y)
            yk[:k * P.r] = y[:k * P.r]
            cells.append((np.linalg.norm(thA @ yk - thB @ yk),
                          alpha * np.linalg.norm(thA @ yk)
                          + beta * np.linalg.norm(thB @ yk),
                          np.linalg.norm(yk)))
    return cells


def _functional_norm(row, q):
    return vec_pnorm(row, q)


def two_sided_sum(P, Omega, G, case):
    p, q = P.p, P.q
    Sinv = inverse(P.frame_operator)
    fn = [P.F[n, :] for n in range(P.m)]
    gn = [G[n, :] for n in range(P.m)]
    taun = [P.T[:, n] for n in range(P.m)]
    omn = [Omega[:, n] for n in range(P.m)]
    if case == 1:
        total = sum(_functional_norm(fn[n] - gn[n], q) * vec_pnorm(Sinv @ taun[n], p)
                    + _functional_norm(gn[n], q) * vec_pnorm(Sinv @ (taun[n] - omn[n]), p)
                    for n in range(P.m))
    elif case == 2:
        total = sum(_functional_norm(fn[n] - gn[n], q) * vec_pnorm(Sinv @ omn[n], p)
                    + _functional_norm(fn[n], q) * vec_pnorm(Sinv @ (taun[n] - omn[n]), p)
                    for n in range(P.m))
    elif case == 3:
        total = sum(_functional_norm((fn[n] - gn[n]) @ Sinv, q) * vec_pnorm(taun[n], p)
                    + _functional_norm(gn[n] @ Sinv, q) * vec_pnorm(taun[n] - omn[n], p)
                    for n in range(P.m))
    else:
        total = sum(_functional_norm((fn[n] - gn[n]) @ Sinv, q) * vec_pnorm(omn[n], p)
                    + _functional_norm(fn[n] @ Sinv, q) * vec_pnorm(taun[n] - omn[n], p)
                    for n in range(P.m))
    return float(total)


def _cnormal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hframe_case(rng, eps, wide=False):
    if wide:  # a real synthesis of up to 40 vectors, as "field": "R" reads
        d = int(rng.integers(1, 9))
        m = int(rng.integers(d + 1, 41))
        F = hframe.HilbertFrame(rng.standard_normal((d, m)))
        return F, hframe.HilbertFrame(
            F.synthesis + eps * rng.standard_normal((d, m)))
    d = int(rng.integers(1, 4))
    m = int(rng.integers(d + 1, d + 5))
    F = hframe.HilbertFrame(_cnormal(rng, d, m))
    G = hframe.HilbertFrame(F.synthesis + eps * _cnormal(rng, d, m))
    return F, G


def _pasf_case(rng, eps, p, wide=False):
    if wide:  # real vectors and functionals, up to 40 of each
        d = int(rng.integers(1, 9))
        m = int(rng.integers(d, 41))
        F, T = rng.standard_normal((m, d)), rng.standard_normal((d, m))
        return (pasf.PAsf(p, F, T), T + eps * rng.standard_normal((d, m)),
                F + eps * rng.standard_normal((m, d)))
    d = int(rng.integers(1, 4))
    m = int(rng.integers(d, d + 4))
    F, T = _cnormal(rng, m, d), _cnormal(rng, d, m)
    P = pasf.PAsf(p, F, T)
    return P, T + eps * _cnormal(rng, d, m), F + eps * _cnormal(rng, m, d)


def _samples(extra, cross, m):
    """extra samples, or extra more than one chunk holds, so that the
    sampler calls sides(C) on a full chunk and then on the rest."""
    samples = extra + (linops.CHUNK // m if cross else 0)
    assert (samples > linops.CHUNK // m) == cross
    return samples


def _ovf_case(rng, eps):
    m, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    d = int(rng.integers(1, min(3, m * r) + 1))  # S can be invertible
    A = _cnormal(rng, m, r, d)
    P = ovf.OvfPair(A, A + 0.1 * _cnormal(rng, m, r, d))
    return P, A + eps * _cnormal(rng, m, r, d)


PARAMS = st.tuples(st.sampled_from([0.0, 0.05, 0.3]),
                   st.sampled_from([0.0, 0.1, 0.5]),
                   st.sampled_from([0.0, 0.01]))
EPS = st.sampled_from([1e-6, 0.05, 1.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), EPS, PARAMS,
       st.booleans(), st.booleans())
def test_hframe_sampler_equals_the_old_loop(seed, extra, eps, params, wide,
                                            cross):
    alpha, beta, gamma = params
    F, G = _hframe_case(np.random.default_rng(seed), eps, wide)
    samples = _samples(extra, cross, F.m)
    try:
        got = hframe.perturb_certificate(F, G, "general", alpha, beta, gamma,
                                         seed=seed, samples=samples)
    except (HypothesisViolated, hframe.NotAFrame):
        assume(False)
    valid, worst = hframe_loop(F, G, alpha, beta, gamma, seed, samples)
    assert got.valid == valid
    assert got.detail["worst_margin"] == worst
    assert got.detail["samples"] == samples


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), EPS, PARAMS,
       st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]), st.booleans(),
       st.booleans())
def test_pasf_sampler_equals_the_old_loop(seed, extra, eps, params, p, wide,
                                          cross):
    alpha, beta, gamma = params
    P, Omega, _ = _pasf_case(np.random.default_rng(seed), eps, p, wide)
    assume(linops.is_invertible(P.frame_operator))
    samples = _samples(extra, cross, P.m)
    try:
        got = pasf.perturb_certificate(P, Omega, "general", alpha, beta,
                                       gamma, seed=seed, samples=samples)
    except HypothesisViolated:
        assume(False)
    valid, worst = pasf_loop(P, Omega, alpha, beta, gamma, seed, samples)
    assert got.valid == valid
    assert got.detail["worst_margin"] == worst


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), EPS, PARAMS)
def test_ovf_sampler_equals_the_old_loop(seed, samples, eps, params):
    alpha, beta, gamma = params
    P, B = _ovf_case(np.random.default_rng(seed), eps)
    assume(ovf.check(P).is_ovf)
    try:
        got = ovf.perturb_certificate(P, B, "triple", alpha, beta, gamma,
                                      samples=samples, seed=seed)
    except HypothesisViolated:
        assume(False)
    assert got.valid == ovf_loop(P, B, alpha, beta, gamma, seed,
                                            samples)
    worst = -math.inf
    for left, ab, ny in ovf_cells(P, B, alpha, beta, seed, samples):
        worst = max(worst, left - (ab + gamma * ny))
    assert got.detail["worst_margin"] == worst


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.sampled_from([1e-6, 1e-3, 0.05]),
       st.sampled_from([0.0, 0.05]), st.sampled_from([0.0, 0.1]))
def test_ovf_sampler_equals_the_old_loop_at_a_near_tie(seed, samples, eps,
                                                       alpha, beta):
    # gamma puts the worst prefix exactly on the 1e-12 slack, then steps it
    # up to 8 ulp either way: the verdicts that the block sums must not
    # decide alone; alpha and beta scale with the perturbation, so that
    # some gamma >= 0 reaches the slack
    alpha, beta = alpha * eps, beta * eps
    P, B = _ovf_case(np.random.default_rng(seed), eps)
    assume(ovf.check(P).is_ovf)
    tie = max((left - ab - 1e-12) / ny
              for left, ab, ny in ovf_cells(P, B, alpha, beta, seed, samples)
              if ny > 0)
    assume(tie > 0)
    gammas = [tie]
    for _ in range(8):
        gammas = [np.nextafter(gammas[0], 0), *gammas,
                  np.nextafter(gammas[-1], np.inf)]
    for gamma in map(float, gammas):
        try:
            got = ovf.perturb_certificate(P, B, "triple", alpha, beta, gamma,
                                          samples=samples, seed=seed)
        except HypothesisViolated:
            assume(False)
        assert got.valid == ovf_loop(P, B, alpha, beta, gamma,
                                                seed, samples), gamma


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.01, 0.3]),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.integers(1, 4))
def test_two_sided_sum_equals_the_four_old_sums(seed, eps, p, case):
    P, Omega, G = _pasf_case(np.random.default_rng(seed), eps, p)
    assume(linops.is_invertible(P.frame_operator))
    got = pasf.perturb_certificate(P, Omega, "two_sided", case=case, G=G)
    assert got.detail["condition_sum"] == two_sided_sum(P, Omega, G, case)
    assert got.valid == (got.detail["condition_sum"] < 1.0)


def test_the_oracles_see_both_verdicts():
    seen = {"hframe": set(), "pasf": set(), "ovf": set()}
    for seed in range(12):
        eps = (1e-6, 1.0)[seed % 2]
        rng = np.random.default_rng(seed)
        F, G = _hframe_case(rng, eps)
        seen["hframe"].add(
            hframe.perturb_certificate(F, G, "general", 0.05, samples=20,
                                       seed=seed).valid)
        P, Omega, _ = _pasf_case(rng, eps, 1.5)
        seen["pasf"].add(
            pasf.perturb_certificate(P, Omega, "general", 0.05, samples=20,
                                     seed=seed).valid)
        Q, B = _ovf_case(rng, eps)
        seen["ovf"].add(
            ovf.perturb_certificate(Q, B, "triple", 0.05, samples=20,
                                    seed=seed).valid)
    assert all(v == {True, False} for v in seen.values()), seen


def test_sampler_note_and_stream():
    # the shared draw is standard_normal(size) twice per sample, which is
    # the stream ovf drew with rng.normal(size=size); sides(C) sees the
    # samples as the rows of C and answers with one row per sample
    holds, detail = linops._falsify(
        lambda C: (np.zeros(len(C)), np.ones(len(C))), 3, 5, 7)
    assert holds and detail == {
        "samples": 5, "worst_margin": -1.0,
        "note": "hypothesis falsification-tested on samples, not proven"}
    seen = []
    linops._falsify(lambda C: seen.append(C) or ((), ()), 4, 3, 11)
    rng = np.random.default_rng(11)
    for c in np.concatenate(seen):
        assert np.array_equal(c, rng.normal(size=4) + 1j * rng.normal(size=4))
    assert sum(map(len, seen)) == 3


def test_sampler_slack_is_one_e_minus_twelve():
    assert linops._falsify(lambda C: ([1.0 + 1e-12], [1.0]), 2, 1, 0)[0]
    assert not linops._falsify(lambda C: ([1.0 + 1e-11], [1.0]), 2, 1, 0)[0]


def test_sampler_memory_is_bounded_by_the_chunk():
    # 200,000 samples of 64 entries drawn at once would take 205 MB
    tracemalloc.start()
    try:
        holds, detail = linops._falsify(
            lambda C: (np.zeros(len(C)), np.ones(len(C))), 64, 200_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds and detail["worst_margin"] == -1.0
    assert peak < 4 * 2**20


def test_ovf_triple_memory_is_bounded_by_the_chunk():
    # ovf's sides take one prefix of a chunk at a time: every prefix of a
    # 273 x 60 chunk laid out at once would take 15 MiB
    rng = np.random.default_rng(0)
    A = _cnormal(rng, 60, 1, 6)
    P = ovf.OvfPair(A, A + 0.1 * _cnormal(rng, 60, 1, 6))
    B = A + 0.01 * _cnormal(rng, 60, 1, 6)
    tracemalloc.start()
    try:
        got = ovf.perturb_certificate(P, B, "triple", 0.1, 0.1, 0.0,
                                      samples=20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.valid and got.detail["samples"] == 20_000
    assert peak < 4 * 2**20


def test_sampler_stream_runs_on_across_chunks():
    rows = linops.CHUNK // 64
    seen = []
    linops._falsify(lambda C: seen.append(C) or ((), ()), 64, 2 * rows + 3, 5)
    assert [len(C) for C in seen] == [rows, rows, 3]
    rng = np.random.default_rng(5)
    for c in np.concatenate(seen):
        assert np.array_equal(
            c, rng.standard_normal(64) + 1j * rng.standard_normal(64))
