import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit import linops
from framekit.hframe import (
    HilbertFrame,
    HypothesisViolated,
    NotAFrame,
    canonical_dual,
    frame_algorithm,
    frame_bounds,
    frame_identity_residuals,
    harmonic_frame,
    lines_frame,
    make_named_frame,
    mercedes_frame,
    naimark_dilate,
    parsevalize,
    perturb_certificate,
)


def random_frame(seed, d, m):
    rng = np.random.default_rng(seed)
    while True:
        T = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        F = HilbertFrame(T)
        if F.is_frame():
            return F


def ip(h, v):
    # <h, v> with an explicit scalar loop
    return sum(h[j] * np.conj(v[j]) for j in range(len(h)))


def test_mercedes_is_tight_three_halves():
    a, b = frame_bounds(mercedes_frame())
    assert abs(a - 1.5) <= 1e-12
    assert abs(b - 1.5) <= 1e-12


def test_repeated_first_basis_vector_bounds():
    for d in (2, 3, 7):
        e = np.eye(d)
        F = HilbertFrame.from_vectors([e[:, 0]] + [e[:, j] for j in range(d)])
        a, b = frame_bounds(F)
        assert abs(a - 1.0) <= 1e-12
        assert abs(b - 2.0) <= 1e-12


def test_harmonic_frames_are_parseval():
    for n, m in ((1, 1), (2, 4), (3, 5), (4, 9)):
        F = harmonic_frame(n, m)
        assert np.abs(F.frame_operator - np.eye(n)).max() < 1e-12


def test_lines_frames_are_tight():
    for n in (2, 3, 5, 8):
        a, b = frame_bounds(lines_frame(n))
        assert abs(a - n / 2) < 1e-12
        assert abs(b - n / 2) < 1e-12


TIGHT_FRAMES = ["mercedes", "harmonic(1,1)", "harmonic(2,4)", "harmonic(3,7)",
                "lines(2)", "lines(3)", "lines(6)"]


@pytest.mark.parametrize("spec", TIGHT_FRAMES)
def test_tight_frame_bound_is_total_energy_over_dimension(spec):
    # S = A I gives trace(S) = A d, and trace(S) = sum_n ||tau_n||^2
    F = make_named_frame(spec)
    energy = sum(np.linalg.norm(F.synthesis[:, n]) ** 2 for n in range(F.m))
    a, b = frame_bounds(F)
    assert a == pytest.approx(energy / F.d, rel=1e-12)
    assert b == pytest.approx(energy / F.d, rel=1e-12)


@pytest.mark.parametrize("spec", ["mercedes", "lines(4)", "harmonic(2,5)"])
def test_canonical_dual_of_tight_frame_is_rescaled(spec):
    # S = A I, so the canonical dual vectors are tau_n / A
    F = make_named_frame(spec)
    a, _ = frame_bounds(F)
    G = canonical_dual(F)
    assert np.abs(G.synthesis - F.synthesis / a).max() < 1e-12


@pytest.mark.parametrize("c", [1e-3, 0.5, 3.0, 1e4])
def test_frame_bounds_scale_with_the_square_of_a_factor(c):
    F = random_frame(13, 3, 6)
    a, b = frame_bounds(F)
    ca, cb = frame_bounds(HilbertFrame(c * F.synthesis))
    assert ca == pytest.approx(c * c * a, rel=1e-10)
    assert cb == pytest.approx(c * c * b, rel=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_frame_bounds_ignore_unitaries_and_reordering(seed):
    # U S U^H has the spectrum of S, and S does not see the order of tau_n
    F = random_frame(seed, 3, 7)
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    G = HilbertFrame(U @ F.synthesis[:, rng.permutation(7)])
    assert frame_bounds(G) == pytest.approx(frame_bounds(F), rel=1e-10)


def test_make_named_frame_parsing():
    assert make_named_frame("mercedes").m == 3
    assert make_named_frame("harmonic(2, 4)").m == 4
    assert make_named_frame("lines(5)").m == 5
    for bad in ("unknown", "harmonic(2)", "lines(x)", "harmonic(4,2)"):
        with pytest.raises(ValueError):
            make_named_frame(bad)


def test_non_frame_reports_zero_lower_bound():
    T = np.array([[1.0, 2.0], [0.0, 0.0]])  # does not span R^2
    F = HilbertFrame(T)
    a, b = frame_bounds(F)
    assert a == 0.0 and b > 0
    assert not F.is_frame()
    with pytest.raises(NotAFrame):
        canonical_dual(F)


def test_canonical_dual_reciprocal_bounds_and_reconstruction():
    F = random_frame(42, 3, 7)
    a, b = frame_bounds(F)
    G = canonical_dual(F)
    da, db = frame_bounds(G)
    assert da == pytest.approx(1 / b, rel=1e-10)
    assert db == pytest.approx(1 / a, rel=1e-10)
    # dual of the dual returns the original family
    assert np.abs(canonical_dual(G).synthesis - F.synthesis).max() < 1e-10
    rng = np.random.default_rng(0)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    # mixed expansion h = sum <h, dual_n> tau_n
    rec = F.synthesis @ G.coefficients(h)
    assert np.abs(rec - h).max() < 1e-10


def test_parsevalize():
    F = random_frame(1, 4, 9)
    P = parsevalize(F)
    assert np.abs(P.frame_operator - np.eye(4)).max() < 1e-10
    # same span and an invertible change of vectors: S^(-1/2) applied columnwise
    Sroot = P.synthesis @ np.linalg.pinv(F.synthesis)
    assert np.abs(Sroot @ F.frame_operator @ Sroot - np.eye(4)).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_frame_algorithm_error_curve(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    m = int(rng.integers(d, 12))
    F = random_frame(seed + 1, d, m)
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    iters, rho = frame_algorithm(F, h, 30)
    a, b = frame_bounds(F)
    assert rho == pytest.approx((b - a) / (b + a), rel=1e-12)
    nh = np.linalg.norm(h)
    for k, hk in enumerate(iters, start=1):
        assert np.linalg.norm(hk - h) <= rho ** k * nh + 1e-10


def test_frame_algorithm_tight_frame_one_step():
    F = mercedes_frame()
    h = np.array([0.3, -1.2])
    iters, rho = frame_algorithm(F, h, 1)
    assert rho <= 1e-15
    assert np.abs(iters[0] - h).max() < 1e-14


def identity_sides_oracle(F, M, h):
    # explicit-loop evaluation of both identity sides for a Parseval frame
    m = F.m
    Mc = [n for n in range(m) if n not in set(M)]
    c = [ip(h, F.synthesis[:, n]) for n in range(m)]

    def parseval_side(idx):
        first = sum(abs(c[n]) ** 2 for n in idx)
        vec = sum((c[n] * F.synthesis[:, n] for n in idx), np.zeros(F.d, dtype=complex))
        return first - sum(abs(t) ** 2 for t in vec)

    def lower_value(idx, idxc):
        first = sum(abs(c[n]) ** 2 for n in idx)
        vec = sum((c[n] * F.synthesis[:, n] for n in idxc), np.zeros(F.d, dtype=complex))
        return first + sum(abs(t) ** 2 for t in vec)

    return parseval_side(M), parseval_side(Mc), lower_value(M, Mc)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_identities_on_parseval_frames(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    m = int(rng.integers(d, 10))
    F = parsevalize(random_frame(seed, d, m))
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    M = [n for n in range(m) if rng.random() < 0.5]
    rep = frame_identity_residuals(F, M, h)
    assert rep.general_residual <= 1e-10
    assert rep.parseval_residual <= 1e-10
    side_m, side_mc, lower = identity_sides_oracle(F, M, h)
    assert rep.parseval_residual == pytest.approx(abs(side_m - side_mc), abs=1e-12)
    assert rep.lower_bound_value == pytest.approx(lower, abs=1e-10)
    assert rep.lower_bound_value >= 0.75 * np.linalg.norm(h) ** 2 - 1e-10


def test_identity_residuals_keep_the_bits_of_numpys_norm(monkeypatch):
    # frame_identity_residuals squares linops._vec_norm, a float, where it
    # squared np.linalg.norm, an np.float64: the two squares are one double
    # wherever they are finite, so every residual keeps its bits
    rng = np.random.default_rng(17)
    x = rng.standard_normal(200_000) * 2.0 ** rng.integers(-500, 500, 200_000)
    assert all((float(v) ** 2).hex() == float(v ** 2).hex() for v in x)
    cases = []
    for seed in range(20):
        d = int(rng.integers(2, 5))
        F = parsevalize(random_frame(seed, d, int(rng.integers(d, 10))))
        h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        cases.append((F, [n for n in range(F.m) if rng.random() < 0.5], h))
    reports = []
    for norm in (linops._vec_norm, np.linalg.norm):
        monkeypatch.setattr(linops, "_vec_norm", norm)
        reps = [frame_identity_residuals(F, M, h) for F, M, h in cases]
        reports.append([[float(value).hex() for value in (
            r.general_residual, r.parseval_residual, r.lower_bound_value)]
            for r in reps])
    assert reports[0] == reports[1]


def test_general_identity_holds_for_non_parseval_frames():
    F = random_frame(5, 3, 8)
    rng = np.random.default_rng(5)
    h = rng.standard_normal(3)
    rep = frame_identity_residuals(F, [0, 2, 5], h)
    assert rep.general_residual <= 1e-9
    assert rep.parseval_residual is None
    with pytest.raises(ValueError):
        frame_identity_residuals(F, [0, 2, 5], h, mode="parseval")


def test_naimark_dilation_of_parseval_frame_is_orthonormal():
    F = harmonic_frame(2, 5)
    dil = naimark_dilate(F)
    assert dil.d == 5
    W = dil.synthesis
    assert np.abs(W.conj().T @ W - np.eye(5)).max() < 1e-10
    # the first d coordinates recover the frame exactly
    assert np.array_equal(W[:F.d], F.synthesis)


def test_naimark_dilation_of_general_frame_is_riesz():
    F = random_frame(9, 3, 7)
    dil = naimark_dilate(F)
    assert dil.d == 7
    # a Riesz basis: as many vectors as dimensions, invertible Gram
    assert dil.m == dil.d
    assert linops.is_invertible(dil.gram)
    assert np.array_equal(dil.synthesis[:F.d], F.synthesis)


def test_quadratic_perturbation_certificate():
    F = mercedes_frame()
    rng = np.random.default_rng(2)
    G = HilbertFrame(F.synthesis + 0.05 * rng.standard_normal((2, 3)))
    cert = perturb_certificate(F, G, "quadratic")
    assert cert.valid
    a, b = frame_bounds(F)
    c = sum(np.linalg.norm(F.synthesis[:, n] - G.synthesis[:, n]) ** 2
            for n in range(3))
    assert cert.detail["c"] == pytest.approx(c, rel=1e-12)
    lo, hi = cert.predicted_bounds
    ga, gb = frame_bounds(G)
    assert lo - 1e-12 <= ga <= gb <= hi + 1e-12
    # a large perturbation fails the smallness condition
    bad = HilbertFrame(F.synthesis + 10.0)
    assert not perturb_certificate(F, bad, "quadratic").valid


def test_general_perturbation_certificate():
    F = parsevalize(random_frame(3, 3, 6))
    G = HilbertFrame(1.05 * F.synthesis)
    # scaling by 1.05 satisfies the hypothesis with alpha = 0.05, beta = gamma = 0
    cert = perturb_certificate(F, G, "general", alpha=0.05)
    assert cert.valid
    lo, hi = cert.predicted_bounds
    ga, gb = frame_bounds(G)
    assert lo - 1e-12 <= ga <= gb <= hi + 1e-12
    # an unrelated family falsifies the sampled hypothesis
    H = random_frame(77, 3, 6)
    assert not perturb_certificate(F, H, "general", alpha=0.01, gamma=0.01).valid
    with pytest.raises(HypothesisViolated):
        perturb_certificate(F, G, "general", beta=1.0)

