import contextlib
import io
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import framekit.sip
from framekit import cli, hframe, linops
from oracles import (
    general_identity_loop,
    lower_bound_loop,
    make_parseval,
    operator_identity_loop,
    parseval_identity_loop,
    sip,
)

from framekit.sip import (
    LowerBoundReport,
    SipPair,
    general_identity_residual,
    lower_bound_check,
    operator_identity_residual,
    parseval_identity_residual,
    partial_operator,
    sip_functional,
)


def sip_scalar_oracle(x, y, p):
    # independent of the vectorized path: plain Python loop, zero terms skipped
    ny = sum(abs(c) ** p for c in y) ** (1.0 / p)
    if ny == 0.0:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for a, b in zip(x, y):
        if b != 0:
            total += a * complex(b).conjugate() * abs(b) ** (p - 2)
    return total / ny ** (p - 2)


def pair_sum_oracle(P, idx, x):
    # sum over idx of [x, w_n][t_n, x], one scalar sip at a time
    return sum(
        sip_scalar_oracle(x, P.Omega[:, n], P.p)
        * sip_scalar_oracle(P.Tau[:, n], x, P.p)
        for n in idx
    )


def random_pair(seed, d, m, p):
    rng = np.random.default_rng(seed)
    while True:
        Omega = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        Tau = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        P = SipPair(p, Omega, Tau)
        if linops.is_invertible(P.frame_operator()):
            return P


complexes = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def vec(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_sip_matches_scalar_oracle():
    for p in (1.2, 1.5, 2, 2.7, 4):
        for seed in range(5):
            x, y = vec(6, seed), vec(6, 100 + seed)
            got = sip(x, y, p)
            want = sip_scalar_oracle(x, y, p)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_sip_zero_coordinates_contribute_zero():
    # p < 2 makes |y_n|^(p-2) blow up at 0; the term must vanish instead
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 2.0])
    got = sip(x, y, 1.5)
    assert np.isfinite(got.real) and np.isfinite(got.imag)
    assert abs(got - sip_scalar_oracle(x, y, 1.5)) <= 1e-12


def test_sip_on_zero_and_disjoint_support():
    x = vec(4, 0)
    assert sip(x, np.zeros(4), 1.5) == 0.0
    e1, e2 = np.eye(4)[0], np.eye(4)[1]
    assert sip(e1, e2, 3) == 0.0


def test_sip_rejects_bad_exponent():
    x = vec(3, 1)
    for p in (1.0, 0.5, float("inf")):
        with pytest.raises(ValueError):
            sip(x, x, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.5, 2.0, 3.0]))
def test_sip_norm_identity(seed, p):
    x = vec(5, seed)
    n2 = linops.vec_pnorm(x, p) ** 2
    assert abs(sip(x, x, p) - n2) <= 1e-10 * max(1.0, n2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), complexes, st.sampled_from([1.5, 2.0, 3.0]))
@example(seed=0, lam=2.2e-311, p=3.0)  # ||y||^(p-2) underflowed to NaN
def test_sip_homogeneity_both_slots(seed, lam, p):
    x, y = vec(5, seed), vec(5, seed + 1)
    base = sip(x, y, p)
    assert abs(sip(lam * x, y, p) - lam * base) <= 1e-9 * max(1.0, abs(lam))
    assert abs(sip(x, lam * y, p) - np.conj(lam) * base) <= 1e-9 * max(1.0, abs(lam))


@pytest.mark.parametrize("p", [3.0, 50.0])
def test_sip_at_huge_scale(p):
    # ||y|| near 1e160: ||y||^(p-2) overflows when taken directly
    x, y = vec(5, 20), vec(5, 21)
    base = sip(x, y, p)
    for t in (1e160, 1e-160):
        got = sip(x, t * y, p)
        assert abs(got - t * base) <= 1e-12 * t * abs(base)
        w = sip_functional(t * y, p)
        assert np.all(np.isfinite(w))
        assert abs(w @ x - got) <= 1e-12 * t * abs(base)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.5, 2.0, 3.0]))
def test_sip_additive_first_slot_and_cauchy_schwarz(seed, p):
    x, z, y = vec(5, seed), vec(5, seed + 1), vec(5, seed + 2)
    lhs = sip(x + z, y, p)
    assert abs(lhs - sip(x, y, p) - sip(z, y, p)) <= 1e-10 * max(1.0, abs(lhs))
    bound = linops.vec_pnorm(x, p) * linops.vec_pnorm(y, p)
    assert abs(sip(x, y, p)) <= bound + 1e-12


def test_sip_p2_is_the_inner_product():
    for seed in range(10):
        x, y = vec(6, seed), vec(6, 50 + seed)
        want = complex(np.vdot(y, x))  # sum x_n conj(y_n)
        assert abs(sip(x, y, 2) - want) <= 1e-12 * max(1.0, abs(want))


def test_functional_row_represents_sip():
    for p in (1.5, 3):
        y = vec(5, 3)
        w = sip_functional(y, p)
        for seed in range(5):
            x = vec(5, 10 + seed)
            assert abs(w @ x - sip(x, y, p)) <= 1e-10


def test_partial_operator_empty_and_full():
    P = random_pair(0, 3, 7, 1.5)
    assert np.array_equal(partial_operator(P, []), np.zeros((3, 3)))
    full = partial_operator(P, range(7))
    assert np.abs(full - P.frame_operator()).max() <= 1e-13


def test_partial_operator_complement_sum():
    P = random_pair(1, 4, 9, 2.5)
    M = [0, 2, 5, 8]
    S = partial_operator(P, M) + partial_operator(P, _comp(M, 9))
    scale = np.abs(P.frame_operator()).max()
    assert np.abs(S - P.frame_operator()).max() <= 1e-13 * scale


def test_partial_operator_complement_sum_exact_dyadic():
    # p = 2 with 0/1/2-valued data keeps every product and sum exact
    Omega = np.array([[1.0, 0, 1, 2], [0, 1, 1, 0]])
    Tau = np.array([[2.0, 0, 1, 1], [0, 2, 0, 1]])
    P = SipPair(2, Omega, Tau)
    W = P.functionals()
    # direct: the two masked products add to the full product entrywise
    S = partial_operator(P, [0, 3]) + partial_operator(P, [1, 2])
    assert np.array_equal(S, Tau @ W)


def test_partial_operator_matrix_matches_action():
    P = random_pair(2, 3, 6, 3)
    S_M = partial_operator(P, [1, 4])
    for seed in range(5):
        x = vec(3, 30 + seed)
        want = sum(
            sip_scalar_oracle(x, P.Omega[:, n], 3) * P.Tau[:, n] for n in (1, 4)
        )
        assert np.abs(S_M @ x - want).max() <= 1e-10


def _comp(M, m):
    return [n for n in range(m) if n not in set(M)]


def test_general_identity_empty_subset():
    P = random_pair(4, 3, 7, 1.5)
    x = vec(3, 40)
    assert general_identity_residual(P, [], x) <= 1e-10


def test_general_identity_random_pairs():
    for seed, p in ((5, 1.5), (6, 3), (7, 2)):
        P = random_pair(seed, 4, 9, p)
        for k in range(4):
            x = vec(4, 60 + k)
            M = [n for n in range(9) if (n * 7 + k) % 3 == 0]
            assert general_identity_residual(P, M, x) <= 1e-8


def test_general_identity_p2_against_hilbert_frame():
    F = hframe.make_named_frame("harmonic(3,7)")
    T = F.synthesis
    P = SipPair(2, T, T)
    x = vec(3, 70)
    M = [0, 2, 3]
    # cross-module: the sip coefficient sums reduce to |<x, tau_n>|^2
    got = pair_sum_oracle(P, M, x)
    want = sum(abs(np.vdot(T[:, n], x)) ** 2 for n in M)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    assert general_identity_residual(P, M, x) <= 1e-10
    rep = hframe.frame_identity_residuals(F, M, x)
    assert rep.general_residual <= 1e-10


def test_general_identity_rejects_singular_frame_operator():
    Omega = vec(3, 80).reshape(3, 1) @ np.ones((1, 5))
    Tau = vec(3, 81).reshape(3, 1) @ np.ones((1, 5))
    P = SipPair(1.5, Omega, Tau)
    with pytest.raises(linops.NotInvertible):
        general_identity_residual(P, [0, 1], vec(3, 82))


def test_parseval_identity_residuals():
    for p in (1.5, 2, 3):
        P = make_parseval(p, 3, 7, seed=11)
        for k in range(4):
            x = vec(3, 90 + k)
            M = [n for n in range(7) if (n + k) % 2 == 0]
            assert parseval_identity_residual(P, M, x) <= 1e-8


def test_parseval_identity_full_subset_is_zero():
    P = make_parseval(1.5, 3, 6, seed=12)
    x = vec(3, 95)
    assert parseval_identity_residual(P, range(6), x) <= 1e-10


def test_parseval_identity_p2_frame():
    T = hframe.make_named_frame("harmonic(2,5)").synthesis
    P = SipPair(2, T, T)
    x = vec(2, 96)
    assert parseval_identity_residual(P, [0, 3], x) <= 1e-10


def test_parseval_identity_rejects_non_parseval():
    P = random_pair(8, 3, 7, 1.5)
    assert not P.is_parseval()
    with pytest.raises(ValueError):
        parseval_identity_residual(P, [0], vec(3, 97))


def test_operator_identity_parseval():
    for p in (1.5, 2, 3):
        P = make_parseval(p, 3, 8, seed=13)
        assert operator_identity_residual(P, []) <= 1e-10
        assert operator_identity_residual(P, [0, 2, 5]) <= 1e-10


def test_split_identity_for_plain_matrices():
    # U + V = I forces U - V = U^2 - V^2 for any square matrix U
    rng = np.random.default_rng(14)
    for _ in range(10):
        U = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        V = np.eye(5) - U
        lhs = U - V
        rhs = U @ U - V @ V
        scale = max(1.0, float(np.abs(rhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_lower_bound_p2_condition_automatic():
    T = hframe.make_named_frame("harmonic(3,7)").synthesis
    P = SipPair(2, T, T)
    for seed in range(10):
        x = vec(3, 200 + seed)
        rep = lower_bound_check(P, [0, 1, 4], x)
        assert isinstance(rep, LowerBoundReport)
        assert rep.condition_holds  # (S_M - I/2)^2 is PSD in the p = 2 case
        assert rep.deficit <= 1e-9
        assert rep.value >= 0.75 * np.linalg.norm(x) ** 2 - 1e-9


def test_lower_bound_empty_subset_gives_full_norm():
    T = hframe.make_named_frame("harmonic(3,7)").synthesis
    P = SipPair(2, T, T)
    x = vec(3, 210)
    rep = lower_bound_check(P, [], x)
    n2 = np.linalg.norm(x) ** 2
    assert abs(rep.value - n2) <= 1e-9 * max(1.0, n2)
    assert not rep.condition_holds or rep.deficit <= 1e-9


def test_lower_bound_general_p_where_condition_holds():
    P = make_parseval(3, 3, 7, seed=15)
    hit = 0
    for seed in range(40):
        x = vec(3, 300 + seed)
        rep = lower_bound_check(P, [0, 2, 4, 6], x)
        assert not rep.condition_holds or rep.deficit <= 1e-9
        hit += rep.condition_holds
    assert hit > 0  # the check must actually exercise the bound


def test_lower_bound_reports_floor_and_deficit():
    P = make_parseval(3, 3, 7, seed=15)
    for seed in range(20):
        x = vec(3, 400 + seed)
        rep = lower_bound_check(P, [0, 2, 4, 6], x)
        assert rep.floor == 0.75 * linops.vec_pnorm(x, 3) ** 2
        assert rep.deficit == max(rep.floor - rep.value, 0.0)
    rep = lower_bound_check(P, [], vec(3, 420))
    assert rep.condition_holds and rep.deficit == 0.0


def test_lower_bound_rejects_non_parseval():
    P = random_pair(9, 3, 7, 3)
    with pytest.raises(ValueError):
        lower_bound_check(P, [0], vec(3, 98))


def test_make_parseval_solves_to_identity():
    for p in (1.5, 2, 3):
        P = make_parseval(p, 4, 9, seed=16)
        S = P.frame_operator()
        assert np.abs(S - np.eye(4)).max() <= 1e-12
        assert P.is_parseval()
    with pytest.raises(ValueError):
        make_parseval(2, 5, 3)


def test_mismatched_shapes_rejected():
    with pytest.raises(ValueError):
        SipPair(2, np.eye(3), np.eye(2))


# --- one duality map per vector, bit for bit -------------------------------


def _bits(z) -> tuple:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _outcome(f, *args):
    """The hex digits of f's result, or the name of what it raised."""
    try:
        got = f(*args)
    except ValueError as err:  # NotInvertible is one too
        return type(err).__name__
    if isinstance(got, tuple):
        return tuple(_bits(v) for v in got)
    return _bits(got)


def _lower_bound(P, M, x) -> tuple:
    rep = lower_bound_check(P, M, x)
    return rep.condition_value, rep.value, rep.floor


def assert_residuals_equal_the_loops(P, M, x):
    checks = [(general_identity_residual, general_identity_loop, (P, M, x))]
    parseval = [
        (parseval_identity_residual, parseval_identity_loop, (P, M, x)),
        (operator_identity_residual, operator_identity_loop, (P, M)),
        (_lower_bound, lower_bound_loop, (P, M, x))]
    if P.is_parseval():
        checks += parseval
    else:
        # cmd_sip_parseval runs operator_identity_residual only after
        # parseval_identity_residual has passed the same test
        for f in (parseval_identity_residual, _lower_bound):
            assert _outcome(f, P, M, x) == "ValueError"
    for f, loop, args in checks:
        assert _outcome(f, *args) == _outcome(loop, *args)


@st.composite
def sip_cases(draw):
    """A pair, a subset and an x: Parseval pairs and plain ones, with an
    omega column and x possibly zero, at scales 2^-500, 1 and 2^500."""
    d, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    p = draw(st.sampled_from([1.2, 1.5, 3.0, 7.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero = draw(st.sampled_from([None, *range(m)]))
    live = m - (zero is not None)
    if live >= d and draw(st.booleans()):
        P = make_parseval(p, d, live, int(rng.integers(2**32)))
        Omega, Tau = P.Omega, P.Tau
    else:
        Omega, Tau = (rng.standard_normal((d, live))
                      + 1j * rng.standard_normal((d, live)) for _ in "ot")
    if zero is not None:
        # a zero omega_n adds nothing to the frame operator
        Omega = np.insert(Omega, zero, 0.0, axis=1)
        Tau = np.insert(Tau, zero, rng.standard_normal(d), axis=1)
    s = draw(st.sampled_from([2.0 ** -500, 1.0, 2.0 ** 500]))
    M = draw(st.one_of(st.just([]), st.just(list(range(m))),
                       st.lists(st.integers(0, m - 1), unique=True)))
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if draw(st.booleans()):
        x = 0.0 * x
    return SipPair(p, s * Omega, Tau / s), M, s * x


@settings(max_examples=200, deadline=None)
@given(sip_cases())
def test_residuals_equal_one_map_per_scalar(case):
    # every [v, omega_n] and [tau_n, x] is the sum a fresh sip() takes, on
    # the maps SipPair keeps: equal hex digits, or the same refusal
    assert_residuals_equal_the_loops(*case)


@pytest.mark.parametrize("d, m", [(3, 5), (10, 40)])
def test_residuals_equal_one_map_per_scalar_at_bench_shapes(d, m):
    # d = 10 sums rows of more than eight entries
    P = make_parseval(3.0, d, m, seed=d)
    rng = np.random.default_rng(m)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    for M in (range(0, m, 2), [1], []):
        assert_residuals_equal_the_loops(P, list(M), x)
    assert_residuals_equal_the_loops(random_pair(d, d, m, 1.5), [0, 2], x)


def test_functionals_are_read_only():
    P = random_pair(0, 3, 4, 3.0)
    assert P.functionals() is P.functionals()
    with pytest.raises(ValueError):
        P.functionals()[0, 0] = 1.0


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "inputs")


@pytest.mark.parametrize("name, subset", [("sip", "0,2"),
                                          ("sip_d4", "0,3,4,9")])
@pytest.mark.parametrize("verb", ["identity", "parseval", "lower34"])
def test_verbs_compute_m_plus_three_maps_at_most(monkeypatch, name, subset,
                                                 verb):
    # the pair's m maps, then x's map, which lower34's sign condition
    # [v, x] reads too: a map per scalar would take 47 at m = 5
    calls = []
    real = framekit.sip.sip_functional

    def counted(y, p):
        calls.append(1)
        return real(y, p)

    monkeypatch.setattr(framekit.sip, "sip_functional", counted)
    path = os.path.join(GOLDEN, f"{name}.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sip", verb, "--in", path, "--subset", subset,
                         "--seed", "1"]) == 0
    m = cli.load_json(path)["Omega"]["cols"]
    assert len(calls) <= m + (1 if verb == "lower34" else 3)


def test_lower34_takes_only_the_sums_it_reads(monkeypatch):
    # d = 10, m = 40, M every other index: [x, w_n] and [t_n, x] over M
    # for the first sum, the same over the complement and its 20 x 20
    # [t_n, w_k] for the second, and one [v, x] for the sign condition
    # (881 when both sums were taken over both halves)
    P = make_parseval(3.0, 10, 40, seed=5)
    x = np.random.default_rng(6).standard_normal(10) + 0j
    M = list(range(0, 40, 2))
    want = lower_bound_loop(P, M, x)
    calls = []
    real = framekit.sip._dot

    def counted(v, w):
        calls.append(1)
        return real(v, w)

    monkeypatch.setattr(framekit.sip, "_dot", counted)
    rep = lower_bound_check(P, M, x)
    assert len(calls) == 2 * 20 + 2 * 20 + 20 * 20 + 1
    got = (rep.condition_value, rep.value, rep.floor)
    assert [v.hex() for v in got] == [v.hex() for v in want]
