import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit import linops
from framekit.linops import (
    NormInterval,
    NotInvertible,
    dual_exponent,
    hermitian_extremes,
    inverse,
    opnorm_interval,
    opnorm_mixed_upper,
    opnorm_upper,
    vec_pnorm,
)


def pnorm_oracle(x, p):
    # scalar loop, no vectorization shortcuts
    if math.isinf(p):
        return max(abs(t) for t in x)
    return sum(abs(t) ** p for t in x) ** (1.0 / p)


def test_vec_pnorm_against_scalar_loop():
    rng = np.random.default_rng(7)
    for p in (1, 1.5, 2, 3, 7.5, math.inf):
        for _ in range(20):
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert vec_pnorm(x, p) == pytest.approx(pnorm_oracle(x, p), rel=1e-12)


def test_vec_pnorm_rejects_p_below_one():
    with pytest.raises(ValueError):
        vec_pnorm([1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        opnorm_interval(np.eye(2), 0.99)


def test_dual_exponent():
    assert dual_exponent(1) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2) == 2.0
    assert dual_exponent(1.5) == pytest.approx(3.0)


@pytest.mark.parametrize("p", [1, 1.25, 2, 3, 10, math.inf])
def test_dual_exponent_is_an_involution(p):
    q = dual_exponent(p)
    assert dual_exponent(q) == pytest.approx(p, rel=1e-12)
    # Hoelder conjugates: 1/p + 1/q = 1, with 1/inf = 0
    assert 1 / p + 1 / q == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p", [1, 1.5, 2, 4, math.inf])
def test_vec_pnorm_is_absolutely_homogeneous_and_subadditive(p):
    rng = np.random.default_rng(int(10 * min(p, 9)))
    for _ in range(20):
        x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert vec_pnorm(c * x, p) == pytest.approx(abs(c) * vec_pnorm(x, p),
                                                    rel=1e-12)
        assert vec_pnorm(x + y, p) <= (vec_pnorm(x, p) + vec_pnorm(y, p)) * (1 + 1e-12)


def test_vec_pnorm_is_nonincreasing_in_p():
    x = np.random.default_rng(5).standard_normal(9)
    norms = [vec_pnorm(x, p) for p in (1, 1.1, 1.5, 2, 3, 8, 40, math.inf)]
    assert all(a >= b * (1 - 1e-12) for a, b in zip(norms, norms[1:]))
    # the ends: ||x||_inf <= ||x||_p <= n^(1/p) ||x||_inf
    assert norms[-1] == max(abs(x))
    assert norms[0] <= 9 * norms[-1]


finite = st.floats(allow_nan=False, allow_infinity=False)
complex_vectors = st.one_of(
    st.integers(1, 6).map(lambda n: np.zeros(n, dtype=complex)),
    st.lists(st.builds(complex, finite, finite), min_size=1, max_size=6)
    .map(lambda v: np.array(v, dtype=complex)))


@settings(max_examples=300, deadline=None)
@given(complex_vectors, st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_internal_pnorm_is_bit_identical_to_vec_pnorm(x, p):
    # the ascent's own vectors skip the public checks, not the arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        want = vec_pnorm(x, p)
        got = linops._pnorm(x, p)
    assert got.hex() == want.hex()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0, math.nan), complex(1, math.inf)])
def test_internal_pnorm_refuses_non_finite_entries_as_as_vector_does(p, bad):
    x = np.array([1.0, bad, 2.0], dtype=complex)
    with pytest.raises(ValueError) as public:
        linops.as_vector(x)
    with pytest.raises(ValueError) as internal, np.errstate(invalid="ignore"):
        linops._pnorm(x, p)
    assert str(internal.value) == str(public.value)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("x", [[1.5e308, 1.5e308], [1.5e308 + 1.5e308j],
                               [-1.5e308, 1.5e308j, 1.0]])
def test_internal_pnorm_returns_an_overflowing_norm_unrefused(p, x):
    # finite entries, norm beyond the float range: no refusal either way
    x = np.array(x, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        want = vec_pnorm(x, p)
        got = linops._pnorm(x, p)
    assert want == math.inf
    assert got.hex() == want.hex()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.one_of(st.just(np.zeros(n, dtype=complex)),
              st.lists(st.builds(complex, finite, finite), min_size=n,
                       max_size=n).map(lambda v: np.array(v, dtype=complex))),
    min_size=1, max_size=5)),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_row_pnorms_are_bit_identical_to_pnorm(rows, p):
    X = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        got = linops._pnorm_rows(X, p)
        want = [linops._pnorm(x, p) for x in X]
    assert [float(r).hex() for r in got] == [w.hex() for w in want]


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 50.0])
def test_row_pnorms_are_bit_identical_to_pnorm_on_long_rows(p):
    # 1,200 rows of 1-80 entries over six decades: enough roots that a
    # pow differing from float ** in the last bit shows
    rng = np.random.default_rng(int(10 * p))
    for n in range(1, 81):
        X = rng.standard_normal((15, n)) * 10.0 ** rng.uniform(-3, 3, (15, 1))
        if n % 2:
            X = X + 1j * rng.standard_normal((15, n))
        got = linops._pnorm_rows(X, p)
        want = [linops._pnorm(x, p) for x in X]
        assert [float(r).hex() for r in got] == [w.hex() for w in want], n


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_row_pnorms_refuse_a_non_finite_row_as_pnorm_does(p):
    X = np.array([[1.0, 2.0], [1.0, complex(0, math.nan)]])
    with pytest.raises(ValueError) as one, np.errstate(invalid="ignore"):
        linops._pnorm(X[1], p)
    with pytest.raises(ValueError) as rows, np.errstate(invalid="ignore"):
        linops._pnorm_rows(X, p)
    assert str(rows.value) == str(one.value)


def per_start_ascent(A, p, seed):
    # the ascent one start at a time, as it ran before the starts were
    # batched: the oracle the batched ascent must equal bit for bit
    def dual(y, p, q):
        ay = np.abs(y)
        if not ay.any():
            return np.zeros_like(y)
        phase = np.where(ay > 0, y / np.where(ay > 0, ay, 1.0), 0.0)
        if p == 1:
            return phase
        if math.isinf(p):
            g = np.zeros_like(y)
            k = int(np.argmax(ay))
            g[k] = phase[k]
            return g
        g = phase * (ay / ay.max()) ** (p - 1.0)
        return g / linops._pnorm(g, q)

    pn = linops._pnorm
    d = A.shape[1]
    rng = np.random.default_rng(seed)
    q = dual_exponent(p)
    starts = [np.ones(d, dtype=complex)]
    starts += [e for e in np.eye(d, dtype=complex)[: min(d, 8)]]
    starts.append(np.linalg.svd(A)[2][0].conj())
    for _ in range(8):
        starts.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    best = 0.0
    for x in starts:
        nx = pn(x, p)
        if nx == 0:
            continue
        x = x / nx
        val = pn(A @ x, p)
        for _ in range(60):
            z = A.conj().T @ dual(A @ x, p, q)
            if not np.abs(z).any():
                break
            x_new = dual(z, q, dual_exponent(q)).conj()
            nx = pn(x_new, p)
            if nx == 0:
                break
            x_new = x_new / nx
            val_new = pn(A @ x_new, p)
            if val_new <= val * (1 + 1e-14):
                val = max(val, val_new)
                break
            x, val = x_new, val_new
        best = max(best, val)
    return best


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([1.2, 1.5, 2.0, 3.0, 7.5, 1e300]),
       st.sampled_from(["dense", "real", "kernel", "rank1", "tiny"]))
def test_batched_ascent_equals_the_per_start_loop(seed, p, kind):
    # "kernel": zero columns, so some starts map to zero; "rank1": many
    # starts stop at once; p = 1e300 has q = 1 and q's dual inf
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    A = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    if kind == "real":
        A = A.real + 0j
    elif kind == "kernel":
        A[:, ::2] = 0
    elif kind == "rank1":
        A = np.outer(A[:, 0], A[0])
    elif kind == "tiny":
        A *= 1e-300
    with np.errstate(all="ignore"):
        want = per_start_ascent(A, p, seed)
        got = linops._ascent_lower(A, p, seed)
    assert type(got) is float
    assert got.hex() == want.hex()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.2, 1.5, 3.0, 7.5]),
       st.sampled_from(["zero_rows", "scattered"]))
def test_batched_ascent_equals_the_per_start_loop_on_zero_entries(seed, p,
                                                                  kind):
    # a zero row of A puts an exact zero in every A x, and zeros scattered
    # through A put them in some A x and some A* g: the phase then takes
    # the masked path, and elsewhere y / |y|
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(2, 12)), int(rng.integers(1, 12))
    A = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    if kind == "zero_rows":
        A[::2] = 0
    else:
        A[rng.random((m, d)) < 0.4] = 0
    with np.errstate(all="ignore"):
        want = per_start_ascent(A, p, seed)
        got = linops._ascent_lower(A, p, seed)
    assert got.hex() == want.hex()


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_batched_ascent_equals_the_per_start_loop_at_the_cap(p, monkeypatch):
    # S = T F of a d = 8, m = 10 standard-normal pair (seed 0): at p = 3
    # some start still gains after 60 steps, so the ascent stops at its
    # cap (one product for the starts and two per step)
    rng = np.random.default_rng(0)
    F, T = rng.standard_normal((10, 8)), rng.standard_normal((8, 10))
    S = linops.as_matrix(T @ F)
    calls = []
    real = linops._apply_rows

    def counted(A, X):
        calls.append(len(X))
        return real(A, X)

    monkeypatch.setattr(linops, "_apply_rows", counted)
    got = linops._ascent_lower(S, p, 0)
    assert got.hex() == per_start_ascent(S, p, 0).hex()
    if p == 3.0:
        assert len(calls) == 1 + 2 * 60 and calls[-1] >= 1


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_vec_pnorm_of_an_overflowing_modulus_is_inf(p):
    # |1.5e308 + 1.5e308j| overflows; the norm is inf, as for p = 1 and 2
    with np.errstate(over="ignore"):
        assert vec_pnorm([1.5e308 + 1.5e308j], p) == math.inf


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_exact_opnorms_ignore_permutations_and_phases(p):
    # permutations and unimodular diagonals are isometries of every p-norm,
    # so multiplying by them on either side leaves the norm unchanged
    rng = np.random.default_rng(23)
    A = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    P_out = np.eye(5)[rng.permutation(5)] * np.exp(1j * rng.uniform(0, 6, 5))
    P_in = np.eye(4)[rng.permutation(4)] * np.exp(1j * rng.uniform(0, 6, 4))
    iv, jv = opnorm_interval(A, p), opnorm_interval(P_out @ A @ P_in, p)
    assert iv.lo == iv.hi and jv.lo == jv.hi
    assert jv.hi == pytest.approx(iv.hi, rel=1e-13)


def test_singular_extremes_of_the_inverse_are_reciprocal():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    smin, smax = linops.singular_extremes(A)
    imin, imax = linops.singular_extremes(inverse(A))
    assert 0 < smin <= smax
    assert imin == pytest.approx(1 / smax, rel=1e-10)
    assert imax == pytest.approx(1 / smin, rel=1e-10)
    assert linops.is_invertible(A) and not linops.is_invertible(A[:, :3])


def test_opnorm_exact_cases_match_column_row_oracles():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    col = max(sum(abs(A[i, j]) for i in range(5)) for j in range(4))
    row = max(sum(abs(A[i, j]) for j in range(4)) for i in range(5))
    i1 = opnorm_interval(A, 1)
    iinf = opnorm_interval(A, math.inf)
    assert i1.lo == i1.hi and i1.hi == pytest.approx(col, rel=1e-13)
    assert iinf.lo == iinf.hi and iinf.hi == pytest.approx(row, rel=1e-13)
    # 2-norm against power iteration on A^H A
    B = A.conj().T @ A
    v = np.ones(4, dtype=complex)
    for _ in range(2000):
        v = B @ v
        v = v / np.linalg.norm(v)
    s2 = math.sqrt(abs(np.vdot(v, B @ v)))
    i2 = opnorm_interval(A, 2)
    assert i2.lo == i2.hi and i2.hi == pytest.approx(s2, rel=1e-10)


def test_opnorm_p15_contains_frozen_grid_maximum():
    # 200k-point random search plus local polish on this seeded matrix
    # gives 3.3319119368211325; the certified interval must contain it.
    rng = np.random.default_rng(20240817)
    A = rng.standard_normal((4, 4))
    grid_max = 3.3319119368211325
    iv = opnorm_interval(A, 1.5)
    assert iv.lo <= iv.hi
    assert grid_max <= iv.hi + 1e-12
    assert iv.lo == pytest.approx(grid_max, abs=1e-8)


def test_opnorm_diagonal_is_tight_for_general_p():
    d = np.array([0.3, -2.5, 1.0, 0.7])
    A = np.diag(d)
    for p in (1.3, 1.5, 2.7, 5.0):
        iv = opnorm_interval(A, p)
        assert iv.hi == pytest.approx(2.5, rel=1e-12)
        assert iv.lo == pytest.approx(2.5, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_opnorm_interval_bounds_every_ratio(seed, p):
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    A = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    iv = opnorm_interval(A, p)
    assert 0 <= iv.lo <= iv.hi
    for _ in range(25):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        ratio = vec_pnorm(A @ x, p) / vec_pnorm(x, p)
        assert ratio <= iv.hi * (1 + 1e-12) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.2, 1.5, 3.0]))
def test_opnorm_hi_submultiplicative(seed, p):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    hi_ab = opnorm_interval(A @ B, p).hi
    assert hi_ab <= opnorm_interval(A, p).hi * opnorm_interval(B, p).hi + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_opnorm_interval_hi_is_opnorm_upper(seed, p):
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    A = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    assert opnorm_interval(A, p).hi.hex() == opnorm_upper(A, p).hex()


def test_mixed_norm_exact_cases():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    # 1 -> p_out: max column p_out-norm (unit l1 ball is the convex hull
    # of the scaled basis vectors)
    for q in (1.5, 2.0, 4.0):
        hi = opnorm_mixed_upper(A, 1, q)
        oracle = max(pnorm_oracle(A[:, j], q) for j in range(3))
        assert hi == pytest.approx(oracle, rel=1e-12)
    # p_in -> inf: max row dual-norm
    hi = opnorm_mixed_upper(A, 2, math.inf)
    oracle = max(pnorm_oracle(A[i, :], 2) for i in range(4))
    assert hi == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(2.0, 4.0), (1.5, 3.0), (3.0, 1.5)]))
def test_mixed_norm_upper_bounds_every_ratio(seed, pq):
    p_in, p_out = pq
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hi = opnorm_mixed_upper(A, p_in, p_out)
    assert 0 <= hi
    for _ in range(25):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ratio = vec_pnorm(A @ x, p_out) / vec_pnorm(x, p_in)
        assert ratio <= hi * (1 + 1e-12) + 1e-12


def test_inverse_residual_and_singular_rejection():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    B = inverse(A)
    assert np.abs(A @ B - np.eye(6)).max() < 1e-10
    assert np.abs(B @ A - np.eye(6)).max() < 1e-10
    u = rng.standard_normal(4)
    with pytest.raises(NotInvertible):
        inverse(np.outer(u, u))  # rank one
    with pytest.raises(ValueError):
        inverse(rng.standard_normal((3, 4)))


def test_hermitian_extremes_on_constructed_spectrum():
    # build Q diag(lams) Q^H by QR, so the spectrum is known by construction
    rng = np.random.default_rng(9)
    lams = np.array([-1.25, 0.5, 3.75])
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    S = Q @ np.diag(lams) @ Q.conj().T
    lo, hi = hermitian_extremes(S)
    assert lo == pytest.approx(-1.25, abs=1e-10)
    assert hi == pytest.approx(3.75, abs=1e-10)


def test_hermitian_extremes_two_by_two_closed_form():
    a, c = 1.0, -2.0
    b = 0.5 + 0.25j
    S = np.array([[a, b], [np.conj(b), c]])
    mid = (a + c) / 2
    rad = math.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
    lo, hi = hermitian_extremes(S)
    assert lo == pytest.approx(mid - rad, abs=1e-12)
    assert hi == pytest.approx(mid + rad, abs=1e-12)


def test_hermitian_extremes_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_extremes(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_norm_interval_validation():
    with pytest.raises(ValueError):
        NormInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        NormInterval(-1.0, 1.0)


def test_matrix_validation():
    with pytest.raises(ValueError):
        linops.as_matrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        linops.as_matrix(np.zeros((0, 2)))
