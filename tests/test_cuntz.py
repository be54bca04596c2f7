import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import cuntz
from framekit.cuntz import (
    U,
    U_STAR,
    V,
    V_STAR,
    ConvergenceError,
    CuntzMatrix,
    build_DX,
    commutator,
    concrete_apply,
    concrete_equal,
    decay_reference,
    finite_obstruction,
    first_iterate_entry,
    kernel_entry,
    lemma_structure,
    matrix_iso,
    matrix_iso_inverse,
    norm_bounds,
    restriction_matrix,
    solve_b,
    unit,
    verify_bounds,
    word,
    zero,
)


def tables_close(x, y, tol=1e-12):
    keys = set(x.table) | set(y.table)
    return all(abs(x.table.get(k, 0j) - y.table.get(k, 0j)) <= tol for k in keys)


def small_elements():
    words = st.tuples(
        st.text(alphabet="uv", max_size=2), st.text(alphabet="uv", max_size=2)
    )
    coeffs = st.complex_numbers(
        min_magnitude=0.1, max_magnitude=3, allow_nan=False, allow_infinity=False
    )
    return st.lists(st.tuples(words, coeffs), min_size=1, max_size=4).map(
        lambda items: sum(
            (word(w, s, c) for (w, s), c in items), start=zero()
        )
    )


# --- word arithmetic -------------------------------------------------------


def test_generator_relations():
    assert U_STAR * U == unit()
    assert V_STAR * V == unit()
    assert (U_STAR * V) == zero()
    assert (V_STAR * U) == zero()


def test_range_projections_do_not_reduce():
    # uu* + vv* = 1 is not a rewrite rule
    s = U * U_STAR + V * V_STAR
    assert s != unit()
    assert set(s.table) == {(("u",), ("u",)), (("v",), ("v",))}


def test_adjoint_swaps_sides():
    assert word("u", "v").adjoint() == word("v", "u")
    assert word("uv", coeff=2 + 1j).adjoint() == word(right="uv", coeff=2 - 1j)


def test_normal_form_product_cancels_middle():
    assert word("u", "v") * word("v", "u") == word("u", "u")
    assert word("u", "vv") * word("v", "") == word("u", "v")
    assert word("", "uv") * word("u", "") == word("", "v")


def test_opaque_symbol_collision_raises():
    with pytest.raises(ValueError):
        word(right=("b1",)) * U


def test_scalar_and_linear_ops():
    x = 2 * U - U
    assert x == U
    assert (x - x).is_zero()
    assert (3 * unit() * 2).coeff("") == 6


@settings(max_examples=25, deadline=None)
@given(small_elements(), small_elements(), small_elements())
def test_product_associative_and_adjoint_reverses(x, y, z):
    assert tables_close((x * y) * z, x * (y * z), tol=1e-9)
    assert tables_close((x * y).adjoint(), y.adjoint() * x.adjoint(), tol=1e-9)


# --- concrete representation ----------------------------------------------


def test_concrete_generator_action():
    assert concrete_apply(U, {3: 1.0}) == {6: 1.0 + 0j}
    assert concrete_apply(V, {3: 1.0}) == {7: 1.0 + 0j}
    assert concrete_apply(U_STAR, {6: 1.0}) == {3: 1.0 + 0j}
    assert concrete_apply(U_STAR, {7: 1.0}) == {}
    assert concrete_apply(word("uv", "v"), {5: 1.0}) == {2 * (2 * 2 + 1): 1.0 + 0j}


def test_range_sum_acts_as_identity():
    s = U * U_STAR + V * V_STAR
    assert concrete_equal(s, unit(), count=64)


def _oracle_apply(e, k):
    # independent word-by-word action on low-bit-first binary strings
    out = {}
    for (w, s), c in e.table.items():
        rev = bin(k)[2:][::-1]
        pattern = "".join("0" if ch == "u" else "1" for ch in s)
        if len(rev) < len(pattern):
            rev = rev + "0" * (len(pattern) - len(rev))
        if not rev.startswith(pattern):
            continue
        img_bits = "".join("0" if ch == "u" else "1" for ch in w) + rev[len(pattern):]
        img = int(img_bits[::-1], 2) if img_bits else 0
        out[img] = out.get(img, 0j) + c
    return {k2: v for k2, v in out.items() if v != 0}


@settings(max_examples=25, deadline=None)
@given(small_elements(), st.integers(min_value=0, max_value=63))
def test_concrete_matches_bitstring_oracle(e, k):
    assert concrete_apply(e, {k: 1.0}) == _oracle_apply(e, k)


@settings(max_examples=25, deadline=None)
@given(small_elements(), small_elements(), st.integers(min_value=0, max_value=63))
def test_products_agree_with_composed_action(x, y, k):
    via_product = concrete_apply(x * y, {k: 1.0})
    composed = concrete_apply(x, concrete_apply(y, {k: 1.0}))
    for idx in set(via_product) | set(composed):
        assert abs(via_product.get(idx, 0j) - composed.get(idx, 0j)) <= 1e-9


# --- norm bounds -----------------------------------------------------------


def test_norm_bounds_isometry():
    nb = norm_bounds(U, 1)
    assert nb.hi == 1.0
    assert nb.lo == pytest.approx(1.0, abs=1e-12)


def test_norm_bounds_projection_lo_one_any_depth():
    p = U * U_STAR
    for depth in (1, 2, 3, 4):
        nb = norm_bounds(p, depth)
        assert nb.hi == 1.0
        assert nb.lo == pytest.approx(1.0, abs=1e-12)


def test_norm_bounds_sum_and_monotone():
    e = U + V
    los = [norm_bounds(e, depth).lo for depth in (1, 2, 3, 4)]
    assert norm_bounds(e, 1).hi == 2.0
    assert los[0] == pytest.approx(math.sqrt(2), abs=1e-12)
    for a, b in zip(los, los[1:]):
        assert b >= a - 1e-12
    assert all(lo <= 2.0 for lo in los)


def test_norm_bounds_depth_precondition():
    with pytest.raises(ValueError):
        norm_bounds(word("uv"), 1)


def test_norm_bounds_opaque_symbols():
    e = word(("b1",), coeff=3.0)
    nb = norm_bounds(e, 1, symbol_bounds={"b1": 2.0})
    assert nb.hi == 6.0 and nb.lo == 0.0
    with pytest.raises(ValueError):
        norm_bounds(e, 1)


def test_restriction_matrix_shape():
    M = restriction_matrix(U, 2)
    assert M.shape == (7, 4)
    assert M[6, 3] == 1.0 + 0j


# --- corner decomposition --------------------------------------------------


def test_matrix_iso_example():
    M = matrix_iso(word("u", "v"))
    assert M.entry(0, 1) == unit()
    for i, j in ((0, 0), (1, 0), (1, 1)):
        assert M.entry(i, j) == zero()


def test_matrix_iso_roundtrip_is_concrete_identity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = zero()
        for w, s in ((("u",), ()), (("v",), ("u",)), ((), ("v",)), ((), ())):
            c = complex(*rng.normal(size=2))
            x = x + word(w, s, c)
        back = matrix_iso_inverse(matrix_iso(x))
        assert concrete_equal(back, x, count=16)
    # word tables themselves differ: the roundtrip of 1 is uu* + vv*
    back = matrix_iso_inverse(matrix_iso(unit()))
    assert back != unit()
    assert concrete_equal(back, unit(), count=16)


def test_matrix_iso_forward_after_inverse_is_exact():
    rng = np.random.default_rng(3)
    entries = [
        [word("u", coeff=complex(*rng.normal(size=2))), word("", "v", 1.5)],
        [word("v", "u", 2j), unit()],
    ]
    M = CuntzMatrix(entries)
    N = matrix_iso(matrix_iso_inverse(M))
    for i in range(2):
        for j in range(2):
            assert tables_close(N.entry(i, j), M.entry(i, j))


def test_cuntz_matrix_validation():
    with pytest.raises(ValueError):
        CuntzMatrix([[unit()]])
    with pytest.raises(ValueError):
        CuntzMatrix([[unit(), unit()], [unit()]])
    I2 = CuntzMatrix.identity(2)
    assert (I2 @ I2).entry(0, 0) == unit()
    assert (I2 @ I2).entry(0, 1) == zero()


# --- dyadic kernel ---------------------------------------------------------


def test_kernel_n2_is_scalar():
    for p in range(16):
        for q in range(16):
            expect = Fraction(4) if p == q else Fraction(0)
            assert kernel_entry(2, 2, p, q) == expect


def test_kernel_matches_window_fixed_point():
    # independent oracle: sweep the defining fixed point on a finite window
    n, N = 3, 32
    Z = {i: np.zeros((N, N)) for i in range(2, n + 1)}

    def zval(i, p, q):
        if not 2 <= i <= n:
            return 0.0
        return Z[i][p, q]

    for _ in range(220):
        for i in range(2, n + 1):
            for p in range(N):
                for q in range(N):
                    y = float(n) if (i == n and p == q) else 0.0
                    if p % 2 == 1 and q % 2 == 0:
                        i2 = i + 1
                    elif p % 2 == 0 and q % 2 == 1:
                        i2 = i - 1
                    else:
                        i2 = i
                    Z[i][p, q] = y + 0.5 * zval(i2, p >> 1, q >> 1)
    for i in range(2, n + 1):
        for p in range(16):
            for q in range(16):
                assert Z[i][p, q] == pytest.approx(
                    float(kernel_entry(n, i, p, q)), abs=1e-12
                )


def _entry_fn(n, i):
    return lambda p, q: first_iterate_entry(n, i, p, q)


def _comm_v(f):
    def g(p, q):
        left = f((p - 1) // 2, q) if p % 2 == 1 else Fraction(0)
        return left - f(p, 2 * q + 1)

    return g


def _comm_u(f):
    def g(p, q):
        left = f(p // 2, q) if p % 2 == 0 else Fraction(0)
        return left - f(p, 2 * q)

    return g


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_iterate_solves_linear_system_entrywise(n):
    # T(L z) must reproduce the seed exactly in every concrete entry
    for i in range(2, n + 1):
        out = _comm_v(_entry_fn(n, i))
        prev = _comm_u(_entry_fn(n, i - 1))
        for p in range(16):
            for q in range(16):
                got = out(p, q) + prev(p, q)
                expect = Fraction(n) if (i == n and p == q) else Fraction(0)
                assert got == expect


def test_first_iterate_restriction_below_certified_bound():
    n, N = 3, 64
    sol = solve_b(n)
    for i in range(1, n + 1):
        M = np.array(
            [[float(first_iterate_entry(n, i, p, q)) for q in range(N)]
             for p in range(N)]
        )
        sigma = np.linalg.norm(M, 2)
        assert sigma <= sol.first_bounds[i - 1] + 1e-9


def test_kernel_input_validation():
    with pytest.raises(ValueError):
        kernel_entry(1, 1, 0, 0)
    with pytest.raises(ValueError):
        kernel_entry(3, 2, -1, 0)
    assert first_iterate_entry(3, 5, 0, 0) == Fraction(0)


# --- solver ----------------------------------------------------------------


def test_solve_n2_closed_form_and_zero_residual():
    sol = solve_b(2)
    b1, b2 = sol.b_exact
    assert b1 == word(right="u", coeff=-2.0)
    assert b2 == word(right="v", coeff=-2.0)
    # the quadratic term dies at word level, the rest dies concretely
    quad = b2 * commutator(U, b2)
    assert quad == zero()
    delta = sol.delta
    residual = (
        commutator(V, b2) + commutator(U, b1) - 2 * unit() + delta * quad
    )
    assert set(residual.table) == {
        ((), ()),
        (("u",), ("u",)),
        (("v",), ("v",)),
    }
    assert concrete_equal(residual, zero(), count=64)
    assert sol.residual < 1e-10
    assert sol.bound_ok


@pytest.mark.parametrize("n", [3, 6, 10])
def test_solve_certified_bounds(n):
    sol = solve_b(n)
    assert sol.residual < 1e-8
    assert sol.bound_ok
    assert max(sol.bounds) <= 16 * math.sqrt(2) * n**3
    assert max(sol.first_bounds) <= 8 * math.sqrt(2) * n**3
    assert sol.contraction < 1.0
    assert sol.iterations < 200
    assert len(sol.residual_rows) == n - 1
    assert all(r >= 0 for r in sol.residual_rows)


def test_solve_tighter_tol_gives_smaller_residual():
    loose = solve_b(6, tol=1e-8)
    tight = solve_b(6, tol=1e-12)
    assert tight.residual <= loose.residual


def test_solve_nonconvergence_diagnostics():
    with pytest.raises(ConvergenceError) as err:
        solve_b(6, max_iters=3)
    assert err.value.iterations == 3
    assert err.value.last_delta > 0
    assert math.isfinite(err.value.contraction)


def test_solve_rejects_small_n():
    with pytest.raises(ValueError):
        solve_b(1)


def test_solve_rejects_zero_iterations():
    with pytest.raises(ValueError, match="max_iters"):
        solve_b(4, max_iters=0)


# --- structural commutator identity ----------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_lemma_structure_exact(n):
    report = lemma_structure(n)
    assert report.off_column_zero
    assert report.last_column_matches
    assert report.ok


def test_lemma_structure_scaled():
    assert lemma_structure(4, mu=Fraction(1, 2)).ok
    assert lemma_structure(3, mu=Fraction(2, 3)).ok


def test_delta_scaled_column_breaks_structure():
    # adding the small factor to D's last column leaves defects outside it
    n = 4
    D, X, delta = cuntz._lemma_matrices(n)
    for r in range(n):
        bad = {}
        for k, c in D[r][n - 1].items():
            bad[k] = c * delta if k and k[0].startswith("b") else c
        D[r][n - 1] = bad
    C = cuntz._mat_commutator(D, X, n)
    assert C[0][n - 2] != {}


# --- assembled matrices -----------------------------------------------------


def test_build_n2_exact_commutator_within_bound():
    built = build_DX(2, mu=0.5)
    C = (built.D @ built.X) - (built.X @ built.D) - CuntzMatrix.identity(2)
    assert C.entry(0, 0) == zero()
    assert C.entry(1, 0) == zero()
    assert concrete_equal(C.entry(1, 1), zero(), count=64)
    top = C.entry(0, 1)
    b1, b2 = built.solution.b_exact
    delta = built.delta
    expected = 0.5 * (
        commutator(V, b1) + delta * b2 + delta * (b1 * commutator(U, b2))
    )
    assert tables_close(top, expected)
    hi = sum(abs(c) for c in top.table.values())
    assert hi <= built.error_bound + 1e-12
    assert built.error_bound < 1.1


def test_build_mu_one_matches_raw_layout():
    n = 4
    built = build_DX(n, mu=1.0)
    inv_delta = 2000.0 * n**5
    assert built.D.entry(0, 0).coeff("v") == pytest.approx(inv_delta)
    assert built.D.entry(1, 0).coeff("u") == pytest.approx(inv_delta)
    assert built.D.entry(1, 2).coeff("") == pytest.approx(2.0)
    assert built.D.entry(0, 3).coeff(("b1", "u")) == pytest.approx(1.0)
    assert built.D.entry(2, 3).coeff("") == pytest.approx(3.0)
    assert built.D.entry(2, 3).coeff(("b3", "u")) == pytest.approx(1.0)
    assert built.X.entry(2, 1) == unit()
    assert built.X.entry(0, 3).coeff(("b1",)) == pytest.approx(built.delta)
    assert built.structure.ok


def test_build_symbolic_entries_and_intervals():
    n = 5
    built = build_DX(n)
    entry = built.D.entry(0, n - 1)
    assert "b1" in entry.symbols
    nb = norm_bounds(entry, 2, symbol_bounds=built.b_bounds)
    assert nb.hi == pytest.approx(0.5 ** (n - 2) * built.b_bounds["b1"])
    assert built.X_interval.hi <= 2.0
    assert built.X_interval.lo == 1.0
    assert built.D_interval.lo <= built.D_interval.hi
    bb = built.b_bounds
    w_hi = 2 * bb["b1"] + built.delta * bb["b2"] + 2 * built.delta * bb["b1"] * bb["b5"]
    assert built.error_bound >= 0.5 ** (n - 1) * w_hi
    assert built.error_bound <= 0.5 ** (n - 1) * w_hi + 1e-10


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_DX(4, mu=0.0)
    with pytest.raises(ValueError):
        build_DX(4, solution=solve_b(5))


# --- size trends ------------------------------------------------------------


def test_verify_bounds_decay_ratio():
    r6 = verify_bounds(6)
    r8 = verify_bounds(8)
    ratio = r8.error_bound / r6.error_bound
    assert ratio <= 1.05 * decay_reference(6, 8)
    assert ratio >= 0.5 * decay_reference(6, 8)


def test_verify_bounds_growth_rates():
    reports = [verify_bounds(n) for n in (6, 8, 10, 12)]
    for rep in reports:
        assert rep.X_interval.hi <= 2.0
        assert 12000.0 <= rep.d_scale <= 13000.0
        assert rep.residual < 1e-8
    errors = [rep.error_bound for rep in reports]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    scales = [rep.d_scale for rep in reports]
    assert all(b < a for a, b in zip(scales, scales[1:]))


# --- concrete obstruction ---------------------------------------------------


def test_finite_obstruction_floor_cases():
    assert finite_obstruction(np.zeros((5, 5)), np.zeros((5, 5))) == 1.0
    assert finite_obstruction([[2.5]], [[-1.0]]) == 1.0


def test_finite_obstruction_always_at_least_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        D = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert finite_obstruction(D, X) >= 1.0 - 1e-9


def test_finite_obstruction_shape_mismatch():
    with pytest.raises(ValueError):
        finite_obstruction(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        finite_obstruction(np.zeros((2, 3)), np.zeros((2, 3)))
