import contextlib
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import cli, cuntz, linops
from framekit.cuntz import (
    U,
    V,
    ConvergenceError,
    CuntzElement,
    build_DX,
    commutator,
    decay_reference,
    dx_matrices,
    finite_obstruction,
    lemma_structure,
    solve_b,
    unit,
    word,
)
from framekit.cli import dump_word_matrix
from framekit.linops import _form
from oracles import (
    cells,
    coeff,
    concrete_apply,
    concrete_equal,
    dense_pair,
    dense_word_matrix,
    first_iterate_entry,
    kernel_entry,
    obstruction_loop,
    poly_value,
    solve_b_dicts,
    sparse_product,
    value_commutator,
)

U_STAR, V_STAR = word(right="u"), word(right="v")


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
            (word(w, s, c) for (w, s), c in items), start=CuntzElement()
        )
    )


# --- word arithmetic -------------------------------------------------------


def test_generator_relations():
    assert (U_STAR * U).table == unit().table
    assert (V_STAR * V).table == unit().table
    assert (U_STAR * V).table == {}
    assert (V_STAR * U).table == {}


def test_range_projections_do_not_reduce():
    # uu* + vv* = 1 is not a rewrite rule
    s = U * U_STAR + V * V_STAR
    assert s != unit()
    assert set(s.table) == {(("u",), ("u",)), (("v",), ("v",))}


def test_normal_form_product_cancels_middle():
    assert (word("u", "v") * word("v", "u")).table == word("u", "u").table
    assert (word("u", "vv") * word("v", "")).table == word("u", "v").table
    assert (word("", "uv") * word("u", "")).table == word("", "v").table


def test_opaque_symbol_collision_raises():
    with pytest.raises(ValueError):
        word(right=("b1",)) * U


def test_scalar_and_linear_ops():
    x = 2 * U - U
    assert x.table == U.table
    assert (x - x).table == {}
    assert coeff(3 * unit() * 2, "") == 6


@settings(max_examples=25, deadline=None)
@given(small_elements(), small_elements(), small_elements())
def test_product_associative(x, y, z):
    assert tables_close((x * y) * z, x * (y * z), tol=1e-9)


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


# --- the exact product on noncommuting entries -------------------------------


def dense_product(A, B, zero):
    """Triple-loop reference: acc + A[i, k] * B[k, j] over every k."""
    out = np.empty((A.shape[0], B.shape[1]), dtype=object)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = zero
            for k in range(A.shape[1]):
                acc = acc + A[i, k] * B[k, j]
            out[i, j] = acc
    return out


POLY_LETTERS = st.lists(st.sampled_from("abc"), max_size=2).map(tuple)
# keys (word, i, j) for mu^i delta^j word, with small exponents of either
# sign so that keys meet in sums and products; zero coefficients are
# drawn too, and the constructor drops them
polys = st.dictionaries(
    st.tuples(POLY_LETTERS, st.integers(-1, 1), st.integers(-1, 1)),
    st.integers(min_value=-3, max_value=3),
    max_size=3).map(cuntz._Poly)
CUNTZ_WORDS = st.lists(st.sampled_from("uv"), max_size=1).map(tuple)
elements = st.dictionaries(
    st.tuples(CUNTZ_WORDS, CUNTZ_WORDS),
    st.sampled_from([0.1, 0.2, 0.3, -1 / 3, 0.7, 1e-3]),
    min_size=1, max_size=3).map(cuntz.CuntzElement)


@st.composite
def entry_matrix(draw, entries, rows, cols):
    M = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            M[i, j] = draw(entries)
    zero = type(M.flat[0])()
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=1)):
        M[i, :] = [zero] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=1)):
        M[:, j] = [zero] * rows
    return M


@st.composite
def entry_pair(draw):
    entries = draw(st.sampled_from([polys, elements]))
    n, p, m = (draw(st.integers(1, 4)) for _ in range(3))
    return (draw(entry_matrix(entries, n, p)),
            draw(entry_matrix(entries, p, m)))


@settings(max_examples=150, deadline=None)
@given(entry_pair())
def test_matmul_equals_dense_loop_on_noncommuting_entries(pair):
    A, B = pair
    zero = type(B.flat[0])()
    got = sparse_product(A, B)
    assert got.shape == (A.shape[0], B.shape[1])
    assert all(type(x) is type(zero) for x in got.flat)
    assert cells(got) == cells(dense_product(A, B, zero))


def test_matmul_adds_inexact_word_products_in_k_order():
    # float coefficients round differently when summed in another order
    rng = np.random.default_rng(7)
    words, coeffs = [(), ("u",), ("v",)], [0.1, 0.2, 0.3, -1 / 3, 0.7]

    def matrix(rows, cols):
        M = np.empty((rows, cols), dtype=object)
        for i in range(rows):
            for j in range(cols):
                M[i, j] = cuntz.CuntzElement({
                    (words[rng.integers(3)], words[rng.integers(3)]):
                        coeffs[rng.integers(5)] for _ in range(3)})
        M[rng.integers(rows), :] = [CuntzElement()] * cols
        M[:, rng.integers(cols)] = [CuntzElement()] * rows
        return M

    for _ in range(10):
        A, B = matrix(3, 5), matrix(5, 3)
        expected = dense_product(A, B, CuntzElement())
        assert cells(sparse_product(A, B)) == cells(expected)


def test_matmul_keeps_the_factor_order():
    # mu a times 2 b / delta: the words keep their order, the exponents add
    a = np.array([[cuntz._Poly({(("a",), 1, 0): 1})]], dtype=object)
    b = np.array([[cuntz._Poly({(("b",), 0, -1): 2})]], dtype=object)
    ab, ba = {(("a", "b"), 1, -1): 2}, {(("b", "a"), 1, -1): 2}
    assert sparse_product(a, b)[0, 0] == ab
    assert sparse_product(b, a)[0, 0] == ba
    u_star, v = (np.array([[x]], dtype=object) for x in (U_STAR, V))
    assert not sparse_product(u_star, v)[0, 0]  # u* v = 0
    assert sparse_product(v, u_star)[0, 0].table == word("v", "u").table
    # in the sparse form: the factors keep their order, a factor equal to
    # 1 is never assumed (a _Poly or CuntzElement is not == 1), and the
    # zero product u* v leaves no pair
    assert (_form(a) @ _form(b)).rows == [[(0, ab)]]
    assert (_form(b) @ _form(a)).rows == [[(0, ba)]]
    assert (_form(u_star) @ _form(v)).rows == [[]]
    assert [[(j, x.table) for j, x in row]
            for row in (_form(v) @ _form(u_star)).rows] == [
                [(0, word("v", "u").table)]]


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
    assert b1.table == word(right="u", coeff=-2.0).table
    assert b2.table == word(right="v", coeff=-2.0).table
    # the quadratic term dies at word level, the rest dies concretely
    quad = b2 * commutator(U, b2)
    assert quad.table == {}
    delta = sol.delta
    residual = (
        commutator(V, b2) + commutator(U, b1) - 2 * unit() + delta * quad
    )
    assert set(residual.table) == {
        ((), ()),
        (("u",), ("u",)),
        (("v",), ("v",)),
    }
    assert concrete_equal(residual, CuntzElement(), count=64)
    assert sol.residual < 1e-10
    assert max(sol.bounds) <= sol.bound_limit


@pytest.mark.parametrize("n", [3, 6, 10])
def test_solve_certified_bounds(n):
    sol = solve_b(n)
    assert sol.residual < 1e-8
    assert max(sol.bounds) <= sol.bound_limit
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


def solve_outcome(solver, n, **kwargs):
    """The fields of the SolveResult of solver(n, **kwargs), b_exact's
    elements by their tables, or the fields and message of the
    ConvergenceError it raises."""
    try:
        res = solver(n, **kwargs)
    except ConvergenceError as err:
        return (err.iterations, err.contraction, err.last_delta, str(err))
    fields = dict(vars(res))
    if res.b_exact is not None:
        fields["b_exact"] = tuple(b.table for b in res.b_exact)
    return fields


@pytest.mark.parametrize("kwargs", [{"tol": 1e-8}, {"tol": 1e-12},
                                    {"max_iters": 3}])
def test_solve_equals_the_dict_solver(kwargs):
    # the list passes keep every float operation of the dict solver, in its
    # order, so every field of every result and error is equal
    outcomes = [solve_outcome(solve_b, n, **kwargs) for n in range(2, 61)]
    assert outcomes == [solve_outcome(solve_b_dicts, n, **kwargs)
                        for n in range(2, 61)]
    errors = sum(type(x) is tuple for x in outcomes)
    assert errors == (59 if "max_iters" in kwargs else 0)


def test_solve_rejects_small_n():
    with pytest.raises(ValueError):
        solve_b(1)


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


def lemma_call(n, mu, monkeypatch):
    """The arguments lemma_structure(n, mu) passes to _pair, and the
    sparse D and X that _pair returns to it."""
    real, built = cuntz._pair, []

    def spy(*args):
        built.append((args, real(*args)))
        return built[-1][1]

    monkeypatch.setattr(cuntz, "_pair", spy)
    lemma_structure(n, mu)
    monkeypatch.setattr(cuntz, "_pair", real)
    (args, forms), = built
    return args, forms


def filled(forms, zero):
    """Sparse forms filled out dense with zero in every empty cell."""
    return tuple(M.dense(zero) for M in forms)


def lemma_layout(n, mu, monkeypatch):
    """The exact D and X that lemma_structure(n, mu) lays out with _pair,
    as dense object arrays."""
    return filled(lemma_call(n, mu, monkeypatch)[1], cuntz._Poly())


def use_pair(mats, monkeypatch):
    """Let lemma_structure take the dense pair mats, through its sparse
    forms, in place of the pair it lays out."""
    forms = tuple(map(_form, mats))
    monkeypatch.setattr(cuntz, "_pair", lambda *args: forms)


def scalars(n, mu):
    """The mu and delta at which lemma_structure(n, mu) decides a cell."""
    return Fraction(1 if mu is None else mu), Fraction(1, 2000 * n**5)


def commutator_flags(D, X, n, mu, last_column):
    """The lemma's two verdicts read off the dense commutator C = D X - X D
    of the pair evaluated at the scalars of (n, mu), taken over Fractions:
    C is the identity off its last column, and that column is
    last_column."""
    C = value_commutator(D, X, *scalars(n, mu))
    off = all(C[i][j] == ({(): 1} if i == j else {})
              for i in range(n) for j in range(n - 1))
    return off, [row[n - 1] for row in C] == last_column


def assert_lemma_as_the_dense_commutator(n, mu, mats, last_column,
                                         monkeypatch, site, ok=False):
    use_pair(mats, monkeypatch)
    report = lemma_structure(n, mu)
    assert report.ok is ok, site
    assert (report.off_column_zero, report.last_column_matches) == \
        commutator_flags(*mats, n, mu, last_column), site


def true_last_column(D, X, n, mu):
    """The last column of D X - X D, evaluated at the scalars of (n, mu),
    for the pair the lemma certifies."""
    return [row[-1] for row in value_commutator(D, X, *scalars(n, mu))]


def test_delta_scaled_column_breaks_structure(monkeypatch):
    # adding the small factor to D's last column leaves defects outside it
    n = 4
    D, X = lemma_layout(n, None, monkeypatch)
    last_column = true_last_column(D, X, n, None)
    for r in range(n):
        D[r, n - 1] = cuntz._Poly({
            (w, i, j + 1 if w and w[0].startswith("b") else j): c
            for (w, i, j), c in D[r, n - 1].items()})
    assert value_commutator(D, X, *scalars(n, None))[0][n - 2] != {}
    assert_lemma_as_the_dense_commutator(n, None, (D, X), last_column,
                                         monkeypatch, "delta")
    assert not lemma_structure(n).off_column_zero


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("mu", [None, Fraction(1, 5)])
def test_lemma_catches_every_changed_coefficient(n, mu, monkeypatch):
    # each verdict also equals the one read off the dense commutator
    D, X = lemma_layout(n, mu, monkeypatch)
    last_column = true_last_column(D, X, n, mu)
    sites = [(which, i, j, k) for which, M in enumerate((D, X))
             for (i, j), p in np.ndenumerate(M) for k in p]
    assert len(sites) == 6 * n - 3
    for which, i, j, k in sites:
        mats = [D.copy(), X.copy()]
        p = dict(mats[which][i, j])
        p[k] *= 3
        mats[which][i, j] = cuntz._Poly(p)
        assert_lemma_as_the_dense_commutator(
            n, mu, mats, last_column, monkeypatch, (which, i, j, k))


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("mu", [None, Fraction(1, 5)])
@pytest.mark.parametrize("term", [{(("v",), 0, 0): 1}, {((), 2, -1): 3}])
def test_lemma_catches_a_term_in_every_zero_cell(n, mu, term, monkeypatch):
    # the zero-skipping product must still see a cell that should be empty
    # and is not (v, or the scalar 3 mu^2 / delta); each verdict also
    # equals the dense commutator's
    D, X = lemma_layout(n, mu, monkeypatch)
    last_column = true_last_column(D, X, n, mu)
    sites = [(which, i, j) for which, M in enumerate((D, X))
             for (i, j), p in np.ndenumerate(M) if not p]
    assert len(sites) == 2 * n * n - (4 * n - 4) - (2 * n - 1)
    for which, i, j in sites:
        mats = [D.copy(), X.copy()]
        mats[which][i, j] = cuntz._Poly(term)
        assert_lemma_as_the_dense_commutator(
            n, mu, mats, last_column, monkeypatch, (which, i, j))


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("mu, c", [(None, 1), (Fraction(1, 5), 5),
                                   (Fraction(3, 2), 2)])
def test_lemma_evaluates_a_term_that_vanishes_only_at_mu(n, mu, c,
                                                         monkeypatch):
    # c mu w - c mu0 w is not the zero polynomial, but it is zero at
    # mu = mu0: added to any cell of D or X, the pair is unchanged at mu0,
    # so the lemma must evaluate the cells it leaves and pass there, and
    # fail at mu0 + 1, each time with the dense commutator's verdicts
    D, X = lemma_layout(n, mu, monkeypatch)
    mu0 = scalars(n, mu)[0]
    term = cuntz._Poly({(("v",), 1, 0): c, (("v",), 0, 0): -int(c * mu0)})
    assert term and not poly_value(term, *scalars(n, mu))
    columns = {m: true_last_column(D, X, n, m) for m in (mu, mu0 + 1)}
    for which, i, j in [(which, i, j) for which in (0, 1)
                        for i in range(n) for j in range(n)]:
        mats = [D.copy(), X.copy()]
        mats[which][i, j] = mats[which][i, j] + term
        for m, ok in ((mu, True), (mu0 + 1, False)):
            assert_lemma_as_the_dense_commutator(
                n, m, mats, columns[m], monkeypatch, (which, i, j, m), ok)


def test_lemma_compares_a_one_sided_cell_with_the_empty_polynomial(
        monkeypatch):
    # a term in the empty cell D[0, 2] puts the cell (0, 1) in D X only;
    # that cell is compared with the empty polynomial of X D, so it passes
    # where the term vanishes and fails where it does not
    n, mu = 6, Fraction(1, 5)
    D, X = lemma_layout(n, mu, monkeypatch)
    columns = {m: true_last_column(D, X, n, m) for m in (mu, 1)}
    D[0, 2] = cuntz._Poly({((), 1, 0): 5, ((), 0, 0): -1})
    dx, xd = ((_form(A) @ _form(B)).rows[0] for A, B in ((D, X), (X, D)))
    assert 1 in dict(dx) and 1 not in dict(xd)
    for m, ok in ((mu, True), (1, False)):
        assert_lemma_as_the_dense_commutator(
            n, m, (D, X), columns[m], monkeypatch, m, ok)


def plain_sum(a, b, sign):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def plain_product(a, b):
    out = {}
    for (wa, ia, ja), ca in a.items():
        for (wb, ib, jb), cb in b.items():
            k = (wa + wb, ia + ib, ja + jb)
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


sparse_polys = st.one_of(st.just(cuntz._Poly()), polys)


@settings(max_examples=300, deadline=None)
@given(sparse_polys, sparse_polys)
def test_poly_shortcuts_equal_the_plain_dict_loop(a, b):
    before = (dict(a), dict(b))
    results = {"+": (a + b, plain_sum(a, b, 1)),
               "-": (a - b, plain_sum(a, b, -1)),
               "*": (a * b, plain_product(a, b)),
               "neg": (-a, plain_sum({}, a, -1))}
    for op, (got, want) in results.items():
        assert type(got) is cuntz._Poly, op
        assert got == want, op
        assert all(got.values()), op
    assert (dict(a), dict(b)) == before  # operands are never changed


POLY_UNIT = cuntz._Poly({((), 0, 0): 1})
# the unit, scalar monomials c mu^i delta^j (c = 1 at (0, 0) is the unit,
# c = -1 there is not), one-term words and sums of up to three terms
ring_polys = st.one_of(
    st.just(POLY_UNIT), st.just(cuntz._Poly()),
    st.builds(lambda c, i, j: cuntz._Poly({((), i, j): c}),
              st.sampled_from([-2, -1, 1, 3]), st.integers(-1, 1),
              st.integers(-1, 1)),
    polys)


@settings(max_examples=400, deadline=None)
@given(ring_polys, ring_polys, st.booleans())
def test_poly_products_by_the_unit_and_one_term_equal_the_double_loop(
        a, b, cancel):
    # with cancel, b is -a: the sum cancels to the empty polynomial
    if cancel:
        b = -a
    before = (list(a.items()), list(b.items()))
    for op, got, want in (("*", a * b, plain_product(a, b)),
                          ("+", a + b, plain_sum(a, b, 1)),
                          ("-", a - b, plain_sum(a, b, -1))):
        assert type(got) is cuntz._Poly, op
        assert got == want and all(got.values()), op
    assert (list(a.items()), list(b.items())) == before
    if POLY_UNIT in (a, b) and a and b:  # the other factor, shared
        assert a * b is (a if b == POLY_UNIT else b)
    assert (a + b == {}) == (not a + b)


def bits(e: CuntzElement) -> list:
    """The table of e with the key order and every coefficient's bits,
    the sign of a zero part included."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in e.table.items()]


def init_scalar_product(x: CuntzElement, s) -> CuntzElement:
    return CuntzElement({k: c * complex(s) for k, c in x.table.items()})


def init_sum(x: CuntzElement, y: CuntzElement) -> CuntzElement:
    t = dict(x.table)
    for k, c in y.table.items():
        t[k] = t.get(k, 0j) + c
    return CuntzElement(t)


signed_elements = st.dictionaries(
    st.tuples(CUNTZ_WORDS, CUNTZ_WORDS),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 0.3, -1 / 3, 1e-300,
                     cuntz.WORD_PRUNE, -cuntz.WORD_PRUNE, 2.0 - 1.5j,
                     complex(-0.0, -1.0), complex(-2.0, 0.0)]),
    max_size=4).map(CuntzElement)


@settings(max_examples=400, deadline=None)
@given(signed_elements, signed_elements,
       st.sampled_from([0, 1, -1, -3.0, 0.5, 1e-300, 1e300, -0.0, 2j,
                        -1 - 1j, cuntz.WORD_PRUNE]),
       st.booleans())
def test_element_scalar_products_and_sums_equal_the_init_path(x, y, s,
                                                              cancel):
    # zero coefficients are dropped where __init__ drops them, products
    # whose part is -0.0 read 0.0 as through __init__, and a term of
    # size WORD_PRUNE or below is kept: the prune is the element product's
    if cancel:
        y = init_sum(-x, y)
    before = (bits(x), bits(y))
    assert bits(x * s) == bits(init_scalar_product(x, s))
    assert bits(s * x) == bits(init_scalar_product(x, s))
    assert bits(x + y) == bits(init_sum(x, y))
    assert bits(x - y) == bits(init_sum(x, -y))
    assert (bits(x), bits(y)) == before


def test_poly_results_drop_the_terms_that_cancel():
    # the operations skip the zero filter where no key meets another;
    # where keys meet, a cancelled term is dropped, and a zero scalar
    # gives the empty polynomial; a word times different powers of mu
    # and delta is a different key
    one, a = cuntz._Poly({((), 0, 0): 1}), cuntz._Poly({(("a",), 0, 0): 1})
    mu_a = cuntz._Poly({(("a",), 1, 0): 1})
    cases = [((one + a) * (a - one), {(("a", "a"), 0, 0): 1, ((), 0, 0): -1}),
             ((a - one) * (one + a), {(("a", "a"), 0, 0): 1, ((), 0, 0): -1}),
             ((one + a) + (-a), {((), 0, 0): 1}),
             ((one + a) - (one + a), {}),
             (0 * (one + a), {}),
             (0 * a, {}),
             (-2 * (one + a), {((), 0, 0): -2, (("a",), 0, 0): -2}),
             (mu_a - a, {(("a",), 1, 0): 1, (("a",), 0, 0): -1}),
             ((mu_a - a) * (mu_a + a),
              {(("a", "a"), 2, 0): 1, (("a", "a"), 0, 0): -1})]
    for got, want in cases:
        assert type(got) is cuntz._Poly
        assert got == want and all(got.values())
    assert cuntz._Poly({(("a",), 0, 0): 0, ((), 0, 0): 2}) == {((), 0, 0): 2}


def test_poly_powers_and_inverses_of_scalar_monomials():
    # _pair takes mu ** k for k of either sign and 1 / (mu mu delta)
    mu, delta = cuntz._Poly({((), 1, 0): 1}), cuntz._Poly({((), 0, 1): 1})
    cases = [(mu ** 3, {((), 3, 0): 1}),
             (mu ** 0, {((), 0, 0): 1}),
             (mu ** -2 * delta, {((), -2, 1): 1}),
             ((-(mu * delta)) ** -3, {((), -3, -3): -1}),
             ((-mu) ** -2, {((), -2, 0): 1}),
             (cuntz._Poly({((), 1, 2): 3}) ** 2, {((), 2, 4): 9}),
             (1 / (mu * mu * delta), {((), -2, -1): 1}),
             (4 / (-delta), {((), 0, -1): -4})]
    for got, want in cases:
        assert type(got) is cuntz._Poly
        assert got == want
    for bad in (lambda: cuntz._Poly({((), 1, 0): 2}) ** -1,
                lambda: 1 / cuntz._Poly({(("a",), 0, 0): 1}),
                lambda: cuntz._Poly({(("a",), 0, 0): 1}) ** 2):
        with pytest.raises(ValueError):
            bad()
    with pytest.raises(ValueError):
        (mu + delta) ** 2  # not a monomial


# --- assembled matrices -----------------------------------------------------


def written(sol, mu):
    """dx_matrices(sol, mu) filled out dense, CuntzElement() in every
    empty cell."""
    return filled(dx_matrices(sol, mu), CuntzElement())


def test_build_n2_exact_commutator_within_bound():
    built = build_DX(2, mu=0.5)
    D, X = dx_matrices(built.solution, 0.5)
    I2 = np.array([[unit(), CuntzElement()], [CuntzElement(), unit()]], dtype=object)
    C = (D @ X).dense(CuntzElement()) - (X @ D).dense(CuntzElement()) - I2
    assert C[0, 0].table == {}
    assert C[1, 0].table == {}
    assert concrete_equal(C[1, 1], CuntzElement(), count=64)
    top = C[0, 1]
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
    D, X = written(built.solution, 1.0)
    inv_delta = 2000.0 * n**5
    assert coeff(D[0, 0], "v") == pytest.approx(inv_delta)
    assert coeff(D[1, 0], "u") == pytest.approx(inv_delta)
    assert coeff(D[1, 2], "") == pytest.approx(2.0)
    assert coeff(D[0, 3], ("b1", "u")) == pytest.approx(1.0)
    assert coeff(D[2, 3], "") == pytest.approx(3.0)
    assert coeff(D[2, 3], ("b3", "u")) == pytest.approx(1.0)
    assert X[2, 1].table == unit().table
    assert coeff(X[0, 3], ("b1",)) == pytest.approx(built.delta)
    assert lemma_structure(n, Fraction(1)).ok


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("mu", [0.5, 0.2, 2.0])
def test_build_scaling_is_the_lemma_similarity(n, mu):
    # the pair built at mu is the mu = 1 pair conjugated by
    # diag(mu^(n-1), ..., mu, 1), times 1/mu on D and mu on X: the scaling
    # lemma_structure certifies, entry by entry
    sol = solve_b(n)
    (D1, X1), (D, X) = written(sol, 1.0), written(sol, mu)
    for (i, j), d in np.ndenumerate(D):
        for got, want in ((d, D1[i, j] * mu ** (j - i - 1)),
                          (X[i, j], X1[i, j] * mu ** (j - i + 1))):
            assert set(got.table) == set(want.table), (i, j)
            for k, c in got.table.items():
                assert abs(c - want.table[k]) <= 1e-13 * abs(c), (i, j, k)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("mu", [0.5, 2.0])
def test_written_pair_is_the_certified_pair(n, mu, monkeypatch):
    # dx_matrices and the lemma's exact layout, evaluated at Fraction(mu),
    # hold the same words in every cell, with coefficients equal up to
    # float rounding
    D, X = written(solve_b(n), mu)
    exact = lemma_layout(n, Fraction(mu), monkeypatch)
    for M, E in zip((D, X), exact):
        for (i, j), cell in np.ndenumerate(M):
            value = poly_value(E[i, j], *scalars(n, mu))
            assert {(w, s) for w, s in cell.table} == {
                (w, ()) for w in value}, (i, j)
            for (w, _), c in cell.table.items():
                want = float(value[w])
                assert abs(c - want) <= 1e-14 * abs(want), (i, j, w)


@pytest.mark.parametrize("mu", [0.2, 0.4, 1.0, 3.0, 1e-3])
def test_written_pair_dumps_as_the_dense_layout(mu, monkeypatch):
    # the sparse pair holds the nonzero cells of the dense layout in
    # increasing column and writes its bytes, [] in every empty cell; the
    # lemma's exact pair is the sparse form of the same layout
    for n in range(2, 13):
        sol = solve_b(n)
        b = sol.b_exact or [word((f"b{i}",)) for i in range(1, n + 1)]
        dense = dense_pair(n, mu, sol.delta, b, U, V, unit())
        for got, want in zip(dx_matrices(sol, mu), dense):
            assert got.shape == (n, n)
            for row in got.rows:
                assert all(c for _, c in row), n
                assert [j for j, _ in row] == sorted({j for j, _ in row}), n
            assert json.dumps(dump_word_matrix(got)) == json.dumps(
                dense_word_matrix(want)), n
        args, forms = lemma_call(n, Fraction(mu), monkeypatch)
        for got, want in zip(forms, dense_pair(*args)):
            assert got.rows == _form(want).rows, n


def test_build_symbolic_entries_and_intervals():
    n = 5
    built = build_DX(n)
    entry = written(built.solution, 0.5)[0][0, n - 1]
    assert coeff(entry, ("b1", "u")) == pytest.approx(0.5 ** (n - 2))
    assert built.X_interval.hi <= 2.0
    assert built.X_interval.lo == 1.0
    assert built.D_interval.lo <= built.D_interval.hi
    bb = built.b_bounds
    w_hi = 2 * bb["b1"] + built.delta * bb["b2"] + 2 * built.delta * bb["b1"] * bb["b5"]
    assert built.error_bound >= 0.5 ** (n - 1) * w_hi
    assert built.error_bound <= 0.5 ** (n - 1) * w_hi + 1e-10


# --- size trends ------------------------------------------------------------


def test_verify_bounds_decay_ratio():
    r6 = build_DX(6)
    r8 = build_DX(8)
    ratio = r8.error_bound / r6.error_bound
    assert ratio <= 1.05 * decay_reference(6, 8)
    assert ratio >= 0.5 * decay_reference(6, 8)


def test_verify_bounds_growth_rates():
    reports = [build_DX(n) for n in (6, 8, 10, 12)]
    scales = [rep.D_interval.hi / rep.n**5 for rep in reports]
    for rep, scale in zip(reports, scales):
        assert rep.X_interval.hi <= 2.0
        assert 12000.0 <= scale <= 13000.0
        assert rep.solution.residual < 1e-8
    errors = [rep.error_bound for rep in reports]
    assert all(b < a for a, b in zip(errors, errors[1:]))
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


def _min_distance(dim: int, trials: int, seed: int) -> float:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["cuntz", "obstruction", "--dim", str(dim), "--trials",
                         str(trials), "--seed", str(seed), "--json"])
    assert code == 0
    return json.loads(out.getvalue())["result"]["min_distance"]


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_obstruction_draws_equal_the_trial_loop(dim):
    # the chunked stack draws one D and then one X per trial, as the loop
    # does; trial counts on both sides of one and two chunks
    step = linops.CHUNK // (2 * dim * dim)
    for seed, trials in enumerate((1, step - 1, step, step + 1, 2 * step + 7)):
        got = _min_distance(dim, trials, seed)
        assert got.hex() == obstruction_loop(dim, trials, seed).hex()


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 40])
def test_finite_obstruction_stack_equals_each_pair(dim):
    rng = np.random.default_rng(dim)
    shape = (7, dim, dim)
    D = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    X = rng.standard_normal(shape)
    got = finite_obstruction(D, X)
    assert got.shape == (7,)
    assert [v.hex() for v in got.tolist()] == [
        finite_obstruction(D[k], X[k]).hex() for k in range(7)]
    assert finite_obstruction(D[:, None], X[:, None]).shape == (7, 1)


def test_finite_obstruction_of_one_pair_is_a_float():
    got = finite_obstruction(np.eye(3), np.diag([1.0, 2.0, 3.0]))
    assert type(got) is float and got == 1.0


def test_obstruction_memory_is_bounded_by_the_chunk():
    # 2,000 pairs at dim 40 drawn at once would take 51 MB
    tracemalloc.start()
    try:
        _min_distance(40, 2000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
