"""Vector-space dilation tests.

Rational mode is held to zero residual everywhere; the oracles recompute
matrix powers by plain loops and solve the Sylvester equation independently.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import cuntz, linops, vsdilate
from framekit.vsdilate import (
    AndoDilation,
    BandedWindow,
    as_exact,
    ando_like,
    banded_sznagy,
    halmos,
    intertwine_lift,
    intertwining_gap,
    n_dilation,
    non_similarity_witness,
    standard_dilation,
)
from oracles import (
    ando_layout,
    banded_layout,
    bump,
    cells,
    companion_layout,
    eye,
    filled,
    halmos_layout,
    same_form,
    sparse_product,
    standard_layout,
)


def frac_matrix(seed, rows, cols=None):
    rng = np.random.default_rng(seed)
    cols = rows if cols is None else cols
    out = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = Fraction(int(rng.integers(-6, 7)),
                                 int(rng.integers(1, 5)))
    return out


def inverse_oracle(M):
    # Gauss-Jordan on Fractions; None for a singular matrix
    n = M.shape[0]
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M.tolist())]
    for c in range(n):
        r = next((r for r in range(c, n) if A[r][c] != 0), None)
        if r is None:
            return None
        A[c], A[r] = A[r], A[c]
        pivot = A[c][c]
        A[c] = [x / pivot for x in A[c]]
        for r in range(n):
            f = A[r][c]
            if r != c and f != 0:
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return np.array([row[n:] for row in A], dtype=object)


def invertible_frac_matrix(seed, n):
    for s in range(seed, seed + 50):
        M = frac_matrix(s, n)
        if inverse_oracle(M) is not None:
            return M
    raise AssertionError("no invertible sample found")


def power_oracle(T, k):
    # plain repeated multiplication, no shared code path with vsdilate
    n = T.shape[0]
    out = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        out[i, i] = Fraction(1)
    for _ in range(k):
        nxt = np.full((n, n), Fraction(0), dtype=object)
        for i in range(n):
            for j in range(n):
                nxt[i, j] = sum(out[i, r] * T[r, j] for r in range(n))
        out = nxt
    return out


def apply_oracle(M, k, x):
    # M^k x by k dense object products, right to left
    for _ in range(k):
        x = M @ x
    return x


def assert_exact_zero(M):
    assert not (M != 0).any()


# ---------------------------------------------------------------- helpers

def test_as_exact_accepts_strings_ints_fractions():
    M = as_exact([["1/3", 2], [Fraction(5, 7), 0]])
    assert M[0, 0] == Fraction(1, 3)
    assert M[0, 1] == Fraction(2)
    assert M[1, 0] == Fraction(5, 7)
    assert M.dtype == object


def test_as_exact_keeps_a_fraction_as_it_is():
    # a Fraction is not wrapped again; every other entry becomes one, and
    # the input array is never the output
    f = Fraction(-4, 6)
    src = np.array([[f, 1], ["2/4", 0.5]], dtype=object)
    M = as_exact(src)
    assert M[0, 0] is f and M is not src
    assert [type(x) for x in M.flat] == [Fraction] * 4
    assert M.tolist() == [[Fraction(-2, 3), 1], [Fraction(1, 2), 0.5]]


def test_as_exact_rounds_to_doubles_without_rational():
    # rational False takes each entry as the nearest double's exact value;
    # a double and a small int are kept
    M = as_exact([["2/3", 2 ** 53 + 1, Fraction(1, 10)], [0.1, 7, 0.25]],
                 rational=False)
    assert {type(x) for x in M.flat} == {Fraction}
    assert M.tolist() == [[Fraction(2 / 3), 2 ** 53, Fraction(0.1)],
                          [Fraction(0.1), 7, Fraction(1, 4)]]
    assert Fraction(2 / 3) != Fraction(2, 3)
    with pytest.raises(OverflowError):  # past the largest double
        as_exact([["-1e400"]], rational=False)


def assert_rational_form(X):
    """X holds nonzero ints in increasing column over a positive int den,
    or, as a block form, nonzero blocks in increasing column, each a
    nonzero int or such a rational form."""
    if X.block is not None:
        assert X.den is None
        for row in X.rows:
            assert [c for c, _ in row] == sorted({c for c, _ in row})
            for _, x in row:
                assert x  # no zero block is stored
                if type(x) is not int:
                    assert x.block is None
                    assert_rational_form(x)
        return
    assert type(X.den) is int and X.den > 0
    for row in X.rows:
        js = [j for j, _ in row]
        assert js == sorted(set(js))
        assert all(type(x) is int and x for _, x in row)


def assert_reduced(M):
    """Every cell of M is a Fraction in lowest terms."""
    assert all(type(x) is Fraction and x.denominator > 0
               and math.gcd(x.numerator, x.denominator) == 1 for x in M.flat)


def test_identity_forms_equal_the_read_identity():
    # an identity built as its form, and a grid of its blocks, equal the
    # dense identity and its block columns; the size may come from a
    # matrix or from a form
    T = as_exact([[1, 2], [3, 4]])
    I = eye(6, T)
    I2 = vsdilate._eye(T)
    assert same_form(I2, I[:2, :2])
    for lo, hi in ((0, 3), (1, 2), (0, 1), (2, 3), (1, 3)):
        got = vsdilate._grid({(c, c - lo): I2 for c in range(lo, hi)},
                             3, hi - lo)
        assert same_form(got, I[:, 2 * lo:2 * hi])
        # every identity block is the int 1
        assert [row for row in got.rows if row] == [
            [(c - lo, 1)] for c in range(lo, hi)]
    G = vsdilate._grid({(c, c): I2 for c in range(3)}, 3, 3)
    assert same_form(vsdilate._eye(G), I)
    one = as_exact([[5]])
    assert same_form(vsdilate._eye(one), eye(1, one))


def test_walks_match_oracle():
    T, x = frac_matrix(11, 3), frac_matrix(12, 3, 2)
    walks = zip(vsdilate._powers(T, 4),
                vsdilate._orbit(linops._form(T), linops._form(x), 4))
    for k, (power, col) in enumerate(walks):
        assert np.array_equal(filled(power), power_oracle(T, k))
        assert np.array_equal(filled(col), power_oracle(T, k) @ x)
    assert [len(vsdilate._powers(T, k)) for k in range(3)] == [1, 2, 3]


def test_a_walk_drops_the_cells_that_cancel():
    # U^2 = 0 exactly: every cell of U^2 x sums to zero and is dropped,
    # and U^3 x multiplies nothing
    U = as_exact([[1, -1, 0], [1, -1, 0], [0, 0, 0]])
    x = as_exact([["1/2", 0], ["-1/3", 1], [0, 0]])
    walk = vsdilate._orbit(linops._form(U), linops._form(x), 3)
    assert [row for row in walk[1].rows if row]
    assert walk[2].rows == walk[3].rows == [[], [], []]
    for k, col in enumerate(walk):
        assert np.array_equal(filled(col), power_oracle(U, k) @ x)


# ----------------------------------------------------------- exact product

sparse_entries = st.one_of(st.just(Fraction(0)),
                           st.sampled_from([Fraction(1), Fraction(-1)]),
                           st.fractions(-5, 5, max_denominator=9))


@st.composite
def sparse_matrix(draw, rows, cols):
    M = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            M[i, j] = draw(sparse_entries)
    for i in draw(st.sets(st.integers(0, rows - 1))):
        M[i, :] = Fraction(0)
    for j in draw(st.sets(st.integers(0, cols - 1))):
        M[:, j] = Fraction(0)
    return M


@st.composite
def sparse_pair(draw):
    n, p, m = (draw(st.integers(1, 6)) for _ in range(3))
    return draw(sparse_matrix(n, p)), draw(sparse_matrix(p, m))


def assert_matmul_is_dense_product(A, B):
    form = linops._form(A) @ linops._form(B)
    assert form.shape == (A.shape[0], B.shape[1])
    assert_rational_form(form)
    for got in (filled(form), sparse_product(A, B)):
        assert got.dtype == object and got.shape == form.shape
        assert_reduced(got)
        assert np.array_equal(got, A @ B)


@settings(max_examples=150, deadline=None)
@given(sparse_pair())
def test_matmul_equals_dense_object_product(pair):
    assert_matmul_is_dense_product(*pair)


@pytest.mark.parametrize("n", [1, 4])
def test_matmul_row_and_column_shapes(n):
    row, col = frac_matrix(5, 1, n), frac_matrix(6, n, 1)
    assert_matmul_is_dense_product(row, col)
    assert_matmul_is_dense_product(col, row)
    zero = as_exact(np.zeros((n, n)))
    assert_matmul_is_dense_product(zero, col)
    assert_matmul_is_dense_product(row, zero)


def test_matmul_refuses_a_shape_mismatch():
    # the inner dimensions must agree, in either field of forms
    A = linops._form(as_exact(np.ones((2, 3))))
    W = linops._form(np.full((2, 3), cuntz.word("u"), dtype=object))
    for L in (A, W):
        for R in (L, linops._form(as_exact(np.ones((4, 2)))),
                  linops._form(np.full((2, 2), cuntz.word("v"),
                                       dtype=object))):
            message = f"cannot multiply a (2, 3) matrix by a {R.shape} matrix"
            with pytest.raises(ValueError, match=re.escape(message)):
                L @ R


@settings(max_examples=50, deadline=None)
@given(sparse_matrix(4, 3) | sparse_matrix(1, 5))
def test_transpose_is_the_dense_transpose(M):
    X = linops._form(M).T
    assert same_form(X, M.T) and X.den == linops._form(M).den


@st.composite
def block_grid(draw):
    # a rows x cols grid of h x w blocks, some of them absent, each drawn
    # with its own denominators
    rows, cols, h, w = (draw(st.integers(1, 3)) for _ in range(4))
    where = draw(st.sets(st.tuples(st.integers(0, rows - 1),
                                   st.integers(0, cols - 1)), min_size=1))
    return {rc: draw(sparse_matrix(h, w)) for rc in sorted(where)}, rows, cols


@settings(max_examples=100, deadline=None)
@given(block_grid())
def test_grid_is_the_dense_block_layout(grid):
    # _grid of the blocks' forms is the dense matrix with those blocks in
    # place and zeros elsewhere
    blocks, rows, cols = grid
    h, w = next(iter(blocks.values())).shape
    M = np.full((rows * h, cols * w), Fraction(0), dtype=object)
    for (r, c), X in blocks.items():
        M[r * h:(r + 1) * h, c * w:(c + 1) * w] = X
    forms = {rc: vsdilate._block(X) for rc, X in blocks.items()}
    got = vsdilate._grid(forms, rows, cols)
    assert same_form(got, M)
    # each nonzero block is placed as it is, over its own den
    placed = {(r, c): x for r, row in enumerate(got.rows) for c, x in row}
    assert placed.keys() == {rc for rc, F in forms.items() if F.rows[0]}
    assert all(x is forms[rc].rows[0][0][1] for rc, x in placed.items())


# ------------------------------------------------------------- block forms
#
# A block form is a generic form whose entries are h x h blocks: an int c
# for c I, or a rational form over its own den; a zero block is absent.
# Products, sums, transposes and residuals of block forms must fill out
# as the dense object arrays do.

@st.composite
def block_entry(draw, h):
    # None for an absent block
    kind = draw(st.sampled_from(["absent", "int", "block"]))
    if kind == "int":
        return draw(st.integers(-3, 3).filter(bool))
    X = linops._form(draw(sparse_matrix(h, h)))
    return X if kind == "block" and X else None


@st.composite
def block_form(draw, rows, cols, h):
    grid = [[(c, x) for c in range(cols)
             for x in [draw(block_entry(h))] if x is not None]
            for _ in range(rows)]
    return linops._Sparse(grid, cols, block=(h, h))


@st.composite
def block_triple(draw):
    # A and B to multiply, and C of A's shape whose rows are A's own or
    # another draw's, to compare with A
    h, n, p, m = (draw(st.integers(1, 3)) for _ in range(4))
    A, B, other = (draw(block_form(r, c, h))
                   for r, c in ((n, p), (p, m), (n, p)))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = [a if k else b for a, b, k in zip(A.rows, other.rows, keep)]
    return A, B, linops._Sparse(rows, p, block=(h, h))


@settings(max_examples=150, deadline=None)
@given(block_triple())
def test_block_forms_fill_out_as_the_dense_oracle(triple):
    A, B, C = triple
    dA, dB, dC = map(filled, triple)
    assert same_form(A, dA) and same_form(B, dB)
    assert same_form(A @ B, dA @ dB)
    assert same_form(A.T, dA.T) and same_form(B.T, dB.T)
    assert same_form(A.T.T, dA)
    assert vsdilate._defect(A @ B, (A @ B).T.T) == 0.0
    got = vsdilate._defect(A, C)
    assert got == vsdilate._defect(C, A) == dense_defect_oracle(dA, dC)
    assert (got == 0) == np.array_equal(dA, dC)


def filled_entry(x, h):
    """An entry of a block form as its dense h x h block."""
    if type(x) is int:
        return x * eye(h, as_exact([[1]]))
    return filled(x)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda h: st.tuples(st.just(h), block_entry(h), block_entry(h))))
def test_block_entries_add_and_multiply_as_dense(drawn):
    # the ring of the entries: a sum or product of two blocks, of a block
    # and an int c (c I) in either order, or of two ints
    h, x, y = drawn
    x, y = (1 if e is None else e for e in (x, y))
    dx, dy = filled_entry(x, h), filled_entry(y, h)
    for got, want in ((x + y, dx + dy), (y + x, dy + dx),
                      (x * y, dx @ dy), (y * x, dy @ dx)):
        if type(got) is int:
            assert type(x) is type(y) is int
            got = got * eye(h, dx)
        else:
            assert_rational_form(got)
            assert bool(got) == bool((want != 0).any())
            got = filled(got)
        assert np.array_equal(got, want)
    if type(x) is not int:
        assert 1 * x is x and x * 1 is x


def test_a_block_that_cancels_is_false_and_dropped():
    # T + (-T) has no nonzero cell: it is false, and a product whose
    # blocks cancel holds no entry there
    T = linops._form(frac_matrix(7, 2))
    minus = linops._form(-frac_matrix(7, 2))
    assert T and not (T + minus) and (T + minus).rows == [[], []]
    one = linops._Sparse([[(0, 1), (1, 1)]], 2, block=(2, 2))
    col = linops._Sparse([[(0, T)], [(0, minus)]], 1, block=(2, 2))
    assert (one @ col).rows == [[]]


class _Loud:
    """A ring element that records every == test made on it."""

    def __init__(self, seen):
        self.seen = seen

    def __eq__(self, other):
        self.seen.append(other)
        return False

    def __mul__(self, other):
        return other


def test_matmul_skips_empty_rows_before_testing_for_one():
    # an empty left row is shared as it is, and a pair whose right row is
    # empty is skipped before its factor is compared with 1
    skipped, seen = [], []
    a, b = _Loud(skipped), _Loud(seen)
    right = linops._Sparse([[], [(0, 5)], []], 1)
    left = linops._Sparse([[], [(0, a)], [(0, a), (2, a)], [(1, b)]], 3)
    out = left @ right
    assert out.rows == [[], [], [], [(0, 5)]]
    assert out.rows[0] is left.rows[0] and out.rows[1] is right.rows[0]
    assert skipped == [] and seen and set(seen) == {1}


# ---------------------------------------------------------- rational forms
#
# A Fraction array is read into nonzero ints over one common denominator
# den; products multiply the ints and the dens, and nothing is reduced
# until a form is filled out dense or a residual is read as a float.

@st.composite
def square_pair(draw):
    n = draw(st.integers(1, 5))
    return draw(sparse_matrix(n, n)), draw(sparse_matrix(n, n))


@settings(max_examples=100, deadline=None)
@given(square_pair())
def test_rational_form_is_ints_over_the_lcm_of_the_denominators(pair):
    for M in pair:
        X = linops._form(M)
        assert_rational_form(X)
        assert X.den == math.lcm(*(x.denominator for x in M.flat))
        got = filled(X)
        assert_reduced(got)
        assert np.array_equal(got, M)


@settings(max_examples=150, deadline=None)
@given(square_pair())
def test_rational_product_is_the_dense_product_in_both_orders(pair):
    A, B = pair
    for L, R in ((A, B), (B, A)):
        fl, fr = linops._form(L), linops._form(R)
        form = fl @ fr
        assert form.den == fl.den * fr.den
        assert_rational_form(form)
        got = filled(form)
        assert_reduced(got)
        assert np.array_equal(got, L @ R)


@pytest.mark.parametrize("one", [Fraction(1), Fraction(-1), Fraction(1, 6),
                                 Fraction(-1, 6), Fraction(2, 3), Fraction(6)])
def test_the_unit_factor_shortcut_is_exact_over_any_den(one):
    # row 0 holds one pair; its int is 1 only for the entry 1 / den, and
    # the shortcut must then take row 0 of the right factor over the
    # product of the two dens, not over the right factor's den
    A = as_exact([[one, 0], ["1/2", "1/3"]])
    B = as_exact([["5/7", "-1/2"], [3, "1/7"]])
    for L, R in ((A, B), (B, A), (A, A)):
        form = linops._form(L) @ linops._form(R)
        assert_rational_form(form)
        assert np.array_equal(filled(form), L @ R)


@settings(max_examples=30, deadline=None)
@given(sparse_matrix(3, 3))
def test_rational_walks_to_horizon_ten(T):
    # the dens and ints grow with every factor and are never reduced;
    # the right products of _powers and the left products of _orbit,
    # one block each, both fill out as the plain powers of T
    I = eye(3, as_exact([[1]]))
    powers = vsdilate._powers(T, 10)
    walk = vsdilate._orbit(vsdilate._block(T), vsdilate._block(I), 10)
    want = I
    for k, (power, col) in enumerate(zip(powers, walk)):
        for X in (power, col):
            assert_rational_form(X)
            assert same_form(X, want), k
            assert np.array_equal(filled(X), want), k
        assert vsdilate._defect(power, col) == 0.0
        assert vsdilate._defect(power, vsdilate._block(want)) == 0.0
        want = want @ T


@settings(max_examples=100, deadline=None)
@given(square_pair(), st.booleans())
def test_defect_of_a_product_over_its_own_den(pair, swap):
    # a product's den is the product of its factors' dens, the form read
    # from its value has the lcm of the reduced entries: their dens differ
    # while the matrices agree, and a change to one cell still shows
    A, B = pair[::-1] if swap else pair
    P = linops._form(A) @ linops._form(B)
    Q = linops._form(A @ B)
    assert vsdilate._defect(P, Q) == vsdilate._defect(Q, P) == 0.0
    C = A @ B
    C[0, 0] += Fraction(1, 5)
    R = linops._form(C)
    want = dense_defect_oracle(A @ B, C)
    assert vsdilate._defect(P, R) == vsdilate._defect(R, P) == want == 0.2


def test_field_comes_from_the_entry_type():
    # an all-zero array has no nonzero entry to read the field from: its
    # entry type still decides, and only Fractions read as rational
    word_zero = np.full((2, 3), cuntz.CuntzElement(), dtype=object)
    poly_zero = np.full((2, 3), cuntz._Poly(), dtype=object)
    for M in (word_zero, poly_zero):
        X = linops._form(M)
        assert X.den is None and X.rows == [[], []] and X.shape == (2, 3)
        assert cells(X.dense(type(M.flat[0])())) == cells(M)
    Z = linops._form(as_exact(np.zeros((2, 3))))
    assert (Z.den, Z.rows) == (1, [[], []])
    # a rational form never meets a generic one, in either order
    Q, G = linops._form(as_exact(np.ones((3, 3)))), linops._form(
        np.full((3, 3), cuntz.word("u"), dtype=object))
    for L, R in ((Q, G), (G, Q), (Z, linops._form(word_zero.T))):
        with pytest.raises(TypeError, match="rational form with a generic"):
            L @ R
    for L, R in ((Q, G), (G, Q), (Z, linops._form(word_zero))):
        with pytest.raises(TypeError, match="rational form with a generic"):
            vsdilate._defect(L, R)


# --------------------------------------------------------- residual kernel

def dense_defect_oracle(A, B):
    # the dense residual: max-abs over every cell of A - B
    return float(max((abs(x) for x in np.asarray(A - B).flat), default=0))


@st.composite
def defect_pair(draw):
    # B is A itself, -A (every nonzero cell changes sign), A with some
    # cells redrawn, or a fresh draw of the same shape
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = draw(sparse_matrix(n, m))
    how = draw(st.sampled_from(["equal", "negated", "redrawn", "fresh"]))
    if how == "equal":
        return A, A.copy()
    if how == "negated":
        return A, -A
    B = draw(sparse_matrix(n, m))
    if how == "redrawn":
        keep = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
        B.flat[np.array(keep)] = A.flat[np.array(keep)]
    return A, B


@settings(max_examples=200, deadline=None)
@given(defect_pair())
def test_defect_equals_the_dense_residual(pair):
    A, B = pair
    got = vsdilate._defect(linops._form(A), linops._form(B))
    assert type(got) is float
    assert got == dense_defect_oracle(A, B)
    assert got == vsdilate._defect(linops._form(B), linops._form(A))
    assert (got == 0) == np.array_equal(A, B)


def test_defect_refuses_a_shape_mismatch():
    A = as_exact(np.ones((2, 3)))
    for B in (as_exact(np.ones((3, 2))), as_exact(np.ones((2, 2))),
              as_exact(np.ones((1, 6)))):
        message = f"cannot compare a {A.shape} matrix with a {B.shape} matrix"
        with pytest.raises(ValueError, match=re.escape(message)):
            vsdilate._defect(linops._form(A), linops._form(B))


def undetected_changes(X, passes):
    """Positions (i, j) of the nonzero cells of the form X whose change to
    cell + 1 (``bump``) leaves passes() true, in row-major order.  X is
    restored after each change."""
    assert passes()
    missed = []
    h = 1 if X.block is None else X.block[0]
    for i, j in zip(*np.nonzero(filled(X) != 0)):
        i, j = int(i), int(j)
        row = X.rows[i // h]
        saved = list(row)
        bump(X, i, j)
        try:
            if passes():
                missed.append((i, j))
        finally:
            row[:] = saved
    assert passes()
    return missed


# Each check multiplies the operators the dilation stores, so changing any
# entry it reads must show up as a nonzero defect or a failed identity.
# Every stored form is its dense layout (``same_form``), so every nonzero
# cell of it, in an identity block or any other, is changed once.

def test_standard_checks_read_stored_operators():
    T = frac_matrix(91, 2)
    sd = standard_dilation(T, 3)
    q = sd.quadruple
    layout = standard_layout(T, 3)
    assert same_form(q.U, layout["U"]) and same_form(q.P, layout["P"])

    def passes():
        return (sd.dilation_defect() == 0
                and q.idempotent_defect() == 0 and sd.minimality_check())

    assert undetected_changes(q.U, passes) == []
    assert undetected_changes(q.P, passes) == []
    assert undetected_changes(q.U, sd.minimality_check) == []


def test_ando_checks_read_stored_operators():
    T = frac_matrix(92, 2)
    S = T @ T - as_exact(np.eye(2))
    ad = ando_like(T, S, 2)
    layout = ando_layout(T, S, 2)
    assert all(same_form(getattr(ad, k), layout[k]) for k in "UVP")

    def passes():
        # every cell of the grid is reached by some U^n V^m I
        return ad.dilation_defect() == 0 and ad.pad_identity_check()

    for M in (ad.U, ad.V, ad.P):
        assert undetected_changes(M, passes) == []
    for M in (ad.U, ad.V):
        assert undetected_changes(M, ad.pad_identity_check) == []


def test_sznagy_checks_read_stored_operators():
    T = frac_matrix(93, 2)
    d, w = 2, 3
    bw = banded_sznagy(T, w)
    layout = banded_layout(T, w)
    assert all(same_form(getattr(bw, k), layout[k]) for k in "UV")

    def passes():
        return (bw.compression_defect() == 0
                and bw.interior_identity_defect() == 0)

    # Only the identity blocks that reach the window's last block (rows
    # and columns of index w) lie where the truncation is felt; no
    # identity on the window reads them.
    last = range(2 * w * d, (2 * w + 1) * d)
    assert undetected_changes(bw.U, passes) == [
        (2 * w * d - d + k, last[k]) for k in range(d)]
    assert undetected_changes(bw.V, passes) == [
        (last[k], 2 * w * d - d + k) for k in range(d)]


def test_ndilate_checks_read_stored_operators():
    T = frac_matrix(94, 2)
    q = n_dilation(T, 3).quadruple
    layout = companion_layout(T, 3)
    assert same_form(q.U, layout["U"]) and same_form(q.U_inv, layout["U_inv"])

    def passes():
        return (q.inverse_defect() == 0
                and q.compression_defects(T, 3) == [0, 0, 0])

    assert undetected_changes(q.U, passes) == []
    assert undetected_changes(q.U_inv, passes) == []


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("field", ["U", "P"])
def test_intertwine_defects_read_stored_operators(monkeypatch, which, field):
    A = invertible_frac_matrix(95, 2)
    T2 = frac_matrix(96, 2)
    T1 = A @ T2 @ inverse_oracle(A)
    real = vsdilate.standard_dilation
    T = (T1, T2)[which]
    X = getattr(real(T, 3).quadruple, field)
    assert same_form(X, standard_layout(T, 3)[field])
    positions = list(zip(*np.nonzero(filled(X) != 0)))
    assert positions

    for i, j in positions:
        made = []

        def changed(T, horizon):
            sd = real(T, horizon)
            if len(made) == which:
                bump(getattr(sd.quadruple, field), i, j)
            made.append(sd)
            return sd

        monkeypatch.setattr(vsdilate, "standard_dilation", changed)
        lift = intertwine_lift(T1, T2, A, 3)
        assert max(lift.shift_defect, lift.projection_defect,
                   lift.embedding_defect) > 0


# ----------------------------------------------------------------- halmos

def test_halmos_zero_map_is_self_inverse_swap():
    q = halmos(as_exact([[0, 0], [0, 0]]))
    I2 = as_exact(np.eye(2))
    Z2 = as_exact(np.zeros((2, 2)))
    swap = np.block([[Z2, I2], [I2, Z2]])
    assert same_form(q.U, swap)
    assert same_form(q.U_inv, swap)
    assert q.inverse_defect() == 0.0


def test_halmos_scalar_two_inverse_exact():
    q = halmos(as_exact([[2]]))
    assert q.inverse_defect() == 0.0
    assert q.compression_defects(as_exact([[2]]), 1) == [0.0]
    assert q.compression_defects(as_exact([[3]]), 1) == [1.0]


def test_halmos_random_rational_exact_identities():
    T = frac_matrix(7, 3)
    q = halmos(T)
    E, U, P = map(filled, (q.embed, q.U, q.P))
    assert q.inverse_defect() == 0.0
    assert q.compression_defects(T, 1) == [0]
    assert np.array_equal(E.T @ U @ E, T)
    assert q.idempotent_defect() == 0
    assert_exact_zero(P @ P - P)
    assert np.array_equal(P @ E, E)
    # P(W) is exactly the embedded copy
    assert np.array_equal(P, E @ E.T)


def test_halmos_of_doubles_is_exact():
    # entries rounded to doubles (0.1 and 1/3 are not dyadic) run the
    # exact path: residual 0, not a float rounding
    T = as_exact([[0.1, "1/3"], [0.0, -1.5]], rational=False)
    q = halmos(T)
    assert q.inverse_defect() == 0.0
    assert q.compression_defects(T, 1) == [0.0]


def test_halmos_rejects_rectangular():
    with pytest.raises(ValueError):
        halmos(as_exact([[1, 2, 3], [4, 5, 6]]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_halmos_integer_property(rows):
    q = halmos(as_exact(rows))
    assert q.inverse_defect() == 0.0
    assert q.compression_defects(as_exact(rows), 1) == [0]


# ------------------------------------------------------------- n-dilation

def entries(X):
    """The entries of a block form, row by row: (column, int) for an int,
    (column, den, rows) for a rational block."""
    return [[(c, x) if type(x) is int else (c, x.den, x.rows)
             for c, x in row] for row in X.rows]


def test_n_dilation_one_step_matches_halmos():
    # one construction: at N = 1 the companion dilation stores the same
    # four forms as halmos, and they are [[T, I], [I, 0]], its inverse
    # [[0, I], [I, -T]] and the first block, for T as given and rounded
    # to doubles
    for rational in (True, False):
        T = as_exact(frac_matrix(41, 2), rational)
        nd, q = n_dilation(T, 1), halmos(T)
        layout = halmos_layout(T)
        for name, M in layout.items():
            got, want = getattr(nd.quadruple, name), getattr(q, name)
            assert same_form(got, M) and same_form(want, M)
            assert got.block == want.block
            assert entries(got) == entries(want)
        assert nd.table[0] == (1, 0.0)


def test_n_dilation_scalar_two_regression():
    # beyond the horizon the dilation picks up the reinserted identity:
    # PU^2|_V = T^2 + I = 5 while T^2 = 4
    nd = n_dilation(as_exact([[2]]), 1)
    E, U = map(filled, (nd.quadruple.embed, nd.quadruple.U))
    assert (E.T @ apply_oracle(U, 2, E))[0, 0] == Fraction(5)
    assert nd.table == ((1, 0.0), (2, 1.0))


def test_n_dilation_integer_exact_up_to_horizon():
    T = as_exact(np.random.default_rng(43).integers(-3, 4, size=(3, 3)))
    nd = n_dilation(T, 4)
    E, U = map(filled, (nd.quadruple.embed, nd.quadruple.U))
    for k in range(1, 5):
        assert nd.table[k - 1] == (k, 0.0)
        assert np.array_equal(E.T @ apply_oracle(U, k, E),
                              power_oracle(T, k))
    assert nd.table[4][1] > 0


def test_n_dilation_defect_beyond_horizon_is_identity():
    # U^(N+1) restricted back to V equals T^(N+1) + I exactly
    T = frac_matrix(44, 2)
    N = 3
    q = n_dilation(T, N).quadruple
    E, U = map(filled, (q.embed, q.U))
    beyond = E.T @ apply_oracle(U, N + 1, E)
    expected = power_oracle(T, N + 1) + as_exact(np.eye(2))
    assert np.array_equal(beyond, expected)


def test_n_dilation_inverse_and_idempotent_exact():
    T = frac_matrix(45, 2)
    q = n_dilation(T, 3).quadruple
    E, P = map(filled, (q.embed, q.P))
    assert q.inverse_defect() == 0.0
    assert q.idempotent_defect() == 0
    assert_exact_zero(P @ P - P)
    assert np.array_equal(P @ E, E)


def test_n_dilation_requires_positive_horizon():
    with pytest.raises(ValueError):
        n_dilation(as_exact([[1]]), 0)


# --------------------------------------------------------- banded window

def compressions(bw, k):
    # E^T U^n E for n = 0..k, by the dense oracle
    E, U = map(filled, (bw.embed, bw.U))
    return [E.T @ apply_oracle(U, n, E) for n in range(k + 1)]


def test_banded_first_power_any_window():
    T = frac_matrix(51, 2)
    for w in (2, 3, 5):
        bw = banded_sznagy(T, w)
        assert np.array_equal(compressions(bw, 1)[1], T)
        assert bw.compression_defect() == 0


def test_banded_window_six_integer_exact():
    T = as_exact(np.random.default_rng(52).integers(-3, 4, size=(2, 2)))
    bw = banded_sznagy(T, 6)
    assert bw.valid_horizon == 5
    for n, comp in enumerate(compressions(bw, 5)):
        assert np.array_equal(comp, power_oracle(T, n))
    assert bw.compression_defect() == 0


def test_banded_inverse_identity_away_from_boundary():
    T = frac_matrix(53, 3)
    bw = banded_sznagy(T, 4)
    assert bw.interior_identity_defect() == 0.0


def test_banded_horizon_enforced():
    # the defect walks n = 0..w-1 and no further
    bw = banded_sznagy(as_exact([[2]]), 3)
    assert bw.valid_horizon == 2
    assert bw.compression_defect() == 0
    assert len(vsdilate._orbit(bw.U, bw.embed, bw.valid_horizon)) == 3
    with pytest.raises(ValueError):
        banded_sznagy(as_exact([[2]]), 1)


# -------------------------------------------------------- standard dilation

def test_standard_identity_case():
    sd = standard_dilation(frac_matrix(61, 2), 4)
    assert sd.dilation_defect() == 0.0


def test_standard_nilpotent_annihilation():
    # strict shift: T^3 = 0, so the collapsed blocks vanish from n = 3 on
    T = as_exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    sd = standard_dilation(T, 6)
    E, U, P = map(filled, (sd.quadruple.embed, sd.quadruple.U,
                           sd.quadruple.P))
    assert sd.dilation_defect() == 0.0
    for n in range(3, 7):
        assert_exact_zero(P @ apply_oracle(U, n, E))


def test_standard_random_rational_exact():
    T = frac_matrix(62, 3)
    sd = standard_dilation(T, 8)
    assert sd.dilation_defect() == 0.0
    assert sd.quadruple.idempotent_defect() == 0.0
    assert sd.minimality_check()


def test_standard_projection_blocks_are_powers():
    T = frac_matrix(63, 2)
    sd = standard_dilation(T, 5)
    P = filled(sd.quadruple.P)
    for n in range(6):
        assert np.array_equal(P[:2, 2 * n:2 * (n + 1)], power_oracle(T, n))
    assert_exact_zero(P[2:, :])


def test_standard_defect_appears_past_horizon():
    # U is nilpotent on the truncation, so past the horizon the right side
    # collapses to zero while T^n does not
    T = invertible_frac_matrix(64, 2)
    q = standard_dilation(T, 3).quadruple
    E, U, P = map(filled, (q.embed, q.U, q.P))
    rhs = P @ apply_oracle(U, 4, E)
    assert_exact_zero(rhs)
    defect = dense_defect_oracle(E @ power_oracle(T, 4), rhs)
    assert defect == dense_defect_oracle(power_oracle(T, 4), 0)
    assert defect > 0


def test_standard_of_doubles_is_exact():
    sd = standard_dilation(as_exact([[0.5, 0.1], [0.0, 0.25]], rational=False),
                           5)
    assert sd.dilation_defect() == 0.0
    assert sd.minimality_check()


# ------------------------------------------------------------- ando grid

def test_ando_with_identity_reduces_to_standard():
    T = frac_matrix(71, 2)
    ad = ando_like(T, as_exact(np.eye(2)), 3)
    assert ad.dilation_defect() == 0.0
    # with S = I the collapse blocks depend on the row index only
    side = 4
    for n in range(side):
        for m in range(side):
            blk = filled(ad.P)[:2, (n * side + m) * 2:(n * side + m + 1) * 2]
            assert np.array_equal(blk, power_oracle(T, n))


def test_ando_simultaneous_diagonal_exact():
    T = as_exact([[2, 0], [0, 3]])
    S = as_exact([[5, 0], [0, 7]])
    ad = ando_like(T, S, 4)
    E, U, V, P = map(filled, (ad.embed, ad.U, ad.V, ad.P))
    assert ad.dilation_defect() == 0.0
    for n in range(5):
        for m in range(5 - n):
            top = (P @ apply_oracle(U, n, apply_oracle(V, m, E)))[:2]
            assert top[0, 0] == Fraction(2) ** n * Fraction(5) ** m
            assert top[1, 1] == Fraction(3) ** n * Fraction(7) ** m


def test_ando_commuting_polynomials_exact():
    A = frac_matrix(72, 3)
    I3 = as_exact(np.eye(3))
    T = A @ A + 2 * I3
    S = 3 * A - A @ A @ A
    ad = ando_like(T, S, 5)
    assert ad.dilation_defect() == 0.0


def test_ando_pad_identity():
    ad = ando_like(frac_matrix(73, 2), as_exact(np.eye(2)), 2)
    assert ad.pad_identity_check()


def test_ando_non_commuting_gap():
    # the caller decides commutation from the gap; the grid model of a
    # non-commuting pair is still built, and cell (1, 1) collapses
    # through T S, which is not S T
    T, S = as_exact([[0, 1], [0, 0]]), as_exact([[0, 0], [1, 0]])
    assert intertwining_gap(T, S, T) == 1
    assert intertwining_gap(T, T, T) == 0
    ad = ando_like(T, S, 1)
    assert np.array_equal(filled(ad.P)[:2, 6:8], T @ S)
    assert not np.array_equal(T @ S, S @ T)


def test_horizon_24_reads_residual_zero():
    # the probe pair of the kernel benchmark: denominators 2, 3, 5 and 7
    # and S = T^2 - 3T, which commutes with T; every identity up to
    # horizon 24 holds exactly (no time is asserted here)
    T = as_exact([["1/2", "1/3", 0], [0, "2/5", "1/7"], ["3/7", 0, 1]])
    S = T @ T - 3 * T
    assert intertwining_gap(T, S) == 0.0
    ad = ando_like(T, S, 24)
    assert ad.dilation_defect() == 0.0 and ad.pad_identity_check()
    sd = standard_dilation(T, 24)
    assert sd.dilation_defect() == 0.0
    assert sd.quadruple.idempotent_defect() == 0.0 and sd.minimality_check()


def test_shapes_are_refused_before_anything_is_multiplied():
    # intertwining_gap refuses what the construction that takes the same
    # matrices refuses, with its message: a pair (T, S) for ando_like,
    # a triple (T1, S, T2) for intertwine_lift
    T2, T3 = as_exact(np.eye(2)), as_exact(np.eye(3))
    wide = as_exact(np.ones((2, 3)))
    pair = "T and S must be square of equal size"
    lift = "S must map the second space into the first"
    for T, S in ((T3, T2), (T2, T3), (T2, wide), (wide, T2)):
        with pytest.raises(ValueError, match=pair):
            intertwining_gap(T, S)
        with pytest.raises(ValueError, match=pair):
            ando_like(T, S, 2)
    for T1, S, T in ((T3, T2, T3), (T2, wide, T2), (T2, wide.T, T3)):
        with pytest.raises(ValueError, match=lift):
            intertwining_gap(T1, S, T)
        with pytest.raises(ValueError, match=lift):
            intertwine_lift(T1, T, S, 2)
    # a T that is not square, as standard_dilation refuses it
    for T1, S, T in ((wide, T2, T2), (T2, T2, wide)):
        with pytest.raises(ValueError, match="T must be square"):
            intertwining_gap(T1, S, T)
        with pytest.raises(ValueError, match="T must be square"):
            intertwine_lift(T1, T, S, 2)
    # S of shape (rows of T1, rows of T2) is taken
    assert intertwining_gap(T2, wide, T3) == 0.0
    assert intertwine_lift(T2, T3, wide, 2).shift_defect == 0.0


# ------------------------------------------------------- intertwining lift

def test_intertwine_identity_case():
    T = frac_matrix(81, 3)
    lift = intertwine_lift(T, T, as_exact(np.eye(3)), 4)
    assert (lift.shift_defect, lift.projection_defect,
            lift.embedding_defect) == (0.0, 0.0, 0.0)


def test_intertwine_similarity_conjugation():
    A = invertible_frac_matrix(82, 3)
    T2 = frac_matrix(83, 3)
    T1 = A @ T2 @ inverse_oracle(A)
    lift = intertwine_lift(T1, T2, A, 5)
    assert lift.shift_defect == 0.0
    assert lift.projection_defect == 0.0
    assert lift.embedding_defect == 0.0


def sylvester_kernel(T1, T2):
    # exact row-reduced kernel vector of S -> T1 S - S T2 (row-major vec)
    d1, d2 = T1.shape[0], T2.shape[0]
    n = d1 * d2
    M = np.full((n, n), Fraction(0), dtype=object)
    for i in range(d1):
        for j in range(d2):
            row = i * d2 + j
            for k in range(d1):
                M[row, k * d2 + j] += T1[i, k]
            for k in range(d2):
                M[row, i * d2 + k] -= T2[k, j]
    # Gauss-Jordan to reduced row echelon form
    pivots = []
    r = 0
    for c in range(n):
        pv = next((i for i in range(r, n) if M[i, c] != 0), None)
        if pv is None:
            continue
        M[[r, pv]] = M[[pv, r]]
        M[r] = M[r] / M[r, c]
        for i in range(n):
            if i != r and M[i, c] != 0:
                M[i] = M[i] - M[i, c] * M[r]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    assert free, "Sylvester system has no kernel"
    vec = np.full(n, Fraction(0), dtype=object)
    vec[free[0]] = Fraction(1)
    for row, c in enumerate(pivots):
        vec[c] = -M[row, free[0]]
    return vec.reshape(d1, d2)


def test_intertwine_sylvester_oracle():
    # shared eigenvalue forces a nontrivial intertwiner
    T1 = as_exact([[1, 1], [0, 2]])
    T2 = as_exact([[2, 0], [1, 1]])
    S = sylvester_kernel(T1, T2)
    assert S.any()
    assert_exact_zero(T1 @ S - S @ T2)
    lift = intertwine_lift(T1, T2, S, 6)
    assert (lift.shift_defect, lift.projection_defect,
            lift.embedding_defect) == (0.0, 0.0, 0.0)


def test_intertwine_non_intertwiner_gap_and_defect():
    T1 = as_exact([[1, 0], [0, 2]])
    T2 = as_exact([[3, 0], [0, 4]])
    S = as_exact(np.eye(2))
    assert intertwining_gap(T1, S, T2) == 2
    assert intertwining_gap(T1, S, T1) == 0
    assert intertwine_lift(T1, T2, S, 3).projection_defect > 0


# ---------------------------------------------------------- trace witness

def test_witness_identity_map():
    w = non_similarity_witness(as_exact(np.eye(3)))
    assert w.trace_asymmetric == Fraction(6)
    assert w.trace_halmos == Fraction(3)
    assert w.distinct and w.conclusive


def test_witness_zero_trace_inconclusive():
    w = non_similarity_witness(as_exact([[1, 0], [0, -1]]))
    assert not w.conclusive
    assert not w.distinct


def test_witness_random_nonzero_trace():
    for seed in range(90, 110):
        T = frac_matrix(seed, 3)
        tr = sum(T[i, i] for i in range(3))
        if tr == 0:
            continue
        w = non_similarity_witness(T)
        assert w.distinct and w.conclusive
        assert w.trace_asymmetric == 2 * tr
        assert w.trace_halmos == tr


def test_witness_traces_of_doubles_are_the_exact_block_traces():
    # each trace is the exact sum of the diagonal of its dilation laid out
    # dense, so it is 2 tr T and tr T exactly, also on doubles where a
    # float sum of that diagonal rounds 2 tr T otherwise
    rng = np.random.default_rng(5)
    rounded_otherwise = 0
    for d in list(range(1, 9)) * 5:
        F = rng.standard_normal((d, d))
        T = as_exact(F, rational=False)
        I, Z = eye(d, T), np.full((d, d), Fraction(0), dtype=object)
        w = non_similarity_witness(T)
        asym = np.block([[T, T - I], [T + I, T]])
        for got, M in ((w.trace_asymmetric, asym),
                       (w.trace_halmos, np.block([[T, I], [I, Z]]))):
            assert got == sum(M[i, i] for i in range(2 * d))
        assert w.trace_asymmetric == 2 * w.trace_halmos
        rounded_otherwise += (sum(F[i, i] for i in range(d)) * 2
                              != sum([*np.diag(F), *np.diag(F)]))
    assert rounded_otherwise


# ------------------------------------------------------------------ field

# Each case builds one construction of T and returns (operators, defects);
# the ando and intertwine cases pair T with T^2 and with T itself.

def halmos_case(T):
    q = halmos(T)
    return ([q.embed, q.U, q.P, q.U_inv],
            [q.inverse_defect(), q.idempotent_defect()]
            + q.compression_defects(T, 1))


def n_dilation_case(T):
    nd = n_dilation(T, 2)
    q = nd.quadruple
    return ([q.U, q.U_inv, q.P],
            q.compression_defects(T, 2) + [dft for _, dft in nd.table[:2]])


def banded_case(T):
    bw = banded_sznagy(T, 3)
    return ([bw.U, bw.V, bw.embed],
            [bw.interior_identity_defect(), bw.compression_defect()])


def standard_case(T):
    sd = standard_dilation(T, 3)
    q = sd.quadruple
    return ([q.U, q.P, q.embed],
            [sd.dilation_defect(), q.idempotent_defect()])


def ando_case(T):
    ad = ando_like(T, T @ T, 2)
    return ([ad.embed, ad.U, ad.V, ad.P],
            [ad.dilation_defect(), intertwining_gap(T, T @ T, T)])


def intertwine_case(T):
    lift = intertwine_lift(T, T, T, 3)
    return [], [lift.shift_defect, lift.projection_defect,
                lift.embedding_defect]


def witness_case(T):
    w = non_similarity_witness(T)
    return ([np.array([[w.trace_asymmetric, w.trace_halmos]])],
            [abs(w.trace_asymmetric - 2 * w.trace_halmos)])


FIELD_CASES = [halmos_case, n_dilation_case, banded_case, standard_case,
               ando_case, intertwine_case, witness_case]


@pytest.mark.parametrize("case", FIELD_CASES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("rational", [True, False])
def test_constructions_keep_the_field_of_their_input(case, rational):
    # the rationals, for entries as given and rounded to doubles (1/3 and
    # 1/10 are not dyadic)
    rows = [["1/3", -0.25], [0.1, 1.5]]
    ops, defects = case(as_exact(rows, rational))
    for M in ops:
        if type(M) is linops._Sparse:  # a stored operator: its form
            assert_rational_form(M)
            M = filled(M)
        assert M.dtype == object
        assert all(type(x) is Fraction for x in M.flat)
    assert all(x == 0 for x in defects)


# Each construction with the dense layout of its stored operators.
LAYOUT_CASES = [
    (lambda T: halmos(T), halmos_layout),
    (lambda T: n_dilation(T, 3).quadruple,
     lambda T: companion_layout(T, 3)),
    (lambda T: banded_sznagy(T, 3), lambda T: banded_layout(T, 3)),
    (lambda T: standard_dilation(T, 4).quadruple,
     lambda T: standard_layout(T, 4)),
    (lambda T: ando_like(T, T @ T, 3), lambda T: ando_layout(T, T @ T, 3)),
]


@pytest.mark.parametrize("build, layout", LAYOUT_CASES,
                         ids=["halmos", "ndilate", "sznagy", "standard",
                              "ando"])
@pytest.mark.parametrize("rational", [True, False])
def test_stored_forms_are_the_dense_layouts(build, layout, rational):
    # every operator a construction stores is its dense block layout, one
    # pair per nonzero cell, for entries with denominators 3 and 7 as
    # given and rounded to doubles (denominators 2^54 and so on)
    F = Fraction
    T = as_exact([[F(1, 3), F(-2, 7), 0], [0, F(5, 3), 1],
                  [F(1, 7), 0, F(-1, 3)]], rational)
    built, want = build(T), layout(T)
    for name, M in want.items():
        assert same_form(getattr(built, name), M), name
