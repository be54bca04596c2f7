"""The blocked triangle-inequality kernel against the per-point scan.

The reference below is the loop MetricSample used before the kernel: one
pass over the whole table per point k. The kernel must give the same
verdict and name the same first failing point on every table, including
tables whose excess sits exactly at the slack or one rounding step away
from it, and tables whose only violation lies in the last block of rows.

MetricSample skips the scan on a line table, |x_i - x_j| of its own
numeric labels bit for bit. The last tests check that the scan passes
every such table, that the constructor still gives the reference's
verdict on tables one step away from one, and that it skips the scan on
exactly those tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit import metricframe
from framekit.linops import vec_pnorm
from framekit.metricframe import (
    DIST_TOL,
    MetricSample,
    _triangle_violation,
    sample_from_points,
)


def per_k_reference(D, slack):
    n = len(D)
    for k in range(n):
        if (D - (D[:, [k]] + D[[k], :])).max() > slack:
            return k
    return None


def assert_same(D, slack=None):
    slack = DIST_TOL * D.max() if slack is None else slack
    want = per_k_reference(D, slack)
    assert _triangle_violation(D, slack) == want
    return want


# --------------------------------------------------------------- tables


def line_table(rng, n):
    x = rng.uniform(-1.0, 1.0, n) * 2.0 ** int(rng.integers(-40, 40))
    return np.abs(x[:, None] - x[None, :])


def vector_table(rng, n):
    X = rng.standard_normal((int(rng.integers(1, 5)), n))
    p = [1, 1.5, 2, 3, math.inf][int(rng.integers(5))]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            D[i, j] = D[j, i] = vec_pnorm(X[:, i] - X[:, j], p)
    return D


def graph_table(rng, n):
    """Shortest paths of a random weighted graph (Floyd-Warshall)."""
    W = rng.uniform(0.1, 10.0, (n, n))
    W = np.minimum(W, W.T)
    W[rng.random((n, n)) < 0.5] = np.inf
    W = np.minimum(W, W.T)
    np.fill_diagonal(W, 0.0)
    path = np.arange(n - 1)  # keep the graph connected
    W[path, path + 1] = W[path + 1, path] = 1.0
    for k in range(n):
        W = np.minimum(W, W[:, [k]] + W[[k], :])
    return W


TABLES = [line_table, vector_table, graph_table]


def plant(rng, D, count, mirror):
    """Change `count` entries up or down, with their mirrors or alone."""
    D = D.copy()
    n = len(D)
    for _ in range(count):
        i, j = rng.integers(n, size=2)
        D[i, j] *= rng.choice([0.5, 0.9, 1.0 + 1e-9, 1.1, 2.0])
        if mirror:
            D[j, i] = D[i, j]
    return D


def tight_pair(D, i, j):
    """The smallest fl(D[i, k] + D[k, j]) over k outside {i, j}."""
    s = D[i, :] + D[:, j]
    s[[i, j]] = np.inf
    return s.min()


# ---------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       kind=st.sampled_from(TABLES), count=st.integers(0, 3),
       mirror=st.booleans())
def test_kernel_matches_per_point_scan(seed, n, kind, count, mirror):
    rng = np.random.default_rng(seed)
    assert_same(plant(rng, kind(rng, n), count, mirror))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       kind=st.sampled_from(TABLES))
def test_kernel_at_the_slack_edge(seed, n, kind):
    # one entry raised so its excess over the tightest triangle is the
    # slack, or one part in 2^20 or one rounding step to either side
    rng = np.random.default_rng(seed)
    D = kind(rng, n)
    i, j = rng.integers(n, size=2)
    while i == j:
        i, j = rng.integers(n, size=2)
    s = tight_pair(D, i, j)
    slack = DIST_TOL * max(D.max(), s)
    verdicts = set()
    for factor in (1 - 2.0 ** -20, 1.0, 1 + 2.0 ** -20):
        E = D.copy()
        E[i, j] = s + slack * factor
        excess = E[i, j] - s
        for edge in (excess, np.nextafter(excess, 0), np.nextafter(excess, 1),
                     excess * (1 - 2.0 ** -20), excess * (1 + 2.0 ** -20)):
            verdicts.add(assert_same(E, edge))
    assert None in verdicts and len(verdicts) > 1


@pytest.mark.parametrize("seed", range(6))
def test_kernel_at_rounding_ties(seed):
    # entries walked over a few ulps around the tightest sum, where
    # d - (a + b) and (d - a) - b round differently
    rng = np.random.default_rng(seed)
    D = line_table(rng, 24)
    seen = set()
    for _ in range(30):
        i, j = rng.integers(24, size=2)
        if i == j:
            continue
        s = tight_pair(D, i, j)
        for slack in (0.0, np.nextafter(0.0, 1), DIST_TOL * D.max()):
            v = s + slack
            for _ in range(4):
                v = np.nextafter(v, -np.inf)
            for _ in range(9):
                E = D.copy()
                E[i, j] = v
                seen.add(assert_same(E, slack))
                v = np.nextafter(v, np.inf)
    assert None in seen and len(seen) > 1


def test_kernel_small_and_zero_tables():
    assert_same(np.zeros((1, 1)))
    assert_same(np.zeros((2, 2)))
    assert_same(np.zeros((5, 5)))  # slack 0: nothing may exceed it
    assert_same(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_same(np.array([[1e-13, 1.0], [1.0, 0.0]]))
    Z = np.zeros((4, 4))
    Z[1, 2] = 1e-300  # zero everywhere else: fails through point 0
    assert assert_same(Z, 0.0) == 0


@pytest.mark.parametrize("n", [300, 400])
@pytest.mark.parametrize("j", [0, -5])
def test_kernel_finds_a_violation_in_the_last_row(n, j):
    # more than one block of rows at these sizes; the raised entry sits in
    # the last row, near or far from the diagonal
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    D = np.abs(x[:, None] - x[None, :])
    assert assert_same(D) is None
    D[n - 1, j] *= 1.5
    assert assert_same(D) is not None


def test_kernel_takes_the_least_point_over_all_blocks():
    # the first block of rows fails only through points near 150, a later
    # block through smaller ones: the named point is the least of all
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 1.0, 300))
    D = np.abs(x[:, None] - x[None, :])
    D[150, 160] *= 1.01
    D[250, 2] *= 1.01
    k = assert_same(D)
    assert k is not None and k < 140


def test_kernel_names_the_first_point_among_several():
    x = np.arange(40, dtype=float)
    D = np.abs(x[:, None] - x[None, :])
    D[20, 22] = D[22, 20] = 2.5  # through 21
    D[5, 9] = D[9, 5] = 4.5  # through 6, 7 and 8
    assert assert_same(D) == 6


def test_public_constructor_reports_the_point():
    x = np.arange(8, dtype=float)
    D = np.abs(x[:, None] - x[None, :])
    D[3, 6] = D[6, 3] = 3.5
    with pytest.raises(ValueError, match="through point 'e'$"):
        MetricSample(tuple("abcdefgh"), D)


# ------------------------------------------------------ line tables


def line_of(x):
    x = np.asarray(x, dtype=float)
    return np.abs(x[:, None] - x[None, :])


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
       scale=st.integers(-1074, 1000), repeats=st.integers(0, 4))
def test_every_line_table_passes_the_scan(x, scale, repeats):
    # the proof in MetricSample's docstring, tried: at every scale from the
    # least subnormal up, with subnormal and repeated points, no excess
    # reaches the slack
    x = np.array(x + x[:repeats]) * 2.0 ** scale
    D = line_of(x)
    assert _triangle_violation(D, DIST_TOL * D.max()) is None


@pytest.mark.parametrize("scale", [-1074, -1060, -1022, -520, 0, 520, 1000])
def test_line_tables_of_crowded_points_pass_the_scan(scale):
    # points a few ulps apart and integers, where every sum rounds
    rng = np.random.default_rng(scale + 1074)
    for x in (1.0 + rng.integers(0, 8, 30) * 2.0 ** -52,
              rng.integers(-50, 50, 30).astype(float),
              rng.integers(0, 2 ** 20, 30).astype(float)):
        D = line_of(x * 2.0 ** scale)
        assert _triangle_violation(D, DIST_TOL * D.max()) is None


def verdict(labels, D):
    """The constructor's outcome: None, or its ValueError message."""
    try:
        MetricSample(labels, D)
    except ValueError as e:
        return str(e)
    return None


def reference(labels, D):
    """The same outcome with every triangle scanned by per_k_reference."""
    slack = DIST_TOL * D.max()
    if np.abs(D - D.T).max() > slack:
        return "distance table must be symmetric"
    k = per_k_reference(D, slack)
    return None if k is None else (
        f"triangle inequality fails through point {labels[k]!r}")


def moved(D, i, j, how, mirror):
    D = D.copy()
    D[i, j] = {"up": np.nextafter(D[i, j], np.inf),
               "down": np.nextafter(D[i, j], 0.0),
               "x1.1": D[i, j] * 1.1, "x0.9": D[i, j] * 0.9}[how]
    if mirror:
        D[j, i] = D[i, j]
    return D


LABELINGS = {
    "floats": lambda x: [float(v) for v in x],
    "ints": lambda x: [int(v) for v in x],
    "bools": lambda x: [bool(i % 2) for i in range(len(x))],
    "strings": lambda x: [repr(float(v)) for v in x],
    "huge ints": lambda x: [10 ** 400 + i for i in range(len(x))],
    "inf": lambda x: [math.inf] + [float(v) for v in x[1:]],
}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30),
       labeling=st.sampled_from(sorted(LABELINGS)),
       how=st.sampled_from(["none", "up", "down", "x1.1", "x0.9"]),
       mirror=st.booleans())
def test_constructor_agrees_with_the_full_scan(seed, n, labeling, how, mirror):
    # line tables of integer points, planted or not; with numeric labels the
    # unplanted table skips the scan, and every other table is scanned
    rng = np.random.default_rng(seed)
    x = rng.permutation(n) * 3.0
    labels = LABELINGS[labeling](x)
    D = line_of(x)
    if how != "none":
        i, j = rng.choice(n, size=2, replace=False)
        D = moved(D, i, j, how, mirror)
    assert verdict(labels, D) == reference(labels, D)


def test_constructor_names_the_reference_point_on_planted_tables():
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(1.0, 9.0, 25))
    refused = 0
    for labels in (x.tolist(), [str(v) for v in x], [10 ** 400] * 25):
        for i, j in ((3, 11), (0, 24), (12, 13)):
            for how in ("up", "down", "x1.1", "x0.9"):
                D = moved(line_of(x), i, j, how, mirror=True)
                want = reference(labels, D)
                assert verdict(labels, D) == want
                refused += want is not None
    assert refused > 0


@pytest.fixture
def scans(monkeypatch):
    """The size of each table the triangle scan ran on, in call order."""
    calls = []

    def counted(D, slack):
        calls.append(len(D))
        return _triangle_violation(D, slack)

    monkeypatch.setattr(metricframe, "_triangle_violation", counted)
    return calls


def test_scan_is_skipped_exactly_on_line_tables(scans):
    x = [1.0, 2.5, -4.0, 2.5, 7.25]
    D = line_of(x)
    skipped = [
        (x, D),
        ([1, 3, -2, 0], line_of([1, 3, -2, 0])),
        ([-0.0, 0.0, 5e-324], line_of([0.0, 0.0, 5e-324])),
        ([7.5], np.zeros((1, 1))),
    ]
    for labels, table in skipped:
        MetricSample(labels, table)
    sample_from_points([3.0, 1.0, 2.0], base=0)
    assert scans == []
    scanned = [
        (x, D + 1.0 - np.eye(5)),  # a metric, not the line table
        (x, moved(D, 1, 2, "up", mirror=True)),
        ([str(v) for v in x], D),
        (x[:4] + ["a"], D),
        ([False, True], line_of([0, 1])),
        ([10 ** 400, 10 ** 400 + 1], line_of([0, 1])),
        ([math.inf, 1.0], line_of([0, 1])),
        ([math.nan, 1.0], line_of([0, 1])),
        ([2.0 ** 1023, 0.0], line_of([2.0 ** 1023, 0.0])),
    ]
    for labels, table in scanned:
        MetricSample(labels, table)
    assert scans == [len(table) for _, table in scanned]
