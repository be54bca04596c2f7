"""The chunked pair kernel against the exhaustive scalar scan.

The references below are the plain i < j loops that computed every pair
with vec_pnorm before the kernel existed. Every norm a chunk returns is
the scalar one bit for bit, so the kernel must reproduce their extremes
exactly (==), ties included, and must stay within a small memory budget
because it never builds the whole pair-difference tensor.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framekit import cli, multiplier
from framekit.linops import vec_pnorm
from framekit.metricframe import (
    DIST_TOL,
    LipschitzFamily,
    MetricSample,
    _pairs,
    _PairNorms,
    make_named_family,
    metric_frame_bounds,
    sample_from_points,
)
from framekit.multiplier import Multiplier, lip_bound_check

# ------------------------------------------------ scalar reference scans


def ref_pair_ratios(S, values, p):
    p = float(p)
    if not 1 <= p < math.inf:
        raise ValueError("metric p-frames need 1 <= p < inf")
    ratios = []
    for i in range(S.n):
        for j in range(i + 1, S.n):
            num = vec_pnorm(values[:, i] - values[:, j], p)
            d = S.dist[i, j]
            if d <= 0:
                if num > DIST_TOL:
                    raise ValueError(
                        "points at distance 0 take different values: "
                        "no finite upper bound")
                continue
            ratios.append(num / d)
    if not ratios:
        raise ValueError("degenerate sample: all pairwise distances are 0")
    return ratios


def ref_bounds(S, F, p):
    ratios = ref_pair_ratios(S, F.values, p)
    return min(ratios), max(ratios) + F.remainder


def ref_pair_lip(M, coeff, Tau):
    S = M.sample
    best = 0.0
    for i in range(S.n):
        for j in range(i + 1, S.n):
            d = S.dist[i, j]
            if d <= 0:
                continue
            diff = coeff * (M.family.values[:, i] - M.family.values[:, j])
            best = max(best, vec_pnorm(Tau @ diff, M.out_norm) / d)
    return best


def same(got, want):
    # bit-identical results, or the same error with the same message
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want, (got, want)


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return exc


# ----------------------------------------------------------- inputs

# n = 60 with m = 40 spans five chunks of metricframe.CHUNK elements
N_POINTS, TERMS = 60, 40
P_VALUES = [1.0, 1.5, 2.0, 3.0, 50.0]


def make_sample(rng, dup, n=N_POINTS):
    """Points on [1, 20]; dup > 0 repeats that many of them (distance 0)."""
    pts = np.sort(rng.uniform(1.0, 20.0, n - dup))
    if dup:
        pts = np.sort(np.concatenate([pts, rng.choice(pts[1:], dup)]))
    return sample_from_points(pts, base=0)


def make_values(rng, S, kind, cplx, m=TERMS, split=False):
    """m x n value table: functions of the point (so duplicates agree),
    unless split, which moves one duplicated point's values."""
    x = np.asarray(S.points)
    if kind == "smooth":
        V = np.vstack([np.sin(rng.uniform(0.1, 3.0) * x + rng.uniform(0, 6))
                       * rng.uniform(0.1, 10.0) for _ in range(m)])
    else:  # linear: every ratio equals ||c||_p up to rounding (all ties)
        V = rng.uniform(-2.0, 2.0, (m, 1)) * x[None, :]
    if cplx:
        V = V + 1j * np.vstack([np.cos(rng.uniform(0.1, 3.0) * x)
                                for _ in range(m)])
    if split:
        k = int(np.flatnonzero(np.diff(x) == 0)[0])
        V[:, k] = V[:, k] + 0.5
    return V


cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "p": st.sampled_from(P_VALUES),
    "kind": st.sampled_from(["smooth", "linear"]),
    "cplx": st.booleans(),
    "dup": st.sampled_from([0, 0, 2]),
    "split": st.booleans(),
})


# ------------------------------------------------------------ chunks


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("dim", [None, 1, 3, 12])
def test_chunk_norms_are_vec_pnorm_bit_for_bit(p, cplx, dim):
    # every value of every chunk, not only the extremes: with a Tau of dim
    # rows (None: no Tau) each norm is vec_pnorm of Tau @ (coeff * diff)
    rng = np.random.default_rng(int(10 * p) + 7 * (dim or 0) + cplx)
    S = make_sample(rng, 2)
    V = make_values(rng, S, "smooth", cplx)
    Tau = coeff = None
    if dim is not None:
        Tau = rng.standard_normal((dim, TERMS))
        coeff = 0.8 ** np.arange(TERMS) * rng.uniform(0.5, 1.0, TERMS)
        if cplx:
            Tau = Tau + 1j * rng.standard_normal((dim, TERMS))
            coeff = coeff * np.exp(1j * rng.uniform(0, 6, TERMS))
    num = _PairNorms(V, p, Tau, coeff)
    chunks = 0
    for i, j in _pairs(S.n, num.width):
        got = num.chunk(i, j)
        for a, b, x in zip(i.tolist(), j.tolist(), got.tolist()):
            diff = V[:, a] - V[:, b]
            want = vec_pnorm(diff if Tau is None else Tau @ (coeff * diff), p)
            assert x.hex() == want.hex(), (a, b)
        chunks += 1
    assert chunks > 1


# ----------------------------------------------------------- metric


@settings(max_examples=40, deadline=None)
@given(cases)
def test_bounds_equal_scalar_scan(c):
    rng = np.random.default_rng(c["seed"])
    S = make_sample(rng, c["dup"])
    F = LipschitzFamily(make_values(rng, S, c["kind"], c["cplx"],
                                    split=c["split"] and c["dup"] > 0), 0.25)
    same(outcome(metric_frame_bounds, S, F, c["p"]),
         outcome(ref_bounds, S, F, c["p"]))


@pytest.mark.parametrize("p", P_VALUES)
def test_log_family_bounds_equal_scalar_scan(p):
    # at p = 1 every ratio is 1 within rounding: the case a tolerance
    # window could not separate, so the kernel must be exact there
    S = make_sample(np.random.default_rng(7), 0, n=90)
    F = make_named_family("log(1)", S, TERMS)
    got = metric_frame_bounds(S, F, p)
    assert got == ref_bounds(S, F, p)
    if p == 1:
        assert abs(got[0] - 1.0) < 1e-12


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("seed", range(4))
def test_bounds_at_ties_equal_scalar_scan(p, seed):
    # a linear family puts every pair ratio at ||c||_p within rounding, so
    # both extremes turn on the last bit of the norms and no screening
    # window can separate the pairs: the kernel must still equal the scan
    rng = np.random.default_rng(seed)
    S = make_sample(rng, 0)
    F = LipschitzFamily(make_values(rng, S, "linear", seed % 2 == 1))
    got = metric_frame_bounds(S, F, p)
    assert got == ref_bounds(S, F, p)
    if seed % 2 == 0:
        c = F.values[:, 0] / S.points[0]
        assert got[0] <= vec_pnorm(c, p) <= got[1]
        assert got[1] - got[0] <= 1e-12 * got[1]


# ------------------------------------------------------- multiplier


@settings(max_examples=20, deadline=None)
@given(cases, st.sampled_from([1.0, 2.0, 3.0]), st.integers(1, 5))
def test_pair_lip_equals_scalar_scan(c, out_norm, dim):
    rng = np.random.default_rng(c["seed"])
    S = make_sample(rng, c["dup"])
    V = make_values(rng, S, c["kind"], c["cplx"])
    V = V - V[:, [0]]  # vanish at the base point
    Tau = rng.standard_normal((dim, TERMS))
    if c["cplx"]:
        Tau = Tau + 1j * rng.standard_normal((dim, TERMS))
    lam = 0.8 ** np.arange(TERMS) * rng.uniform(0.5, 1.0, TERMS)
    M = Multiplier(S, LipschitzFamily(V), Tau, lam, max(c["p"], 1.5), out_norm)
    for coeff, T in ((M.lam, M.Tau), (M.lam * (np.arange(TERMS) >= 3), M.Tau),
                     (M.lam, 0.1 * M.Tau)):
        assert multiplier._pair_lip(M, coeff, T) == ref_pair_lip(M, coeff, T)


def test_pair_lip_rejects_separated_points_at_distance_zero():
    S = MetricSample((0, 1, 2), np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0.0]]),
                     base=0)
    M = Multiplier(S, LipschitzFamily(np.array([[0.0, 1.0, 5.0]])),
                   np.array([[1.0]]), [1.0], 2.0, bessel_b=10.0, bessel_d=1.0)
    with pytest.raises(ValueError, match="distance 0 take different values"):
        lip_bound_check(M)
    # merged points with equal values are skipped, as before
    M = Multiplier(S, LipschitzFamily(np.array([[0.0, 1.0, 1.0]])),
                   np.array([[1.0]]), [1.0], 2.0, bessel_b=10.0, bessel_d=1.0)
    assert lip_bound_check(M).measured == 1.0


def test_cli_multiplier_lip_refuses_separated_points(tmp_path):
    obj = {"p": 2.0, "bessel_b": 10.0, "bessel_d": 1.0,
           "sample": {"points": [0, 1, 2],
                      "dist": [[0, 1, 1], [1, 0, 0], [1, 0, 0]], "base": 0},
           "family": {"values": [[0, 1, 5]]},
           "Tau": {"rows": 1, "cols": 1, "re": [[1.0]]}, "lam": [1.0]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["multiplier", "lip", "--in", str(path), "--json"]) == 2


# ------------------------------------------------------------ memory


def test_bounds_scan_memory_stays_chunk_sized():
    # the whole pair-difference tensor would take ~57 MiB here, twice that
    # for the complex coeff * diff of the multiplier's Tau path
    S = make_sample(np.random.default_rng(5), 0, n=600)
    V = make_values(np.random.default_rng(6), S, "smooth", False)
    F = LipschitzFamily(V)
    M = Multiplier(S, LipschitzFamily(V - V[:, [0]]),
                   np.random.default_rng(8).standard_normal((3, TERMS)),
                   0.8 ** np.arange(TERMS), 2.0)
    for scan in (lambda: metric_frame_bounds(S, F, 1.0),
                 lambda: metric_frame_bounds(S, F, 2.0),
                 lambda: multiplier._pair_lip(M, M.lam, M.Tau)):
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak
