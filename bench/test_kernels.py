"""Kernel benchmarks, outside tier-1: the pair scan behind metric frame
bounds and multiplier Lipschitz numbers, the triangle scan of a distance
table, the sample constructor on a line table (no scan) and on a metric
that is not one (full scan), and the row p-norm, at the shapes of
perfbench's pairscan workload;
the exact Ando grid and standard dilation, built and checked over their
whole horizon as block forms, and the Ando grid at horizon 24 on large
and on 53-bit dyadic entries; the certified ||S||_p interval on
certify's 32 x 32 frame operator; the Cuntz lemma, whose products run
the generic sparse product on polynomial entries with int coefficients;
the written Cuntz pair and its dump at n = 40; the Cuntz corrector's
certified bound recursion; ovf's triple falsification over every prefix
of every sample; ovf's group table of the built-in C_4; the three
semi-inner-product residuals at perfbench's sweep shape and at d = 10,
m = 40; the `cuntz obstruction` verb at dim 5 over 1,000 sampled pairs;
and the per-call floor of `cli.main`, in process, on a small verb and on
a usage error.

    PYTHONPATH=src python -m pytest bench --benchmark-only

Inputs are fixed and seeded. Each benchmark checks its result, so that a
kernel that stops early cannot read as fast.
"""

import contextlib
import io
from fractions import Fraction

import numpy as np
import pytest

from framekit import cli, cuntz, linops, ovf, sip
from framekit.metricframe import (
    DIST_TOL,
    MetricSample,
    _over_dist,
    _PairNorms,
    _triangle_violation,
    make_named_family,
    sample_from_points,
)
from framekit.vsdilate import ando_like, as_exact, standard_dilation


def line(n, hi, seed):
    rng = np.random.default_rng(seed)
    return sample_from_points(np.sort(rng.uniform(1.0, hi, n)), base=0)


def pointed_log_rows(S, terms):
    """(log x)^n / n! for n = 1..terms, shifted to vanish at the base."""
    V = make_named_family("log(1)", S, terms + 1).values[1:]
    return V - V[:, [S.base]]


def test_over_dist_log_family_170x40_p1(benchmark):
    # metric bounds: every ratio of the log family is 1 up to rounding
    S = line(170, 30.0, 1)
    F = make_named_family("log(1)", S, 40)
    lo, hi = benchmark(_over_dist, S, _PairNorms(F.values, 1.0))
    assert abs(lo - 1.0) < 1e-9 and abs(hi - 1.0) < 1e-9


@pytest.mark.parametrize("dim", [None, 3])
def test_over_dist_pointed_110x12_p2(benchmark, dim):
    # the multiplier's family bound (no Tau) and Lipschitz number (3 x 12 Tau)
    S = line(110, 12.0, 2)
    V = pointed_log_rows(S, 12)
    Tau = coeff = None
    if dim is not None:
        rng = np.random.default_rng(3)
        Tau = linops.as_matrix(rng.standard_normal((dim, 12)))
        coeff = linops.as_vector(0.7 ** np.arange(12))
    lo, hi = benchmark(_over_dist, S, _PairNorms(V, 2.0, Tau, coeff))
    assert 0.0 < lo <= hi < np.inf


@pytest.mark.parametrize("n", [110, 170])
def test_triangle_violation(benchmark, n):
    D = line(n, 30.0, 4).dist
    assert benchmark(_triangle_violation, D, DIST_TOL * D.max()) is None


@pytest.mark.parametrize("offset", [0.0, 1.0])
@pytest.mark.parametrize("n", [110, 170])
def test_metric_sample(benchmark, n, offset):
    # offset 0 is the line table of the labels, which skips the triangle
    # scan; + 1 off the diagonal keeps every triangle but is scanned in full
    S = line(n, 30.0, 4)
    D = S.dist + offset * (1.0 - np.eye(n))
    assert benchmark(MetricSample, S.points, D, 0).n == n


def test_pnorm_rows_p3(benchmark):
    # one chunk of pair differences at width 40
    X = np.random.default_rng(5).standard_normal((409, 40))
    r = benchmark(linops._pnorm_rows, X, 3.0)
    assert r.shape == (409,) and np.all(r > 0)


def frame_operator_32(seed):
    """S = T F of a 32 x 40 pair whose factors keep their singular values
    within a ratio of 0.05, as pasf check reads in perfbench's certify."""
    rng = np.random.default_rng(seed)

    def conditioned(rows, cols):
        while True:
            M = rng.standard_normal((rows, cols))
            s = np.linalg.svd(M, compute_uv=False)
            if s[-1] > 0.05 * s[0]:
                return M

    F = conditioned(40, 32)
    return conditioned(32, 40) @ F


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_opnorm_interval_certify_32(benchmark, p):
    # the ||S||_p interval: the interpolation bound and the dual-norm
    # ascent from 18 starts, most of which run many of their 60 steps
    S = frame_operator_32(7)
    iv = benchmark(linops.opnorm_interval, S, p, 3)
    assert 0.0 < iv.lo <= iv.hi


# A 3 x 3 rational T with denominators 2, 3, 5 and 7, and S = T^2 - 3T,
# which commutes with it: the cost of the grid grows with (horizon + 1)^2
# cells, each checked against a product of powers.
PROBE_T = as_exact([["1/2", "1/3", 0], [0, "2/5", "1/7"], ["3/7", 0, 1]])

# The horizon gate: ando's build and check at horizon 24 take less than
# this many seconds (median), with residual 0.
ANDO_24_SECONDS = 0.3


@pytest.mark.parametrize("horizon", [4, 8, 12, 16, 24])
def test_ando_dilation_defect(benchmark, horizon):
    T = PROBE_T
    S = T @ T - 3 * T

    def build_and_check():
        return ando_like(T, S, horizon).dilation_defect()

    assert benchmark(build_and_check) == 0.0
    if horizon == 24 and benchmark.stats is not None:
        assert benchmark.stats.stats.median < ANDO_24_SECONDS


# The exact cost grows with the bit size of the entries: ando at horizon
# 24 on PROBE_T scaled by 2^500, whose 48th powers leave the doubles, and
# on a T of 53-bit dyadic doubles read as --no-rational reads them.
BIT_SIZE_T = {
    "probe_2^500": PROBE_T * 2 ** 500,
    "doubles": as_exact(np.random.default_rng(3).standard_normal((3, 3)),
                        rational=False)}


@pytest.mark.parametrize("name", sorted(BIT_SIZE_T))
def test_ando_24_by_bit_size(benchmark, name):
    T = BIT_SIZE_T[name]
    S = T @ T - 3 * T

    def build_and_check():
        return ando_like(T, S, 24).dilation_defect()

    assert benchmark(build_and_check) == 0.0


@pytest.mark.parametrize("horizon", [8, 16, 24])
def test_standard_dilation_defect(benchmark, horizon):
    def build_and_check():
        return standard_dilation(PROBE_T, horizon).dilation_defect()

    assert benchmark(build_and_check) == 0.0


@pytest.mark.parametrize("mu", [0.2, 0.4, 0.6, 0.8])
def test_cuntz_lemma_structure_n40(benchmark, mu):
    # D X and X D of the triangular pair at n = 40 over _Poly, mu and delta
    # symbols, at the four scales of perfbench's certify builds
    assert benchmark(cuntz.lemma_structure, 40, Fraction(mu)).ok


def test_cuntz_dx_matrices_dump_n40(benchmark):
    # cuntz build's written pair at n = 40: the word elements of D and X
    # laid out, then dumped as the report's two n x n tables
    sol = cuntz.solve_b(40)

    def build_and_dump():
        D, X = cuntz.dx_matrices(sol, 0.4)
        return cli.dump_word_matrix(D), cli.dump_word_matrix(X)

    D, X = benchmark(build_and_dump)
    assert D["n"] == X["n"] == 40 and len(D["entries"][39]) == 40


@pytest.mark.parametrize("n", [21, 33, 40])
def test_cuntz_solve_b(benchmark, n):
    # the corrector's bound recursion at the sizes certify verifies and
    # builds, to its default tolerance
    sol = benchmark(cuntz.solve_b, n)
    assert sol.residual < 1e-8 and sol.contraction < 1.0


@pytest.mark.parametrize("m, r", [(20, 2), (60, 1)])
def test_ovf_perturb_triple(benchmark, m, r):
    # the sampled sides of ovf perturb --mode triple at certify's shape
    # (m = 20, r = 2, d = 6, 256 samples) and at m = 60; gamma exceeds
    # ||theta_A - theta_B||, so no prefix of any sample falsifies
    rng = np.random.default_rng(6)
    A = rng.standard_normal((m, r, 6)) + 1j * rng.standard_normal((m, r, 6))
    B = A + 1e-3 * rng.standard_normal((m, r, 6))
    gamma = 1.5 * linops._norm_2((A - B).reshape(m * r, 6))
    got = benchmark(ovf.perturb_certificate, ovf.OvfPair(A, A), B, "triple",
                    gamma=gamma, samples=256, seed=1)
    assert got.valid and got.detail["samples"] == 256


def test_ovf_group_table_c4(benchmark):
    # ovf group --rep c4: unitarity, every product against every element
    # and the identity, by one stacked 2-norm per element
    labels, _, mul, inv = benchmark(ovf._group_table,
                                    cli.parse_group_rep("c4"))
    k = np.arange(4)
    assert labels == (0, 1, 2, 3)
    assert (mul == (k[:, None] + k) % 4).all() and (inv == -k % 4).all()


def parseval_pair(d, m, seed):
    """A Parseval pair at p = 3: tau_n solved so the frame operator is
    the identity."""
    rng = np.random.default_rng(seed)
    Omega = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    W = np.vstack([sip.sip_functional(Omega[:, n], 3.0) for n in range(m)])
    Wh = linops.herm(W)
    return sip.SipPair(3.0, Omega, linops.inverse(Wh @ W) @ Wh)


def lower_bound_deficit(P, M, x):
    return sip.lower_bound_check(P, M, x).deficit


@pytest.mark.parametrize("residual", [sip.general_identity_residual,
                                      sip.parseval_identity_residual,
                                      lower_bound_deficit])
@pytest.mark.parametrize("d, m", [(3, 5), (10, 40)])
def test_sip_residual(benchmark, residual, d, m):
    # sip identity, parseval and lower34 on every other index, the pair's
    # construction (its m duality maps) included
    P = parseval_pair(d, m, 8)
    x = np.random.default_rng(9).standard_normal(d) + 0j
    M = list(range(0, m, 2))
    got = benchmark(lambda: residual(sip.SipPair(3.0, P.Omega, P.Tau), M, x))
    assert 0.0 <= got < 1e-8


def test_cuntz_obstruction_dim5(benchmark):
    # the whole verb, argv to report: 1,000 pairs drawn in four stacks;
    # exit 0 means no pair came closer to I than distance 1
    def verb():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["cuntz", "obstruction", "--dim", "5",
                             "--trials", "1000", "--json"])

    assert benchmark(verb) == 0


def main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_main_cuntz_solve_n4(benchmark):
    # the per-call floor on a verb whose own work is small: parse, solve
    # at n = 4, the report and its canonical JSON
    code, out, err = benchmark(main_outcome,
                               ["cuntz", "solve", "--n", "4", "--json"])
    assert code == 0 and err == ""
    assert out.startswith('{"checks":') and out.endswith('"status":"pass"}\n')


def test_main_usage_error(benchmark):
    # hframe bounds without --in: refused by the verb's parser, exit 2
    code, out, err = benchmark(main_outcome, ["hframe", "bounds"])
    assert code == 2 and out == ""
    assert err.startswith("error: the following arguments are required: "
                          "--in\nusage: framekit hframe bounds ")
