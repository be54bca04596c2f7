"""Seeded input generators for the four benchmark workloads.

Each generator writes framekit-format JSON files into a work directory
and returns one *pass*: the fixed list of invocations that the closed
loop repeats for the whole run. Every invocation carries the verdict its
input implies by construction (exit code, names of the checks that must
fail, the error class of a refusal, and a few result fields), never a
verdict copied from a run of framekit.

The generators use numpy and fractions only; they do not import
framekit, so a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("pairscan", "exact", "sweep", "certify")


@dataclass(frozen=True)
class Call:
    """One framekit invocation and the outcome its construction implies.

    exit: expected exit code. failed: names of the checks that must read
    FAIL (every other check must pass). error: expected prefix of the
    report's error field (a refused hypothesis). expect: extra test on the
    parsed report, returning a message on mismatch.
    """

    argv: tuple
    exit: int = 0
    failed: frozenset = frozenset()
    error: Optional[str] = None
    expect: Optional[Callable[[dict], Optional[str]]] = None

    @property
    def verb(self) -> str:
        return " ".join(self.argv[:2])


class Inputs:
    """Writes JSON inputs under one directory and hands back the paths
    exactly as they appear in argv (relative to the working directory,
    so report bytes do not depend on where the checkout lives)."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def put(self, name: str, obj) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def put_text(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


# ------------------------------------------------------------- encoders


def mat(M) -> dict:
    M = np.asarray(M)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    out = {"rows": int(M.shape[0]), "cols": int(M.shape[1]),
           "re": np.real(M).astype(float).tolist()}
    if np.iscomplexobj(M) and np.abs(M.imag).max() > 0:
        out["im"] = M.imag.astype(float).tolist()
    return out


def exact_mat(rows) -> dict:
    return {"rows": len(rows), "cols": len(rows[0]),
            "re": [[str(v) for v in row] for row in rows]}


def csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ------------------------------------------------------- exact matrices


def fmatmul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
             for j in range(len(B[0]))] for i in range(len(A))]


def fadd(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def fscale(c, A):
    return [[c * a for a in row] for row in A]


def feye(d):
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def ftrace(A):
    return sum((A[i][i] for i in range(len(A))), Fraction(0))


def rational_matrix(rng, d: int, max_den: int) -> list:
    """d x d matrix with entries in [-2, 2] and denominators up to max_den
    (max_den = 1 gives an integer matrix).

    Exact cost follows the bit growth of the powers of T, which swings
    with the spectral radius, so candidates are drawn until that growth
    lands near a fixed level: the seed moves the entries, not the work.
    The trace is kept nonzero so the similarity witness is conclusive."""
    target = _GROWTH[max_den]
    while True:
        T = [[Fraction(int(rng.integers(-2 * max_den, 2 * max_den + 1)),
                       int(rng.integers(1, max_den + 1)))
              for _ in range(d)] for _ in range(d)]
        if ftrace(T) != 0 and abs(power_bits(T) / target - 1) < 0.1:
            return T


# bit growth of a typical 3 x 3 draw (median over seeds), per max_den
_GROWTH = {1: 410, 7: 3000}


def power_bits(T, horizon: int = 8) -> int:
    """Total numerator and denominator bits of T, T^2, ..., T^horizon."""
    P, bits = feye(len(T)), 0
    for _ in range(horizon):
        P = fmatmul(P, T)
        bits += sum(x.numerator.bit_length() + x.denominator.bit_length()
                    for row in P for x in row)
    return bits


def poly_partner(T) -> list:
    """S = T^2 + T commutes with T by construction."""
    return fadd(fmatmul(T, T), T)


def non_commuting_partner(T) -> list:
    """An elementary nilpotent N = E_ij with T N != N T; one exists for
    every T that is not a multiple of the identity."""
    d = len(T)
    for i, j in [(i, j) for i in range(d) for j in range(d) if i != j]:
        N = [[Fraction(0)] * d for _ in range(d)]
        N[i][j] = Fraction(1)
        if fmatmul(T, N) != fmatmul(N, T):
            return N
    raise ValueError("T is a multiple of the identity")


# --------------------------------------------------------- float inputs


def conditioned(rng, rows: int, cols: int, ratio: float = 0.1) -> np.ndarray:
    """Gaussian matrix whose singular values stay within the given ratio,
    so the default 1e-8..1e-12 tolerances are far from the rounding."""
    while True:
        M = rng.standard_normal((rows, cols))
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] > ratio * s[0]:
            return M


def two_norm(M) -> float:
    return float(np.linalg.svd(np.atleast_2d(M), compute_uv=False)[0])


def pointed_log_family(points: np.ndarray, terms: int) -> np.ndarray:
    """Rows (log x)^n / n! shifted to vanish at the first point: a pointed
    log family, Lipschitz numbers unchanged."""
    logs = np.log(points)
    rows, term = [], np.ones_like(points)
    for n in range(1, terms + 1):
        term = term * logs / n
        rows.append(term - term[0])
    return np.vstack(rows)


def log_sample(points) -> dict:
    pts = [float(x) for x in points]
    x = np.asarray(pts)
    return {"points": pts, "dist": np.abs(x[:, None] - x[None, :]).tolist(),
            "base": 0}


def multiplier_file(rng, n_points: int, terms: int, dim: int) -> tuple:
    pts = np.concatenate([[1.0], np.sort(rng.uniform(1.0, 12.0, n_points - 1))])
    lam = 0.7 ** np.arange(terms) * rng.uniform(0.5, 1.0, terms)
    obj = {"p": 2.0, "sample": log_sample(pts),
           "family": {"values": pointed_log_family(pts, terms).tolist(),
                      "remainder": 0.0},
           "Tau": mat(rng.standard_normal((dim, terms))),
           "lam": lam.tolist()}
    return obj, lam


# ------------------------------------------------------ report matchers


def result_is(**want) -> Callable[[dict], Optional[str]]:
    def check(rep: dict) -> Optional[str]:
        for key, value in want.items():
            if rep["result"].get(key) != value:
                return f"result {key} = {rep['result'].get(key)!r}, " \
                       f"expected {value!r}"
        return None
    return check


def log_bounds_near_one(rep: dict) -> Optional[str]:
    """The log family is a metric 1-frame with bounds (1, 1); a cut family
    keeps lower <= 1 <= upper within its certified remainder."""
    r = rep["result"]
    slack = r["remainder"] + 1e-9
    if not (1.0 - slack <= r["lower"] <= 1.0 + 1e-9
            and 1.0 - 1e-9 <= r["upper"] <= 1.0 + slack):
        return f"bounds ({r['lower']}, {r['upper']}) not (1, 1) " \
               f"within remainder {r['remainder']}"
    return None


# --------------------------------------------------------- the workloads


def pairscan(rng, io: Inputs) -> list:
    """Pure-Python pair scans: metric frames on the real line and Bessel
    multipliers of a pointed log family. Sizes are fixed; the seed moves
    the points, the vectors and the symbols. Five continuity calls sit
    in the middle of the pass's time order, so the median call is one
    verb rather than the boundary between two."""
    calls = [Call(("metric", "logframe", "--points", "140", "--terms", "40",
                   "--hi", "20", "--seed", str(int(rng.integers(1 << 30))),
                   "--json")) for _ in range(3)]
    pts = np.sort(rng.uniform(1.0, 30.0, 170))
    sample = io.put("metric_sample.json", log_sample(pts))
    calls.append(Call(("metric", "bounds", "--in", sample, "--family",
                       "log(1)", "--terms", "40", "--json"),
                      expect=log_bounds_near_one))
    obj, lam = multiplier_file(rng, 110, 12, 3)
    path = io.put("multiplier.json", obj)
    calls += [
        Call(("multiplier", "apply", "--in", path, "--point",
              str(int(rng.integers(110))), "--json")),
        Call(("multiplier", "lip", "--in", path, "--json")),
        Call(("multiplier", "tail", "--in", path, "--cut", "3", "--json")),
    ]
    calls += [Call(("multiplier", "continuity", "--in", path, "--symbol",
                    csv(lam * rng.uniform(0.8, 1.2, lam.size)), "--json"))
              for _ in range(5)]
    return calls


def exact(rng, io: Inputs) -> list:
    """Rational vsdilate on 3 x 3 matrices: one integer-valued and one with
    denominators up to 7. The five costly verbs run on both; the two
    cheap ones once each, halmos on the integer matrix and witness on the
    other, so that the median call falls inside the sznagy and ndilate
    block instead of on its edge."""
    calls, path = [], {}
    for tag, max_den in (("int", 1), ("frac", 7)):
        T = rational_matrix(rng, 3, max_den)
        t = path[tag] = io.put(f"T_{tag}.json", exact_mat(T))
        s = io.put(f"S_{tag}.json", exact_mat(poly_partner(T)))
        lift = io.put(f"R_{tag}.json",
                      exact_mat(fadd(fscale(Fraction(2), T), feye(3))))
        calls += [
            Call(("vsdilate", "standard", "--in", t, "--horizon", "7",
                  "--json")),
            Call(("vsdilate", "ndilate", "--in", t, "--n", "10", "--json")),
            Call(("vsdilate", "sznagy", "--in", t, "--window", "4",
                  "--json")),
            Call(("vsdilate", "ando", "--in", t, "--other", s,
                  "--horizon", "2", "--json")),
            Call(("vsdilate", "intertwine", "--in", t, "--other", t,
                  "--s", lift, "--horizon", "4", "--json")),
        ]
    return calls + [
        Call(("vsdilate", "halmos", "--in", path["int"], "--json")),
        Call(("vsdilate", "witness", "--in", path["frac"], "--json"),
             expect=result_is(conclusive=True, distinct=True)),
    ]


def certify(rng, io: Inputs) -> list:
    """Certified intervals, the Cuntz solver and lemma, and the three
    sampled-falsification loops at their default 256 samples."""
    # The pass is laid out in three cost tiers of four calls each, so
    # that the median call sits in the middle of one verb's samples and
    # the tail inside another's: four identical verify calls on top (its
    # decay checks hold at the default mu only), four builds at one size
    # in the middle (the scale mu changes no work), pasf check and the
    # three falsification loops below.
    calls = [Call(("cuntz", "verify", "--n-range", "21:33:4", "--json"))
             for _ in range(4)]
    calls += [Call(("cuntz", "build", "--n", "40", "--mu", mu, "--json"))
              for mu in ("0.2", "0.4", "0.6", "0.8")]
    d, m, p = 32, 40, 3.0
    F = conditioned(rng, m, d, 0.05)
    T = conditioned(rng, d, m, 0.05)
    pair = io.put("pasf.json", {"p": p, "F": mat(F), "T": mat(T)})
    calls.append(Call(("pasf", "check", "--in", pair, "--seed",
                       str(int(rng.integers(1000))), "--json"),
                      expect=result_is(is_pasf=True)))

    # hframe, pasf and ovf perturbations under the general/triple
    # hypothesis at the default 256 samples. gamma is set above the norm
    # of the perturbation, so the coefficient inequality holds for every
    # sample by construction.
    seed = ("--seed", str(int(rng.integers(1000))))
    d, m = 6, 10

    # hframe: ||sum c_n (tau_n - omega_n)|| <= ||E||_2 ||c|| <= gamma ||c||
    Fh = conditioned(rng, d, m, 0.3)
    a = float(np.linalg.svd(Fh, compute_uv=False)[-1] ** 2)
    E = rng.standard_normal((d, m))
    E *= 0.01 * math.sqrt(a) / two_norm(E)
    gamma = 1.5 * two_norm(E)
    f1 = io.put("hframe_F.json", {"field": "R", "dim": d,
                                  "vectors": Fh.T.tolist()})
    f2 = io.put("hframe_G.json", {"field": "R", "dim": d,
                                  "vectors": (Fh + E).T.tolist()})
    calls.append(Call(("hframe", "perturb", "--in", f1, "--other", f2,
                       "--mode", "general", "--gamma", repr(gamma))
                      + seed + ("--json",),
                      expect=result_is(valid=True)))

    # pasf at p = 3: ||diff c||_p <= max(||diff||_1, ||diff||_inf) ||c||_p
    d, m = 4, 6
    Fp = conditioned(rng, m, d, 0.3)
    Tp = conditioned(rng, d, m, 0.3)
    D = rng.standard_normal((d, m))
    D *= 1e-4 / max(np.abs(D).sum(axis=0).max(), np.abs(D).sum(axis=1).max())
    gp = io.put("pasf_P.json", {"p": p, "F": mat(Fp), "T": mat(Tp)})
    om = io.put("pasf_Omega.json", mat(Tp - D))
    calls.append(Call(("pasf", "perturb", "--in", gp, "--omega", om,
                       "--mode", "general", "--gamma", repr(2e-4))
                      + seed + ("--json",),
                      expect=result_is(valid=True)))

    # ovf triple: the truncated sums are bounded by ||theta_A - theta_B||;
    # the prefix loop is O(m^2) in the block count
    r, mo = 2, 20
    A = rng.standard_normal((mo, r, d)) + 1j * rng.standard_normal((mo, r, d))
    B = A + 1e-3 * rng.standard_normal((mo, r, d))
    thetaD = (A - B).reshape(mo * r, d)
    gamma_o = 1.5 * two_norm(thetaD)
    o = io.put("ovf_P.json", {"A": [mat(x) for x in A],
                              "Psi": [mat(x) for x in A]})
    b = io.put("ovf_B.json", {"A": [mat(x) for x in B]})
    calls.append(Call(("ovf", "perturb", "--in", o, "--b", b, "--mode",
                       "triple", "--gamma", repr(gamma_o))
                      + seed + ("--json",)))
    return calls


def sweep(rng, io: Inputs) -> list:
    """Every one of the 42 verbs once on small inputs, the seven vsdilate
    verbs again in float mode, and four invocations that must fail: three
    certified failures (exit 1) and one malformed file (exit 2)."""
    calls = []
    J = ("--json",)

    def seed():
        return ("--seed", str(int(rng.integers(1000))))

    # hframe
    d, m = 4, 7
    F = conditioned(rng, d, m, 0.3)
    fr = io.put("frame.json", {"field": "R", "dim": d, "vectors": F.T.tolist()})
    a = float(np.linalg.svd(F, compute_uv=False)[-1] ** 2)
    E = rng.standard_normal((d, m))
    E *= 0.1 * math.sqrt(a) / np.linalg.norm(E)
    other = io.put("frame_other.json", {"field": "R", "dim": d,
                                        "vectors": (F + E).T.tolist()})
    subset = ",".join(str(i) for i in sorted(rng.choice(m, 3, replace=False)))
    calls += [
        Call(("hframe", "bounds", "--in", fr) + J),
        Call(("hframe", "dual", "--in", fr) + J),
        Call(("hframe", "parsevalize", "--in", fr) + J),
        Call(("hframe", "algorithm", "--in", fr, "--iters", "30") + seed() + J),
        Call(("hframe", "identity", "--in", fr, "--subset", subset)
             + seed() + J),
        Call(("hframe", "dilate", "--in", fr) + J),
        Call(("hframe", "perturb", "--in", fr, "--other", other) + J,
             expect=result_is(valid=True)),
    ]

    # pasf (redundant m > d); p = 2 keeps the norm intervals exact, so
    # no seeded ascent decides how long a call takes (certify runs p = 3)
    p, d, m = 2.0, 4, 6
    Fp = conditioned(rng, m, d, 0.3)
    Tp = conditioned(rng, d, m, 0.3)
    pf = io.put("pasf.json", {"p": p, "F": mat(Fp), "T": mat(Tp)})
    Ai, Bi = conditioned(rng, d, d, 0.3), conditioned(rng, d, d, 0.3)
    sim = io.put("pasf_sim.json", {"p": p, "F": mat(Fp @ Ai),
                                   "T": mat(Bi @ Tp)})
    zu = io.put("pasf_U.json", mat(np.zeros((m, d))))
    zv = io.put("pasf_V.json", mat(np.zeros((d, m))))
    om = io.put("pasf_omega.json", mat(Tp + 1e-4 * rng.standard_normal((d, m))))
    S = Tp @ Fp
    recon = io.put("pasf_recon.json", {"p": p, "F": mat(Fp @ np.linalg.inv(S)),
                                       "T": mat(Tp)})
    weak = io.put("pasf_weak.json", {"p": p, "F": mat(0.5 * Fp), "T": mat(Tp)})
    Fs, Ts = conditioned(rng, d, d, 0.3), conditioned(rng, d, d, 0.3)
    square = io.put("pasf_square.json", {"p": p, "F": mat(Fs), "T": mat(Ts)})
    calls += [
        Call(("pasf", "check", "--in", pf) + seed() + J,
             expect=result_is(is_pasf=True)),
        Call(("pasf", "dual", "--in", pf) + J),
        Call(("pasf", "alldual", "--in", pf, "--u", zu, "--v", zv) + J),
        Call(("pasf", "similar", "--in", pf, "--other", sim) + J,
             expect=result_is(similar=True)),
        Call(("pasf", "dilate", "--in", pf) + J),
        Call(("pasf", "riesz", "--in", square) + J),
        Call(("pasf", "perturb", "--in", pf, "--omega", om) + J,
             expect=result_is(valid=True)),
        Call(("pasf", "expand", "--in", weak, "--other", recon) + J),
        # m > d vectors cannot form an approximate Riesz basis
        Call(("pasf", "riesz", "--in", pf) + J, exit=1,
             failed=frozenset({"approximate Riesz basis: F S^-1 T = I"})),
    ]

    # sip: Parseval pairs built with the duality map (p = 3)
    d, m = 3, 5
    Om = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    W = np.vstack([_duality_row(Om[:, n], 3.0) for n in range(m)])
    Tau = np.linalg.inv(W.conj().T @ W) @ W.conj().T
    sp = io.put("sip.json", {"p": 3.0, "Omega": mat(Om), "Tau": mat(Tau)})
    for verb in ("identity", "parseval", "lower34"):
        sub = ",".join(str(i) for i in sorted(rng.choice(m, 2, replace=False)))
        calls.append(Call(("sip", verb, "--in", sp, "--subset", sub)
                          + seed() + J))

    # metric
    pts = np.sort(rng.uniform(1.0, 20.0, 20))
    ms = io.put("metric_small.json", log_sample(pts))
    calls += [
        Call(("metric", "bounds", "--in", ms, "--family", "log(1)",
              "--terms", "24") + J, expect=log_bounds_near_one),
        Call(("metric", "logframe", "--points", "24", "--terms", "40")
             + seed() + J),
    ]

    # multiplier
    obj, lam = multiplier_file(rng, 20, 8, 3)
    mp = io.put("multiplier_small.json", obj)
    calls += [
        Call(("multiplier", "apply", "--in", mp, "--point",
              str(int(rng.integers(20)))) + J),
        Call(("multiplier", "lip", "--in", mp) + J),
        Call(("multiplier", "tail", "--in", mp, "--cut", "2") + J),
        Call(("multiplier", "continuity", "--in", mp, "--symbol",
              csv(lam * 0.9)) + J),
    ]

    # ovf: a generic pair and a Parseval pair (orthonormal stacked columns)
    d, r, m = 3, 2, 3
    A = rng.standard_normal((m, r, d)) + 1j * rng.standard_normal((m, r, d))
    ov = io.put("ovf.json", {"A": [mat(x) for x in A],
                             "Psi": [mat(x) for x in A]})
    Q, _ = np.linalg.qr(rng.standard_normal((m * r, d))
                        + 1j * rng.standard_normal((m * r, d)))
    Pq = Q.reshape(m, r, d)
    ovp = io.put("ovf_parseval.json", {"A": [mat(x) for x in Pq],
                                       "Psi": [mat(x) for x in Pq]})
    ga = io.put("ovf_a.json", mat(rng.standard_normal((2, 2))))
    gpsi = io.put("ovf_psi.json", mat(rng.standard_normal((2, 2))))
    B = A + 1e-4 * rng.standard_normal((m, r, d))
    ob = io.put("ovf_b.json", {"A": [mat(x) for x in B]})
    calls += [
        Call(("ovf", "check", "--in", ov) + J, expect=result_is(is_ovf=True)),
        Call(("ovf", "dual", "--in", ov) + J),
        Call(("ovf", "similar", "--in", ov, "--other", ov) + J,
             expect=result_is(similar=True)),
        Call(("ovf", "classify", "--in", ovp) + J,
             expect=result_is(riesz=False, orthonormal=False)),
        Call(("ovf", "dilate", "--in", ovp) + J),
        Call(("ovf", "group", "--rep", "c4", "--a", ga, "--psi", gpsi) + J),
        Call(("ovf", "perturb", "--in", ov, "--b", ob) + J),
        # the generic pair is not Parseval, so the dilation is refused
        Call(("ovf", "dilate", "--in", ov) + J, exit=1,
             error="HypothesisViolated"),
    ]

    # vsdilate, exact and float; dyadic entries keep float mode exact
    T = [[Fraction(int(rng.integers(-4, 5)), 2) for _ in range(3)]
         for _ in range(3)]
    if ftrace(T) == 0:
        T[0][0] += 1
    T[0][1] = T[0][1] or Fraction(1, 2)  # not a multiple of the identity
    vt = io.put("vs_T.json", exact_mat(T))
    vs = io.put("vs_S.json", exact_mat(poly_partner(T)))
    vr = io.put("vs_R.json", exact_mat(fadd(T, feye(3))))
    vn = io.put("vs_N.json", exact_mat(non_commuting_partner(T)))
    for mode in ("--rational", "--no-rational"):
        calls += [
            Call(("vsdilate", "halmos", "--in", vt, mode) + J),
            Call(("vsdilate", "ndilate", "--in", vt, "--n", "3", mode) + J),
            Call(("vsdilate", "sznagy", "--in", vt, "--window", "3", mode)
                 + J),
            Call(("vsdilate", "standard", "--in", vt, "--horizon", "3", mode)
                 + J),
            Call(("vsdilate", "ando", "--in", vt, "--other", vs,
                  "--horizon", "1", mode) + J),
            Call(("vsdilate", "intertwine", "--in", vt, "--other", vt,
                  "--s", vr, "--horizon", "3", mode) + J),
            Call(("vsdilate", "witness", "--in", vt, mode) + J,
                 expect=result_is(conclusive=True)),
        ]
    calls.append(Call(("vsdilate", "ando", "--in", vt, "--other", vn,
                       "--horizon", "2") + J, exit=1,
                      failed=frozenset({"inputs commute: T S = S T"})))

    # cuntz
    calls += [
        Call(("cuntz", "solve", "--n", "4") + J),
        Call(("cuntz", "build", "--n", "4") + J),
        Call(("cuntz", "verify", "--n-range", "6:12:2") + J),
        Call(("cuntz", "obstruction", "--dim", "3", "--trials", "50")
             + seed() + J),
    ]

    # a truncated file is a usage error: exit 2 and nothing on stdout
    broken = io.put_text("broken.json", '{"rows": 2,\n "cols": }')
    calls.append(Call(("hframe", "bounds", "--in", broken) + J, exit=2))
    return calls


def _duality_row(y: np.ndarray, p: float) -> np.ndarray:
    """Row w with [x, y] = w . x: conj(y) |y|^(p-2) / ||y||_p^(p-2)."""
    ny = float((np.abs(y) ** p).sum() ** (1.0 / p))
    return np.conj(y) * np.abs(y) ** (p - 2) / ny ** (p - 2)


_BUILDERS = {"pairscan": pairscan, "exact": exact, "sweep": sweep,
             "certify": certify}


def build(workload: str, seed: int, root: str) -> list:
    """The pass for this workload and seed; inputs land under root."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, Inputs(root))
