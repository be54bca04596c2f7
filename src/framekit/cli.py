"""Command-line front end for the framekit modules.

Every command reads JSON inputs, runs the corresponding certified
computation, and emits a report: text by default, canonical JSON with
--json (byte-identical for identical config and seed). Each numeric
claim in a report names the tolerance it was tested at and whether it
is a theorem identity or a sampled falsification (the latter can only
fail to find a counterexample, never prove the hypothesis).

Exit status: 0 when everything passed or the command is a pure
computation, 1 on a certified failure (a hypothesis violated or a
check over tolerance), 2 on input or usage errors, 3 on an internal
error. Input errors include a non-finite or out-of-domain option, a
computation that leaves the floating-point range and a report with a
non-finite value; every exit 2 or 3 prints "error: ..." as the first
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from framekit import (
    cuntz,
    hframe,
    linops,
    metricframe,
    multiplier as multiplier_mod,
    ovf,
    pasf,
    sip,
    vsdilate,
)
from framekit.errors import CertifiedFailure


class CliError(Exception):
    """Input or usage problem; carries the exit code (normally 2)."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation: subcommand path, file paths, tolerance
    override, seed and report format, plus the remaining options."""

    command: tuple
    in_path: Optional[str] = None
    out_path: Optional[str] = None
    tol: Optional[float] = None
    seed: int = 0
    fmt: str = "text"
    extra: dict = field(default_factory=dict)

    def tolerance(self, default: float) -> float:
        return default if self.tol is None else float(self.tol)

    def recorded(self) -> dict:
        cfg = {"command": " ".join(self.command), "format": self.fmt,
               "in": self.in_path, "out": self.out_path,
               "seed": self.seed, "tol": self.tol}
        cfg.update({k: _plain(v) for k, v in self.extra.items()})
        return cfg


class ReportBuilder:
    """Collects the result payload, check lines and display text."""

    def __init__(self):
        self.result: dict = {}
        self.checks: list = []
        self.display: list = []

    def check(self, name: str, kind: str, residual: float, tolerance: float,
              passed: Optional[bool] = None) -> bool:
        residual = float(residual)
        tolerance = float(tolerance)
        if passed is None:
            passed = residual <= tolerance
        self.checks.append({"kind": kind, "name": name, "passed": bool(passed),
                            "residual": residual, "tolerance": tolerance})
        return bool(passed)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _plain(x):
    """JSON-safe copy: numpy scalars to python, Fractions to strings,
    complex to {"re", "im"}."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, (complex, np.complexfloating)):
        z = complex(x)
        return {"im": z.imag, "re": z.real}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def canonical(report: dict) -> str:
    try:
        return json.dumps(report, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError:
        raise CliError(2, "the report holds a non-finite value "
                          "(NaN or infinity)") from None


def g(x) -> str:
    return f"{float(x):.12g}"


def _short(v) -> str:
    text = json.dumps(_plain(v), sort_keys=True)
    if len(text) <= 100:
        return text
    label = "entries" if isinstance(v, dict) else "items"
    return f"<{len(v)} {label}>"


def render_text(report: dict) -> str:
    lines = [f"framekit {report['command']}"]
    cfg = report["config"]
    shown = {k: v for k, v in cfg.items()
             if k not in ("command", "format") and v is not None}
    if shown:
        lines.append("  config: " + ", ".join(
            f"{k} = {v}" for k, v in sorted(shown.items())))
    lines.extend("  " + row for row in report.get("display", []))
    for key in sorted(report["result"]):
        lines.append(f"  {key} = {_short(report['result'][key])}")
    for c in report["checks"]:
        verdict = "pass" if c["passed"] else "FAIL"
        note = "" if c["kind"] == "theorem" else \
            " (falsification only, not a proof)"
        lines.append(f"  [{c['kind']}] {c['name']}: residual "
                     f"{g(c['residual'])} vs tol {g(c['tolerance'])}"
                     f" -> {verdict}{note}")
    if "error" in report:
        lines.append(f"  error: {report['error']}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)


# ---------------------------------------------------------------- loaders


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(2, f"malformed JSON in {path}: line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from None


def need_in(cfg: RunConfig):
    if cfg.in_path is None:
        raise CliError(2, "this command needs --in FILE")
    return load_json(cfg.in_path)


def parse_matrix(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise CliError(2, f"{where}: expected a Matrix object "
                          '{"rows", "cols", "re", "im"?}')
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
    except (KeyError, TypeError, ValueError):
        raise CliError(2, f"{where}: needs integer 'rows' and 'cols'") from None
    if rows < 1 or cols < 1:
        raise CliError(2, f"{where}: 'rows' and 'cols' must be positive")
    try:
        re = np.asarray(obj["re"], dtype=float)
    except KeyError:
        raise CliError(2, f"{where}: missing 're'") from None
    except (TypeError, ValueError):
        raise CliError(2, f"{where}: 're' must be a numeric grid") from None
    if re.shape != (rows, cols):
        raise CliError(2, f"{where}: 're' must be {rows} x {cols}")
    M = re
    if "im" in obj:
        try:
            im = np.asarray(obj["im"], dtype=float)
        except (TypeError, ValueError):
            raise CliError(2, f"{where}: 'im' must be a numeric grid") from None
        if im.shape != (rows, cols):
            raise CliError(2, f"{where}: 'im' must be {rows} x {cols}")
        M = re + 1j * im
    if not np.all(np.isfinite(re)):
        raise CliError(2, f"{where}: entries must be finite")
    return M


def dump_matrix(M) -> dict:
    M = np.asarray(M)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    out = {"rows": int(M.shape[0]), "cols": int(M.shape[1])}
    if M.dtype == object:
        # rational matrices travel as exact strings plus a float view
        out["exact"] = [[str(v) for v in row] for row in M.tolist()]
        out["re"] = [[float(v) for v in row] for row in M.tolist()]
        return out
    Mc = M.astype(complex)
    out["re"] = [[float(v) for v in row] for row in Mc.real.tolist()]
    if float(np.abs(Mc.imag).max(initial=0.0)) > 0.0:
        out["im"] = [[float(v) for v in row] for row in Mc.imag.tolist()]
    return out


def parse_exact_matrix(obj, where: str = "matrix") -> list:
    """Grid for the rational commands: entries may be numbers or strings
    like "2/3"; imaginary parts are rejected."""
    if not isinstance(obj, dict):
        raise CliError(2, f"{where}: expected a Matrix object")
    if "im" in obj:
        try:
            imag = np.abs(np.asarray(obj["im"], dtype=float)).max()
        except (TypeError, ValueError):
            raise CliError(2, f"{where}: 'im' must be a numeric grid") from None
        if imag > 0:
            raise CliError(2, f"{where}: rational commands take real matrices")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        grid = obj["re"]
    except (KeyError, TypeError, ValueError):
        raise CliError(2, f"{where}: needs 'rows', 'cols' and 're'") from None
    if (not isinstance(grid, list) or len(grid) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in grid)):
        raise CliError(2, f"{where}: 're' must be {rows} x {cols}")
    out = []
    for r, row in enumerate(grid):
        new = []
        for c, v in enumerate(row):
            try:
                new.append(Fraction(v))
            except (TypeError, ValueError, ZeroDivisionError):
                raise CliError(2, f"{where}: entry ({r}, {c}) is not a "
                                  "number or 'p/q' string") from None
        out.append(new)
    return out


def parse_vector_field(obj, size: Optional[int], where: str) -> np.ndarray:
    if isinstance(obj, dict):
        M = parse_matrix(obj, where)
        if 1 not in M.shape:
            raise CliError(2, f"{where}: expected a single column or row")
        v = M.reshape(-1)
    elif isinstance(obj, list):
        try:
            v = np.asarray(obj, dtype=float)
        except (TypeError, ValueError):
            raise CliError(2, f"{where}: expected a list of numbers") from None
        if v.ndim != 1:
            raise CliError(2, f"{where}: expected a flat list")
    else:
        raise CliError(2, f"{where}: expected a list or Matrix object")
    if size is not None and v.size != size:
        raise CliError(2, f"{where}: expected length {size}, got {v.size}")
    return v


def parse_frame(obj) -> hframe.HilbertFrame:
    if isinstance(obj, dict) and "named" in obj:
        try:
            return hframe.make_named_frame(str(obj["named"]))
        except ValueError as exc:
            raise CliError(2, str(exc)) from None
    if not isinstance(obj, dict):
        raise CliError(2, "frame file: expected an object with 'vectors'")
    vectors = obj.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise CliError(2, "frame file: needs a nonempty 'vectors' list")
    field_name = str(obj.get("field", "C")).upper()
    if field_name not in ("R", "C"):
        raise CliError(2, "frame file: 'field' must be 'R' or 'C'")
    dim = obj.get("dim")
    cols = [parse_vector_field(v, None, f"vectors[{k}]")
            for k, v in enumerate(vectors)]
    if dim is not None and any(c.size != int(dim) for c in cols):
        raise CliError(2, "frame file: vector lengths disagree with 'dim'")
    if field_name == "R" and any(np.iscomplexobj(c) and
                                 np.abs(c.imag).max() > 0 for c in cols):
        raise CliError(2, "frame file: field 'R' but vectors carry "
                          "imaginary parts")
    try:
        return hframe.HilbertFrame.from_vectors(cols)
    except ValueError as exc:
        raise CliError(2, f"frame file: {exc}") from None


def dump_frame(F: hframe.HilbertFrame) -> dict:
    syn = F.synthesis
    is_c = bool(np.iscomplexobj(syn) and np.abs(syn.imag).max() > 0)
    return {"field": "C" if is_c else "R", "dim": F.d,
            "vectors": [dump_matrix(syn[:, [n]]) for n in range(F.m)]}


def parse_pasf(obj) -> tuple:
    """Returns (pair, meta); meta carries the named-instance fields."""
    if not isinstance(obj, dict):
        raise CliError(2, "pair file: expected an object")
    if obj.get("named") == "shift":
        try:
            m = int(obj.get("m", 8))
            p = float(obj.get("p", 2.0))
            return pasf.shift_pair(m, p), {"named": "shift", "m": m}
        except (TypeError, ValueError) as exc:
            raise CliError(2, f"pair file: {exc}") from None
    if "named" in obj:
        raise CliError(2, f"pair file: unknown named pair {obj['named']!r}")
    try:
        p = float(obj["p"])
    except (KeyError, TypeError, ValueError):
        raise CliError(2, "pair file: needs a numeric 'p'") from None
    F = parse_matrix(obj.get("F"), "F")
    T = parse_matrix(obj.get("T"), "T")
    try:
        return pasf.PAsf(p, F, T), {}
    except ValueError as exc:
        raise CliError(2, f"pair file: {exc}") from None


def dump_pasf(P: pasf.PAsf) -> dict:
    return {"p": P.p, "F": dump_matrix(P.F), "T": dump_matrix(P.T)}


def parse_sip_pair(obj, p_flag: Optional[float]) -> sip.SipPair:
    if not isinstance(obj, dict):
        raise CliError(2, "pair file: expected an object")
    p = p_flag if p_flag is not None else obj.get("p")
    if p is None:
        raise CliError(2, "no exponent: pass --p or put 'p' in the file")
    Omega = parse_matrix(obj.get("Omega"), "Omega")
    Tau = parse_matrix(obj.get("Tau"), "Tau")
    try:
        return sip.SipPair(float(p), Omega, Tau)
    except ValueError as exc:
        raise CliError(2, f"pair file: {exc}") from None


def parse_sample(obj) -> metricframe.MetricSample:
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise CliError(2, "sample file: needs 'points' and 'dist'")
    try:
        return metricframe.MetricSample(tuple(obj["points"]),
                                        np.asarray(obj["dist"], dtype=float),
                                        obj.get("base"))
    except (TypeError, ValueError) as exc:
        raise CliError(2, f"sample file: {exc}") from None


def parse_family(obj) -> metricframe.LipschitzFamily:
    if not isinstance(obj, dict) or "values" not in obj:
        raise CliError(2, "family file: needs 'values'")
    try:
        return metricframe.LipschitzFamily(np.asarray(obj["values"],
                                                      dtype=float),
                                           float(obj.get("remainder", 0.0)))
    except (TypeError, ValueError) as exc:
        raise CliError(2, f"family file: {exc}") from None


def family_arg(source: str, S: metricframe.MetricSample,
               terms: int) -> metricframe.LipschitzFamily:
    """A family is either a JSON file or a named builder like log(1)."""
    if source.endswith(".json"):
        return parse_family(load_json(source))
    try:
        return metricframe.make_named_family(source, S, terms)
    except ValueError as exc:
        raise CliError(2, str(exc)) from None


def parse_multiplier(obj) -> multiplier_mod.Multiplier:
    if not isinstance(obj, dict):
        raise CliError(2, "multiplier file: expected an object")
    for key in ("sample", "family", "Tau", "lam", "p"):
        if key not in obj:
            raise CliError(2, f"multiplier file: missing '{key}'")
    S = parse_sample(obj["sample"])
    fam = parse_family(obj["family"])
    Tau = parse_matrix(obj["Tau"], "Tau")
    lam = parse_vector_field(obj["lam"], None, "lam")
    try:
        return multiplier_mod.Multiplier(
            S, fam, Tau, lam, float(obj["p"]),
            out_norm=float(obj.get("out_norm", 2.0)),
            bessel_b=obj.get("bessel_b"), bessel_d=obj.get("bessel_d"))
    except (TypeError, ValueError) as exc:
        raise CliError(2, f"multiplier file: {exc}") from None


def parse_ovf(obj) -> ovf.OvfPair:
    if not isinstance(obj, dict) or "A" not in obj or "Psi" not in obj:
        raise CliError(2, "pair file: needs 'A' and 'Psi' matrix lists")
    A_list, P_list = obj["A"], obj["Psi"]
    if (not isinstance(A_list, list) or not isinstance(P_list, list)
            or not A_list or len(A_list) != len(P_list)):
        raise CliError(2, "pair file: 'A' and 'Psi' must be equal-length "
                          "nonempty lists")
    A = [parse_matrix(M, f"A[{n}]") for n, M in enumerate(A_list)]
    Psi = [parse_matrix(M, f"Psi[{n}]") for n, M in enumerate(P_list)]
    shapes = {M.shape for M in A} | {M.shape for M in Psi}
    if len(shapes) != 1:
        raise CliError(2, "pair file: all blocks must share one r x d shape")
    r, d = A[0].shape
    for key, want in (("r", r), ("d", d)):
        if key in obj and obj[key] != want:
            raise CliError(2, f"pair file: '{key}' disagrees with the blocks")
    return ovf.OvfPair(np.stack(A), np.stack(Psi))


def dump_ovf(P: ovf.OvfPair) -> dict:
    return {"d": P.d, "r": P.r,
            "A": [dump_matrix(P.A[n]) for n in range(P.m)],
            "Psi": [dump_matrix(P.Psi[n]) for n in range(P.m)]}


def parse_ovf_stack(obj, shape, where: str) -> np.ndarray:
    stack = obj.get("A") if isinstance(obj, dict) else obj
    if not isinstance(stack, list) or len(stack) != shape[0]:
        raise CliError(2, f"{where}: expected {shape[0]} blocks")
    mats = [parse_matrix(M, f"{where}[{n}]") for n, M in enumerate(stack)]
    out = np.stack(mats)
    if out.shape != shape:
        raise CliError(2, f"{where}: blocks must be "
                          f"{shape[1]} x {shape[2]}")
    return out


def parse_group_rep(source: str) -> dict:
    if source == "c4":
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        return {k: np.linalg.matrix_power(R, k) for k in range(4)}
    obj = load_json(source)
    if (not isinstance(obj, dict)
            or not isinstance(obj.get("labels"), list)
            or not isinstance(obj.get("matrices"), list)
            or len(obj["labels"]) != len(obj["matrices"])):
        raise CliError(2, "rep file: needs equal-length 'labels' and "
                          "'matrices'")
    return {str(lbl): parse_matrix(M, f"matrices[{n}]")
            for n, (lbl, M) in enumerate(zip(obj["labels"],
                                             obj["matrices"]))}


def csv_floats(text: str, what: str) -> np.ndarray:
    try:
        vals = [complex(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise CliError(2, f"{what}: expected comma-separated numbers") from None
    if not vals:
        raise CliError(2, f"{what}: empty list")
    arr = np.asarray(vals)
    return arr.real if np.abs(arr.imag).max() == 0 else arr


def vector_arg(text: Optional[str], size: int, rng, what: str) -> np.ndarray:
    if text is None:
        return rng.standard_normal(size)
    v = csv_floats(text, what)
    if v.size != size:
        raise CliError(2, f"{what}: expected {size} entries, got {v.size}")
    return v


def subset_arg(text: str, m: int) -> list:
    try:
        idx = sorted({int(t) for t in text.split(",") if t.strip()})
    except ValueError:
        raise CliError(2, "--subset: expected comma-separated indices") from None
    if not idx:
        raise CliError(2, "--subset: empty index list")
    if idx[0] < 0 or idx[-1] >= m:
        raise CliError(2, f"--subset: indices must lie in [0, {m})")
    return idx


def interval(iv: linops.NormInterval) -> dict:
    return {"hi": iv.hi, "lo": iv.lo}


def fmt_basis(v: np.ndarray) -> str:
    v = np.asarray(v).reshape(-1)
    hot = np.flatnonzero(v != 0)
    if hot.size == 0:
        return "0"
    if hot.size == 1 and v[hot[0]] == 1:
        return f"e{hot[0] + 1}"

    def one(x) -> str:
        z = complex(x)
        if z.imag == 0:
            return g(z.real)
        return f"{g(z.real)}{z.imag:+.12g}i"

    return "[" + ", ".join(one(x) for x in v) + "]"


def dump_word_element(e) -> list:
    rows = []
    for (left, right), c in sorted(e.table.items()):
        z = complex(c)
        row = {"left": list(left), "right": list(right), "re": z.real}
        if z.imag:
            row["im"] = z.imag
        rows.append(row)
    return rows


def dump_word_matrix(M) -> dict:
    return {"n": M.n, "entries": [[dump_word_element(M.entry(i, j))
                                   for j in range(M.n)]
                                  for i in range(M.n)]}


# ----------------------------------------------------------- dispatching

# (group, verb) -> handler, and (group, verb) -> (needs_in, options):
# build_parser makes one subcommand per entry, in declaration order.
_HANDLERS: dict = {}
_OPTIONS: dict = {}

_GROUP_HELP = {
    "hframe": "Hilbert-space frames",
    "pasf": "p-approximate Schauder frames",
    "sip": "semi-inner products on l^p",
    "metric": "metric (Lipschitz) frames",
    "multiplier": "(p, q)-Bessel multipliers",
    "ovf": "operator-valued frames",
    "vsdilate": "vector-space dilations",
    "cuntz": "Cuntz-isometry commutators",
}


def command(group: str, verb: str, *options, needs_in: bool = True):
    """Registers a handler with its options, each an _opt(...) pair."""
    def deco(fn):
        _HANDLERS[(group, verb)] = fn
        _OPTIONS[(group, verb)] = (needs_in, options)
        return fn
    return deco


def _opt(*flags, **kwargs) -> tuple:
    return flags, kwargs


def _domain(cast, ok, want: str):
    """Option type: cast(text), refused with exit 2 unless ok(value)."""
    def parse(text: str):
        x = cast(text)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return x
    parse.__name__ = cast.__name__  # argparse: "invalid float value: ..."
    return parse


_finite = _domain(float, math.isfinite, "finite")
_tolerance = _domain(float, lambda x: 0 <= x < math.inf, "finite and >= 0")
_count = _domain(int, lambda k: k >= 1, ">= 1")


def _file(flag: str, help: str = None) -> tuple:
    return _opt(flag, required=True, metavar="FILE", help=help)


_H = _opt("--h", default=None, help="target vector, comma separated")
_PERTURB = (_opt("--alpha", type=_finite, default=0.0),
            _opt("--beta", type=_finite, default=0.0),
            _opt("--gamma", type=_finite, default=0.0),
            _opt("--samples", type=_count, default=256))
_SIP = (_opt("--p", type=_finite, default=None),
        _opt("--subset", required=True),
        _opt("--x", default=None, help="sample vector, csv"))
_RATIONAL = _opt("--rational", action=argparse.BooleanOptionalAction,
                 default=True, help="exact Fraction arithmetic")
_MU = _opt("--mu", type=_finite, default=0.5)
_N = _opt("--n", type=int, required=True)
_HORIZON = _opt("--horizon", type=int, required=True)


# ------------------------------------------------------------- hframe


@command("hframe", "bounds")
def cmd_hframe_bounds(cfg: RunConfig, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = cfg.tolerance(1e-12)
    a, b = hframe.frame_bounds(F)
    tight = abs(b - a) <= tol * max(1.0, abs(b))
    R.result.update({"d": F.d, "m": F.m, "lower": a, "upper": b,
                     "tight": tight, "tight_tol": tol})
    R.display.append(f"bounds = ({g(a)}, {g(b)})" + (" tight" if tight else ""))
    R.check("positive lower frame bound", "theorem",
            0.0 if a > 0 else 1.0, 0.0)


@command("hframe", "dual")
def cmd_hframe_dual(cfg: RunConfig, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = cfg.tolerance(1e-10)
    dual = hframe.canonical_dual(F)
    recon = float(np.abs(dual.synthesis @ F.analysis - np.eye(F.d)).max())
    R.result["dual"] = dump_frame(dual)
    R.check("reconstruction with the canonical dual", "theorem", recon, tol)


@command("hframe", "parsevalize")
def cmd_hframe_parsevalize(cfg: RunConfig, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = cfg.tolerance(1e-10)
    G = hframe.parsevalize(F)
    resid = float(np.abs(G.frame_operator - np.eye(G.d)).max())
    R.result["frame"] = dump_frame(G)
    R.check("frame operator of the output is the identity", "theorem",
            resid, tol)


@command("hframe", "algorithm",
         _opt("--iters", type=_count, default=50,
              help="number of iterations to run"),
         _H)
def cmd_hframe_algorithm(cfg: RunConfig, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    slack = cfg.tolerance(1e-10)
    iters = cfg.extra["iters"]
    rng = np.random.default_rng(cfg.seed)
    h = vector_arg(cfg.extra.get("h"), F.d, rng, "--h")
    iterates, rho = hframe.frame_algorithm(F, h, iters)
    hn = float(np.linalg.norm(h))
    worst = max(float(np.linalg.norm(hk - h)) - rho ** (k + 1) * hn
                for k, hk in enumerate(iterates))
    R.result.update({"rho": rho, "iterations": iters,
                     "final_error": float(np.linalg.norm(iterates[-1] - h))})
    R.check("error envelope ||h_k - h|| <= rho^k ||h||", "theorem",
            max(worst, 0.0), slack)


@command("hframe", "identity",
         _opt("--subset", required=True, help="0-based indices, csv"),
         _H,
         _opt("--mode", choices=("auto", "general", "parseval"),
              default="auto",
              help="identity variant; auto picks from the frame"))
def cmd_hframe_identity(cfg: RunConfig, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = cfg.tolerance(1e-10)
    subset = subset_arg(cfg.extra["subset"], F.m)
    rng = np.random.default_rng(cfg.seed)
    h = vector_arg(cfg.extra.get("h"), F.d, rng, "--h")
    rep = hframe.frame_identity_residuals(F, subset, h, cfg.extra["mode"])
    R.result["general_residual"] = rep.general_residual
    R.check("frame identity, general form", "theorem",
            rep.general_residual, tol)
    if rep.parseval_residual is not None:
        R.result["parseval_residual"] = rep.parseval_residual
        R.check("frame identity, Parseval form", "theorem",
                rep.parseval_residual, tol)
    if rep.lower_bound_value is not None:
        floor = 0.75 * float(np.linalg.norm(h)) ** 2
        R.result.update({"lower_bound_value": rep.lower_bound_value,
                         "lower_bound_floor": floor})
        R.check("3/4 lower bound", "theorem",
                max(floor - rep.lower_bound_value, 0.0), tol)


@command("hframe", "dilate")
def cmd_hframe_dilate(cfg: RunConfig, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = cfg.tolerance(1e-8)
    nd = hframe.naimark_dilate(F)
    top = float(np.abs(nd.frame.synthesis[:F.d, :] - F.synthesis).max())
    R.result.update({"space_dim": nd.space_dim, "frame": dump_frame(nd.frame)})
    R.check("restriction to the first coordinates is the input", "theorem",
            top, 0.0)
    if F.is_parseval():
        gram = nd.frame.gram
        R.check("dilated family is an orthonormal basis", "theorem",
                float(np.abs(gram - np.eye(nd.frame.m)).max()), tol)
    else:
        R.result["parseval_input"] = False


@command("hframe", "perturb",
         _file("--other", "perturbed frame file, same shape"),
         _opt("--mode", choices=("quadratic", "general"),
              default="quadratic", help="perturbation hypothesis"),
         *_PERTURB)
def cmd_hframe_perturb(cfg: RunConfig, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    G = parse_frame(load_json(cfg.extra["other"]))
    tol = cfg.tolerance(1e-9)
    mode = cfg.extra["mode"]
    cert = hframe.perturb_certificate(
        F, G, mode, alpha=cfg.extra["alpha"], beta=cfg.extra["beta"],
        gamma=cfg.extra["gamma"], seed=cfg.seed,
        samples=cfg.extra["samples"])
    kind = "theorem" if mode == "quadratic" else "sampled"
    R.result.update({"mode": cert.mode, "valid": cert.valid,
                     "detail": _plain(cert.detail)})
    R.check("perturbation hypothesis", kind,
            0.0 if cert.valid else 1.0, 0.0)
    if cert.valid and cert.predicted_bounds is not None:
        lo, hi = cert.predicted_bounds
        a2, b2 = hframe.frame_bounds(G)
        R.result.update({"predicted": [lo, hi], "measured": [a2, b2]})
        R.check("measured bounds inside the predicted window", "theorem",
                max(lo - a2, b2 - hi, 0.0), tol)


# --------------------------------------------------------------- pasf


@command("pasf", "check")
def cmd_pasf_check(cfg: RunConfig, R: ReportBuilder):
    P, _ = parse_pasf(need_in(cfg))
    rep = pasf.check(P, seed=cfg.seed)
    R.result.update({"d": P.d, "m": P.m, "p": P.p, "is_pasf": rep.is_pasf,
                     "upper": interval(rep.upper)})
    if rep.lower is not None:
        R.result["lower"] = interval(rep.lower)
        R.display.append(f"lower bound in [{g(rep.lower.lo)}, "
                         f"{g(rep.lower.hi)}], upper bound in "
                         f"[{g(rep.upper.lo)}, {g(rep.upper.hi)}]")
    R.check("frame operator invertible", "theorem",
            0.0 if rep.is_pasf else 1.0, 0.0)


@command("pasf", "dual")
def cmd_pasf_dual(cfg: RunConfig, R: ReportBuilder):
    P, _ = parse_pasf(need_in(cfg))
    tol = cfg.tolerance(pasf.DUAL_TOL)
    Q = pasf.canonical_dual(P)
    eye = np.eye(P.d)
    resid = max(float(np.abs(P.T @ Q.F - eye).max()),
                float(np.abs(Q.T @ P.F - eye).max()))
    R.result["dual"] = dump_pasf(Q)
    R.check("canonical dual reconstructs: T F' = T' F = I", "theorem",
            resid, tol)


@command("pasf", "alldual", _file("--u"), _file("--v"))
def cmd_pasf_alldual(cfg: RunConfig, R: ReportBuilder):
    P, _ = parse_pasf(need_in(cfg))
    tol = cfg.tolerance(pasf.DUAL_TOL)
    U = parse_matrix(load_json(cfg.extra["u"]), "U")
    V = parse_matrix(load_json(cfg.extra["v"]), "V")
    Q = pasf.dual_from_operators(P, U, V)
    eye = np.eye(P.d)
    resid = max(float(np.abs(P.T @ Q.F - eye).max()),
                float(np.abs(Q.T @ P.F - eye).max()))
    R.result["dual"] = dump_pasf(Q)
    R.check("constructed dual reconstructs: T F' = T' F = I", "theorem",
            resid, tol)


@command("pasf", "similar", _file("--other"))
def cmd_pasf_similar(cfg: RunConfig, R: ReportBuilder):
    P, _ = parse_pasf(need_in(cfg))
    Q, _ = parse_pasf(load_json(cfg.extra["other"]))
    tol = cfg.tolerance(pasf.SIMILAR_TOL)
    got = pasf.similarity(P, Q, tol)
    if got is None:
        R.result["similar"] = False
        R.check("coefficient idempotents coincide", "theorem", 1.0, 0.0)
        return
    T_fg, T_tw = got
    resid = max(float(np.abs(Q.F - P.F @ T_fg).max()),
                float(np.abs(Q.T - T_tw @ P.T).max()))
    R.result.update({"similar": True, "T_fg": dump_matrix(T_fg),
                     "T_tw": dump_matrix(T_tw)})
    R.check("recovered operators reproduce the second pair", "theorem",
            resid, tol)


@command("pasf", "dilate")
def cmd_pasf_dilate(cfg: RunConfig, R: ReportBuilder):
    obj = need_in(cfg)
    P, meta = parse_pasf(obj)
    if meta.get("named") == "shift":
        # the classical two-sided shift table; its honest truncation has a
        # singular frame operator, so the generic path would refuse it
        table = pasf.shift_dilation_table(meta["m"])
        R.result["omega"] = [{"first": _plain(t), "second": _plain(s)}
                             for t, s in table]
        for n, (t, s) in enumerate(table, start=1):
            R.display.append(f"omega_{n} = {fmt_basis(t)} (+) {fmt_basis(s)}")
        return
    tol = cfg.tolerance(1e-8)
    dil = pasf.dilate(P)
    big = dil.pasf
    Sinv = linops.inverse(big.frame_operator)
    riesz_resid = float(np.abs(big.F @ Sinv @ big.T - np.eye(big.m)).max())
    restrict = max(float(np.abs(big.F[:, :P.d] - P.F).max()),
                   float(np.abs(big.T[:P.d, :] - P.T).max()))
    R.result.update({"dim": big.d, "added": big.d - P.d,
                     "omega": [{"first": _plain(big.T[:P.d, n]),
                                "second": _plain(big.T[P.d:, n])}
                               for n in range(big.m)]})
    for n in range(big.m):
        R.display.append(f"omega_{n + 1} = {fmt_basis(big.T[:P.d, n])} (+) "
                         f"{fmt_basis(big.T[P.d:, n])}")
    R.check("restriction recovers the input pair", "theorem", restrict, 0.0)
    R.check("dilated pair is an approximate Riesz basis", "theorem",
            riesz_resid, tol)


@command("pasf", "riesz")
def cmd_pasf_riesz(cfg: RunConfig, R: ReportBuilder):
    P, _ = parse_pasf(need_in(cfg))
    tol = cfg.tolerance(pasf.RIESZ_TOL)
    Sinv = linops.inverse(P.frame_operator)
    resid = float(np.abs(P.F @ Sinv @ P.T - np.eye(P.m)).max())
    R.check("approximate Riesz basis: F S^-1 T = I", "theorem", resid, tol)


@command("pasf", "perturb",
         _file("--omega", "replacement vector matrix (d x m)"),
         _opt("--mode", choices=("quadratic", "general", "two_sided"),
              default="quadratic"),
         *_PERTURB,
         _opt("--case", type=int, default=1),
         _opt("--g", default=None, metavar="FILE"),
         _opt("--r", type=_finite, default=0.0),
         _opt("--s", type=_finite, default=0.0),
         _opt("--t", type=_finite, default=0.0))
def cmd_pasf_perturb(cfg: RunConfig, R: ReportBuilder):
    P, _ = parse_pasf(need_in(cfg))
    Omega = parse_matrix(load_json(cfg.extra["omega"]), "omega")
    mode = cfg.extra["mode"]
    G = None
    if cfg.extra.get("g") is not None:
        G = parse_matrix(load_json(cfg.extra["g"]), "G")
    rep = pasf.perturb_certificate(
        P, Omega, mode, alpha=cfg.extra["alpha"], beta=cfg.extra["beta"],
        gamma=cfg.extra["gamma"], case=cfg.extra["case"], G=G,
        r=cfg.extra["r"], s=cfg.extra["s"], t=cfg.extra["t"],
        seed=cfg.seed, samples=cfg.extra["samples"])
    kind = "sampled" if mode == "general" else "theorem"
    R.result.update({"mode": rep.mode, "valid": rep.valid,
                     "detail": _plain(rep.detail)})
    if rep.predicted_bounds is not None:
        R.result["predicted"] = list(rep.predicted_bounds)
    R.check("perturbation hypothesis", kind, 0.0 if rep.valid else 1.0, 0.0)


@command("pasf", "expand",
         _file("--other", "reconstructing pair to borrow vectors from"),
         _opt("--lam", type=_finite, default=1.0))
def cmd_pasf_expand(cfg: RunConfig, R: ReportBuilder):
    P, _ = parse_pasf(need_in(cfg))
    Q, _ = parse_pasf(load_json(cfg.extra["other"]))
    tol = cfg.tolerance(1e-10)
    exp = pasf.expand_to_asf(P, Q, cfg.extra["lam"])
    comb = exp.expanded
    resid = float(np.abs(comb.frame_operator - np.eye(comb.d)).max())
    R.result.update({"n_min": exp.n_min, "appended": comb.m - P.m,
                     "expanded": dump_pasf(comb)})
    R.check("combined frame operator is the identity", "theorem", resid, tol)


# ---------------------------------------------------------------- sip


def _sip_setup(cfg: RunConfig):
    P = parse_sip_pair(need_in(cfg), cfg.extra.get("p"))
    subset = subset_arg(cfg.extra["subset"], P.m)
    rng = np.random.default_rng(cfg.seed)
    x = vector_arg(cfg.extra.get("x"), P.d, rng, "--x")
    return P, subset, x


@command("sip", "identity", *_SIP)
def cmd_sip_identity(cfg: RunConfig, R: ReportBuilder):
    P, subset, x = _sip_setup(cfg)
    tol = cfg.tolerance(1e-8)
    resid = sip.general_identity_residual(P, subset, x)
    R.result.update({"p": P.p, "residual": resid})
    R.check("semi-inner-product frame identity", "theorem", resid, tol)


@command("sip", "parseval", *_SIP)
def cmd_sip_parseval(cfg: RunConfig, R: ReportBuilder):
    P, subset, x = _sip_setup(cfg)
    tol = cfg.tolerance(1e-8)
    resid = sip.parseval_identity_residual(P, subset, x)
    op_resid = sip.operator_identity_residual(P, subset)
    R.result.update({"p": P.p, "residual": resid,
                     "operator_residual": op_resid})
    R.check("Parseval identity on the sample vector", "theorem", resid, tol)
    R.check("operator identity S_M - S_M^2 = S_Mc - S_Mc^2", "theorem",
            op_resid, tol)


@command("sip", "lower34", *_SIP)
def cmd_sip_lower34(cfg: RunConfig, R: ReportBuilder):
    P, subset, x = _sip_setup(cfg)
    slack = cfg.tolerance(1e-9)
    rep = sip.lower_bound_check(P, subset, x, slack=slack)
    floor = 0.75 * linops.vec_pnorm(x, P.p) ** 2
    R.result.update({"condition_value": rep.condition_value,
                     "condition_holds": rep.condition_holds,
                     "value": rep.value, "floor": floor})
    if rep.condition_holds:
        R.check("3/4 lower bound under the sign condition", "theorem",
                max(floor - rep.value, 0.0), slack)
    else:
        R.display.append("sign condition not met; the bound makes no claim")


# -------------------------------------------------------------- metric


@command("metric", "bounds",
         _opt("--family", required=True,
              help="family JSON file or named builder like 'log(1)'"),
         _opt("--terms", type=int, default=32),
         _opt("--p", type=_finite, default=1.0))
def cmd_metric_bounds(cfg: RunConfig, R: ReportBuilder):
    S = parse_sample(need_in(cfg))
    fam = family_arg(cfg.extra["family"], S, cfg.extra["terms"])
    a, b = metricframe.metric_frame_bounds(S, fam, cfg.extra["p"])
    R.result.update({"points": S.n, "terms": fam.m, "lower": a, "upper": b,
                     "remainder": fam.remainder})
    R.display.append(f"bounds = ({g(a)}, {g(b)}), certified remainder "
                     f"{g(fam.remainder)}")


@command("metric", "logframe",
         _opt("--lo", type=_finite, default=1.0),
         _opt("--hi", type=_finite, default=20.0),
         _opt("--points", type=int, default=200),
         _opt("--terms", type=int, default=40),
         _opt("--p", type=_finite, default=1.0),
         needs_in=False)
def cmd_metric_logframe(cfg: RunConfig, R: ReportBuilder):
    lo, hi = cfg.extra["lo"], cfg.extra["hi"]
    if not 1.0 <= lo < hi:
        raise CliError(2, "--lo must be >= 1 and below --hi")
    rng = np.random.default_rng(cfg.seed)
    pts = np.sort(rng.uniform(lo, hi, cfg.extra["points"]))
    S = metricframe.sample_from_points(pts, base=0)
    fam = metricframe.make_named_family(f"log({g(lo)})", S,
                                        cfg.extra["terms"])
    a, b = metricframe.metric_frame_bounds(S, fam, cfg.extra["p"])
    rec = metricframe.reconstruction_check(
        S, fam, metricframe.log_family_reconstructor, cfg.extra["p"])
    tol = cfg.tolerance(1e-6)
    R.result.update({"points": S.n, "terms": fam.m, "lower": a, "upper": b,
                     "remainder": fam.remainder,
                     "max_deviation": rec.max_deviation})
    R.display.append(f"bounds = ({g(a)}, {g(b)})")
    R.check("tail remainder certified below 1e-8", "theorem",
            fam.remainder, 1e-8)
    R.check("1-frame bounds equal (1, 1)", "theorem",
            max(abs(a - 1.0), abs(b - 1.0)), tol)
    # the float floor covers rounding in the telescoping sums
    R.check("reconstruction deviation within the remainder", "theorem",
            max(rec.max_deviation - fam.remainder, 0.0), 1e-12)


# ---------------------------------------------------------- multiplier


@command("multiplier", "apply", _opt("--point", type=int, required=True))
def cmd_multiplier_apply(cfg: RunConfig, R: ReportBuilder):
    M = parse_multiplier(need_in(cfg))
    idx = cfg.extra["point"]
    if not 0 <= idx < M.sample.n:
        raise CliError(2, f"--point must lie in [0, {M.sample.n})")
    out = multiplier_mod.apply(M, idx)
    R.result.update({"point": idx, "value": _plain(out)})


@command("multiplier", "lip")
def cmd_multiplier_lip(cfg: RunConfig, R: ReportBuilder):
    M = parse_multiplier(need_in(cfg))
    tol = cfg.tolerance(1e-9)
    rep = multiplier_mod.lip_bound_check(M)
    R.result.update({"measured": rep.measured, "certified": rep.certified,
                     "b": rep.b, "b_source": rep.b_source,
                     "d": rep.d, "d_source": rep.d_source})
    R.check("Lipschitz number under b d ||symbol||_inf", "theorem",
            max(rep.measured - rep.certified, 0.0), tol)


@command("multiplier", "tail", _opt("--cut", type=int, required=True))
def cmd_multiplier_tail(cfg: RunConfig, R: ReportBuilder):
    M = parse_multiplier(need_in(cfg))
    tol = cfg.tolerance(1e-9)
    measured, bound = multiplier_mod.tail_decay(M, cfg.extra["cut"])
    R.result.update({"cut": cfg.extra["cut"], "measured": measured,
                     "bound": bound})
    R.check("tail Lipschitz number under the cut bound", "theorem",
            max(measured - bound, 0.0), tol)


@command("multiplier", "continuity",
         _opt("--symbol", default=None, help="replacement symbol, csv"),
         _opt("--vectors", default=None, metavar="FILE"))
def cmd_multiplier_continuity(cfg: RunConfig, R: ReportBuilder):
    M = parse_multiplier(need_in(cfg))
    tol = cfg.tolerance(1e-9)
    symbol = cfg.extra.get("symbol")
    vectors = cfg.extra.get("vectors")
    if (symbol is None) == (vectors is None):
        raise CliError(2, "pass exactly one of --symbol, --vectors")
    if symbol is not None:
        lam2 = csv_floats(symbol, "--symbol")
        measured, bound = multiplier_mod.continuity(M, symbol=lam2)
        moved = "symbol"
    else:
        Tau2 = parse_matrix(load_json(vectors), "vectors")
        measured, bound = multiplier_mod.continuity(M, vectors=Tau2)
        moved = "vectors"
    R.result.update({"moved": moved, "measured": measured, "bound": bound})
    R.check("continuity bound on the moved " + moved, "theorem",
            max(measured - bound, 0.0), tol)


# ----------------------------------------------------------------- ovf


@command("ovf", "check")
def cmd_ovf_check(cfg: RunConfig, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    rep = ovf.check(P)
    R.result.update({"d": P.d, "r": P.r, "m": P.m, "is_ovf": rep.is_ovf,
                     "lower": rep.lower, "upper": rep.upper})
    R.display.append(f"bounds = ({g(rep.lower)}, {g(rep.upper)})")
    R.check("frame operator invertible", "theorem",
            0.0 if rep.is_ovf else 1.0, 0.0)


@command("ovf", "dual")
def cmd_ovf_dual(cfg: RunConfig, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    tol = cfg.tolerance(1e-10)
    Q = ovf.canonical_dual(P)
    eye = np.eye(P.d)
    duality = max(
        float(np.linalg.norm(linops.herm(P.theta_Psi) @ Q.theta_A - eye, 2)),
        float(np.linalg.norm(linops.herm(Q.theta_Psi) @ P.theta_A - eye, 2)))
    back = ovf.canonical_dual(Q)
    involution = max(float(np.abs(back.A - P.A).max()),
                     float(np.abs(back.Psi - P.Psi).max()))
    R.result["dual"] = dump_ovf(Q)
    R.check("duality: sum Psi_n* B_n = sum Phi_n* A_n = I", "theorem",
            duality, tol)
    R.check("dual of the dual returns the pair", "theorem", involution, tol)


@command("ovf", "similar", _file("--other"))
def cmd_ovf_similar(cfg: RunConfig, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    Q = parse_ovf(load_json(cfg.extra["other"]))
    tol = cfg.tolerance(ovf.SIMILAR_TOL)
    got = ovf.similarity(P, Q, tol)
    if got is None:
        R.result["similar"] = False
        R.check("coefficient idempotents coincide", "theorem", 1.0, 0.0)
        return
    R_ab, R_pp = got
    resid = max(float(np.abs(Q.theta_A - P.theta_A @ R_ab).max()),
                float(np.abs(Q.theta_Psi - P.theta_Psi @ R_pp).max()))
    R.result.update({"similar": True, "R_A": dump_matrix(R_ab),
                     "R_Psi": dump_matrix(R_pp)})
    R.check("recovered operators reproduce the second pair", "theorem",
            resid, tol)


@command("ovf", "classify")
def cmd_ovf_classify(cfg: RunConfig, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    got = ovf.classify(P)
    R.result.update({"riesz": got.riesz, "orthonormal": got.orthonormal})
    R.display.append(f"riesz = {got.riesz}, orthonormal = {got.orthonormal}")


@command("ovf", "dilate")
def cmd_ovf_dilate(cfg: RunConfig, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    tol = cfg.tolerance(1e-8)
    dil = ovf.dilate(P)
    back = dil.restrict()
    restrict = max(float(np.abs(back.A - P.A).max()),
                   float(np.abs(back.Psi - P.Psi).max()))
    big = dil.pair
    gap = float(np.linalg.norm(big.frame_operator() - np.eye(big.d), 2))
    for n in range(big.m):
        for k in range(big.m):
            C = big.A[n] @ linops.herm(big.Psi[k])
            if n == k:
                C = C - np.eye(big.r)
            gap = max(gap, float(np.linalg.norm(C, 2)))
    R.result.update({"dim": big.d, "added": big.d - P.d})
    R.check("restriction recovers the input pair", "theorem", restrict, 0.0)
    R.check("dilated pair is orthonormal", "theorem", gap, tol)


@command("ovf", "group",
         _opt("--rep", required=True,
              help="'c4' or a JSON file with labels and matrices"),
         _file("--a"), _file("--psi"),
         needs_in=False)
def cmd_ovf_group(cfg: RunConfig, R: ReportBuilder):
    rep = parse_group_rep(cfg.extra["rep"])
    A = parse_matrix(load_json(cfg.extra["a"]), "A")
    Psi = parse_matrix(load_json(cfg.extra["psi"]), "Psi")
    tol = cfg.tolerance(1e-10)
    got = ovf.group_generated(rep, A, Psi)
    R.result.update({"labels": [str(x) for x in got.labels],
                     "m": got.pair.m,
                     "commutant_residual": got.commutant_residual,
                     "gc1_residual": got.gc1_residual})
    R.check("frame operator commutes with the representation", "theorem",
            got.commutant_residual, tol)
    R.check("group condition on the block products", "theorem",
            got.gc1_residual, tol)


@command("ovf", "perturb",
         _file("--b", "replacement block stack"),
         _opt("--mode", choices=("quadratic", "triple"), default="quadratic"),
         *_PERTURB)
def cmd_ovf_perturb(cfg: RunConfig, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    B = parse_ovf_stack(load_json(cfg.extra["b"]), P.A.shape, "B")
    tol = cfg.tolerance(1e-9)
    mode = cfg.extra["mode"]
    rep = ovf.perturb_certificate(
        P, B, mode, alpha=cfg.extra["alpha"], beta=cfg.extra["beta"],
        gamma=cfg.extra["gamma"], samples=cfg.extra["samples"],
        seed=cfg.seed)
    kind = "theorem" if mode == "quadratic" else "sampled"
    lo, hi = rep.predicted
    R.result.update({"mode": rep.mode, "predicted": [lo, hi],
                     "measured": [rep.measured.lower, rep.measured.upper]})
    R.check("perturbation hypothesis", kind,
            0.0 if rep.hypothesis_holds else 1.0, 0.0)
    R.check("measured bounds inside the predicted window", "theorem",
            max(lo - rep.measured.lower, rep.measured.upper - hi, 0.0), tol)


# ------------------------------------------------------------ vsdilate


def _exact_tol(cfg: RunConfig) -> float:
    return 0.0 if cfg.extra["rational"] else cfg.tolerance(vsdilate.FLOAT_TOL)


def _exact_in(cfg: RunConfig, key: str = None) -> np.ndarray:
    obj = need_in(cfg) if key is None else load_json(cfg.extra[key])
    name = "matrix" if key is None else key
    data = parse_exact_matrix(obj, name)
    return vsdilate.as_exact(data, cfg.extra["rational"])


@command("vsdilate", "halmos", _RATIONAL)
def cmd_vsdilate_halmos(cfg: RunConfig, R: ReportBuilder):
    T = _exact_in(cfg)
    tol = _exact_tol(cfg)
    quad = vsdilate.halmos(T, cfg.extra["rational"])
    R.result.update({"dim": int(quad.U.shape[0]), "U": dump_matrix(quad.U)})
    R.check("compression of U returns T", "theorem",
            vsdilate.max_abs(quad.compression(1) - T), tol)
    R.check("P is idempotent", "theorem",
            vsdilate.max_abs(quad.P @ quad.P - quad.P), tol)
    if quad.U_inv is not None:
        R.check("closed-form inverse of U", "theorem",
                quad.inverse_defect(), tol)


@command("vsdilate", "ndilate", _RATIONAL, _N)
def cmd_vsdilate_ndilate(cfg: RunConfig, R: ReportBuilder):
    T = _exact_in(cfg)
    tol = _exact_tol(cfg)
    N = cfg.extra["n"]
    nd = vsdilate.n_dilation(T, N, cfg.extra["rational"])
    table = [(int(k), float(dft)) for k, dft in nd.table]
    R.result.update({"horizon": nd.horizon,
                     "table": [{"k": k, "defect": dft} for k, dft in table]})
    inside = max((dft for k, dft in table if k <= N), default=0.0)
    R.check(f"power dilation exact for k <= {N}", "theorem", inside, tol)
    beyond = [dft for k, dft in table if k == N + 1]
    if beyond:
        R.display.append(f"defect at k = {N + 1} (beyond the horizon): "
                         f"{g(beyond[0])}")


@command("vsdilate", "sznagy", _RATIONAL,
         _opt("--window", type=int, required=True))
def cmd_vsdilate_sznagy(cfg: RunConfig, R: ReportBuilder):
    T = _exact_in(cfg)
    tol = _exact_tol(cfg)
    w = cfg.extra["window"]
    bw = vsdilate.banded_sznagy(T, w, cfg.extra["rational"])
    worst = max(vsdilate.max_abs(bw.compression(n) - vsdilate.mat_power(T, n))
                for n in range(bw.valid_horizon + 1))
    R.result.update({"window": w, "valid_horizon": bw.valid_horizon})
    R.check(f"windowed powers compress exactly for n <= {bw.valid_horizon}",
            "theorem", worst, tol)
    R.check("V U = I on the interior block columns", "theorem",
            bw.interior_identity_defect(), tol)


@command("vsdilate", "standard", _RATIONAL, _HORIZON)
def cmd_vsdilate_standard(cfg: RunConfig, R: ReportBuilder):
    T = _exact_in(cfg)
    tol = _exact_tol(cfg)
    K = cfg.extra["horizon"]
    sd = vsdilate.standard_dilation(T, K, cfg.extra["rational"])
    worst = max(sd.dilation_defect(n) for n in range(K + 1))
    R.result["horizon"] = K
    R.check(f"I T^n = P U^n I for n <= {K}", "theorem", worst, tol)
    R.check("P is idempotent", "theorem", sd.idempotent_defect(), tol)
    R.check("dilation is minimal (orbit spans the space)", "theorem",
            0.0 if sd.minimality_check() else 1.0, 0.0)


@command("vsdilate", "ando", _RATIONAL, _file("--other"), _HORIZON)
def cmd_vsdilate_ando(cfg: RunConfig, R: ReportBuilder):
    T = _exact_in(cfg)
    S = _exact_in(cfg, "other")
    tol = _exact_tol(cfg)
    K = cfg.extra["horizon"]
    gap = vsdilate.max_abs(T @ S - S @ T)
    if not R.check("inputs commute: T S = S T", "theorem", gap, tol):
        return
    ad = vsdilate.ando_like(T, S, K, cfg.extra["rational"])
    worst = max(ad.dilation_defect(n, m)
                for n in range(K + 1) for m in range(K + 1 - n))
    R.result["horizon"] = K
    R.check(f"joint powers dilate exactly for n + m <= {K}", "theorem",
            worst, tol)
    R.check("zero-pad identity V U = U V = joint shift", "theorem",
            0.0 if ad.pad_identity_check() else 1.0, 0.0)


@command("vsdilate", "intertwine", _RATIONAL, _file("--other"),
         _file("--s", "intertwining matrix"), _HORIZON)
def cmd_vsdilate_intertwine(cfg: RunConfig, R: ReportBuilder):
    T1 = _exact_in(cfg)
    T2 = _exact_in(cfg, "other")
    S = _exact_in(cfg, "s")
    tol = _exact_tol(cfg)
    gap = vsdilate.max_abs(T1 @ S - S @ T2)
    if not R.check("inputs intertwine: T1 S = S T2", "theorem", gap, tol):
        return
    lift = vsdilate.intertwine_lift(T1, T2, S, cfg.extra["horizon"],
                                    cfg.extra["rational"])
    R.check("lifted shift identity U1 R = R U2", "theorem",
            lift.shift_defect, tol)
    R.check("lifted projection identity R P2 = P1 R", "theorem",
            lift.projection_defect, tol)
    R.check("lifted embedding identity R I2 = I1 S", "theorem",
            lift.embedding_defect, tol)


@command("vsdilate", "witness", _RATIONAL)
def cmd_vsdilate_witness(cfg: RunConfig, R: ReportBuilder):
    T = _exact_in(cfg)
    wit = vsdilate.non_similarity_witness(T, cfg.extra["rational"])
    R.result.update({"trace_asymmetric": _plain(wit.trace_asymmetric),
                     "trace_halmos": _plain(wit.trace_halmos),
                     "distinct": wit.distinct, "conclusive": wit.conclusive})
    if wit.conclusive:
        R.display.append("traces differ: the two dilations are not similar")
    else:
        R.display.append("trace of T vanishes; the witness is inconclusive")


# --------------------------------------------------------------- cuntz


@command("cuntz", "solve", _N,
         _opt("--max-iters", type=_count, default=200),
         needs_in=False)
def cmd_cuntz_solve(cfg: RunConfig, R: ReportBuilder):
    n = cfg.extra["n"]
    iter_tol = cfg.tolerance(1e-10)
    cert_tol = cfg.tolerance(1e-8)
    sol = cuntz.solve_b(n, max_iters=cfg.extra["max_iters"], tol=iter_tol)
    R.result.update({"n": n, "delta": sol.delta,
                     "iterations": sol.iterations,
                     "contraction": sol.contraction,
                     "bounds": list(sol.bounds),
                     "bound_limit": sol.bound_limit,
                     "residual": sol.residual})
    if sol.b_exact is not None:
        R.result["b"] = [dump_word_element(e) for e in sol.b_exact]
    R.display.append(f"converged in {sol.iterations} iterations, "
                     f"contraction {g(sol.contraction)}")
    R.check("fixed-point residual (certified hi bound)", "theorem",
            sol.residual, cert_tol)
    R.check("solution bound ||b_i|| <= 16 sqrt(2) n^3", "theorem",
            max(max(sol.bounds) - sol.bound_limit, 0.0), 0.0)
    R.check("first iterate bound <= 8 sqrt(2) n^3", "theorem",
            max(max(sol.first_bounds) - sol.bound_limit / 2.0, 0.0), 0.0)


@command("cuntz", "build", _N, _MU, needs_in=False)
def cmd_cuntz_build(cfg: RunConfig, R: ReportBuilder):
    n, mu = cfg.extra["n"], cfg.extra["mu"]
    if mu <= 0:
        raise CliError(2, "--mu must be positive")
    built = cuntz.build_DX(n, mu, tol=cfg.tolerance(1e-10))
    R.result.update({"n": n, "mu": mu, "delta": built.delta,
                     "D_norm": interval(built.D_interval),
                     "X_norm": interval(built.X_interval),
                     "error_bound": built.error_bound,
                     "b_bounds": dict(built.b_bounds),
                     "D": dump_word_matrix(built.D),
                     "X": dump_word_matrix(built.X)})
    R.display.append(
        f"||D|| in [{g(built.D_interval.lo)}, {g(built.D_interval.hi)}], "
        f"||X|| in [{g(built.X_interval.lo)}, {g(built.X_interval.hi)}], "
        f"||[D, X] - I|| <= {g(built.error_bound)}")
    ok = built.structure.ok
    R.check("[D, X] - I is supported on the last column "
            "(coefficient-exact)", "theorem", 0.0 if ok else 1.0, 0.0)


@command("cuntz", "verify",
         _opt("--n-range", default="6:12:2",
              help="start:stop:step, stop included"),
         _MU,
         needs_in=False)
def cmd_cuntz_verify(cfg: RunConfig, R: ReportBuilder):
    ns = _parse_range(cfg.extra["n_range"])
    mu = cfg.extra["mu"]
    reports = [cuntz.verify_bounds(n, mu, tol=cfg.tolerance(1e-10))
               for n in ns]
    rows = []
    for rep in reports:
        rows.append({"n": rep.n, "D": interval(rep.D_interval),
                     "X": interval(rep.X_interval),
                     "error_bound": rep.error_bound,
                     "residual": rep.residual, "d_scale": rep.d_scale})
        R.display.append(f"n = {rep.n}: ||D|| <= {g(rep.D_interval.hi)}, "
                         f"||X|| <= {g(rep.X_interval.hi)}, error bound "
                         f"{g(rep.error_bound)}")
    R.result["rows"] = rows
    R.check("fixed-point residuals under 1e-8", "theorem",
            max(rep.residual for rep in reports), 1e-8)
    R.check("||X|| hi-bound stays under 2 across n", "theorem",
            max(rep.X_interval.hi for rep in reports), 2.0)
    scales = [rep.d_scale for rep in reports]
    R.check("||D|| hi-bound tracks n^5 (scale spread under 1.1)", "theorem",
            max(scales) / min(scales), 1.1)
    for first, second in zip(reports, reports[1:]):
        ratio = second.error_bound / first.error_bound
        ref = cuntz.decay_reference(first.n, second.n)
        off = max(ratio / ref, ref / ratio)
        R.check(f"error decay n = {first.n} -> {second.n} tracks n^3 2^-n",
                "theorem", off, 1.1)


@command("cuntz", "obstruction",
         _opt("--dim", type=_count, default=5),
         _opt("--trials", type=_count, default=1000),
         needs_in=False)
def cmd_cuntz_obstruction(cfg: RunConfig, R: ReportBuilder):
    dim, trials = cfg.extra["dim"], cfg.extra["trials"]
    tol = cfg.tolerance(1e-9)
    rng = np.random.default_rng(cfg.seed)
    worst = float("inf")
    for _ in range(trials):
        D = rng.standard_normal((dim, dim))
        X = rng.standard_normal((dim, dim))
        worst = min(worst, cuntz.finite_obstruction(D, X))
    R.result.update({"dim": dim, "trials": trials, "min_distance": worst})
    R.display.append(f"min ||[D, X] - I|| over {trials} pairs: {g(worst)}")
    R.check("no scalar pair reaches [D, X] = I: distance >= 1", "sampled",
            max(1.0 - worst, 0.0), tol)


def _parse_range(text: str) -> list:
    parts = text.split(":")
    try:
        nums = [int(t) for t in parts]
    except ValueError:
        raise CliError(2, "--n-range: expected start:stop[:step]") from None
    if len(nums) == 2:
        nums.append(2)
    if len(nums) != 3 or nums[2] < 1 or nums[0] < 2 or nums[1] < nums[0]:
        raise CliError(2, "--n-range: expected start:stop:step with "
                          "2 <= start <= stop (stop included)")
    ns = list(range(nums[0], nums[1] + 1, nums[2]))
    if len(ns) < 2:
        raise CliError(2, "--n-range: need at least two sizes for the "
                          "decay ratios")
    return ns


# --------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as "error: ..." first, then the usage line."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", type=_tolerance, default=None,
                        help="override the default tolerance of the checks")
    shared.add_argument("--seed", type=int, default=0,
                        help="seed for any sampling step (recorded)")
    shared.add_argument("--json", action="store_true",
                        help="emit the report as canonical JSON")
    shared.add_argument("--out", default=None,
                        help="also write the JSON report to this file")

    top = _Parser(prog="framekit",
                  description="certified finite-scale frame computations")
    groups = top.add_subparsers(dest="group", required=True)
    verbs = {name: groups.add_parser(name, help=text).add_subparsers(
                 dest="verb", required=True)
             for name, text in _GROUP_HELP.items()}
    for (group, verb), (needs_in, options) in _OPTIONS.items():
        sub = verbs[group].add_parser(verb, parents=[shared])
        if needs_in:
            sub.add_argument("--in", dest="in_path", required=True,
                             metavar="FILE", help="input JSON file")
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    return top


_SHARED_KEYS = ("group", "verb", "in_path", "out", "tol", "seed", "json")


def config_from(args: argparse.Namespace) -> RunConfig:
    extra = {k: v for k, v in vars(args).items() if k not in _SHARED_KEYS}
    return RunConfig(command=(args.group, args.verb),
                     in_path=getattr(args, "in_path", None),
                     out_path=args.out, tol=args.tol, seed=args.seed,
                     fmt="json" if args.json else "text", extra=extra)


def run(cfg: RunConfig) -> tuple:
    """Execute one command; returns (exit_code, report)."""
    handler = _HANDLERS[cfg.command]
    R = ReportBuilder()
    error = None
    try:
        # canonical() refuses a non-finite result; no numpy warning first
        with np.errstate(all="ignore"):
            handler(cfg, R)
    except CliError:
        raise
    except CertifiedFailure as exc:
        error = f"{type(exc).__name__}: {exc}"
    except ValueError as exc:
        raise CliError(2, f"invalid input: {exc}") from exc
    except ArithmeticError as exc:
        raise CliError(2, "out of floating-point range: "
                          f"{type(exc).__name__}: {exc}") from exc
    status = "pass" if error is None and R.passed else "fail"
    report = {"command": " ".join(cfg.command), "config": cfg.recorded(),
              "display": R.display, "result": _plain(R.result),
              "checks": R.checks, "status": status}
    if error is not None:
        report["error"] = error
    return (0 if status == "pass" else 1), report


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = config_from(args)
    try:
        code, report = run(cfg)
        payload = canonical(report)
        text = payload if cfg.fmt == "json" else render_text(report)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # a bug: exit 3 with one line, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    print(text)
    if cfg.out_path is not None:
        try:
            with open(cfg.out_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error: cannot write {cfg.out_path}: {exc}",
                  file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
