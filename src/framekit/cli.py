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
import contextlib
import errno
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

import framekit
from framekit.errors import CertifiedFailure


class CliError(Exception):
    """Input or usage problem; carries the exit code (normally 2)."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def tolerance(cfg: argparse.Namespace, default: float) -> float:
    """The --tol override of a parsed invocation, else the check's default."""
    return default if cfg.tol is None else cfg.tol


class ReportBuilder:
    """Collects the result payload, check lines and display text."""

    def __init__(self):
        self.result: dict = {}
        self.checks: list = []
        self.display: list = []

    def check(self, name: str, kind: str, residual: float,
              tolerance: float) -> bool:
        residual = float(residual)
        tolerance = float(tolerance)
        passed = residual <= tolerance
        self.checks.append({"kind": kind, "name": name, "passed": passed,
                            "residual": residual, "tolerance": tolerance})
        return passed

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _leaf(x):
    """json.dumps hook for the leaves json does not know: numpy scalars
    to python, Fractions to strings, complex to {"re", "im"}, arrays to
    lists. np.float64 is a float, so json writes it as one."""
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
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"cannot serialize {type(x).__name__}")


def canonical(report: dict) -> str:
    try:
        return json.dumps(report, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, default=_leaf)
    except ValueError:
        raise CliError(2, "the report holds a non-finite value "
                          "(NaN or infinity)") from None


def g(x) -> str:
    return f"{float(x):.12g}"


def _short(v) -> str:
    text = json.dumps(v, sort_keys=True, default=_leaf)
    if len(text) <= 100:
        return text
    v = json.loads(text)  # a Fraction is counted as its string
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


def need_in(cfg: argparse.Namespace):
    # argparse requires --in of every verb registered with needs_in
    return load_json(cfg.in_path)


def _fields(obj, where: str, *keys: str) -> dict:
    """obj, if it is a JSON object that holds every one of keys; anything
    else is refused with exit 2."""
    if not isinstance(obj, dict):
        raise CliError(2, f"{where}: expected an object")
    for key in keys:
        if key not in obj:
            raise CliError(2, f"{where}: missing '{key}'")
    return obj


def _integer(x, message: str) -> int:
    """A whole-number JSON field, written as a JSON integer; a bool, a
    string, a float (2.0 too) or a missing field (None) is refused with
    exit 2 and the caller's message."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise CliError(2, message)
    return x


def _real(obj: dict, key: str, where: str, default=None) -> float:
    """obj[key] (default when absent) as a finite float; a bool, a string, a
    list, an object, NaN, an infinity or a missing field with no default is
    refused with exit 2."""
    x = obj.get(key, default)
    try:
        finite = not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):  # not a number, or an integer too big
        finite = False
    if not finite:
        raise CliError(2, f"{where}: '{key}' must be a finite number")
    return float(x)


@contextlib.contextmanager
def _refused(where: str):
    """Refuses with exit 2 what a constructor rejects with TypeError or
    ValueError, its message prefixed by where."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise CliError(2, f"{where}: {exc}") from None


def _floats(x, message: str) -> np.ndarray:
    """x as a float array; refused with exit 2 and message when numpy cannot
    read it, or when a list or grid entry is a string or a bool, which
    np.asarray would read as a number ("1e0", true)."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise CliError(2, message) from None
    rows = x if a.ndim == 2 else [x] if a.ndim == 1 else []
    if not {str, bool}.isdisjoint(set().union(*(map(type, r) for r in rows))):
        raise CliError(2, message)
    return a


def _grid(obj: dict, key: str, rows: int, cols: int, where: str) -> np.ndarray:
    a = _floats(obj[key], f"{where}: '{key}' must be a numeric grid")
    if a.shape != (rows, cols):
        raise CliError(2, f"{where}: '{key}' must be {rows} x {cols}")
    return a


def parse_matrix(obj, where: str = "matrix", exact: bool = False):
    """A Matrix object {"rows", "cols", "re", "im"?} as a float or complex
    array. With exact, as a list of rows of Fractions for the rational
    commands: entries may also be strings like "2/3", and an imaginary part
    that is not zero is refused."""
    obj = _fields(obj, where, "re")
    bad = f"{where}: needs integer 'rows' and 'cols'"
    rows, cols = _integer(obj.get("rows"), bad), _integer(obj.get("cols"), bad)
    if rows < 1 or cols < 1:
        raise CliError(2, f"{where}: 'rows' and 'cols' must be positive")
    if not exact:
        M = _grid(obj, "re", rows, cols, where)
        if "im" in obj:
            M = M + 1j * _grid(obj, "im", rows, cols, where)
        if not np.all(np.isfinite(M)):
            raise CliError(2, f"{where}: entries must be finite")
        return M
    if "im" in obj and not np.all(_grid(obj, "im", rows, cols, where) == 0):
        # a NaN is not 0 either
        raise CliError(2, f"{where}: rational commands take real matrices")
    grid = obj["re"]
    if (not isinstance(grid, list) or len(grid) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in grid)):
        raise CliError(2, f"{where}: 're' must be {rows} x {cols}")
    out = []
    for r, row in enumerate(grid):
        new = []
        for c, v in enumerate(row):
            try:
                if isinstance(v, bool):  # Fraction(True) would be 1
                    raise TypeError
                new.append(Fraction(v))
            except (TypeError, ValueError, ArithmeticError):
                raise CliError(2, f"{where}: entry ({r}, {c}) is not a "
                                  "number or 'p/q' string") from None
        out.append(new)
    return out


def _matrices(items, where: str) -> list:
    """A nonempty JSON list of Matrix objects, named where[0], where[1], ..."""
    if not isinstance(items, list) or not items:
        raise CliError(2, f"{where}: expected a nonempty list of Matrix "
                          "objects")
    return [parse_matrix(M, f"{where}[{n}]") for n, M in enumerate(items)]


def dump_matrix(M) -> dict:
    M = np.asarray(M)
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


def parse_vector_field(obj, where: str) -> np.ndarray:
    if isinstance(obj, dict):
        M = parse_matrix(obj, where)
        if 1 not in M.shape:
            raise CliError(2, f"{where}: expected a single column or row")
        return M.reshape(-1)
    if not isinstance(obj, list):
        raise CliError(2, f"{where}: expected a list or Matrix object")
    v = _floats(obj, f"{where}: expected a list of numbers")
    if v.ndim != 1:
        raise CliError(2, f"{where}: expected a flat list")
    return v


def parse_frame(obj) -> framekit.hframe.HilbertFrame:
    obj = _fields(obj, "frame file")
    if "named" in obj:
        with _refused("frame file"):
            return framekit.hframe.make_named_frame(str(obj["named"]))
    vectors = obj.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise CliError(2, "frame file: needs a nonempty 'vectors' list")
    field_name = str(obj.get("field", "C")).upper()
    if field_name not in ("R", "C"):
        raise CliError(2, "frame file: 'field' must be 'R' or 'C'")
    dim = obj.get("dim")
    cols = [parse_vector_field(v, f"vectors[{k}]")
            for k, v in enumerate(vectors)]
    disagree = "frame file: vector lengths disagree with 'dim'"
    if dim is not None and any(c.size != _integer(dim, disagree)
                               for c in cols):
        raise CliError(2, disagree)
    if field_name == "R" and any(np.iscomplexobj(c) and
                                 np.abs(c.imag).max() > 0 for c in cols):
        raise CliError(2, "frame file: field 'R' but vectors carry "
                          "imaginary parts")
    with _refused("frame file"):
        return framekit.hframe.HilbertFrame.from_vectors(cols)


def dump_frame(F: framekit.hframe.HilbertFrame) -> dict:
    syn = F.synthesis
    is_c = bool(np.iscomplexobj(syn) and np.abs(syn.imag).max() > 0)
    return {"field": "C" if is_c else "R", "dim": F.d,
            "vectors": [dump_matrix(syn[:, [n]]) for n in range(F.m)]}


def parse_pasf(obj) -> framekit.pasf.PAsf:
    obj = _fields(obj, "pair file")
    if obj.get("named") == "shift":
        m = _integer(obj.get("m", 8), "pair file: 'm' must be an integer")
        p = _real(obj, "p", "pair file", 2.0)
        with _refused("pair file"):
            return framekit.pasf.shift_pair(m, p)
    if "named" in obj:
        raise CliError(2, f"pair file: unknown named pair {obj['named']!r}")
    p = _real(obj, "p", "pair file")
    F = parse_matrix(obj.get("F"), "F")
    T = parse_matrix(obj.get("T"), "T")
    with _refused("pair file"):
        return framekit.pasf.PAsf(p, F, T)


def dump_pasf(P: framekit.pasf.PAsf) -> dict:
    return {"p": P.p, "F": dump_matrix(P.F), "T": dump_matrix(P.T)}


def parse_sip_pair(obj, p_flag: Optional[float]) -> framekit.sip.SipPair:
    obj = _fields(obj, "pair file")
    if p_flag is None and "p" not in obj:
        raise CliError(2, "no exponent: pass --p or put 'p' in the file")
    p = _real(obj, "p", "pair file") if p_flag is None else p_flag
    Omega = parse_matrix(obj.get("Omega"), "Omega")
    Tau = parse_matrix(obj.get("Tau"), "Tau")
    with _refused("pair file"):
        return framekit.sip.SipPair(p, Omega, Tau)


def parse_sample(obj) -> framekit.metricframe.MetricSample:
    obj = _fields(obj, "sample file", "points", "dist")
    if not isinstance(obj["points"], list):
        raise CliError(2, "sample file: 'points' must be a list")
    dist = _floats(obj["dist"], "sample file: 'dist' must be a numeric grid")
    with _refused("sample file"):
        return framekit.metricframe.MetricSample(obj["points"], dist,
                                                 obj.get("base"))


def parse_family(obj) -> framekit.metricframe.LipschitzFamily:
    obj = _fields(obj, "family file", "values")
    remainder = _real(obj, "remainder", "family file", 0.0)
    values = _floats(obj["values"],
                     "family file: 'values' must be a numeric grid")
    with _refused("family file"):
        return framekit.metricframe.LipschitzFamily(values, remainder)


def family_arg(source: str, S: framekit.metricframe.MetricSample,
               terms: int) -> framekit.metricframe.LipschitzFamily:
    """A family is either a JSON file or a named builder like log(1)."""
    if source.endswith(".json"):
        return parse_family(load_json(source))
    with _refused("--family"):
        return framekit.metricframe.make_named_family(source, S, terms)


def parse_multiplier(obj) -> framekit.multiplier.Multiplier:
    where = "multiplier file"
    obj = _fields(obj, where, "sample", "family", "Tau", "lam", "p")
    S = parse_sample(obj["sample"])
    fam = parse_family(obj["family"])
    Tau = parse_matrix(obj["Tau"], "Tau")
    lam = parse_vector_field(obj["lam"], "lam")
    p = _real(obj, "p", where)
    out_norm = _real(obj, "out_norm", where, 2.0)
    bessel = {key: _real(obj, key, where)
              for key in ("bessel_b", "bessel_d") if key in obj}
    with _refused(where):
        return framekit.multiplier.Multiplier(S, fam, Tau, lam, p,
                                              out_norm=out_norm, **bessel)


def parse_ovf(obj) -> framekit.ovf.OvfPair:
    obj = _fields(obj, "pair file", "A", "Psi")
    A, Psi = _matrices(obj["A"], "A"), _matrices(obj["Psi"], "Psi")
    if len(A) != len(Psi):
        raise CliError(2, "pair file: 'A' and 'Psi' must be equal-length "
                          "lists")
    if len({M.shape for M in A + Psi}) != 1:
        raise CliError(2, "pair file: all blocks must share one r x d shape")
    r, d = A[0].shape
    for key, want in (("r", r), ("d", d)):
        if key in obj and _integer(
                obj[key], f"pair file: '{key}' must be an integer") != want:
            raise CliError(2, f"pair file: '{key}' disagrees with the blocks")
    return framekit.ovf.OvfPair(np.stack(A), np.stack(Psi))


def dump_ovf(P: framekit.ovf.OvfPair) -> dict:
    return {"d": P.d, "r": P.r,
            "A": [dump_matrix(P.A[n]) for n in range(P.m)],
            "Psi": [dump_matrix(P.Psi[n]) for n in range(P.m)]}


def parse_ovf_stack(obj, shape, where: str) -> np.ndarray:
    stack = _matrices(obj.get("A") if isinstance(obj, dict) else obj, where)
    if len(stack) != shape[0]:
        raise CliError(2, f"{where}: expected {shape[0]} blocks")
    if any(M.shape != shape[1:] for M in stack):
        raise CliError(2, f"{where}: blocks must be "
                          f"{shape[1]} x {shape[2]}")
    return np.stack(stack)


def parse_group_rep(source: str) -> dict:
    if source == "c4":
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        return dict(enumerate(framekit.linops._powers(R, 4)))
    obj = _fields(load_json(source), "rep file", "labels", "matrices")
    matrices = _matrices(obj["matrices"], "matrices")
    labels = obj["labels"]
    if not isinstance(labels, list) or len(labels) != len(matrices):
        raise CliError(2, "rep file: needs equal-length 'labels' and "
                          "'matrices'")
    rep = {}
    for lbl, M in zip(labels, matrices):
        if str(lbl) in rep:
            raise CliError(2, f"rep file: label {str(lbl)!r} is repeated")
        rep[str(lbl)] = M
    return rep


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


def interval(iv: framekit.linops.NormInterval) -> dict:
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
    return [{"left": list(left), "right": list(right), "re": complex(c).real}
            for (left, right), c in sorted(e.table.items())]


def dump_word_matrix(M) -> dict:
    """A square sparse form of word elements, one shared [] per empty cell."""
    n, empty = M.shape[0], []
    entries = []
    for row in M.rows:
        cells = [empty] * n
        for j, e in row:
            cells[j] = dump_word_element(e)
        entries.append(cells)
    return {"n": n, "entries": entries}


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
_nonnegative = _domain(float, lambda x: 0 <= x < math.inf, "finite and >= 0")
_positive = _domain(float, lambda x: 0 < x < math.inf, "finite and > 0")
_count = _domain(int, lambda k: k >= 1, ">= 1")


def _file(flag: str, help: str = None) -> tuple:
    return _opt(flag, required=True, metavar="FILE", help=help)


_H = _opt("--h", default=None, help="target vector, comma separated")
_PERTURB = (_opt("--alpha", type=_nonnegative, default=0.0),
            _opt("--beta", type=_nonnegative, default=0.0),
            _opt("--gamma", type=_nonnegative, default=0.0),
            _opt("--samples", type=_count, default=256))
_SIP = (_opt("--p", type=_finite, default=None),
        _opt("--subset", required=True),
        _opt("--x", default=None, help="sample vector, csv"))
_RATIONAL = _opt("--rational", action=argparse.BooleanOptionalAction,
                 default=True, help="take the entries as given; "
                 "--no-rational rounds each to the nearest double before the "
                 "exact computation")
_MU = _opt("--mu", type=_positive, default=0.5)
_N = _opt("--n", type=int, required=True)
_HORIZON = _opt("--horizon", type=int, required=True)


# ------------------------------------------------------------- hframe


@command("hframe", "bounds")
def cmd_hframe_bounds(cfg: argparse.Namespace, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = tolerance(cfg, 1e-12)
    a, b = framekit.hframe.frame_bounds(F)
    tight = abs(b - a) <= tol * abs(b)
    R.result.update({"d": F.d, "m": F.m, "lower": a, "upper": b,
                     "tight": tight, "tight_tol": tol})
    R.display.append(f"bounds = ({g(a)}, {g(b)})" + (" tight" if tight else ""))
    R.check("positive lower frame bound", "theorem",
            0.0 if a > 0 else 1.0, 0.0)


@command("hframe", "dual")
def cmd_hframe_dual(cfg: argparse.Namespace, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = tolerance(cfg, 1e-10)
    dual = framekit.hframe.canonical_dual(F)
    recon = framekit.linops.identity_defect(dual.synthesis @ F.analysis)
    R.result["dual"] = dump_frame(dual)
    R.check("reconstruction with the canonical dual", "theorem", recon, tol)


@command("hframe", "parsevalize")
def cmd_hframe_parsevalize(cfg: argparse.Namespace, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = tolerance(cfg, 1e-10)
    G = framekit.hframe.parsevalize(F)
    R.result["frame"] = dump_frame(G)
    R.check("frame operator of the output is the identity", "theorem",
            G.parseval_residual, tol)


@command("hframe", "algorithm",
         _opt("--iters", type=_count, default=50,
              help="number of iterations to run"),
         _H)
def cmd_hframe_algorithm(cfg: argparse.Namespace, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    slack = tolerance(cfg, 1e-10)
    iters = cfg.iters
    rng = np.random.default_rng(cfg.seed)
    h = vector_arg(cfg.h, F.d, rng, "--h")
    iterates, rho = framekit.hframe.frame_algorithm(F, h, iters)
    norm = framekit.linops._vec_norm
    hn = norm(h)
    worst = max(norm(hk - h) - rho ** (k + 1) * hn
                for k, hk in enumerate(iterates))
    R.result.update({"rho": rho, "iterations": iters,
                     "final_error": norm(iterates[-1] - h)})
    R.check("error envelope ||h_k - h|| <= rho^k ||h||", "theorem",
            max(worst, 0.0), slack)


@command("hframe", "identity",
         _opt("--subset", required=True, help="0-based indices, csv"),
         _H,
         _opt("--mode", choices=("auto", "general", "parseval"),
              default="auto",
              help="identity variant; auto picks from the frame"))
def cmd_hframe_identity(cfg: argparse.Namespace, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = tolerance(cfg, 1e-10)
    subset = subset_arg(cfg.subset, F.m)
    rng = np.random.default_rng(cfg.seed)
    h = vector_arg(cfg.h, F.d, rng, "--h")
    rep = framekit.hframe.frame_identity_residuals(F, subset, h, cfg.mode)
    R.result["general_residual"] = rep.general_residual
    R.check("frame identity, general form", "theorem",
            rep.general_residual, tol)
    if rep.parseval_residual is not None:
        R.result["parseval_residual"] = rep.parseval_residual
        R.check("frame identity, Parseval form", "theorem",
                rep.parseval_residual, tol)
    if rep.lower_bound_value is not None:
        floor = 0.75 * framekit.linops._vec_norm(h) ** 2
        R.result.update({"lower_bound_value": rep.lower_bound_value,
                         "lower_bound_floor": floor})
        R.check("3/4 lower bound", "theorem",
                max(floor - rep.lower_bound_value, 0.0), tol)


@command("hframe", "dilate")
def cmd_hframe_dilate(cfg: argparse.Namespace, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    tol = tolerance(cfg, 1e-8)
    big = framekit.hframe.naimark_dilate(F)
    top = float(np.abs(big.synthesis[:F.d, :] - F.synthesis).max())
    R.result.update({"space_dim": big.d, "frame": dump_frame(big)})
    R.check("restriction to the first coordinates is the input", "theorem",
            top, 0.0)
    if F.is_parseval():
        R.check("dilated family is an orthonormal basis", "theorem",
                framekit.linops.identity_defect(big.gram), tol)
    else:
        R.result["parseval_input"] = False


@command("hframe", "perturb",
         _file("--other", "perturbed frame file, same shape"),
         _opt("--mode", choices=("quadratic", "general"),
              default="quadratic", help="perturbation hypothesis"),
         *_PERTURB)
def cmd_hframe_perturb(cfg: argparse.Namespace, R: ReportBuilder):
    F = parse_frame(need_in(cfg))
    G = parse_frame(load_json(cfg.other))
    tol = tolerance(cfg, 1e-9)
    mode = cfg.mode
    cert = framekit.hframe.perturb_certificate(
        F, G, mode, alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma,
        seed=cfg.seed, samples=cfg.samples)
    kind = "theorem" if mode == "quadratic" else "sampled"
    R.result.update({"mode": cert.mode, "valid": cert.valid,
                     "detail": cert.detail})
    R.check("perturbation hypothesis", kind,
            0.0 if cert.valid else 1.0, 0.0)
    if cert.valid and cert.predicted_bounds is not None:
        lo, hi = cert.predicted_bounds
        a2, b2 = framekit.hframe.frame_bounds(G)
        R.result.update({"predicted": [lo, hi], "measured": [a2, b2]})
        R.check("measured bounds inside the predicted window", "theorem",
                max(lo - a2, b2 - hi, 0.0), tol)


# --------------------------------------------------------------- pasf


@command("pasf", "check")
def cmd_pasf_check(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_pasf(need_in(cfg))
    rep = framekit.pasf.check(P, seed=cfg.seed)
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
def cmd_pasf_dual(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_pasf(need_in(cfg))
    tol = tolerance(cfg, framekit.pasf.DUAL_TOL)
    Q = framekit.pasf.canonical_dual(P)
    R.result["dual"] = dump_pasf(Q)
    R.check("canonical dual reconstructs: T F' = T' F = I", "theorem",
            framekit.pasf.dual_residual(P, Q), tol)


@command("pasf", "alldual", _file("--u"), _file("--v"))
def cmd_pasf_alldual(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_pasf(need_in(cfg))
    tol = tolerance(cfg, framekit.pasf.DUAL_TOL)
    U = parse_matrix(load_json(cfg.u), "U")
    V = parse_matrix(load_json(cfg.v), "V")
    Q = framekit.pasf.dual_from_operators(P, U, V)
    R.result["dual"] = dump_pasf(Q)
    R.check("constructed dual reconstructs: T F' = T' F = I", "theorem",
            framekit.pasf.dual_residual(P, Q), tol)


@command("pasf", "similar", _file("--other"))
def cmd_pasf_similar(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_pasf(need_in(cfg))
    Q = parse_pasf(load_json(cfg.other))
    tol = tolerance(cfg, framekit.pasf.SIMILAR_TOL)
    got = framekit.pasf.similarity(P, Q, tol)
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
def cmd_pasf_dilate(cfg: argparse.Namespace, R: ReportBuilder):
    obj = need_in(cfg)
    P = parse_pasf(obj)
    if obj.get("named") == "shift":
        # the classical two-sided shift table; its honest truncation has a
        # singular frame operator, so the generic path would refuse it
        table = framekit.pasf.shift_dilation_table(P.m)
    else:
        tol = tolerance(cfg, 1e-8)
        big = framekit.pasf.dilate(P)
        riesz_resid = framekit.pasf.riesz_residual(big)
        restrict = max(float(np.abs(big.F[:, :P.d] - P.F).max()),
                       float(np.abs(big.T[:P.d, :] - P.T).max()))
        R.check("restriction recovers the input pair", "theorem",
                restrict, 0.0)
        R.check("dilated pair is an approximate Riesz basis", "theorem",
                riesz_resid, tol)
        R.result.update({"dim": big.d, "added": big.d - P.d})
        table = [(big.T[:P.d, n], big.T[P.d:, n]) for n in range(big.m)]
    R.result["omega"] = [{"first": t, "second": s} for t, s in table]
    for n, (t, s) in enumerate(table, start=1):
        R.display.append(f"omega_{n} = {fmt_basis(t)} (+) {fmt_basis(s)}")


@command("pasf", "riesz")
def cmd_pasf_riesz(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_pasf(need_in(cfg))
    tol = tolerance(cfg, framekit.pasf.RIESZ_TOL)
    R.check("approximate Riesz basis: F S^-1 T = I", "theorem",
            framekit.pasf.riesz_residual(P), tol)


@command("pasf", "perturb",
         _file("--omega", "replacement vector matrix (d x m)"),
         _opt("--mode", choices=("quadratic", "general", "two_sided"),
              default="quadratic"),
         *_PERTURB,
         _opt("--case", type=int, default=1),
         _opt("--g", default=None, metavar="FILE"),
         _opt("--r", type=_nonnegative, default=0.0),
         _opt("--s", type=_nonnegative, default=0.0),
         _opt("--t", type=_nonnegative, default=0.0))
def cmd_pasf_perturb(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_pasf(need_in(cfg))
    Omega = parse_matrix(load_json(cfg.omega), "omega")
    mode = cfg.mode
    G = None
    if cfg.g is not None:
        G = parse_matrix(load_json(cfg.g), "G")
    rep = framekit.pasf.perturb_certificate(
        P, Omega, mode, alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma,
        case=cfg.case, G=G, r=cfg.r, s=cfg.s, t=cfg.t, seed=cfg.seed,
        samples=cfg.samples)
    kind = "sampled" if mode == "general" else "theorem"
    R.result.update({"mode": rep.mode, "valid": rep.valid,
                     "detail": rep.detail})
    if rep.predicted_bounds is not None:
        R.result["predicted"] = list(rep.predicted_bounds)
    R.check("perturbation hypothesis", kind, 0.0 if rep.valid else 1.0, 0.0)


@command("pasf", "expand",
         _file("--other", "reconstructing pair to borrow vectors from"),
         _opt("--lam", type=_finite, default=1.0))
def cmd_pasf_expand(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_pasf(need_in(cfg))
    Q = parse_pasf(load_json(cfg.other))
    tol = tolerance(cfg, 1e-10)
    exp = framekit.pasf.expand_to_asf(P, Q, cfg.lam)
    comb = exp.expanded
    resid = framekit.linops.identity_defect(comb.frame_operator)
    R.result.update({"n_min": exp.n_min, "appended": comb.m - P.m,
                     "expanded": dump_pasf(comb)})
    R.check("combined frame operator is the identity", "theorem", resid, tol)


# ---------------------------------------------------------------- sip


def _sip_setup(cfg: argparse.Namespace):
    P = parse_sip_pair(need_in(cfg), cfg.p)
    subset = subset_arg(cfg.subset, P.m)
    rng = np.random.default_rng(cfg.seed)
    x = vector_arg(cfg.x, P.d, rng, "--x")
    return P, subset, x


@command("sip", "identity", *_SIP)
def cmd_sip_identity(cfg: argparse.Namespace, R: ReportBuilder):
    P, subset, x = _sip_setup(cfg)
    tol = tolerance(cfg, 1e-8)
    resid = framekit.sip.general_identity_residual(P, subset, x)
    R.result.update({"p": P.p, "residual": resid})
    R.check("semi-inner-product frame identity", "theorem", resid, tol)


@command("sip", "parseval", *_SIP)
def cmd_sip_parseval(cfg: argparse.Namespace, R: ReportBuilder):
    P, subset, x = _sip_setup(cfg)
    tol = tolerance(cfg, 1e-8)
    resid = framekit.sip.parseval_identity_residual(P, subset, x)
    op_resid = framekit.sip.operator_identity_residual(P, subset)
    R.result.update({"p": P.p, "residual": resid,
                     "operator_residual": op_resid})
    R.check("Parseval identity on the sample vector", "theorem", resid, tol)
    R.check("operator identity S_M - S_M^2 = S_Mc - S_Mc^2", "theorem",
            op_resid, tol)


@command("sip", "lower34", *_SIP)
def cmd_sip_lower34(cfg: argparse.Namespace, R: ReportBuilder):
    P, subset, x = _sip_setup(cfg)
    slack = tolerance(cfg, 1e-9)
    rep = framekit.sip.lower_bound_check(P, subset, x)
    R.result.update({"condition_value": rep.condition_value,
                     "condition_holds": rep.condition_holds,
                     "value": rep.value, "floor": rep.floor})
    if rep.condition_holds:
        R.check("3/4 lower bound under the sign condition", "theorem",
                rep.deficit, slack)
    else:
        R.display.append("sign condition not met; the bound makes no claim")


# -------------------------------------------------------------- metric


@command("metric", "bounds",
         _opt("--family", required=True,
              help="family JSON file or named builder like 'log(1)'"),
         _opt("--terms", type=int, default=32),
         _opt("--p", type=_finite, default=1.0))
def cmd_metric_bounds(cfg: argparse.Namespace, R: ReportBuilder):
    S = parse_sample(need_in(cfg))
    fam = family_arg(cfg.family, S, cfg.terms)
    a, b = framekit.metricframe.metric_frame_bounds(S, fam, cfg.p)
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
def cmd_metric_logframe(cfg: argparse.Namespace, R: ReportBuilder):
    lo, hi = cfg.lo, cfg.hi
    if not 1.0 <= lo < hi:
        raise CliError(2, "--lo must be >= 1 and below --hi")
    rng = np.random.default_rng(cfg.seed)
    pts = np.sort(rng.uniform(lo, hi, cfg.points))
    S = framekit.metricframe.sample_from_points(pts, base=0)
    fam = framekit.metricframe.make_named_family(f"log({g(lo)})", S,
                                        cfg.terms)
    a, b = framekit.metricframe.metric_frame_bounds(S, fam, cfg.p)
    dev = framekit.metricframe.reconstruction_deviation(S, fam)
    tol = tolerance(cfg, 1e-6)
    R.result.update({"points": S.n, "terms": fam.m, "lower": a, "upper": b,
                     "remainder": fam.remainder,
                     "max_deviation": dev})
    R.display.append(f"bounds = ({g(a)}, {g(b)})")
    R.check("tail remainder certified below 1e-8", "theorem",
            fam.remainder, 1e-8)
    R.check("1-frame bounds equal (1, 1)", "theorem",
            max(abs(a - 1.0), abs(b - 1.0)), tol)
    # the float floor covers rounding in the telescoping sums
    R.check("reconstruction deviation within the remainder", "theorem",
            max(dev - fam.remainder, 0.0), 1e-12)


# ---------------------------------------------------------- multiplier


@command("multiplier", "apply", _opt("--point", type=int, required=True))
def cmd_multiplier_apply(cfg: argparse.Namespace, R: ReportBuilder):
    M = parse_multiplier(need_in(cfg))
    idx = cfg.point
    if not 0 <= idx < M.sample.n:
        raise CliError(2, f"--point must lie in [0, {M.sample.n})")
    out = framekit.multiplier.apply(M, idx)
    R.result.update({"point": idx, "value": out})


@command("multiplier", "lip")
def cmd_multiplier_lip(cfg: argparse.Namespace, R: ReportBuilder):
    M = parse_multiplier(need_in(cfg))
    tol = tolerance(cfg, 1e-9)
    rep = framekit.multiplier.lip_bound_check(M)
    R.result.update({"measured": rep.measured, "certified": rep.certified,
                     "b": rep.b, "b_source": rep.b_source,
                     "d": rep.d, "d_source": rep.d_source})
    R.check("Lipschitz number under b d ||symbol||_inf", "theorem",
            max(rep.measured - rep.certified, 0.0), tol)


@command("multiplier", "tail", _opt("--cut", type=int, required=True))
def cmd_multiplier_tail(cfg: argparse.Namespace, R: ReportBuilder):
    M = parse_multiplier(need_in(cfg))
    tol = tolerance(cfg, 1e-9)
    measured, bound = framekit.multiplier.tail_decay(M, cfg.cut)
    R.result.update({"cut": cfg.cut, "measured": measured, "bound": bound})
    R.check("tail Lipschitz number under the cut bound", "theorem",
            max(measured - bound, 0.0), tol)


@command("multiplier", "continuity",
         _opt("--symbol", default=None, help="replacement symbol, csv"),
         _opt("--vectors", default=None, metavar="FILE"))
def cmd_multiplier_continuity(cfg: argparse.Namespace, R: ReportBuilder):
    M = parse_multiplier(need_in(cfg))
    tol = tolerance(cfg, 1e-9)
    symbol = cfg.symbol
    vectors = cfg.vectors
    if (symbol is None) == (vectors is None):
        raise CliError(2, "pass exactly one of --symbol, --vectors")
    if symbol is not None:
        lam2 = csv_floats(symbol, "--symbol")
        measured, bound = framekit.multiplier.continuity(M, symbol=lam2)
        moved = "symbol"
    else:
        Tau2 = parse_matrix(load_json(vectors), "vectors")
        measured, bound = framekit.multiplier.continuity(M, vectors=Tau2)
        moved = "vectors"
    R.result.update({"moved": moved, "measured": measured, "bound": bound})
    R.check("continuity bound on the moved " + moved, "theorem",
            max(measured - bound, 0.0), tol)


# ----------------------------------------------------------------- ovf


@command("ovf", "check")
def cmd_ovf_check(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    rep = framekit.ovf.check(P)
    R.result.update({"d": P.d, "r": P.r, "m": P.m, "is_ovf": rep.is_ovf,
                     "lower": rep.lower, "upper": rep.upper})
    R.display.append(f"bounds = ({g(rep.lower)}, {g(rep.upper)})")
    R.check("frame operator invertible", "theorem",
            0.0 if rep.is_ovf else 1.0, 0.0)


@command("ovf", "dual")
def cmd_ovf_dual(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    tol = tolerance(cfg, 1e-10)
    Q = framekit.ovf.canonical_dual(P)
    back = framekit.ovf.canonical_dual(Q)
    R.result["dual"] = dump_ovf(Q)
    R.check("duality: sum Psi_n* B_n = sum Phi_n* A_n = I", "theorem",
            framekit.ovf.duality_residual(P, Q), tol)
    R.check("dual of the dual returns the pair", "theorem",
            framekit.ovf.block_gap(back, P), tol)


@command("ovf", "similar", _file("--other"))
def cmd_ovf_similar(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    Q = parse_ovf(load_json(cfg.other))
    tol = tolerance(cfg, framekit.ovf.SIMILAR_TOL)
    got = framekit.ovf.similarity(P, Q, tol)
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
def cmd_ovf_classify(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    got = framekit.ovf.classify(P)
    R.result.update({"riesz": got.riesz, "orthonormal": got.orthonormal})
    R.display.append(f"riesz = {got.riesz}, orthonormal = {got.orthonormal}")


@command("ovf", "dilate")
def cmd_ovf_dilate(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    tol = tolerance(cfg, 1e-8)
    dil = framekit.ovf.dilate(P)
    big = dil.pair
    R.result.update({"dim": big.d, "added": big.d - P.d})
    R.check("restriction recovers the input pair", "theorem",
            framekit.ovf.block_gap(dil.restrict(), P), 0.0)
    R.check("dilated pair is orthonormal", "theorem",
            framekit.ovf.orthonormal_gap(big), tol)


@command("ovf", "group",
         _opt("--rep", required=True,
              help="'c4' or a JSON file with labels and matrices"),
         _file("--a"), _file("--psi"),
         needs_in=False)
def cmd_ovf_group(cfg: argparse.Namespace, R: ReportBuilder):
    rep = parse_group_rep(cfg.rep)
    A = parse_matrix(load_json(cfg.a), "A")
    Psi = parse_matrix(load_json(cfg.psi), "Psi")
    tol = tolerance(cfg, 1e-10)
    got = framekit.ovf.group_generated(rep, A, Psi)
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
def cmd_ovf_perturb(cfg: argparse.Namespace, R: ReportBuilder):
    P = parse_ovf(need_in(cfg))
    B = parse_ovf_stack(load_json(cfg.b), P.A.shape, "B")
    tol = tolerance(cfg, 1e-9)
    mode = cfg.mode
    rep = framekit.ovf.perturb_certificate(
        P, B, mode, alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma,
        samples=cfg.samples, seed=cfg.seed)
    got = framekit.ovf.check(framekit.ovf.OvfPair(B, P.Psi))
    kind = "theorem" if mode == "quadratic" else "sampled"
    lo, hi = rep.predicted_bounds
    R.result.update({"mode": rep.mode, "predicted": [lo, hi],
                     "measured": [got.lower, got.upper]})
    R.check("perturbation hypothesis", kind, 0.0 if rep.valid else 1.0, 0.0)
    R.check("measured bounds inside the predicted window", "theorem",
            max(lo - got.lower, got.upper - hi, 0.0), tol)


# ------------------------------------------------------------ vsdilate
# Every vsdilate check is exact: residual 0 against tolerance 0. No verb
# here takes --tol.


def _exact_in(cfg: argparse.Namespace, key: str = None) -> np.ndarray:
    obj = need_in(cfg) if key is None else load_json(getattr(cfg, key))
    name = "matrix" if key is None else key
    data = parse_matrix(obj, name, exact=True)
    return framekit.vsdilate.as_exact(data, cfg.rational)


@command("vsdilate", "halmos", _RATIONAL)
def cmd_vsdilate_halmos(cfg: argparse.Namespace, R: ReportBuilder):
    T = _exact_in(cfg)
    quad = framekit.vsdilate.halmos(T)
    # the one operator a report writes out, filled out once from its form
    U = quad.U.dense(Fraction(0))
    R.result.update({"dim": int(U.shape[0]), "U": dump_matrix(U)})
    R.check("compression of U returns T", "theorem",
            quad.compression_defects(T, 1)[0], 0.0)
    R.check("P is idempotent", "theorem", quad.idempotent_defect(), 0.0)
    R.check("closed-form inverse of U", "theorem", quad.inverse_defect(), 0.0)


@command("vsdilate", "ndilate", _RATIONAL, _N)
def cmd_vsdilate_ndilate(cfg: argparse.Namespace, R: ReportBuilder):
    T = _exact_in(cfg)
    N = cfg.n
    nd = framekit.vsdilate.n_dilation(T, N)
    *inside, (_, beyond) = nd.table
    R.result.update({"horizon": nd.horizon, "table": [
        {"k": k, "defect": dft} for k, dft in nd.table]})
    R.check(f"power dilation exact for k <= {N}", "theorem",
            max(dft for _, dft in inside), 0.0)
    R.display.append(f"defect at k = {N + 1} (beyond the horizon): "
                     f"{g(beyond)}")


@command("vsdilate", "sznagy", _RATIONAL,
         _opt("--window", type=int, required=True))
def cmd_vsdilate_sznagy(cfg: argparse.Namespace, R: ReportBuilder):
    T = _exact_in(cfg)
    w = cfg.window
    bw = framekit.vsdilate.banded_sznagy(T, w)
    R.result.update({"window": w, "valid_horizon": bw.valid_horizon})
    R.check(f"windowed powers compress exactly for n <= {bw.valid_horizon}",
            "theorem", bw.compression_defect(), 0.0)
    R.check("V U = I on the interior block columns", "theorem",
            bw.interior_identity_defect(), 0.0)


@command("vsdilate", "standard", _RATIONAL, _HORIZON)
def cmd_vsdilate_standard(cfg: argparse.Namespace, R: ReportBuilder):
    T = _exact_in(cfg)
    K = cfg.horizon
    sd = framekit.vsdilate.standard_dilation(T, K)
    R.result["horizon"] = K
    R.check(f"I T^n = P U^n I for n <= {K}", "theorem",
            sd.dilation_defect(), 0.0)
    R.check("P is idempotent", "theorem",
            sd.quadruple.idempotent_defect(), 0.0)
    R.check("dilation is minimal (orbit spans the space)", "theorem",
            0.0 if sd.minimality_check() else 1.0, 0.0)


@command("vsdilate", "ando", _RATIONAL, _file("--other"), _HORIZON)
def cmd_vsdilate_ando(cfg: argparse.Namespace, R: ReportBuilder):
    T = _exact_in(cfg)
    S = _exact_in(cfg, "other")
    K = cfg.horizon
    gap = framekit.vsdilate.intertwining_gap(T, S)
    if not R.check("inputs commute: T S = S T", "theorem", gap, 0.0):
        return
    ad = framekit.vsdilate.ando_like(T, S, K)
    R.result["horizon"] = K
    R.check(f"joint powers dilate exactly for n, m <= {K}", "theorem",
            ad.dilation_defect(), 0.0)
    R.check("zero-pad identity V U = U V = joint shift", "theorem",
            0.0 if ad.pad_identity_check() else 1.0, 0.0)


@command("vsdilate", "intertwine", _RATIONAL, _file("--other"),
         _file("--s", "intertwining matrix"), _HORIZON)
def cmd_vsdilate_intertwine(cfg: argparse.Namespace, R: ReportBuilder):
    T1 = _exact_in(cfg)
    T2 = _exact_in(cfg, "other")
    S = _exact_in(cfg, "s")
    gap = framekit.vsdilate.intertwining_gap(T1, S, T2)
    if not R.check("inputs intertwine: T1 S = S T2", "theorem", gap, 0.0):
        return
    lift = framekit.vsdilate.intertwine_lift(T1, T2, S, cfg.horizon)
    R.check("lifted shift identity U1 R = R U2", "theorem",
            lift.shift_defect, 0.0)
    R.check("lifted projection identity R P2 = P1 R", "theorem",
            lift.projection_defect, 0.0)
    R.check("lifted embedding identity R I2 = I1 S", "theorem",
            lift.embedding_defect, 0.0)


@command("vsdilate", "witness", _RATIONAL)
def cmd_vsdilate_witness(cfg: argparse.Namespace, R: ReportBuilder):
    T = _exact_in(cfg)
    wit = framekit.vsdilate.non_similarity_witness(T)
    R.result.update({"trace_asymmetric": wit.trace_asymmetric,
                     "trace_halmos": wit.trace_halmos,
                     "distinct": wit.distinct, "conclusive": wit.conclusive})
    if wit.conclusive:
        R.display.append("traces differ: the two dilations are not similar")
    else:
        R.display.append("trace of T vanishes; the witness is inconclusive")


# --------------------------------------------------------------- cuntz


@command("cuntz", "solve", _N,
         _opt("--max-iters", type=_count, default=200),
         needs_in=False)
def cmd_cuntz_solve(cfg: argparse.Namespace, R: ReportBuilder):
    n = cfg.n
    iter_tol = tolerance(cfg, 1e-10)
    cert_tol = tolerance(cfg, 1e-8)
    sol = framekit.cuntz.solve_b(n, max_iters=cfg.max_iters, tol=iter_tol)
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
def cmd_cuntz_build(cfg: argparse.Namespace, R: ReportBuilder):
    n, mu = cfg.n, cfg.mu
    built = framekit.cuntz.build_DX(n, mu, tol=tolerance(cfg, 1e-10))
    D, X = framekit.cuntz.dx_matrices(built.solution, mu)
    R.result.update({"n": n, "mu": mu, "delta": built.delta,
                     "D_norm": interval(built.D_interval),
                     "X_norm": interval(built.X_interval),
                     "error_bound": built.error_bound,
                     "b_bounds": dict(built.b_bounds),
                     "D": dump_word_matrix(D),
                     "X": dump_word_matrix(X)})
    R.display.append(
        f"||D|| in [{g(built.D_interval.lo)}, {g(built.D_interval.hi)}], "
        f"||X|| in [{g(built.X_interval.lo)}, {g(built.X_interval.hi)}], "
        f"||[D, X] - I|| <= {g(built.error_bound)}")
    ok = framekit.cuntz.lemma_structure(n, Fraction(mu)).ok
    R.check("[D, X] - I is supported on the last column "
            "(coefficient-exact)", "theorem", 0.0 if ok else 1.0, 0.0)


@command("cuntz", "verify",
         _opt("--n-range", default="6:12:2",
              help="start:stop:step, stop included"),
         _MU,
         needs_in=False)
def cmd_cuntz_verify(cfg: argparse.Namespace, R: ReportBuilder):
    ns = _parse_range(cfg.n_range)
    mu = cfg.mu
    reports = [framekit.cuntz.build_DX(n, mu, tol=tolerance(cfg, 1e-10))
               for n in ns]
    # ||D|| grows like n^5; this ratio stays bounded
    scales = [rep.D_interval.hi / rep.n**5 for rep in reports]
    rows = []
    for rep, scale in zip(reports, scales):
        rows.append({"n": rep.n, "D": interval(rep.D_interval),
                     "X": interval(rep.X_interval),
                     "error_bound": rep.error_bound,
                     "residual": rep.solution.residual, "d_scale": scale})
        R.display.append(f"n = {rep.n}: ||D|| <= {g(rep.D_interval.hi)}, "
                         f"||X|| <= {g(rep.X_interval.hi)}, error bound "
                         f"{g(rep.error_bound)}")
    R.result["rows"] = rows
    R.check("fixed-point residuals under 1e-8", "theorem",
            max(rep.solution.residual for rep in reports), 1e-8)
    R.check("||X|| hi-bound stays under 2 across n", "theorem",
            max(rep.X_interval.hi for rep in reports), 2.0)
    R.check("||D|| hi-bound tracks n^5 (scale spread under 1.1)", "theorem",
            max(scales) / min(scales), 1.1)
    for first, second in zip(reports, reports[1:]):
        ratio = second.error_bound / first.error_bound
        ref = framekit.cuntz.decay_reference(first.n, second.n)
        off = max(ratio / ref, ref / ratio)
        R.check(f"error decay n = {first.n} -> {second.n} tracks n^3 2^-n",
                "theorem", off, 1.1)


@command("cuntz", "obstruction",
         _opt("--dim", type=_count, default=5),
         _opt("--trials", type=_count, default=1000),
         needs_in=False)
def cmd_cuntz_obstruction(cfg: argparse.Namespace, R: ReportBuilder):
    dim, trials = cfg.dim, cfg.trials
    tol = tolerance(cfg, 1e-9)
    rng = np.random.default_rng(cfg.seed)
    worst = float("inf")
    # the stream of one D and then one X per trial, CHUNK entries a draw
    step = max(1, framekit.linops.CHUNK // (2 * dim * dim))
    for done in range(0, trials, step):
        z = rng.standard_normal((min(step, trials - done), 2, dim, dim))
        norms = framekit.cuntz.finite_obstruction(z[:, 0], z[:, 1])
        worst = min(worst, float(norms.min()))
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
    """Prints a usage error as "error: ..." first; takes no option prefix."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    tol = _Parser(add_help=False)
    tol.add_argument("--tol", type=_nonnegative, default=None,
                     help="override the default tolerance of the checks")
    shared = _Parser(add_help=False)
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
    top._verbs = {}  # (group, verb) -> its subparser, for main
    for (group, verb), (needs_in, options) in _OPTIONS.items():
        # every vsdilate check is exact, so its verbs take no --tol
        sub = top._verbs[group, verb] = verbs[group].add_parser(
            verb, parents=[shared] if group == "vsdilate" else [tol, shared])
        if needs_in:
            sub.add_argument("--in", dest="in_path", required=True,
                             metavar="FILE", help="input JSON file")
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the tree as it was, so one serves every main call
    return build_parser()


_SHARED_KEYS = ("group", "verb", "in_path", "out", "tol", "seed", "json")


def config_from(args: argparse.Namespace) -> dict:
    """The report's record of one parsed invocation: the shared options,
    then every option of the verb under its argparse name."""
    cfg = {"command": f"{args.group} {args.verb}",
           "format": "json" if args.json else "text",
           "in": getattr(args, "in_path", None), "out": args.out,
           "seed": args.seed, "tol": getattr(args, "tol", None)}
    cfg.update({k: v for k, v in vars(args).items() if k not in _SHARED_KEYS})
    return cfg


def run(args: argparse.Namespace) -> tuple:
    """Execute one command; returns (exit_code, report)."""
    handler = _HANDLERS[(args.group, args.verb)]
    R = ReportBuilder()
    error = None
    try:
        # canonical() refuses a non-finite result; no numpy warning first
        with np.errstate(all="ignore"):
            handler(args, R)
    except CertifiedFailure as exc:
        error = f"{type(exc).__name__}: {exc}"
    except ValueError as exc:
        raise CliError(2, f"invalid input: {exc}") from exc
    except ArithmeticError as exc:
        raise CliError(2, "out of floating-point range: "
                          f"{type(exc).__name__}: {exc}") from exc
    status = "pass" if error is None and R.passed else "fail"
    config = config_from(args)
    report = {"command": config["command"], "config": config,
              "display": R.display, "result": R.result,
              "checks": R.checks, "status": status}
    if error is not None:
        report["error"] = error
    return (0 if status == "pass" else 1), report


def main(argv=None) -> int:
    """Runs one command line and returns its exit status. A verb's own
    subparser parses it; the tree serves only help and bad commands."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if sub := _parser()._verbs.get(tuple(argv[:2])):
            args, extra = sub.parse_known_args(
                argv[2:], argparse.Namespace(group=argv[0], verb=argv[1]))
        if not sub or extra:  # the tree refuses a word left over
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, report = run(args)
        payload = canonical(report)
        text = payload if args.json else render_text(report)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # a bug: exit 3 with one line, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    try:
        if sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        print(text, flush=True)
    except OSError as exc:  # a pipe its reader closed, a full disk, ...
        if sys.stdout is not None:
            # the exit flush of what is left in the buffer goes nowhere
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}",
                  file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
