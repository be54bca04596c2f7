"""Every function-body statement of ``src/framekit`` runs under some golden
record, or is listed in ``ALLOWED`` with the reason it may not.

One child process runs every argv of ``tests/golden/expected.json`` through
``cli.main``, from ``tests/golden`` as the golden gate does. A
``sys.settrace`` line collector is installed before ``framekit`` is
imported, so what runs at import counts too. The statements are those of
function and method bodies, found with ``ast`` (a docstring is not one; a
nested ``def`` is a statement of the function around it, and its body is
its own). A simple statement is reached when any of its lines runs, a
compound one (``if``, ``for``, ``try``, ...) when a line of its header
does.

``ALLOWED`` keys an unreached statement by module, function and the
stripped text of its first line, with how many such statements there are,
and gives the reason it stays. The list may only shrink: an entry that is
now reached, or that no longer exists, must leave it too.

Run as a script, ``PYTHONPATH=src python tests/test_line_reach.py``
prints each unreached statement as ``module:line  function  text`` and
writes no file.
"""

import ast
import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

import framekit

SRC = pathlib.Path(framekit.__file__).parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# Runs in tests/golden with argv[1] the package directory; prints the
# lines run in each module of it, as JSON.
CHILD = """
import contextlib, io, json, os, sys
pkg, lines = sys.argv[1], {}

def local(frame, event, arg):
    if event == "line":
        lines[frame.f_code.co_filename].add(frame.f_lineno)
    return local

def collect(frame, event, arg):
    name = frame.f_code.co_filename
    if os.path.dirname(name) != pkg:
        return None
    lines.setdefault(name, set())
    return local

sys.settrace(collect)
from framekit import cli
with open("expected.json", encoding="utf-8") as fh:
    argvs = [rec["argv"] for rec in json.load(fh)]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
sys.settrace(None)
print(json.dumps({os.path.basename(k)[:-3]: sorted(v)
                  for k, v in lines.items()}))
"""

# Why an unreached statement stays. A check on input stays until a usage
# record reaches it; a guard against a bug is forced by the test named.
INPUT = "a check on JSON or argv input"
INVARIANT = ("an invariant of a constructor or converter that computed "
             "values pass through")
LEAF = ("a numpy scalar that no report holds; tests/test_cli.py::"
        "test_report_leaves_encode_to_fixed_bytes writes each")
LEAF_BUG = ("a guard against a bug, exit 3: a report leaf json cannot write; "
            "tests/test_cli.py::"
            "test_a_report_leaf_of_unknown_type_exits_three forces it")
BUG = ("a guard against a bug, exit 3 with one line; tests/test_cli.py::"
       "test_internal_error_exits_three forces it")
STDOUT = ("standard output closed or gone, as a golden record's never is; "
          "tests/test_cli.py::test_a_closed_stdout_exits_two_without_"
          "traceback and ::test_a_verb_started_without_stdout_exits_two")
OUT = ("--out writes a file, and a golden record writes none; "
       "tests/test_cli.py::test_out_writes_canonical_json")
OUT_FAILED = ("an --out file that cannot be written; tests/test_cli.py::"
              "test_an_out_file_that_cannot_be_written_exits_two")
WRITE_FAILED = ("exit 2 after a failed write: one each for STDOUT and "
                "OUT_FAILED")
COMPLEX_TABLE = ("a complex entry in a pasf dilate table; every golden pair "
                 "is real")
CANCEL = "a sum of Cuntz words that cancels; no golden sum does"
PRUNE = "a word product below WORD_PRUNE; no golden product is that small"
OPAQUE = ("a guard: an opaque symbol meets a starred generator; "
          "tests/test_cuntz.py::test_opaque_symbol_collision_raises")
ZERO_SCALAR = "a polynomial times the scalar 0, which no golden lemma forms"
POLY_INVERSE = ("a guard: the lemma inverts only the unit monomials mu and "
                "delta")
FRACTION = ("the lemma's Fraction fallback, for a cell its symbols cannot "
            "settle; tests/test_cuntz.py::"
            "test_lemma_evaluates_a_term_that_vanishes_only_at_mu")
RANK = "a guard: pasf.dilate of a frame's pair adds m - d vectors"
NONFINITE = ("reads the vector again when its norm is not finite, to refuse "
             "the non-finite entry")
ZERO_ROW = "a zero row in the p-norm ascent; no golden operator gives one"
SVD_FAILED = "an SVD that does not converge"
ZERO_ITERATE = "a zero ascent iterate; no golden operator gives one"
SHAPES = ("a guard: the constructions' shape checks refuse unequal shapes "
          "first")
SCALED_BLOCK = ("c times a block for an int c other than 1; no golden run "
                "forms one")
FIELDS = "a guard against a bug: a rational form met with a generic one"
GENERIC_FORM = ("an object array of other than Fractions; as_exact reads "
                "every vsdilate input into Fractions")
INT_BLOCKS = "two int blocks that differ; no golden defect compares them"

# (module, function, first line of the statement): (count, reason)
ALLOWED = {
    ("cli", "_leaf", "return bool(x)"): (1, LEAF),
    ("cli", "_leaf", "return int(x)"): (1, LEAF),
    ("cli", "_leaf", "return float(x)"): (1, LEAF),
    ("cli", "_leaf", 'raise TypeError(f"cannot serialize {type(x).__name__}")'): (1, LEAF_BUG),
    ("cli", "_fields", 'raise CliError(2, f"{where}: expected an object")'): (1, INPUT),
    ("cli", "_fields", 'raise CliError(2, f"{where}: missing \'{key}\'")'): (1, INPUT),
    ("cli", "_floats", "raise CliError(2, message) from None"): (1, INPUT),
    ("cli", "_grid", 'raise CliError(2, f"{where}: \'{key}\' must be {rows} x {cols}")'): (1, INPUT),
    ("cli", "parse_matrix", 'raise CliError(2, f"{where}: entries must be finite")'): (1, INPUT),
    ("cli", "parse_matrix", 'raise CliError(2, f"{where}: rational commands take real matrices")'): (1, INPUT),
    ("cli", "parse_matrix", 'raise CliError(2, f"{where}: \'re\' must be {rows} x {cols}")'): (1, INPUT),
    ("cli", "_matrices", 'raise CliError(2, f"{where}: expected a nonempty list of Matrix "'): (1, INPUT),
    ("cli", "parse_vector_field", 'raise CliError(2, f"{where}: expected a single column or row")'): (1, INPUT),
    ("cli", "parse_vector_field", 'raise CliError(2, f"{where}: expected a list or Matrix object")'): (1, INPUT),
    ("cli", "parse_vector_field", 'raise CliError(2, f"{where}: expected a flat list")'): (1, INPUT),
    ("cli", "parse_frame", 'raise CliError(2, "frame file: needs a nonempty \'vectors\' list")'): (1, INPUT),
    ("cli", "parse_frame", 'raise CliError(2, "frame file: \'field\' must be \'R\' or \'C\'")'): (1, INPUT),
    ("cli", "parse_frame", "raise CliError(2, disagree)"): (1, INPUT),
    ("cli", "parse_frame", 'raise CliError(2, "frame file: field \'R\' but vectors carry "'): (1, INPUT),
    ("cli", "parse_pasf", 'raise CliError(2, f"pair file: unknown named pair {obj[\'named\']!r}")'): (1, INPUT),
    ("cli", "parse_sip_pair", 'raise CliError(2, "no exponent: pass --p or put \'p\' in the file")'): (1, INPUT),
    ("cli", "parse_ovf", 'raise CliError(2, "pair file: \'A\' and \'Psi\' must be equal-length "'): (1, INPUT),
    ("cli", "parse_ovf", 'raise CliError(2, "pair file: all blocks must share one r x d shape")'): (1, INPUT),
    ("cli", "parse_ovf", 'raise CliError(2, f"pair file: \'{key}\' disagrees with the blocks")'): (1, INPUT),
    ("cli", "parse_ovf_stack", 'raise CliError(2, f"{where}: expected {shape[0]} blocks")'): (1, INPUT),
    ("cli", "parse_group_rep", 'raise CliError(2, "rep file: needs equal-length \'labels\' and "'): (1, INPUT),
    ("cli", "csv_floats", 'raise CliError(2, f"{what}: expected comma-separated numbers") from None'): (1, INPUT),
    ("cli", "csv_floats", 'raise CliError(2, f"{what}: empty list")'): (1, INPUT),
    ("cli", "vector_arg", 'raise CliError(2, f"{what}: expected {size} entries, got {v.size}")'): (1, INPUT),
    ("cli", "subset_arg", 'raise CliError(2, "--subset: expected comma-separated indices") from None'): (1, INPUT),
    ("cli", "subset_arg", 'raise CliError(2, "--subset: empty index list")'): (1, INPUT),
    ("cli", "fmt_basis.one", 'return f"{g(z.real)}{z.imag:+.12g}i"'): (1, COMPLEX_TABLE),
    ("cli", "_parse_range", 'raise CliError(2, "--n-range: expected start:stop[:step]") from None'): (1, INPUT),
    ("cli", "_parse_range", 'raise CliError(2, "--n-range: need at least two sizes for the "'): (1, INPUT),
    ("cli", "main", 'print(f"error: internal error: {type(exc).__name__}: {exc}",'): (1, BUG),
    ("cli", "main", "return 3"): (1, BUG),
    ("cli", "main", "raise OSError(errno.EBADF, os.strerror(errno.EBADF))"): (1, STDOUT),
    ("cli", "main", "if sys.stdout is not None:"): (1, STDOUT),
    ("cli", "main", "null = os.open(os.devnull, os.O_WRONLY)"): (1, STDOUT),
    ("cli", "main", "os.dup2(null, sys.stdout.fileno())"): (1, STDOUT),
    ("cli", "main", "os.close(null)"): (1, STDOUT),
    ("cli", "main", 'print(f"error: cannot write standard output: {exc}", file=sys.stderr)'): (1, STDOUT),
    ("cli", "main", "return 2"): (2, WRITE_FAILED),
    ("cli", "main", "try:"): (1, OUT),
    ("cli", "main", 'with open(args.out, "w", encoding="utf-8") as fh:'): (1, OUT),
    ("cli", "main", 'fh.write(payload + "\\n")'): (1, OUT),
    ("cli", "main", 'print(f"error: cannot write {args.out}: {exc}",'): (1, OUT_FAILED),
    ("cuntz", "CuntzElement.__add__", "del t[k]"): (1, CANCEL),
    ("cuntz", "CuntzElement.__mul__", "continue"): (1, PRUNE),
    ("cuntz", "_word_mul", "raise ValueError("): (1, OPAQUE),
    ("cuntz", "_Poly.__rmul__", "return _Poly()"): (1, ZERO_SCALAR),
    ("cuntz", "_Poly.__pow__", 'raise ValueError("only a unit scalar monomial has an inverse")'): (1, POLY_INVERSE),
    ("cuntz", "lemma_structure.equal", "value = {}"): (1, FRACTION),
    ("cuntz", "lemma_structure.equal", "for (w, i, j), c in (p - q).items():"): (1, FRACTION),
    ("cuntz", "lemma_structure.equal", "value[w] = value.get(w, 0) + c * mu**i * delta**j"): (1, FRACTION),
    ("cuntz", "lemma_structure.equal", "return not any(value.values())"): (1, FRACTION),
    ("hframe", "HilbertFrame.from_vectors", 'raise ValueError("frame vectors must share a dimension")'): (1, INPUT),
    ("hframe", "frame_algorithm", 'raise NotAFrame("reconstruction requires a frame")'): (1, INPUT),
    ("hframe", "frame_identity_residuals", 'raise ValueError("frame operator is not the identity within 1e-8")'): (1, INPUT),
    ("hframe", "naimark_dilate", 'raise NotAFrame("coefficient projection has unexpected rank")'): (1, RANK),
    ("hframe", "perturb_certificate", 'raise ValueError("families must share shape")'): (1, INPUT),
    ("hframe", "perturb_certificate", 'raise NotAFrame("perturbation certificates require a frame")'): (1, INPUT),
    ("hframe", "perturb_certificate", "raise HypothesisViolated("): (1, INPUT),
    ("hframe", "harmonic_frame", 'raise ValueError("need 1 <= n <= m")'): (1, INPUT),
    ("hframe", "lines_frame", 'raise ValueError("need n >= 2")'): (1, INPUT),
    ("hframe", "make_named_frame", 'raise ValueError(f"{name} expects {arity} integer argument(s)")'): (1, INPUT),
    ("hframe", "make_named_frame", 'raise ValueError(f"unknown named frame: {spec!r}")'): (1, INPUT),
    ("linops", "NormInterval.__post_init__", 'raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")'): (1, INVARIANT),
    ("linops", "NormInterval.__post_init__", 'raise ValueError("norm interval must be nonnegative")'): (1, INVARIANT),
    ("linops", "as_matrix", "m = m.reshape(1, -1)"): (1, INVARIANT),
    ("linops", "as_matrix", 'raise ValueError("expected a nonempty 2-d matrix")'): (1, INVARIANT),
    ("linops", "as_matrix", 'raise ValueError("matrix entries must be finite")'): (1, INVARIANT),
    ("linops", "as_vector", 'raise ValueError("expected a nonempty vector")'): (1, INVARIANT),
    ("linops", "as_vector", 'raise ValueError("vector entries must be finite")'): (1, INVARIANT),
    ("linops", "_check_p", 'raise ValueError("p must satisfy 1 <= p <= inf")'): (1, INVARIANT),
    ("linops", "_pnorm_rows", "as_vector(row)"): (1, NONFINITE),
    ("linops", "_dual_rows", "G = np.zeros_like(Y)"): (1, ZERO_ROW),
    ("linops", "_dual_rows", "if live.any():"): (1, ZERO_ROW),
    ("linops", "_dual_rows", "G[live] = _dual_rows(Y[live], p, q, ay[live])"): (1, ZERO_ROW),
    ("linops", "_dual_rows", "return G"): (1, ZERO_ROW),
    ("linops", "_ascent_lower", "pass"): (1, SVD_FAILED),
    ("linops", "_ascent_lower", "done += val[~go].tolist()"): (1, ZERO_ITERATE),
    ("linops", "_ascent_lower", "X, nx, val = X[go], nx[go], val[go]"): (1, ZERO_ITERATE),
    ("linops", "_Sparse.__matmul__", 'raise ValueError(f"cannot multiply a {self.shape} matrix by a "'): (1, SHAPES),
    ("linops", "_Sparse.__mul__", "return _Sparse([[(j, x * other) for j, x in row]"): (1, SCALED_BLOCK),
    ("linops", "_rational", 'raise TypeError("cannot combine a rational form with a generic one")'): (1, FIELDS),
    ("linops", "_form", "return _Sparse(rows, M.shape[1])"): (1, GENERIC_FORM),
    ("metricframe", "MetricSample.__post_init__", 'raise ValueError("distance table must be square and match the points")'): (1, INPUT),
    ("metricframe", "MetricSample.__post_init__", 'raise ValueError("distances must be finite")'): (1, INPUT),
    ("metricframe", "MetricSample.__post_init__", 'raise ValueError("distances must be nonnegative")'): (1, INPUT),
    ("metricframe", "MetricSample.__post_init__", 'raise ValueError("diagonal must be zero")'): (1, INPUT),
    ("metricframe", "MetricSample.__post_init__", 'raise ValueError("distance table must be symmetric")'): (1, INPUT),
    ("metricframe", "MetricSample.__post_init__", 'raise ValueError("base must be an integer point index")'): (1, INPUT),
    ("metricframe", "MetricSample.__post_init__", 'raise ValueError("base index out of range")'): (1, INPUT),
    ("metricframe", "LipschitzFamily.__post_init__", 'raise ValueError("expected an m x N value table")'): (1, INPUT),
    ("metricframe", "LipschitzFamily.__post_init__", 'raise ValueError("family values must be finite")'): (1, INPUT),
    ("metricframe", "LipschitzFamily.__post_init__", 'raise ValueError("remainder must be finite and nonnegative")'): (1, INPUT),
    ("metricframe", "_check_sizes", 'raise ValueError("family table does not match the sample size")'): (1, INPUT),
    ("metricframe", "_check_sizes", 'raise ValueError("need at least 2 points")'): (1, INPUT),
    ("metricframe", "_over_dist", 'raise ValueError("points at distance 0 take different values: "'): (1, INPUT),
    ("metricframe", "metric_frame_bounds", 'raise ValueError("metric p-frames need 1 <= p < inf")'): (1, INPUT),
    ("metricframe", "metric_frame_bounds", 'raise ValueError("degenerate sample: all pairwise distances are 0")'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError(f"unknown family {name!r}; use log(a) or rational(a,b)")'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError("need at least one term")'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError("named families need numeric point labels") from None'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError("log takes a single parameter: log(a)")'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError("log family needs a >= 1")'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError("sample leaves the domain [a, inf)")'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError("too few terms to certify the tail: need m > log(max point)")'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError("rational takes two parameters: rational(a,b)")'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError("rational family needs 1 < a <= b")'): (1, INPUT),
    ("metricframe", "make_named_family", 'raise ValueError("sample leaves the domain [a, b]")'): (1, INPUT),
    ("metricframe", "reconstruction_deviation", 'raise ValueError("reconstruction needs a pointed sample")'): (1, INPUT),
    ("metricframe", "reconstruction_deviation", 'raise ValueError("reconstruction needs numeric point labels") from None'): (1, INPUT),
    ("multiplier", "Multiplier.__post_init__", 'raise ValueError("multipliers need 1 < p < inf")'): (1, INPUT),
    ("multiplier", "Multiplier.__post_init__", 'raise ValueError("multipliers need a pointed sample")'): (1, INPUT),
    ("multiplier", "Multiplier.__post_init__", 'raise ValueError("family table does not match the sample")'): (1, INPUT),
    ("multiplier", "Multiplier.__post_init__", 'raise ValueError("family must vanish at the base point")'): (1, INPUT),
    ("multiplier", "Multiplier.__post_init__", 'raise ValueError("vectors and symbol must match the family length")'): (1, INPUT),
    ("multiplier", "Multiplier.__post_init__", 'raise ValueError(f"{name} must be positive")'): (1, INPUT),
    ("multiplier", "lip_bound_check", 'raise ValueError("need at least 2 points")'): (1, INPUT),
    ("multiplier", "tail_decay", 'raise ValueError("cut must lie in [0, m)")'): (1, INPUT),
    ("multiplier", "continuity", 'raise ValueError("replacement symbol has the wrong length")'): (1, INPUT),
    ("multiplier", "continuity", 'raise ValueError("replacement vectors have the wrong shape")'): (1, INPUT),
    ("ovf", "OvfPair.__post_init__", 'raise ValueError("A and Psi must be equal-shape (m, r, d) stacks")'): (1, INVARIANT),
    ("ovf", "OvfPair.__post_init__", 'raise ValueError(f"{name} must be finite")'): (1, INVARIANT),
    ("ovf", "similarity", 'raise ValueError("shape mismatch")'): (1, INPUT),
    ("ovf", "dilate", 'failures.append("analysis ranges differ")'): (1, INPUT),
    ("ovf", "dilate", 'failures.append("idempotent is not an orthogonal projection")'): (1, INPUT),
    ("ovf", "_group_table", 'raise ValueError("representation must contain identity and inverses")'): (1, INPUT),
    ("ovf", "perturb_certificate", "raise HypothesisViolated("): (2, INPUT),
    ("pasf", "PAsf.__post_init__", 'raise ValueError("p must satisfy 1 <= p < inf")'): (1, INPUT),
    ("pasf", "PAsf.__post_init__", 'raise ValueError("F must be m x d and T d x m")'): (1, INVARIANT),
    ("pasf", "shift_pair", 'raise ValueError("need m >= 2")'): (1, INPUT),
    ("pasf", "dual_from_operators", 'raise NotADual("validity operator S^(-1) + VU - VFS^(-1)TU is singular")'): (1, INPUT),
    ("pasf", "similarity", 'raise ValueError("pairs must share shape and exponent")'): (1, INPUT),
    ("pasf", "perturb_certificate", 'raise ValueError("replacement vectors must be d x m")'): (1, INPUT),
    ("pasf", "perturb_certificate", "raise HypothesisViolated("): (1, INPUT),
    ("pasf", "perturb_certificate", 'raise ValueError("two_sided mode needs the replacement functionals G")'): (1, INPUT),
    ("pasf", "perturb_certificate", 'raise ValueError("replacement functionals must be m x d")'): (1, INPUT),
    ("pasf", "perturb_certificate", 'raise ValueError("case must be 1..4")'): (1, INPUT),
    ("pasf", "perturb_certificate", 'raise HypothesisViolated("need max(beta, s) < 1")'): (1, INPUT),
    ("pasf", "expand_to_asf", 'raise ValueError("pairs must act on the same space")'): (1, INPUT),
    ("pasf", "expand_to_asf", 'raise ValueError("Q must reconstruct: T_Q F_Q = I within 1e-9")'): (1, INPUT),
    ("sip", "SipPair.__post_init__", 'raise ValueError("need 1 < p < inf")'): (1, INPUT),
    ("sip", "SipPair.__post_init__", 'raise ValueError("Omega and Tau must share shape")'): (1, INPUT),
    ("sip", "lower_bound_check", 'raise ValueError("frame operator is not the identity within 1e-8")'): (1, INPUT),
    ("vsdilate", "_defect", 'raise ValueError(f"cannot compare a {A.shape} matrix with a "'): (1, SHAPES),
    ("vsdilate", "_gap", "return abs(A - B)"): (1, INT_BLOCKS),
    ("vsdilate", "_check_shapes", 'raise ValueError("T must be square")'): (1, INPUT),
    ("vsdilate", "banded_sznagy", 'raise ValueError("T must be square")'): (1, INPUT),
    ("vsdilate", "standard_dilation", 'raise ValueError("T must be square")'): (1, INPUT),
    ("vsdilate", "ando_like", 'raise ValueError("horizon must be at least 1")'): (1, INPUT),
    ("vsdilate", "non_similarity_witness", 'raise ValueError("T must be square")'): (1, INPUT),
}


def statements(tree: ast.Module):
    """(function, line, header lines) of each function-body statement; the
    header is the whole of a simple statement, and a compound statement's
    lines before its first inner statement."""
    def inner(node):
        return [s for field in ("body", "orelse", "finalbody")
                for s in getattr(node, field, [])] + [
            s for h in getattr(node, "handlers", []) for s in h.body] + [
            s for c in getattr(node, "cases", []) for s in c.body]

    def body(stmts, scope):
        for s in stmts:
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([s.lineno] + [d.lineno for d in s.decorator_list])
                yield scope, s.lineno, range(first, s.lineno + 1)
                yield from function(s, f"{scope}.{s.name}")
                continue
            if isinstance(s, ast.ClassDef):
                yield scope, s.lineno, range(s.lineno, s.lineno + 1)
                continue
            kids = inner(s)
            last = min(k.lineno for k in kids) - 1 if kids else s.end_lineno
            yield scope, s.lineno, range(s.lineno, max(last, s.lineno) + 1)
            yield from body(kids, scope)

    def function(fn, name):
        stmts = fn.body
        if (isinstance(stmts[0], ast.Expr)
                and isinstance(stmts[0].value, ast.Constant)
                and isinstance(stmts[0].value.value, str)):
            stmts = stmts[1:]
        yield from body(stmts, name)

    def top(stmts, scope):
        for s in stmts:
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from function(s, scope + s.name)
            elif isinstance(s, ast.ClassDef):
                yield from top(s.body, f"{scope}{s.name}.")
            else:  # a def under a module-level if or try
                yield from top(inner(s), scope)

    return top(tree.body, "")


def run_corpus() -> dict:
    """{module: set of lines run} over the whole golden corpus."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", CHILD, str(SRC)], cwd=GOLDEN,
                         env=env, capture_output=True, text=True, check=True,
                         timeout=300).stdout
    return {mod: set(lines) for mod, lines in json.loads(out).items()}


def unreached(ran: dict) -> tuple:
    """The statements not run, each as (module, line, function, text), and
    how many statements of every (module, function, text) there are."""
    missed, everything = [], collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        seen = ran.get(path.stem, set())
        for fn, line, header in statements(ast.parse(source)):
            key = (path.stem, fn, text[line - 1].strip())
            everything[key] += 1
            if seen.isdisjoint(header):
                missed.append((path.stem, line, fn, key[2]))
    return missed, everything


def keys(missed: list) -> collections.Counter:
    return collections.Counter((mod, fn, text) for mod, _, fn, text in missed)


@pytest.fixture(scope="module")
def reach():
    return unreached(run_corpus())


def test_every_statement_runs_under_some_golden_record(reach):
    missed, _ = reach
    counts = keys(missed)
    new = [f"{mod}:{line}  {fn}  {text}" for mod, line, fn, text in missed
           if counts[mod, fn, text] > ALLOWED.get((mod, fn, text), (0,))[0]]
    assert not new, ("no golden record runs these; add one or delete "
                     "them:\n" + "\n".join(new))


def test_the_allowlist_only_shrinks(reach):
    missed, everything = reach
    counts = keys(missed)
    gone = {k: n for k, (n, _) in ALLOWED.items() if everything[k] < n}
    run = {k: n for k, (n, _) in ALLOWED.items()
           if k not in gone and counts[k] < n}
    assert not gone, f"no longer in src; drop or lower these: {gone}"
    assert not run, f"a golden record runs these now; drop or lower: {run}"


def test_the_walk_sees_each_statement_once():
    tree = ast.parse(
        "X = 1\n"
        "class C:\n"
        "    y: int = 0\n"
        "    def m(self):\n"
        "        '''doc'''\n"
        "        if self.y:\n"
        "            return (1 +\n"
        "                    2)\n"
        "        @staticmethod\n"
        "        def inner():\n"
        "            pass\n"
        "        try:\n"
        "            x = 1\n"
        "        except ValueError:\n"
        "            raise\n"
        "        return inner\n")
    assert [(fn, line, list(lines)) for fn, line, lines in statements(tree)
            ] == [("C.m", 6, [6]), ("C.m", 7, [7, 8]),
                  ("C.m", 10, [9, 10]), ("C.m.inner", 11, [11]),
                  ("C.m", 12, [12]), ("C.m", 13, [13]), ("C.m", 15, [15]),
                  ("C.m", 16, [16])]


if __name__ == "__main__":
    for mod, line, fn, text in unreached(run_corpus())[0]:
        print(f"{mod}:{line}  {fn}  {text}")
