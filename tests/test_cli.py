import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import cli, cuntz, hframe, linops, ovf, pasf, vsdilate
from framekit.cli import dump_frame, dump_matrix, dump_ovf, dump_pasf, main
from framekit.errors import CertifiedFailure
from oracles import bump, make_parseval
from test_golden import GOLDEN, REPORTS, USAGE


INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "inputs")


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture()
def mercedes(tmp_path):
    return write(tmp_path, "mercedes.json", {"named": "mercedes"})


@pytest.fixture()
def shift(tmp_path):
    return write(tmp_path, "shift.json", {"named": "shift", "m": 8, "p": 2})


# ------------------------------------------------------------- contract


def test_mercedes_bounds_line(capsys, mercedes):
    rc, out, _ = run(capsys, ["hframe", "bounds", "--in", mercedes])
    assert rc == 0
    assert "bounds = (1.5, 1.5) tight" in out
    assert "status: pass" in out


FRAMES = {"mercedes": np.real(hframe.make_named_frame("mercedes").synthesis).T,
          "doubled": np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])}


def scaled_bounds(capsys, tmp_path, name, k):
    path = write(tmp_path, f"{name}{k}.json",
                 {"field": "R", "vectors": (FRAMES[name] * 2.0 ** k).tolist()})
    rc, out, _ = run(capsys, ["hframe", "bounds", "--in", path, "--json"])
    assert rc == 0
    return json.loads(out)


@pytest.mark.parametrize("k", [-200, -20, 0, 20, 200])
@pytest.mark.parametrize("name", ["mercedes", "doubled"])
def test_frame_bounds_scale_with_the_frame(capsys, tmp_path, name, k):
    # bounds (1.5, 1.5) tight and (1, 2) not tight, times 4^k
    base = scaled_bounds(capsys, tmp_path, name, 0)
    rep = scaled_bounds(capsys, tmp_path, name, k)
    assert rep["status"] == base["status"] == "pass"
    assert rep["result"]["tight"] is base["result"]["tight"] is (
        name == "mercedes")
    for key in ("lower", "upper"):
        want = base["result"][key] * 4.0 ** k
        assert abs(rep["result"][key] - want) <= 1e-12 * want


def test_shift_dilation_table(capsys, shift):
    rc, out, _ = run(capsys, ["pasf", "dilate", "--in", shift])
    assert rc == 0
    lines = [l.strip() for l in out.splitlines() if "omega_" in l]
    assert lines[0] == "omega_1 = 0 (+) 0"
    assert lines[1] == "omega_2 = e1 (+) 0"
    for n in range(3, 9):
        assert lines[n - 1] == f"omega_{n} = e{n - 1} (+) e{n - 1}"


def test_empty_vector_file_is_a_usage_error(capsys, tmp_path):
    path = write(tmp_path, "empty.json", {"field": "C", "dim": 2, "vectors": []})
    rc, _, err = run(capsys, ["hframe", "bounds", "--in", path])
    assert rc == 2
    assert "vectors" in err


def test_malformed_json_reports_location(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"rows": 2,\n "cols": }')
    rc, _, err = run(capsys, ["hframe", "bounds", "--in", str(path)])
    assert rc == 2
    assert "line 2" in err and "column" in err


def test_missing_file(capsys):
    rc, _, err = run(capsys, ["hframe", "bounds", "--in", "/nope/f.json"])
    assert rc == 2
    assert "cannot read" in err


def test_unknown_subcommand_prints_usage(capsys):
    rc, _, err = run(capsys, ["nosuch"])
    assert rc == 2
    assert "usage:" in err


def test_unknown_verb(capsys):
    rc, _, err = run(capsys, ["hframe", "nosuch"])
    assert rc == 2


@pytest.mark.parametrize("abbreviated", [
    ["hframe", "bounds", "--in", "{in}", "--t", "1e-30"],
    ["hframe", "bounds", "--in", "{in}", "--se", "3"],
    ["hframe", "bounds", "--in", "{in}", "--js"],
    ["hframe", "bounds", "--i", "{in}"],
    ["cuntz", "build", "--n", "3", "--m", "0.25"],
])
def test_an_option_is_taken_only_by_its_full_name(capsys, mercedes,
                                                   abbreviated):
    argv = [mercedes if a == "{in}" else a for a in abbreviated]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


def test_a_full_option_name_may_carry_its_value_after_an_equals_sign(capsys, mercedes):
    argv = ["hframe", "bounds", "--in", mercedes, "--tol=1e-3", "--json"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert json.loads(out)["config"]["tol"] == 1e-3


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "framekit" in out


def test_main_builds_the_parser_at_most_once(capsys, mercedes, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    for _ in range(2):
        assert run(capsys, ["hframe", "bounds", "--in", mercedes])[0] == 0
    assert len(built) <= 1
    assert real() is not real()  # build_parser itself makes a fresh tree


def _tree_main(top, argv) -> int:
    """main as it was when the whole tree parsed every argv."""
    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, report = cli.run(args)
        payload = cli.canonical(report)
        text = payload if args.json else cli.render_text(report)
    except cli.CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    print(text, flush=True)
    return code


def _outcome(fn, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(list(argv))
    return code, out.getvalue(), err.getvalue()


FRAME = "inputs/frame.json"
MALFORMED = [
    ["hframe", "bounds", "--in", FRAME, "--bogus"],
    ["hframe", "bounds", "--in", FRAME, "stray"],
    ["hframe", "bounds", "--in", FRAME, "stray", "--bogus", "1"],
    ["--json", "hframe", "bounds", "--in", FRAME],
    ["hframe", "--json", "bounds", "--in", FRAME],
    ["-h"],
    ["hframe", "-h"],
    ["hframe", "bounds", "-h"],
    ["hframe", "bounds", "--in", FRAME, "--json", "--help"],
    ["hframe", "bounds", "--in"],
    ["hframe", "bounds", f"--in={FRAME}", "--json"],
    ["hframe", "bounds", "--in", FRAME, "--"],
    ["hframe", "bounds", "--", "--in", FRAME],
    ["hframe", "bounds", "--in", FRAME, "--tol", "1", "--tol", "1e-30",
     "--json"],
    ["hframe", "bounds", "--in", FRAME, "--j"],
    ["hframe"],
    ["hframe", "check", "--in", FRAME],
    ["pasf", "bounds", "--in", FRAME],
    ["cuntz", "solve", "--n", "4", "--n", "x"],
]


@pytest.fixture(scope="module")
def tree():
    return cli.build_parser()


@pytest.mark.parametrize("argv", [a for argv in REPORTS
                                  for a in (argv, argv + ["--json"])]
                         + USAGE + MALFORMED, ids=" ".join)
def test_main_prints_what_the_whole_tree_printed(argv, tree, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert _outcome(main, argv) == _outcome(
        functools.partial(_tree_main, tree), argv)


def test_a_known_verb_never_walks_the_tree(monkeypatch):
    top, walks = cli._parser(), []
    real = top.parse_known_args
    monkeypatch.setattr(top, "parse_known_args",
                        lambda *a, **k: walks.append(a) or real(*a, **k))
    monkeypatch.chdir(GOLDEN)
    first = {tuple(argv[:2]): argv for argv in reversed(REPORTS)}
    for argv in first.values():
        assert _outcome(main, argv)[0] in (0, 1)
    assert walks == []
    assert _outcome(main, ["hframe", "nosuch"])[0] == 2
    assert len(walks) == 1  # the counter sees the tree's own walk


MATH_MODULES = ("cuntz", "hframe", "linops", "metricframe", "multiplier",
                "ovf", "pasf", "sip", "vsdilate")

FRESH_IMPORTS = """
import contextlib, io, json, sys
import framekit
import framekit.cli as cli

names, mercedes = json.loads(sys.argv[1]), sys.argv[2]
loaded = lambda: [n for n in names if "framekit." + n in sys.modules]
seen = {}
cli.build_parser()
seen["parser"] = loaded()
with contextlib.redirect_stderr(io.StringIO()):
    seen["usage_code"] = cli.main(["hframe", "bounds"])
seen["usage"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    seen["bounds_code"] = cli.main(["hframe", "bounds", "--in", mercedes])
seen["bounds"] = loaded()
seen["getattr"] = [getattr(framekit, n) is sys.modules["framekit." + n]
                   for n in names]
try:
    framekit.nosuch
except AttributeError as exc:
    seen["unknown"] = str(exc)
print(json.dumps(seen))
"""


def fresh_python(code, *args, **popen):
    """A new interpreter that imports framekit from the tested source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            **popen)


def test_a_verb_imports_only_the_modules_of_its_group():
    proc = fresh_python(FRESH_IMPORTS, json.dumps(MATH_MODULES),
                        os.path.join(INPUTS, "mercedes.json"),
                        stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    seen = json.loads(out)
    assert seen["parser"] == [] and seen["usage"] == []
    assert seen["usage_code"] == 2 and seen["bounds_code"] == 0
    assert "hframe" in seen["bounds"]
    assert set(seen["bounds"]).isdisjoint(
        {"cuntz", "vsdilate", "ovf", "sip", "metricframe", "multiplier"})
    assert seen["getattr"] == [True] * len(MATH_MODULES)
    assert seen["unknown"] == "module 'framekit' has no attribute 'nosuch'"


MAIN = "import sys, framekit.cli as c; raise SystemExit(c.main(sys.argv[1:]))"


@pytest.mark.parametrize("report, keep", [("small", 0), ("large", 160)])
def test_a_closed_stdout_exits_two_without_traceback(tmp_path, mercedes,
                                                     report, keep):
    # small: the reader is gone before the report is written; large: it
    # reads the head of a report longer than the pipe holds, as head -c does
    big = write(tmp_path, "big.json",
                dump_frame(hframe.harmonic_frame(16, 256)))
    argv = {"small": ["hframe", "bounds", "--in", mercedes],
            "large": ["hframe", "dual", "--in", big, "--json"]}[report]
    proc = fresh_python(MAIN, *argv, stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE)
    head = proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert len(head) == keep
    assert err == ("error: cannot write standard output: "
                   "[Errno 32] Broken pipe\n")


def test_a_verb_started_without_stdout_exits_two(mercedes):
    # with file descriptor 1 closed at start, sys.stdout is None and print
    # writes nothing without raising
    proc = fresh_python(MAIN, "hframe", "bounds", "--in", mercedes,
                        stderr=subprocess.PIPE,
                        preexec_fn=lambda: os.close(1))
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == ("error: cannot write standard output: "
                            "[Errno 9] Bad file descriptor\n")


def test_json_reports_are_byte_identical(capsys, tmp_path):
    path = write(tmp_path, "f.json", dump_frame(hframe.harmonic_frame(3, 7)))
    argv = ["hframe", "algorithm", "--in", path, "--seed", "9", "--json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    _, out3, _ = run(capsys, argv[:-1] + ["--seed", "10", "--json"])
    assert out3 != out1


def test_seed_and_defaults_recorded(capsys, mercedes):
    rc, out, _ = run(capsys, ["hframe", "bounds", "--in", mercedes, "--json"])
    rep = json.loads(out)
    assert rep["config"]["seed"] == 0
    assert rep["config"]["tol"] is None
    assert rep["config"]["command"] == "hframe bounds"


def test_every_check_carries_its_tolerance(capsys, mercedes):
    _, out, _ = run(capsys, ["hframe", "identity", "--in", mercedes,
                             "--subset", "0,2", "--json"])
    rep = json.loads(out)
    assert rep["checks"]
    for c in rep["checks"]:
        assert set(c) == {"kind", "name", "passed", "residual", "tolerance"}
        assert c["kind"] in ("theorem", "sampled")


def test_out_writes_canonical_json(capsys, tmp_path, mercedes):
    dest = tmp_path / "report.json"
    rc, out, _ = run(capsys, ["hframe", "bounds", "--in", mercedes,
                              "--out", str(dest), "--json"])
    assert rc == 0
    assert dest.read_text() == out


def test_an_out_file_that_cannot_be_written_exits_two(capsys, tmp_path,
                                                      mercedes):
    # a directory cannot be opened for writing; the report is on stdout
    rc, out, err = run(capsys, ["hframe", "bounds", "--in", mercedes,
                                "--out", str(tmp_path), "--json"])
    assert rc == 2
    assert out.startswith('{"checks":')
    assert err.startswith(f"error: cannot write {tmp_path}: ")


def test_tol_override_is_used(capsys, mercedes):
    # absurdly strict tightness window: the pair is still tight at 0 gap
    rc, out, _ = run(capsys, ["hframe", "bounds", "--in", mercedes,
                              "--tol", "1e-30", "--json"])
    rep = json.loads(out)
    assert rep["config"]["tol"] == 1e-30
    assert rep["result"]["tight_tol"] == 1e-30


def test_sampled_checks_are_labelled(capsys):
    rc, out, _ = run(capsys, ["cuntz", "obstruction", "--dim", "2",
                              "--trials", "20"])
    assert rc == 0
    assert "falsification only" in out


def test_failed_check_exits_one(capsys, tmp_path):
    # the truncated shift is not a Riesz basis: m vectors in dimension m - 1
    path = write(tmp_path, "p.json", dump_pasf(pasf.shift_pair(5, 2.0)))
    rc, out, _ = run(capsys, ["pasf", "riesz", "--in", path])
    assert rc == 1
    assert "FAIL" in out and "status: fail" in out


def test_math_refusal_exits_one(capsys, tmp_path):
    # a dependent family has a singular frame operator
    path = write(tmp_path, "thin.json",
                 {"field": "R", "dim": 2, "vectors": [[1, 0], [2, 0]]})
    rc, out, _ = run(capsys, ["hframe", "dual", "--in", path])
    assert rc == 1
    assert "NotAFrame" in out


# Each exits 2 with one "error: ..." line first on stderr: non-finite or
# out-of-domain options, arithmetic beyond the float range, a report
# holding a non-finite value, and malformed input shapes.
REFUSALS = [
    ["hframe", "bounds", "--in", "{frame}", "--tol", "nan"],
    ["hframe", "bounds", "--in", "{frame}", "--tol", "-1"],
    ["cuntz", "build", "--n", "3", "--mu", "inf"],
    ["hframe", "perturb", "--in", "{frame}", "--other", "{frame}",
     "--mode", "general", "--alpha", "nan"],
    ["hframe", "perturb", "--in", "{frame}", "--other", "{frame}",
     "--mode", "general", "--samples", "0"],
    ["cuntz", "solve", "--n", "3", "--max-iters", "0"],
    ["hframe", "algorithm", "--in", "{frame}", "--iters", "0"],
    ["cuntz", "obstruction", "--dim", "0"],
    ["cuntz", "obstruction", "--trials", "0"],
    ["pasf", "perturb", "--in", "{frame}", "--omega", "{frame}",
     "--r", "inf"],
    ["metric", "logframe", "--hi", "nan"],
    ["cuntz", "build", "--n", "2", "--mu", "1e308"],
    ["cuntz", "build", "--n", "2", "--mu", "1e-300"],
    ["hframe", "algorithm", "--in", "{frame}", "--h", "1e308,1e308"],
    ["hframe", "algorithm", "--in", "{frame}", "--h", "1e308,1e308",
     "--json"],
    ["ovf", "check", "--in", "{ovf_r}"],
    ["ovf", "group", "--rep", "{rep}", "--a", "{a}", "--psi", "{a}"],
    ["pasf", "check", "--in", "{shift_m}"],
    ["vsdilate", "halmos", "--in", "{exact_im}"],
]


@pytest.mark.parametrize("argv", REFUSALS, ids=" ".join)
def test_refusals_exit_two_without_traceback(capsys, tmp_path, argv):
    block = {"rows": 1, "cols": 2, "re": [[1, 0]]}
    files = {
        "frame": write(tmp_path, "m.json", {"named": "mercedes"}),
        "ovf_r": write(tmp_path, "o.json",
                       {"A": [block], "Psi": [block], "r": [1]}),
        "rep": write(tmp_path, "rep.json", {"labels": 5, "matrices": []}),
        "a": write(tmp_path, "a.json", dump_matrix(np.eye(2))),
        "shift_m": write(tmp_path, "s.json", {"named": "shift", "m": [8]}),
        "exact_im": write(tmp_path, "t.json",
                          {"rows": 1, "cols": 1, "re": [[1]], "im": {}}),
    }
    rc, out, err = run(capsys, [a.format(**files) for a in argv])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_internal_error_exits_three(capsys, mercedes, monkeypatch):
    def broken(cfg, R):
        raise KeyError("lost")

    monkeypatch.setitem(cli._HANDLERS, ("hframe", "bounds"), broken)
    rc, out, err = run(capsys, ["hframe", "bounds", "--in", mercedes])
    assert rc == 3
    assert out == ""
    assert err == "error: internal error: KeyError: 'lost'\n"


# Every leaf type a report may hold, with the bytes each output form gives
# it: numpy scalars as the Python scalar, complex numbers as {"im", "re"},
# Fractions as strings, arrays as nested lists; a text line shows a value
# whose JSON passes 100 characters by its length.
REPORT_LEAVES = {
    "bool_": np.bool_(True),
    "int64": np.int64(-7),
    "float32": np.float32(0.1),
    "float64": np.float64(1 / 3),
    "complex": complex(1.5, -2),
    "complex128": np.complex128(-0.5j),
    "fraction": Fraction(-3, 7),
    "array": np.array([[1.5, 2.0], [0.0, -1.0]]),
    "complex_array": np.array([1j, 2.0]),
    "fraction_array": np.array([Fraction(1, 3), Fraction(2)], dtype=object),
    "tuple": (np.int32(1), Fraction(1, 2), None),
    "nested": {"b": [np.float64(0.25), np.bool_(False)], "a": {"z": 1j}},
    "long_array": np.arange(40.0),
    "long_fraction": Fraction(10 ** 110 + 1, 3),
    "long_dict": {f"k{n}": np.int64(n) for n in range(20)},
}

LEAVES_TEXT = (
    "framekit hframe bounds\n"
    "  config: in = unused.json, seed = 0\n"
    "  array = [[1.5, 2.0], [0.0, -1.0]]\n"
    "  bool_ = true\n"
    '  complex = {"im": -2.0, "re": 1.5}\n'
    '  complex128 = {"im": -0.5, "re": -0.0}\n'
    '  complex_array = [{"im": 1.0, "re": 0.0}, {"im": 0.0, "re": 2.0}]\n'
    "  float32 = 0.10000000149011612\n"
    "  float64 = 0.3333333333333333\n"
    '  fraction = "-3/7"\n'
    '  fraction_array = ["1/3", "2"]\n'
    "  int64 = -7\n"
    "  long_array = <40 items>\n"
    "  long_dict = <20 entries>\n"
    "  long_fraction = <113 items>\n"
    '  nested = {"a": {"z": {"im": 1.0, "re": 0.0}}, "b": [0.25, false]}\n'
    '  tuple = [1, "1/2", null]\n'
    "status: pass\n")

LEAVES_JSON = (
    '{"checks":[],"command":"hframe bounds",'
    '"config":{"command":"hframe bounds","format":"json",'
    '"in":"unused.json","out":null,"seed":0,"tol":null},"display":[],'
    '"result":{"array":[[1.5,2.0],[0.0,-1.0]],"bool_":true,'
    '"complex":{"im":-2.0,"re":1.5},"complex128":{"im":-0.5,'
    '"re":-0.0},"complex_array":[{"im":1.0,"re":0.0},{"im":0.0,'
    '"re":2.0}],"float32":0.10000000149011612,'
    '"float64":0.3333333333333333,"fraction":"-3/7",'
    '"fraction_array":["1/3","2"],"int64":-7,"long_array":[0.0,1.0,'
    "2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0,11.0,12.0,13.0,14.0,15.0,"
    "16.0,17.0,18.0,19.0,20.0,21.0,22.0,23.0,24.0,25.0,26.0,27.0,"
    "28.0,29.0,30.0,31.0,32.0,33.0,34.0,35.0,36.0,37.0,38.0,39.0],"
    '"long_dict":{"k0":0,"k1":1,"k10":10,"k11":11,"k12":12,"k13":13,'
    '"k14":14,"k15":15,"k16":16,"k17":17,"k18":18,"k19":19,"k2":2,'
    '"k3":3,"k4":4,"k5":5,"k6":6,"k7":7,"k8":8,"k9":9},'
    '"long_fraction":"10000000000000000000000000000000000000000000000'
    "0000000000000000000000000000000000000000000000000000000000000001"
    '/3","nested":{"a":{"z":{"im":1.0,"re":0.0}},"b":[0.25,false]},'
    '"tuple":[1,"1/2",null]},"status":"pass"}\n')


@pytest.mark.parametrize("extra, want", [([], LEAVES_TEXT),
                                         (["--json"], LEAVES_JSON)])
def test_report_leaves_encode_to_fixed_bytes(capsys, monkeypatch, extra,
                                             want):
    monkeypatch.setitem(cli._HANDLERS, ("hframe", "bounds"),
                        lambda cfg, R: R.result.update(REPORT_LEAVES))
    rc, out, err = run(capsys, ["hframe", "bounds", "--in", "unused.json",
                                *extra])
    assert (rc, out, err) == (0, want, "")


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_a_report_leaf_of_unknown_type_exits_three(capsys, monkeypatch,
                                                   extra):
    monkeypatch.setitem(cli._HANDLERS, ("hframe", "bounds"),
                        lambda cfg, R: R.result.update(odd={1, 2}))
    rc, out, err = run(capsys, ["hframe", "bounds", "--in", "unused.json",
                                *extra])
    assert (rc, out) == (3, "")
    assert err == "error: internal error: TypeError: cannot serialize set\n"


@pytest.mark.parametrize("residual, tolerance, passed", [
    (0.0, 0.0, True), (1e-9, 1e-9, True), (2e-9, 1e-9, False),
    (math.nan, 1.0, False)])
def test_a_check_passes_when_its_residual_is_at_most_its_tolerance(
        residual, tolerance, passed):
    # the exact vsdilate checks pass at residual 0 against tolerance 0
    R = cli.ReportBuilder()
    assert R.check("c", "theorem", residual, tolerance) is passed
    assert R.checks[0]["passed"] is passed and R.passed is passed


def test_certified_failures_keep_name_and_base():
    for cls, base in ((hframe.NotAFrame, ValueError),
                      (hframe.HypothesisViolated, ValueError),
                      (pasf.NotADual, ValueError),
                      (linops.NotInvertible, ValueError),
                      (cuntz.ConvergenceError, RuntimeError)):
        assert issubclass(cls, CertifiedFailure) and issubclass(cls, base)
    assert (pasf.HypothesisViolated is ovf.HypothesisViolated
            is hframe.HypothesisViolated)


# ---------------------------------------------------------- per group


def test_hframe_verbs(capsys, tmp_path):
    F = hframe.harmonic_frame(3, 6)
    path = write(tmp_path, "f.json", dump_frame(F))
    rng = np.random.default_rng(1)
    G = hframe.HilbertFrame(F.synthesis
                            + 0.01 * rng.standard_normal(F.synthesis.shape))
    other = write(tmp_path, "g.json", dump_frame(G))
    for argv in (["hframe", "dual", "--in", path],
                 ["hframe", "parsevalize", "--in", path],
                 ["hframe", "algorithm", "--in", path, "--iters", "30"],
                 ["hframe", "identity", "--in", path, "--subset", "1,3"],
                 ["hframe", "dilate", "--in", path],
                 ["hframe", "perturb", "--in", path, "--other", other]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0, argv
        assert "status: pass" in out


def test_pasf_verbs(capsys, tmp_path):
    P = pasf.shift_pair(6, 2.0)
    path = write(tmp_path, "p.json", dump_pasf(P))
    zu = write(tmp_path, "u.json", dump_matrix(np.zeros((6, 5))))
    zv = write(tmp_path, "v.json", dump_matrix(np.zeros((5, 6))))
    om = write(tmp_path, "om.json", dump_matrix(P.T))
    weak = write(tmp_path, "w.json", dump_pasf(pasf.PAsf(2.0, 0.5 * P.F, P.T)))
    for argv in (["pasf", "check", "--in", path],
                 ["pasf", "dual", "--in", path],
                 ["pasf", "alldual", "--in", path, "--u", zu, "--v", zv],
                 ["pasf", "similar", "--in", path, "--other", path],
                 ["pasf", "dilate", "--in", path],
                 ["pasf", "perturb", "--in", path, "--omega", om],
                 ["pasf", "expand", "--in", weak, "--other", path]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0, argv
        assert "status: pass" in out


def test_pasf_generic_dilate_restricts_exactly(capsys, tmp_path):
    path = write(tmp_path, "p.json", dump_pasf(pasf.shift_pair(5, 2.0)))
    rc, out, _ = run(capsys, ["pasf", "dilate", "--in", path, "--json"])
    assert rc == 0
    rep = json.loads(out)
    names = [c["name"] for c in rep["checks"]]
    assert "restriction recovers the input pair" in names
    assert all(c["passed"] for c in rep["checks"])


def test_sip_verbs(capsys, tmp_path):
    P = make_parseval(2.0, 3, 5, seed=4)
    path = write(tmp_path, "s.json", {"p": 2.0, "Omega": dump_matrix(P.Omega),
                                      "Tau": dump_matrix(P.Tau)})
    for argv in (["sip", "identity", "--in", path, "--subset", "0,2"],
                 ["sip", "parseval", "--in", path, "--subset", "1,4"],
                 ["sip", "lower34", "--in", path, "--subset", "0,3"]):
        rc, out, _ = run(capsys, argv + ["--seed", "6"])
        assert rc == 0, argv


def test_metric_verbs(capsys, tmp_path):
    pts = [1.0, 2.0, 4.0, 7.0]
    dist = np.abs(np.subtract.outer(pts, pts)).tolist()
    sample = write(tmp_path, "s.json", {"points": pts, "dist": dist, "base": 0})
    rc, out, _ = run(capsys, ["metric", "bounds", "--in", sample,
                              "--family", "log(1)", "--terms", "24"])
    assert rc == 0
    rc, out, _ = run(capsys, ["metric", "logframe", "--points", "25",
                              "--terms", "40", "--seed", "3"])
    assert rc == 0
    assert "status: pass" in out


def test_logframe_near_overflow_is_not_refused_as_a_non_metric(capsys):
    # the points form a metric by construction; the refusal left is the
    # log family's: 40 terms cannot certify its tail up to 1e308
    rc, out, err = run(capsys, ["metric", "logframe", "--points", "10",
                                "--hi", "1e308", "--json"])
    assert rc == 2 and out == ""
    assert "triangle" not in err
    assert "too few terms" in err
    _, out, _ = run(capsys, ["metric", "logframe", "--points", "10",
                             "--hi", "1e4", "--terms", "60", "--json"])
    checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert checks["1-frame bounds equal (1, 1)"]
    assert checks["tail remainder certified below 1e-8"]


def test_multiplier_verbs(capsys, tmp_path):
    pts = np.array([1.0, 2.0, 4.0, 7.0])
    m = 10
    vals = (0.8 ** np.arange(m))[:, None] * (pts - pts[0])[None, :]
    rng = np.random.default_rng(5)
    lam = (0.5 ** np.arange(m)).tolist()
    path = write(tmp_path, "m.json", {
        "p": 2.0,
        "sample": {"points": pts.tolist(),
                   "dist": np.abs(np.subtract.outer(pts, pts)).tolist(),
                   "base": 0},
        "family": {"values": vals.tolist(), "remainder": 0.0},
        "Tau": dump_matrix(rng.standard_normal((3, m))), "lam": lam})
    for argv in (["multiplier", "apply", "--in", path, "--point", "2"],
                 ["multiplier", "lip", "--in", path],
                 ["multiplier", "tail", "--in", path, "--cut", "4"],
                 ["multiplier", "continuity", "--in", path, "--symbol",
                  ",".join(str(0.9 * v) for v in lam)]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0, argv
    rc, _, err = run(capsys, ["multiplier", "continuity", "--in", path])
    assert rc == 2  # needs exactly one of --symbol / --vectors


def test_ovf_verbs(capsys, tmp_path):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    P = ovf.OvfPair(A, A)
    path = write(tmp_path, "o.json", dump_ovf(P))
    for argv in (["ovf", "check", "--in", path],
                 ["ovf", "dual", "--in", path],
                 ["ovf", "classify", "--in", path],
                 ["ovf", "similar", "--in", path, "--other", path]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0, argv
    a = write(tmp_path, "a.json", dump_matrix(rng.standard_normal((2, 2))))
    psi = write(tmp_path, "psi.json", dump_matrix(rng.standard_normal((2, 2))))
    rc, out, _ = run(capsys, ["ovf", "group", "--rep", "c4",
                              "--a", a, "--psi", psi])
    assert rc == 0
    assert "status: pass" in out


def test_ovf_dilate_needs_parseval(capsys, tmp_path):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    P = ovf.OvfPair(A, A)
    path = write(tmp_path, "o.json", dump_ovf(P))
    rc, out, _ = run(capsys, ["ovf", "dilate", "--in", path])
    assert rc == 1
    assert "HypothesisViolated" in out


def test_vsdilate_verbs(capsys, tmp_path):
    mat = write(tmp_path, "t.json",
                {"rows": 2, "cols": 2, "re": [["1/2", "1/4"], [0, "1/3"]]})
    half = write(tmp_path, "h.json",
                 {"rows": 2, "cols": 2, "re": [["1/2", 0], [0, "1/2"]]})
    eye = write(tmp_path, "i.json",
                {"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]]})
    for argv in (["vsdilate", "halmos", "--in", mat],
                 ["vsdilate", "ndilate", "--in", mat, "--n", "2"],
                 ["vsdilate", "sznagy", "--in", mat, "--window", "4"],
                 ["vsdilate", "standard", "--in", mat, "--horizon", "3"],
                 ["vsdilate", "ando", "--in", mat, "--other", half,
                  "--horizon", "2"],
                 ["vsdilate", "intertwine", "--in", mat, "--other", mat,
                  "--s", eye, "--horizon", "3"],
                 ["vsdilate", "witness", "--in", mat]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0, argv
        assert "status: pass" in out


def test_vsdilate_rational_checks_are_exact(capsys, tmp_path):
    mat = write(tmp_path, "t.json",
                {"rows": 1, "cols": 1, "re": [["2/3"]]})
    rc, out, _ = run(capsys, ["vsdilate", "halmos", "--in", mat, "--json"])
    rep = json.loads(out)
    for c in rep["checks"]:
        assert c["tolerance"] == 0.0 and c["residual"] == 0.0


def test_vsdilate_noncommuting_ando_fails_cleanly(capsys, tmp_path):
    mat = write(tmp_path, "t.json",
                {"rows": 2, "cols": 2, "re": [["1/2", "1/4"], [0, "1/3"]]})
    nil = write(tmp_path, "n.json",
                {"rows": 2, "cols": 2, "re": [[0, 1], [0, 0]]})
    rc, out, _ = run(capsys, ["vsdilate", "ando", "--in", mat,
                              "--other", nil, "--horizon", "2"])
    assert rc == 1
    assert "inputs commute" in out and "FAIL" in out


@pytest.mark.parametrize("verb, files, factor", [
    ("ando", ["--other", "s"], Fraction(0.1)),
    ("intertwine", ["--other", "s", "--s", "eye"], 1)],
    ids=["ando", "intertwine"])
def test_vsdilate_decides_the_hypothesis_once(capsys, tmp_path, verb, files,
                                              factor):
    # S is T but for 1 + 1e-9 at (0, 0): the report's gap check alone
    # decides whether the pair commutes (intertwines through the identity),
    # exactly, so its gap (that 1e-9 as a double, times the 0.1 of T S for
    # ando) fails in either mode, and no other check runs; a --tol that
    # might have forgiven it is refused
    path = {name: write(tmp_path, f"{name}.json",
                        {"rows": 2, "cols": 2, "re": re})
            for name, re in (("t", [[1, 0.1], [0, 2]]),
                             ("s", [[1 + 1e-9, 0.1], [0, 2]]),
                             ("eye", [[1, 0], [0, 1]]))}
    argv = (["vsdilate", verb, "--in", path["t"], "--horizon", "2"]
            + [path.get(a, a) for a in files])
    gap = (Fraction(1 + 1e-9) - 1) * factor
    for extra in ([], ["--no-rational"]):
        rc, out, err = run(capsys, argv + extra)
        assert (rc, err) == (1, ""), extra
        assert out.count("[theorem]") == 1
        assert f"residual {cli.g(float(gap))} vs tol 0 -> FAIL" in out
    rc, out, err = run(capsys, argv + ["--tol", "1e-6"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: unrecognized arguments: --tol 1e-6")


# Entries a --no-rational run rounds to doubles, and ones it keeps: ints
# (some past 2^53), dyadic floats, "p/q" strings, and doubles such as 0.1,
# 1e200 and the least subnormal.
VS_ENTRY = st.one_of(
    st.integers(-9, 9), st.integers(2 ** 53, 2 ** 60),
    st.integers(-64, 64).map(lambda k: k / 8),
    st.fractions(max_denominator=12).map(str),
    st.sampled_from([0.1, -1 / 3, 1e200, -1e-200, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False))
# entries that no double holds, so that every drawn T rounds
NOT_A_DOUBLE = st.one_of(
    st.integers(2 ** 53, 2 ** 60).map(lambda k: 2 * k + 1),
    st.fractions(max_denominator=12).filter(
        lambda q: q.denominator not in (1, 2, 4, 8)).map(str))

VS_ARGS = {"halmos": [], "ndilate": ["--n", "2"], "sznagy": ["--window", "2"],
           "standard": ["--horizon", "2"],
           "ando": ["--other", "s.json", "--horizon", "2"],
           "intertwine": ["--other", "t.json", "--s", "s.json",
                          "--horizon", "2"],
           "witness": []}


@st.composite
def vs_inputs(draw):
    """T and S, square of one size, T with one entry that no double
    holds; S is T itself half the time, so that ando's grid and
    intertwine's lift are reached."""
    d = draw(st.integers(1, 2))
    square = st.lists(st.lists(VS_ENTRY, min_size=d, max_size=d),
                      min_size=d, max_size=d)
    T = draw(square)
    T[0][0] = draw(NOT_A_DOUBLE)
    return T, T if draw(st.booleans()) else draw(square)


def run_in(where, argv):
    """(exit, stdout, stderr) of main on argv with where as the working
    directory, so that the report's config names the files as argv does."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        os.chdir(home)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb", sorted(VS_ARGS))
@settings(max_examples=12, deadline=None)
@given(pair=vs_inputs())
def test_vsdilate_no_rational_rounds_the_input_to_doubles(
        tmp_path_factory, verb, pair):
    # --no-rational reads each entry as the nearest double and then runs
    # the exact path: its report is that of the doubles' exact values
    # written out as "p/q" strings, but for config.rational; and every
    # check is exact, so --tol is refused
    given_dir, rounded_dir = (tmp_path_factory.mktemp(name)
                              for name in ("given", "rounded"))
    for name, M in zip(("t", "s"), pair):
        d = len(M)
        write(given_dir, f"{name}.json", {"rows": d, "cols": d, "re": M})
        write(rounded_dir, f"{name}.json", {"rows": d, "cols": d, "re": [
            [str(Fraction(float(Fraction(x)))) for x in row] for row in M]})
    argv = ["vsdilate", verb, "--in", "t.json", *VS_ARGS[verb], "--json"]
    rc, out, err = run_in(given_dir, argv + ["--no-rational"])
    rc_r, out_r, err_r = run_in(rounded_dir, argv)
    assert (rc, err) == (rc_r, err_r)
    assert out == out_r.replace('"rational":true', '"rational":false', 1)
    rc_t, out_t, err_t = run_in(rounded_dir, argv + ["--tol", "1e-6"])
    assert (rc_t, out_t) == (2, "")
    assert err_t.startswith("error: unrecognized arguments: --tol 1e-6")


def test_vsdilate_ando_checks_the_whole_grid(capsys, tmp_path, monkeypatch):
    # every entry of every collapse block with n + m > horizon is read
    mat = write(tmp_path, "t.json",
                {"rows": 2, "cols": 2, "re": [["1/2", "1/4"], [0, "1/3"]]})
    half = write(tmp_path, "h.json",
                 {"rows": 2, "cols": 2, "re": [["1/2", 0], [0, "1/2"]]})
    argv = ["vsdilate", "ando", "--in", mat, "--other", half,
            "--horizon", "2"]
    real, d, side = vsdilate.ando_like, 2, 3
    beyond = [(n, m) for n in range(side) for m in range(side) if n + m > 2]
    assert len(beyond) == 3
    for n, m in beyond:
        for i in range(d):
            for j in range(d):
                col = (n * side + m) * d + j

                def changed(T, S, horizon):
                    ad = real(T, S, horizon)
                    bump(ad.P, i, col)
                    return ad

                monkeypatch.setattr(vsdilate, "ando_like", changed)
                rc, out, _ = run(capsys, argv)
                assert rc == 1, (n, m, i, j)
                assert "n, m <= 2: residual 1 vs tol 0 -> FAIL" in out
    monkeypatch.setattr(vsdilate, "ando_like", real)
    rc, out, _ = run(capsys, argv)
    assert rc == 0 and "n, m <= 2: residual 0 vs tol 0 -> pass" in out


# Exact products per verb on a 3 x 3 rational T, with S = T^2 + T: every
# horizon identity walks each power once.  Rebuilding each power from the
# identity took 505 at standard --horizon 20, 655 at ando --horizon 6 (then
# over n + m <= 6 only) and 17 at sznagy --window 4.  halmos made 4 and its
# handler formed P P with numpy's @; that product is now a fifth.  Every
# exact product is one of the sparse form, so that is what is counted: a
# product of operators, that is, one that no other product is making.  The
# products of two blocks inside it are its own work, not products of
# operators, so they are not counted.  standard and ando formed their
# powers again in the check, 121 and 268 products; they now read the
# powers P was built from, 102 and 258.
WALK_BUDGETS = [
    (["standard", "--horizon", "20"], 110),
    (["ando", "--other", "s", "--horizon", "6"], 265),
    (["sznagy", "--window", "4"], 12),
    (["halmos"], 5),
    (["ndilate", "--n", "10"], 33),
    (["intertwine", "--other", "t", "--s", "s", "--horizon", "4"], 18),
]


@pytest.mark.parametrize("args, budget", WALK_BUDGETS,
                         ids=[args[0] for args, _ in WALK_BUDGETS])
def test_vsdilate_walks_each_power_once(capsys, tmp_path, monkeypatch, args,
                                        budget):
    T = vsdilate.as_exact([["1/2", "1/3", 0], [0, "2/3", "1/4"],
                           ["1/5", 0, 1]])
    path = {name: write(tmp_path, f"{name}.json", {
        "rows": 3, "cols": 3, "re": [[str(x) for x in row] for row in M]})
        for name, M in (("t", T.tolist()), ("s", (T @ T + T).tolist()))}
    real, calls, making = linops._Sparse.__matmul__, [], []

    def counted(A, B):
        if not making:
            calls.append(A.shape)
        making.append(A)
        try:
            return real(A, B)
        finally:
            making.pop()

    monkeypatch.setattr(linops._Sparse, "__matmul__", counted)
    argv = ["vsdilate", args[0], "--in", path["t"]]
    rc, out, _ = run(capsys, argv + [path.get(a, a) for a in args[1:]])
    assert rc == 0 and "status: pass" in out
    assert 0 < len(calls) <= budget


def test_vsdilate_ndilate_shows_horizon_breakdown(capsys, tmp_path):
    mat = write(tmp_path, "t.json", {"rows": 1, "cols": 1, "re": [[2]]})
    rc, out, _ = run(capsys, ["vsdilate", "ndilate", "--in", mat,
                              "--n", "1", "--json"])
    assert rc == 0
    rep = json.loads(out)
    defects = {row["k"]: row["defect"] for row in rep["result"]["table"]}
    assert defects[1] == 0.0
    assert defects[2] == 1.0  # PU^2 = 5 while T^2 = 4 for T = [[2]]


def test_vsdilate_rejects_bad_fraction(capsys, tmp_path):
    mat = write(tmp_path, "t.json",
                {"rows": 1, "cols": 1, "re": [["two thirds"]]})
    rc, _, err = run(capsys, ["vsdilate", "halmos", "--in", mat])
    assert rc == 2
    assert "p/q" in err


@pytest.mark.parametrize("verb, files, field", [
    ("halmos", ("in",), "in"), ("halmos --no-rational", ("in",), "in"),
    ("witness", ("in",), "in"),
    ("ando --horizon 2", ("in", "other"), "other"),
    ("intertwine --horizon 2", ("in", "other", "s"), "s")])
def test_vsdilate_refuses_a_nan_imaginary_part(capsys, tmp_path, verb, files,
                                               field):
    eye = {"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]]}
    argv = ["vsdilate"] + verb.split()
    for key in files:
        obj = dict(eye, im=[[math.nan, 0], [0, 0]]) if key == field else eye
        argv += [f"--{key}", write(tmp_path, f"{key}.json", obj)]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    where = "matrix" if field == "in" else field
    assert err.startswith(f"error: {where}: rational commands take real")


def test_matrix_loader_refuses_a_non_finite_imaginary_part(capsys, tmp_path):
    eye = {"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]]}
    for bad in (math.nan, math.inf):
        pair = write(tmp_path, "p.json", {"p": 2, "F": eye, "T": dict(
            eye, im=[[0, bad], [0, 0]])})
        rc, out, err = run(capsys, ["pasf", "check", "--in", pair])
        assert (rc, out) == (2, "")
        assert err.startswith("error: T: entries must be finite")


# a whole number is a JSON integer: 2.0 is refused, as the metric base is
@pytest.mark.parametrize("value, whole", [
    (2, True), (2.0, False), (2.9, False), ("2", False), (True, False),
    (math.inf, False), (math.nan, False), ([2], False)])
def test_shape_fields_take_whole_numbers_only(value, whole):
    grid = {"rows": value, "cols": 1, "re": [[1], [2]]}
    exact = functools.partial(cli.parse_matrix, exact=True)
    loaders = {cli.parse_matrix: "matrix: needs integer 'rows' and 'cols'",
               exact: "matrix: needs integer 'rows' and 'cols'",
               cli.parse_frame: "frame file: vector lengths disagree with "
                                "'dim'",
               cli.parse_pasf: "pair file: 'm' must be an integer"}
    inputs = {cli.parse_matrix: grid, exact: grid,
              cli.parse_frame: {"dim": value, "vectors": [[1, 0], [0, 1]]},
              cli.parse_pasf: {"named": "shift", "m": value}}
    for loader, message in loaders.items():
        if whole:
            loader(inputs[loader])
            continue
        with pytest.raises(cli.CliError) as exc:
            loader(inputs[loader])
        assert (exc.value.code, str(exc.value)) == (2, message)


NUMBER = "must be a finite number"
# field: (argv without --in, golden input, keys down to the field, message)
SCALAR_FIELDS = {
    "pasf p": (["pasf", "check"], "pasf", ("p",), f"pair file: 'p' {NUMBER}"),
    "shift p": (["pasf", "check"], "pasf_shift", ("p",),
                f"pair file: 'p' {NUMBER}"),
    "shift m": (["pasf", "check"], "pasf_shift", ("m",),
                "pair file: 'm' must be an integer"),
    "sip p": (["sip", "identity", "--subset", "0"], "sip", ("p",),
              f"pair file: 'p' {NUMBER}"),
    **{f"multiplier {key}": (["multiplier", "lip"], "multiplier", (key,),
                             f"multiplier file: '{key}' {NUMBER}")
       for key in ("p", "out_norm", "bessel_b", "bessel_d")},
    "family remainder": (["multiplier", "lip"], "multiplier",
                         ("family", "remainder"),
                         f"family file: 'remainder' {NUMBER}"),
    **{f"ovf {key}": (["ovf", "check"], "ovf", (key,),
                      f"pair file: '{key}' must be an integer")
       for key in ("r", "d")},
    "frame dim": (["hframe", "bounds"], "frame", ("dim",),
                  "frame file: vector lengths disagree with 'dim'"),
    "matrix rows": (["pasf", "check"], "pasf", ("F", "rows"),
                    "F: needs integer 'rows' and 'cols'"),
    "exact rows": (["vsdilate", "halmos"], "vs_t", ("rows",),
                   "matrix: needs integer 'rows' and 'cols'"),
}
NOT_NUMBERS = {"str": "2", "bool": True, "list": [2], "nan": math.nan,
               "inf": math.inf}
POSITIVE = "matrix: 'rows' and 'cols' must be positive"


@pytest.mark.parametrize("field, value, message", [
    *[pytest.param(field, value, SCALAR_FIELDS[field][3], id=f"{field}-{kind}")
      for field in SCALAR_FIELDS for kind, value in NOT_NUMBERS.items()],
    pytest.param("exact rows", 0, POSITIVE, id="exact rows-0"),
    pytest.param("exact rows", -1, POSITIVE, id="exact rows-negative")])
def test_file_fields_refuse_what_is_not_a_number_of_their_kind(
        capsys, tmp_path, field, value, message):
    argv, name, keys, _ = SCALAR_FIELDS[field]
    assert run_changed(capsys, tmp_path, argv, name, keys, value) == (
        2, "", f"error: {message}\n")


def run_changed(capsys, tmp_path, argv, name, keys, value):
    """Runs argv on the golden input name with the field at keys set to
    value."""
    with open(golden_input(name), encoding="utf-8") as fh:
        whole = json.load(fh)
    *outer, key = keys
    parent = whole
    for k in outer:
        parent = parent[k]
    parent[key] = value
    return run(capsys, argv + ["--in", write(tmp_path, "in.json", whole)])


GRID = "must be a numeric grid"
# entry: (argv without --in, golden input, keys down to the entry, message)
GRID_ENTRIES = {
    "matrix re": (["pasf", "check"], "pasf", ("F", "re", 1, 0),
                  f"F: 're' {GRID}"),
    "matrix im": (["ovf", "check"], "ovf", ("A", 0, "im", 0, 1),
                  f"A[0]: 'im' {GRID}"),
    "vector list": (["multiplier", "lip"], "multiplier", ("lam", 3),
                    "lam: expected a list of numbers"),
    "family values": (["multiplier", "lip"], "multiplier",
                      ("family", "values", 0, 2),
                      f"family file: 'values' {GRID}"),
    "sample dist": (["multiplier", "lip"], "multiplier",
                    ("sample", "dist", 0, 1),
                    f"sample file: 'dist' {GRID}"),
}
EXACT_ENTRY = "matrix: entry (1, 0) is not a number or 'p/q' string"


@pytest.mark.parametrize("entry, value, message", [
    *[pytest.param(entry, value, GRID_ENTRIES[entry][3], id=f"{entry}-{value}")
      for entry in GRID_ENTRIES for value in ("1e0", "0", True, False)],
    *[pytest.param("exact", value, EXACT_ENTRY, id=f"exact-{value}")
      for value in (True, False)]])
def test_grid_entries_refuse_strings_and_bools(capsys, tmp_path, entry,
                                               value, message):
    # np.asarray(..., dtype=float) reads "1e0" and true as numbers, and
    # Fraction(True) is 1
    argv, name, keys = GRID_ENTRIES.get(
        entry, (["vsdilate", "halmos"], "vs_t", ("re", 1, 0)))[:3]
    assert run_changed(capsys, tmp_path, argv, name, keys, value) == (
        2, "", f"error: {message}\n")


def test_rep_file_refuses_a_repeated_label(capsys):
    argv = ["ovf", "group", "--rep", golden_input("rep_label_repeated"),
            "--a", golden_input("ovf_a"), "--psi", golden_input("ovf_psi")]
    assert run(capsys, argv) == (2, "",
                                 "error: rep file: label 'r' is repeated\n")
    argv[3] = golden_input("rep_c4")  # the same matrices, distinct labels
    assert run(capsys, argv)[0] == 0


@pytest.mark.parametrize("points", [5, "abcd", {"0": 1.0}, None])
def test_sample_points_must_be_a_list(capsys, tmp_path, points):
    assert run_changed(capsys, tmp_path, ["multiplier", "lip"], "multiplier",
                       ("sample", "points"), points) == (
        2, "", "error: sample file: 'points' must be a list\n")


@pytest.mark.parametrize("base, why", [
    (1.5, "must be an integer"), (True, "must be an integer"),
    ("0", "must be an integer"), (0.0, "must be an integer"),
    (3, "index out of range"), (-1, "index out of range")])
def test_metric_sample_refuses_a_base_that_is_not_a_point_index(
        capsys, tmp_path, base, why):
    pts = [1.0, 2.0, 4.0]
    dist = np.abs(np.subtract.outer(pts, pts)).tolist()
    sample = write(tmp_path, "s.json",
                   {"points": pts, "dist": dist, "base": base})
    rc, out, err = run(capsys, ["metric", "bounds", "--in", sample,
                                "--family", "log(1)", "--terms", "24"])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: sample file: base {why}")


def test_cuntz_verbs(capsys):
    for argv in (["cuntz", "solve", "--n", "4"],
                 ["cuntz", "build", "--n", "4"],
                 ["cuntz", "verify", "--n-range", "6:8:2"],
                 ["cuntz", "obstruction", "--dim", "3", "--trials", "40"]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0, argv
        assert "status: pass" in out


def spy(monkeypatch, module, name, calls, result=None):
    """Record each call of module.name in calls; return result, or what
    the real function returns when result is None."""
    real = getattr(module, name)

    def wrapper(*args):
        calls.append((name,) + args)
        return real(*args) if result is None else result

    monkeypatch.setattr(module, name, wrapper)


def test_cuntz_runs_the_lemma_and_word_matrices_only_for_build(capsys,
                                                               monkeypatch):
    calls = []
    spy(monkeypatch, cuntz, "lemma_structure", calls)
    spy(monkeypatch, cuntz, "dx_matrices", calls)
    rc, _, _ = run(capsys, ["cuntz", "verify", "--n-range", "21:33:4"])
    assert (rc, calls) == (0, [])
    argv = ["cuntz", "build", "--n", "5", "--mu", "0.2", "--json"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert [c[:3] for c in calls if c[0] == "lemma_structure"] == [
        ("lemma_structure", 5, Fraction(0.2))]
    # the report carries the lemma's verdict
    monkeypatch.undo()
    spy(monkeypatch, cuntz, "lemma_structure", [],
        cuntz.LemmaReport(off_column_zero=True, last_column_matches=False))
    rc, out, _ = run(capsys, argv)
    assert rc == 1
    assert [c["passed"] for c in json.loads(out)["checks"]] == [False]


def golden_input(name):
    return os.path.join(INPUTS, f"{name}.json")


PASF_P3, MULT_P3 = golden_input("pasf_p3"), golden_input("multiplier_p3")
OMEGA = ("--omega", golden_input("pasf_omega"))
P3_REPORTS = {
    "pasf check": (["pasf", "check", "--in", PASF_P3], True),
    "pasf perturb quadratic": (["pasf", "perturb", "--in", PASF_P3, *OMEGA],
                               False),
    "pasf perturb general": (["pasf", "perturb", "--in", PASF_P3, *OMEGA,
                              "--mode", "general", "--alpha", "0.1",
                              "--samples", "16"], False),
    "pasf perturb two_sided": (["pasf", "perturb", "--in", PASF_P3, *OMEGA,
                                "--mode", "two_sided", "--g",
                                golden_input("pasf_g"), "--case", "1"], False),
    "multiplier lip": (["multiplier", "lip", "--in", MULT_P3], False),
    "multiplier tail": (["multiplier", "tail", "--in", MULT_P3, "--cut", "4"],
                        False),
    "multiplier continuity": (["multiplier", "continuity", "--in", MULT_P3,
                               "--symbol", "1,0.5,0.25,0.125,0.0625,0,0,0,0,0"],
                              False),
}


@pytest.mark.parametrize("argv, ascends", P3_REPORTS.values(),
                         ids=P3_REPORTS.keys())
def test_only_reports_of_a_lower_end_run_the_norm_ascent(capsys, monkeypatch,
                                                         argv, ascends):
    # at p = 3 no norm has an exact formula; perturb and the multiplier
    # read only upper bounds
    calls = []
    spy(monkeypatch, linops, "_ascent_lower", calls)
    rc, _, _ = run(capsys, argv)
    assert rc == 0
    assert bool(calls) == ascends


def test_cuntz_range_is_end_inclusive(capsys):
    rc, out, _ = run(capsys, ["cuntz", "verify", "--n-range", "6:10:2",
                              "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert [row["n"] for row in rep["result"]["rows"]] == [6, 8, 10]


def test_cuntz_bad_range(capsys):
    rc, _, err = run(capsys, ["cuntz", "verify", "--n-range", "10:6"])
    assert rc == 2


# one refusal rule for every verb: each perturbation parameter is a
# nonnegative number and the Cuntz scale a positive one (the numeric
# options only: vsdilate intertwine's --s names a file)
REFUSED = {**dict.fromkeys(("--alpha", "--beta", "--gamma", "--r", "--s",
                            "--t"), ("-0.1", ">= 0")), "--mu": ("0", "> 0")}
REFUSALS = [(group, verb, flag)
            for (group, verb), (_, options) in cli._OPTIONS.items()
            for flags, kwargs in options if "type" in kwargs
            for flag in flags if flag in REFUSED]


def test_the_refusal_walk_reaches_every_perturb_and_cuntz_scale_verb():
    assert {(group, verb) for group, verb, _ in REFUSALS} == {
        ("hframe", "perturb"), ("pasf", "perturb"), ("ovf", "perturb"),
        ("cuntz", "build"), ("cuntz", "verify")}
    assert {flag for _, _, flag in REFUSALS} == set(REFUSED)


@pytest.mark.parametrize("group, verb, flag", REFUSALS,
                         ids=[" ".join(case) for case in REFUSALS])
def test_every_verb_refuses_a_negative_parameter_and_a_zero_scale(
        capsys, group, verb, flag):
    value, bound = REFUSED[flag]
    rc, out, err = run(capsys, [group, verb, flag, value])
    assert (rc, out) == (2, "")
    assert [ln for ln in err.splitlines() if "error:" in ln] == [
        f"error: argument {flag}: must be finite and {bound}, got '{value}'"]
