"""Golden-output gate for the command line.

Every verb runs over the fixed inputs in ``tests/golden/inputs`` once
with text output and once with ``--json``; the exit code and the stdout
bytes must match ``tests/golden/expected.json``. Usage errors must exit
2 with empty stdout and the same error message (the text after
``error: `` on stderr). The option table of every verb (flags, dest,
default, required, choices, help, metavar, nargs and action) must match
``tests/golden/options.json``.

Record the expected files again, only when an output is meant to
change, with::

    PYTHONPATH=src python tests/test_golden.py

Given words, as in ``PYTHONPATH=src python tests/test_golden.py vsdilate
ando``, it records again only the argvs that start with them, records
argvs that have no record yet, and leaves every other record and
``options.json`` byte-for-byte as they are.
"""

import argparse
import contextlib
import io
import json
import os
import sys

import pytest

from framekit import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXPECTED = os.path.join(GOLDEN, "expected.json")
OPTIONS = os.path.join(GOLDEN, "options.json")


def _in(name: str) -> str:
    return f"inputs/{name}.json"


FRAME, MERCEDES, PASF, MULT, OVF, VST = (
    _in("frame"), _in("mercedes"), _in("pasf"), _in("multiplier"),
    _in("ovf"), _in("vs_t"))


def _overflow(*mode) -> list:
    """The argvs, ending in mode, of the four verbs that form T^2 on
    diag(1, 1e200) and diag(1e200, 1), whose 1e400 is past the largest
    double."""
    return [["vsdilate", verb, "--in", _in(f"vs_overflow_{where}"), *opts,
             *mode]
            for where in ("last", "first")
            for verb, *opts in (("ndilate", "--n", "3"),
                                ("standard", "--horizon", "3"),
                                ("sznagy", "--window", "3"),
                                ("intertwine", "--other",
                                 _in(f"vs_overflow_{where}"), "--s",
                                 _in("vs_eye"), "--horizon", "3"))]


# Reports: each argv runs with text output and again with --json.
REPORTS = [
    ["hframe", "bounds", "--in", FRAME],
    ["hframe", "bounds", "--in", MERCEDES, "--tol", "1e-30"],
    # the named frames other than mercedes
    ["hframe", "bounds", "--in", _in("frame_harmonic")],
    ["hframe", "bounds", "--in", _in("frame_lines")],
    ["hframe", "dual", "--in", FRAME],
    ["hframe", "parsevalize", "--in", FRAME],
    ["hframe", "algorithm", "--in", FRAME, "--iters", "30", "--seed", "9"],
    ["hframe", "identity", "--in", MERCEDES, "--subset", "0,2"],
    ["hframe", "identity", "--in", FRAME, "--subset", "1,3", "--mode",
     "general", "--h", "1,2,3"],
    # a Parseval frame: auto adds the Parseval form and the 3/4 lower bound
    ["hframe", "identity", "--in", _in("frame_harmonic"), "--subset", "0,1"],
    ["hframe", "dilate", "--in", FRAME],
    ["hframe", "dilate", "--in", MERCEDES],
    ["hframe", "perturb", "--in", FRAME, "--other", _in("frame_g")],
    ["hframe", "perturb", "--in", FRAME, "--other", _in("frame_g"),
     "--mode", "general", "--alpha", "0.1", "--beta", "0.1", "--gamma",
     "0.1", "--samples", "16", "--seed", "2"],
    ["pasf", "check", "--in", PASF],
    ["pasf", "check", "--in", _in("pasf_square"), "--seed", "1"],
    # p = 3, d = 8, m = 10 (standard normal, seed 0): the ||S||_p ascent
    # runs to its 60-iteration cap
    ["pasf", "check", "--in", _in("pasf_d8")],
    ["pasf", "check", "--in", _in("pasf_singular")],
    ["pasf", "dual", "--in", PASF],
    ["pasf", "alldual", "--in", PASF, "--u", _in("pasf_u"), "--v",
     _in("pasf_v")],
    ["pasf", "similar", "--in", PASF, "--other", PASF],
    ["pasf", "similar", "--in", PASF, "--other", _in("pasf_dissimilar")],
    ["pasf", "dilate", "--in", PASF],
    ["pasf", "dilate", "--in", _in("pasf_shift")],
    ["pasf", "riesz", "--in", _in("pasf_square")],
    ["pasf", "perturb", "--in", PASF, "--omega", _in("pasf_omega")],
    ["pasf", "perturb", "--in", PASF, "--omega", _in("pasf_omega"),
     "--mode", "general", "--alpha", "0.1", "--samples", "16"],
    *[["pasf", "perturb", "--in", PASF, "--omega", _in("pasf_omega"),
       "--mode", "two_sided", "--g", _in("pasf_g"), "--case", str(k),
       "--alpha", "0.05", "--beta", "0.1", "--gamma", "0.02", "--r", "0.1",
       "--s", "0.2", "--t", "0.05"] for k in range(1, 5)],
    # p = 3: the norms come from the interpolation bound, not an exact formula
    ["pasf", "perturb", "--in", _in("pasf_p3"), "--omega", _in("pasf_omega")],
    ["pasf", "perturb", "--in", _in("pasf_p3"), "--omega", _in("pasf_omega"),
     "--mode", "general", "--alpha", "0.1", "--samples", "16"],
    ["pasf", "perturb", "--in", _in("pasf_p3"), "--omega", _in("pasf_omega"),
     "--mode", "two_sided", "--g", _in("pasf_g"), "--case", "1",
     "--alpha", "0.05", "--beta", "0.1", "--gamma", "0.02", "--r", "0.1",
     "--s", "0.2", "--t", "0.05"],
    ["pasf", "expand", "--in", _in("pasf_weak"), "--other", PASF,
     "--lam", "1.5"],
    ["sip", "identity", "--in", _in("sip"), "--subset", "0,2", "--seed", "6"],
    ["sip", "parseval", "--in", _in("sip"), "--subset", "1,4", "--seed", "6"],
    ["sip", "lower34", "--in", _in("sip"), "--subset", "0,3", "--seed", "6"],
    ["sip", "identity", "--in", _in("sip"), "--subset", "1", "--p", "3",
     "--x", "1,-2,0.5"],
    # a Parseval pair at p = 3 with d = 4 and m = 12 (tests/oracles.py's
    # make_parseval(3.0, 4, 12, 3)); on 1,5,7 at seed 0 the sign
    # condition of the 3/4 bound fails
    *[["sip", verb, "--in", _in("sip_d4"), "--subset", "0,3,4,9", "--seed",
       "1"] for verb in ("identity", "parseval", "lower34")],
    ["sip", "lower34", "--in", _in("sip_d4"), "--subset", "1,5,7", "--seed",
     "0"],
    ["metric", "bounds", "--in", _in("sample"), "--family", "log(1)",
     "--terms", "24"],
    ["metric", "bounds", "--in", _in("sample_rational"), "--family",
     "rational(1.5,3)", "--terms", "24"],
    # a metric that is not the line metric of its labels (each distance
    # is |x - y| + 1): the constructor runs the full triangle scan
    ["metric", "bounds", "--in", _in("sample_offset"), "--family", "log(1)",
     "--terms", "24"],
    ["metric", "logframe", "--points", "25", "--terms", "40", "--seed", "3"],
    # a tail term whose factorial leaves the float range
    ["metric", "logframe", "--points", "10", "--terms", "172"],
    ["multiplier", "apply", "--in", MULT, "--point", "2"],
    ["multiplier", "lip", "--in", MULT],
    ["multiplier", "lip", "--in", _in("multiplier_bessel")],
    ["multiplier", "tail", "--in", MULT, "--cut", "4"],
    # p = 3: the mixed norm 2 -> 1.5 of the vectors has no exact formula
    ["multiplier", "lip", "--in", _in("multiplier_p3")],
    ["multiplier", "tail", "--in", _in("multiplier_p3"), "--cut", "4"],
    ["multiplier", "continuity", "--in", MULT, "--symbol",
     "0.9,0.45,0.225,0.1125,0.05625,0.028125,0.0140625,0.00703125,"
     "0.003515625,0.0017578125"],
    ["multiplier", "continuity", "--in", MULT, "--vectors",
     _in("multiplier_vectors")],
    ["ovf", "check", "--in", OVF],
    ["ovf", "dual", "--in", OVF],
    ["ovf", "similar", "--in", OVF, "--other", OVF],
    ["ovf", "similar", "--in", OVF, "--other", _in("ovf_dissimilar")],
    ["ovf", "classify", "--in", _in("ovf_parseval")],
    ["ovf", "classify", "--in", OVF],
    ["ovf", "dilate", "--in", _in("ovf_parseval")],
    ["ovf", "group", "--rep", "c4", "--a", _in("ovf_a"), "--psi",
     _in("ovf_psi")],
    ["ovf", "group", "--rep", _in("rep_c4"), "--a", _in("ovf_a"), "--psi",
     _in("ovf_psi")],
    # a non-abelian group: a swapped product table changes the residuals
    ["ovf", "group", "--rep", _in("rep_d4"), "--a", _in("ovf_a"), "--psi",
     _in("ovf_psi")],
    ["ovf", "perturb", "--in", OVF, "--b", _in("ovf_b")],
    ["ovf", "perturb", "--in", OVF, "--b", _in("ovf_b"), "--mode", "triple",
     "--samples", "8"],
    # triple hypotheses that hold at the default 256 samples
    # (||theta_A - theta_B||_2 = 3.24e-4 < gamma)
    ["ovf", "perturb", "--in", OVF, "--b", _in("ovf_b"), "--mode", "triple",
     "--gamma", "5e-4"],
    ["ovf", "perturb", "--in", OVF, "--b", _in("ovf_b"), "--mode", "triple",
     "--gamma", "5e-4", "--alpha", "0.1", "--beta", "0.1"],
    ["vsdilate", "halmos", "--in", VST],
    ["vsdilate", "halmos", "--in", VST, "--no-rational"],
    ["vsdilate", "ndilate", "--in", VST, "--n", "2"],
    ["vsdilate", "sznagy", "--in", VST, "--window", "4"],
    ["vsdilate", "standard", "--in", VST, "--horizon", "3"],
    ["vsdilate", "standard", "--in", VST, "--horizon", "3", "--no-rational"],
    ["vsdilate", "ando", "--in", VST, "--other", _in("vs_half"),
     "--horizon", "2"],
    ["vsdilate", "intertwine", "--in", VST, "--other", VST, "--s",
     _in("vs_eye"), "--horizon", "3"],
    ["vsdilate", "witness", "--in", VST],
    # sizes where the exact products are large and mostly zero
    ["vsdilate", "standard", "--in", VST, "--horizon", "20"],
    ["vsdilate", "standard", "--in", VST, "--horizon", "20", "--no-rational"],
    ["vsdilate", "ndilate", "--in", VST, "--n", "20"],
    ["vsdilate", "ndilate", "--in", VST, "--n", "20", "--no-rational"],
    ["vsdilate", "ando", "--in", _in("vs_half"), "--other", _in("vs_eye"),
     "--horizon", "4"],
    ["vsdilate", "ando", "--in", _in("vs_half"), "--other", _in("vs_eye"),
     "--horizon", "4", "--no-rational"],
    # the verbs whose other records take vs_t's entries as given, here
    # rounded to doubles (1/3 is not one) and then computed exactly
    ["vsdilate", "witness", "--in", VST, "--no-rational"],
    ["vsdilate", "sznagy", "--in", VST, "--window", "4", "--no-rational"],
    ["vsdilate", "intertwine", "--in", VST, "--other", VST, "--s",
     _in("vs_eye"), "--horizon", "3", "--no-rational"],
    ["vsdilate", "ndilate", "--in", VST, "--n", "2", "--no-rational"],
    ["cuntz", "solve", "--n", "4"],
    # n = 2 writes the exact b
    ["cuntz", "solve", "--n", "2"],
    ["cuntz", "build", "--n", "3"],
    # n = 2 writes the exact corrector: D[0, 1] sums 1 and -2 u*u
    ["cuntz", "build", "--n", "2"],
    ["cuntz", "verify", "--n-range", "6:8:2"],
    # sizes where the lemma's exact commutator is large and mostly zero
    ["cuntz", "build", "--n", "12", "--mu", "0.2"],
    ["cuntz", "build", "--n", "40", "--mu", "0.4"],
    ["cuntz", "verify", "--n-range", "21:33:4"],
    ["cuntz", "obstruction", "--dim", "3", "--trials", "40"],
    # more trials than one draw of the obstruction holds at dim 3
    ["cuntz", "obstruction", "--dim", "3", "--trials", "1000"],
    # certified failures: exit 1 with a fail report
    ["pasf", "riesz", "--in", _in("pasf_trunc")],
    ["hframe", "dual", "--in", _in("thin")],
    # a family whose lower frame bound frame_bounds reports as 0
    *[["hframe", verb, "--in", _in("frame_ill")]
      for verb in ("parsevalize", "dual", "dilate")],
    ["ovf", "dilate", "--in", OVF],
    ["vsdilate", "ando", "--in", VST, "--other", _in("vs_nil"),
     "--horizon", "2"],
    ["vsdilate", "ando", "--in", VST, "--other", _in("vs_nil"),
     "--horizon", "2", "--no-rational"],
    # inputs whose second power leaves the doubles, in the exact field,
    # as given and rounded to doubles
    *_overflow(),
    *_overflow("--no-rational"),
]

# Usage errors: exit 2, nothing on stdout.
USAGE = [
    [],
    ["nosuch"],
    ["hframe", "nosuch"],
    ["hframe", "bounds"],
    ["hframe", "bounds", "--in", _in("broken")],
    ["hframe", "bounds", "--in", _in("missing")],
    ["hframe", "bounds", "--in", FRAME, "--tol", "abc"],
    ["hframe", "algorithm", "--in", FRAME, "--iters", "x"],
    ["hframe", "identity", "--in", FRAME],
    ["hframe", "identity", "--in", FRAME, "--subset", "0", "--mode", "bogus"],
    ["hframe", "identity", "--in", FRAME, "--subset", "0,9"],
    ["multiplier", "continuity", "--in", MULT],
    ["multiplier", "apply", "--in", MULT, "--point", "7"],
    ["metric", "logframe", "--lo", "0.5"],
    ["vsdilate", "halmos", "--in", _in("vs_bad")],
    ["cuntz", "verify", "--n-range", "10:6"],
    ["cuntz", "build", "--n", "2", "--mu", "0"],
    # tables that break the triangle inequality through one middle point
    ["metric", "bounds", "--in", _in("sample_bad"), "--family", "log(1)",
     "--terms", "24"],
    ["multiplier", "lip", "--in", _in("multiplier_bad")],
    # shape fields that are not integers: a fraction, a string, a bool
    ["vsdilate", "halmos", "--in", _in("vs_rows_float")],
    ["vsdilate", "halmos", "--in", _in("vs_cols_str")],
    ["vsdilate", "halmos", "--in", _in("vs_bool")],
    ["hframe", "bounds", "--in", _in("frame_rows_float")],
    ["hframe", "bounds", "--in", _in("frame_dim_str")],
    ["hframe", "bounds", "--in", _in("frame_dim_bool")],
    ["pasf", "check", "--in", _in("pasf_shift_float")],
    # scalar fields that are not finite numbers: a list, a string, a bool
    ["sip", "identity", "--in", _in("sip_p_list"), "--subset", "0"],
    ["pasf", "check", "--in", _in("pasf_p_str")],
    ["pasf", "check", "--in", _in("pasf_p_bool")],
    ["multiplier", "lip", "--in", _in("multiplier_out_norm_bool")],
    # a rational matrix with no rows
    ["vsdilate", "halmos", "--in", _in("vs_rows_zero")],
    # grid entries that are strings or bools
    ["pasf", "check", "--in", _in("pasf_grid_str_bool")],
    ["hframe", "bounds", "--in", _in("frame_vector_str_bool")],
    ["vsdilate", "halmos", "--in", _in("vs_entry_bool")],
    ["multiplier", "lip", "--in", _in("multiplier_values_str")],
    # a representation with a repeated label
    ["ovf", "group", "--rep", _in("rep_label_repeated"), "--a", _in("ovf_a"),
     "--psi", _in("ovf_psi")],
    # representations that are not closed, hold a non-unitary or a
    # non-square entry, or lack the identity
    *[["ovf", "group", "--rep", _in(f"rep_{name}"), "--a", _in("ovf_a"),
       "--psi", _in("ovf_psi")]
      for name in ("not_closed", "not_unitary", "not_square", "no_identity")],
    # a sample whose points are not a list
    ["multiplier", "lip", "--in", _in("multiplier_points_int")],
    # a sample whose distances hold strings and a bool
    ["metric", "bounds", "--in", _in("sample_dist_str_bool"), "--family",
     "log(1)", "--terms", "24"],
    # negative perturbation parameters and a zero scale
    ["pasf", "perturb", "--in", PASF, "--omega", _in("pasf_omega"),
     "--mode", "two_sided", "--g", _in("pasf_g"), "--case", "1",
     "--alpha", "0.05", "--beta", "0.1", "--gamma", "0.02", "--r", "-0.99",
     "--s", "0.2", "--t", "0.05"],
    ["pasf", "perturb", "--in", PASF, "--omega", _in("pasf_omega"),
     "--mode", "general", "--alpha", "-0.9", "--gamma", "0.5"],
    ["hframe", "perturb", "--in", FRAME, "--other", _in("frame_g"),
     "--mode", "general", "--alpha", "-0.5"],
    ["ovf", "perturb", "--in", OVF, "--b", _in("ovf_b"), "--mode", "triple",
     "--alpha", "-0.1"],
    ["cuntz", "verify", "--mu", "0"],
    # a T that is not square, and sizes below the least each verb takes
    ["vsdilate", "halmos", "--in", _in("vs_wide")],
    ["vsdilate", "ndilate", "--in", VST, "--n", "0"],
    ["vsdilate", "sznagy", "--in", VST, "--window", "1"],
    ["vsdilate", "standard", "--in", VST, "--horizon", "0"],
    # an S of the wrong shape: T1 S and S T2 cannot both be formed
    ["vsdilate", "intertwine", "--in", VST, "--other", VST, "--s",
     _in("vs_wide"), "--horizon", "2", "--no-rational"],
    # rational inputs of unequal sizes, refused by the construction's own
    # shape check before the hypothesis multiplies them
    ["vsdilate", "ando", "--in", _in("vs_t3"), "--other", VST,
     "--horizon", "2"],
    ["vsdilate", "intertwine", "--in", _in("vs_t3"), "--other",
     _in("vs_t3"), "--s", VST, "--horizon", "2"],
]


def _argvs() -> list:
    return ([a for argv in REPORTS for a in (argv, argv + ["--json"])]
            + USAGE)


def _invoke(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    got = {"argv": list(argv), "code": code, "stdout": out.getvalue()}
    if code == 2:
        lines = [ln for ln in err.getvalue().splitlines() if "error: " in ln]
        got["error"] = lines[0].split("error: ", 1)[1] if lines else None
    return got


def _subparsers(parser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def option_table() -> dict:
    """Groups with their help, and every verb's options in order."""
    groups = _subparsers(cli.build_parser())
    verbs = []
    for gname, gparser in groups.choices.items():
        for vname, vparser in _subparsers(gparser).choices.items():
            verbs.append({"command": f"{gname} {vname}", "options": [
                {"flags": a.option_strings, "dest": a.dest,
                 "default": a.default, "required": a.required,
                 "choices": a.choices, "help": a.help,
                 "metavar": a.metavar, "nargs": a.nargs,
                 "action": type(a).__name__}
                for a in vparser._actions]})
    return json.loads(json.dumps({
        "groups": [[a.dest, a.help] for a in groups._choices_actions],
        "verbs": verbs}))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def expected():
    return {tuple(rec["argv"]): rec for rec in _load(EXPECTED)}


def test_corpus_covers_every_verb():
    assert {tuple(argv[:2]) for argv in REPORTS} == set(cli._HANDLERS)


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_golden_output(argv, expected, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert _invoke(argv) == expected[tuple(argv)]


def test_golden_option_table():
    assert option_table() == _load(OPTIONS)


def record(words: list) -> None:
    os.chdir(GOLDEN)
    old = {tuple(rec["argv"]): rec for rec in _load(EXPECTED)} if words else {}
    records = [_invoke(argv) if argv[:len(words)] == words
               or tuple(argv) not in old else old[tuple(argv)]
               for argv in _argvs()]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if words:
        return
    with open(OPTIONS, "w", encoding="utf-8") as fh:
        json.dump(option_table(), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record(sys.argv[1:])
