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
"""

import argparse
import contextlib
import io
import json
import os

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

# Reports: each argv runs with text output and again with --json.
REPORTS = [
    ["hframe", "bounds", "--in", FRAME],
    ["hframe", "bounds", "--in", MERCEDES, "--tol", "1e-30"],
    ["hframe", "dual", "--in", FRAME],
    ["hframe", "parsevalize", "--in", FRAME],
    ["hframe", "algorithm", "--in", FRAME, "--iters", "30", "--seed", "9"],
    ["hframe", "identity", "--in", MERCEDES, "--subset", "0,2"],
    ["hframe", "identity", "--in", FRAME, "--subset", "1,3", "--mode",
     "general", "--h", "1,2,3"],
    ["hframe", "dilate", "--in", FRAME],
    ["hframe", "dilate", "--in", MERCEDES],
    ["hframe", "perturb", "--in", FRAME, "--other", _in("frame_g")],
    ["hframe", "perturb", "--in", FRAME, "--other", _in("frame_g"),
     "--mode", "general", "--alpha", "0.1", "--beta", "0.1", "--gamma",
     "0.1", "--samples", "16", "--seed", "2"],
    ["pasf", "check", "--in", PASF],
    ["pasf", "check", "--in", _in("pasf_square"), "--seed", "1"],
    ["pasf", "dual", "--in", PASF],
    ["pasf", "alldual", "--in", PASF, "--u", _in("pasf_u"), "--v",
     _in("pasf_v")],
    ["pasf", "similar", "--in", PASF, "--other", PASF],
    ["pasf", "dilate", "--in", PASF],
    ["pasf", "dilate", "--in", _in("pasf_shift")],
    ["pasf", "riesz", "--in", _in("pasf_square")],
    ["pasf", "perturb", "--in", PASF, "--omega", _in("pasf_omega")],
    ["pasf", "perturb", "--in", PASF, "--omega", _in("pasf_omega"),
     "--mode", "general", "--alpha", "0.1", "--samples", "16"],
    ["pasf", "expand", "--in", _in("pasf_weak"), "--other", PASF,
     "--lam", "1.5"],
    ["sip", "identity", "--in", _in("sip"), "--subset", "0,2", "--seed", "6"],
    ["sip", "parseval", "--in", _in("sip"), "--subset", "1,4", "--seed", "6"],
    ["sip", "lower34", "--in", _in("sip"), "--subset", "0,3", "--seed", "6"],
    ["sip", "identity", "--in", _in("sip"), "--subset", "1", "--p", "3",
     "--x", "1,-2,0.5"],
    ["metric", "bounds", "--in", _in("sample"), "--family", "log(1)",
     "--terms", "24"],
    ["metric", "logframe", "--points", "25", "--terms", "40", "--seed", "3"],
    ["multiplier", "apply", "--in", MULT, "--point", "2"],
    ["multiplier", "lip", "--in", MULT],
    ["multiplier", "tail", "--in", MULT, "--cut", "4"],
    ["multiplier", "continuity", "--in", MULT, "--symbol",
     "0.9,0.45,0.225,0.1125,0.05625,0.028125,0.0140625,0.00703125,"
     "0.003515625,0.0017578125"],
    ["multiplier", "continuity", "--in", MULT, "--vectors",
     _in("multiplier_vectors")],
    ["ovf", "check", "--in", OVF],
    ["ovf", "dual", "--in", OVF],
    ["ovf", "similar", "--in", OVF, "--other", OVF],
    ["ovf", "classify", "--in", _in("ovf_parseval")],
    ["ovf", "dilate", "--in", _in("ovf_parseval")],
    ["ovf", "group", "--rep", "c4", "--a", _in("ovf_a"), "--psi",
     _in("ovf_psi")],
    ["ovf", "perturb", "--in", OVF, "--b", _in("ovf_b")],
    ["ovf", "perturb", "--in", OVF, "--b", _in("ovf_b"), "--mode", "triple",
     "--samples", "8"],
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
    ["cuntz", "solve", "--n", "4"],
    ["cuntz", "build", "--n", "3"],
    ["cuntz", "verify", "--n-range", "6:8:2"],
    ["cuntz", "obstruction", "--dim", "3", "--trials", "40"],
    # certified failures: exit 1 with a fail report
    ["pasf", "riesz", "--in", _in("pasf_trunc")],
    ["hframe", "dual", "--in", _in("thin")],
    ["ovf", "dilate", "--in", OVF],
    ["vsdilate", "ando", "--in", VST, "--other", _in("vs_nil"),
     "--horizon", "2"],
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


def record() -> None:
    os.chdir(GOLDEN)
    records = [_invoke(argv) for argv in _argvs()]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(OPTIONS, "w", encoding="utf-8") as fh:
        json.dump(option_table(), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
