import json

import numpy as np
import pytest

from framekit import cli, cuntz, hframe, linops, metricframe, ovf, pasf, sip
from framekit.cli import dump_frame, dump_matrix, dump_ovf, dump_pasf, main
from framekit.errors import CertifiedFailure


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


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "framekit" in out


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


def test_certified_failures_keep_name_and_base():
    for cls, base in ((hframe.NotAFrame, ValueError),
                      (hframe.DependentInput, ValueError),
                      (hframe.HypothesisViolated, ValueError),
                      (pasf.NotADual, ValueError),
                      (linops.NotInvertible, ValueError),
                      (cuntz.ConvergenceError, RuntimeError)):
        assert issubclass(cls, CertifiedFailure) and issubclass(cls, base)
    assert (pasf.HypothesisViolated is metricframe.HypothesisViolated
            is ovf.HypothesisViolated is hframe.HypothesisViolated)


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
    P = sip.make_parseval(2.0, 3, 5, seed=4)
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


def test_cuntz_verbs(capsys):
    for argv in (["cuntz", "solve", "--n", "4"],
                 ["cuntz", "build", "--n", "4"],
                 ["cuntz", "verify", "--n-range", "6:8:2"],
                 ["cuntz", "obstruction", "--dim", "3", "--trials", "40"]):
        rc, out, _ = run(capsys, argv)
        assert rc == 0, argv
        assert "status: pass" in out


def test_cuntz_range_is_end_inclusive(capsys):
    rc, out, _ = run(capsys, ["cuntz", "verify", "--n-range", "6:10:2",
                              "--json"])
    assert rc == 0
    rep = json.loads(out)
    assert [row["n"] for row in rep["result"]["rows"]] == [6, 8, 10]


def test_cuntz_bad_range(capsys):
    rc, _, err = run(capsys, ["cuntz", "verify", "--n-range", "10:6"])
    assert rc == 2
