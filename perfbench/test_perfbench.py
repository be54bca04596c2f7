"""Tests for the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import loop
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def snapshot(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def argv_in(calls, root):
    return [tuple(a.replace(root, "<dir>") for a in c.argv) for c in calls]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(tmp_path, workload):
    a, b, c = (str(tmp_path / n) for n in "abc")
    first = workloads.build(workload, 7, a)
    again = workloads.build(workload, 7, b)
    other = workloads.build(workload, 8, c)
    assert argv_in(first, a) == argv_in(again, b)
    assert snapshot(a) == snapshot(b)
    assert (argv_in(first, a), snapshot(a)) != (argv_in(other, c),
                                                 snapshot(c))


def test_self_time_on_a_synthetic_tree():
    # root 0..10 with children 1..4 and 3..6 (the latter holding 4..5)
    tree = [["a", 0.0, 10.0, -1, 0],
            ["b", 1.0, 4.0, 0, 0],
            ["c", 3.0, 6.0, 0, 0],
            ["d", 4.0, 5.0, 2, 0],
            ["e", 11.0, 12.0, -1, 1]]
    assert spans.self_times(tree) == pytest.approx([5.0, 3.0, 2.0, 1.0, 1.0])


def _bindings(framekit):
    seen = {}
    for layer in spans.LAYERS:
        mod = getattr(framekit, layer)
        for key, obj in vars(mod).items():
            seen[(layer, key)] = id(obj)
            if isinstance(obj, type):
                for attr, val in vars(obj).items():
                    seen[(layer, key, attr)] = id(val)
    for path, fn in framekit.cli._HANDLERS.items():
        seen[("handler",) + path] = id(fn)
    return seen


def test_wrappers_are_installed_and_restored(tmp_path, monkeypatch):
    import framekit
    import framekit.cli as cli

    before = _bindings(framekit)
    tracer = spans.Tracer()
    tracer.install(framekit)
    try:
        assert framekit.pasf.inverse is framekit.linops.inverse
        assert framekit.pasf.inverse.__wrapped__ is not None
        assert cli._HANDLERS[("hframe", "bounds")] is cli.cmd_hframe_bounds
        monkeypatch.chdir(tmp_path)
        gate = loop.Gate()
        calls = [c for c in workloads.build("sweep", 3, "in")
                 if c.argv[0] in ("hframe", "vsdilate", "metric")]
        loop.run_pass(lambda argv: cli.main(argv), calls, gate,
                      hostspeed.probe)
        assert gate.failed == 0, gate.failure_list()
    finally:
        tracer.restore()
    assert _bindings(framekit) == before
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "cli.build_parser", "cli.cmd_hframe_bounds",
            "hframe.frame_bounds", "metricframe.MetricSample.__post_init__",
            "vsdilate.StandardDilation.dilation_defect",
            "linops.inverse"} <= names
    m = spans.layer_metrics(tracer, 1)
    assert m["cli.calls"] > 0 and m["vsdilate.verify_s"] > 0


def test_gate_flags_exit_codes_and_changed_bytes():
    call = workloads.Call(("x", "y"), exit=0)
    good = loop.Outcome(0, '{"checks":[],"result":{},"status":"pass"}\n', "",
                        0.0)
    gate = loop.Gate()
    assert gate.record(call, good)
    assert not gate.record(call, loop.Outcome(0, good.out.replace(
        "pass", "fail"), "", 0.0))
    assert not gate.record(workloads.Call(("x", "z"), exit=1), good)
    assert (gate.attempted, gate.failed) == (3, 2)
    nan = loop.Outcome(0, '{"checks":[],"result":{"v":NaN},"status":"pass"}\n',
                       "", 0.0)
    assert "non-finite" in loop.verdict(call, nan)


def test_host_speed_scale():
    # a probe twice as slow as the reference halves the reported time
    assert hostspeed.scale(2 * hostspeed.REFERENCE_S) == pytest.approx(0.5)
    ticks = iter([1.0, 3.0, 5.0, 9.0])
    calls = [workloads.Call(("x", "y"), exit=2)]
    done = loop.run_pass(lambda argv: 2, calls, loop.Gate(),
                         lambda: next(ticks))
    # one call between probes reading 1 and 3: it is scaled by their mean
    assert [p for _, _, p in done] == [2.0]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_named_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert workload in [w["name"] for w in bench["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(ROOT, workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(tmp_path, "sweep", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
