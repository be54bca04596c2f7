"""framekit benchmark: one seeded workload, closed loop, one caller.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a framekit checkout; the program is imported from
its ``src`` directory, so no install is needed. The workload's inputs are
generated from ``--seed`` under ``.perfbench/work``; every invocation is
checked against the verdict its construction implies.

``--trace 0`` measures the end-to-end metrics with no tracing installed:
``setup_s`` (median wall time of fresh interpreters that import
``framekit.cli`` and build the parser, spawned one at a time),
``ops_per_s``, ``report_s.p50``, ``report_s.tail`` (the highest
percentile with at least ten samples beyond it), ``peak_rss_mb`` and
``ok_frac`` (1 - failed / attempted). The set-up spawns are spread over
the run, between passes. Times are scaled to a nominal host speed by the
reference kernel in ``hostspeed.py``: each invocation's by the kernel
timed just before and just after it, the spawns' median by the median
kernel time of the run. The raw times are kept in the result record.

``--trace 1`` replays the same passes alternately untraced and traced
and reports the per-layer metrics per pass of the verb list, plus
``trace.overhead_frac`` (untraced over traced ops per second, minus 1).

The last line of standard output is the JSON result; a fuller record,
with the environment stamp, per-verb times, report digests and, for a
traced run, the spans, is written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
from loop import Gate, run_pass
from spans import PER_LAYER, Tracer, layer_metrics, unit_of
from workloads import WORKLOADS, build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(".perfbench", "results")

SETUP_SPAWNS = 9
SETUP_CODE = "import framekit.cli as cli; cli.build_parser()"


def spawn_seconds() -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds its
    parser, with the repository's src on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          cwd=ROOT, capture_output=True, timeout=60)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError("set-up spawn failed: "
                           + done.stderr.decode(errors="replace")[-500:])
    return seconds


def tail(values) -> tuple:
    """(value, percentile): the highest percentile of the samples that
    still has ten samples beyond it, i.e. the eleventh largest."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def blas_threads():
    """numpy's BLAS thread count, read from the loaded OpenBLAS when it
    can be found, with the thread environment variables."""
    env = {k: os.environ[k] for k in ("OMP_NUM_THREADS",
                                      "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    threads = None
    try:
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return {"openblas_threads": threads, "env": env}


def environment(np) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "framekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": blas_threads(), "commit": commit,
            "src_sha256": h.hexdigest(), "platform": platform.platform()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled(done) -> list:
    """Call times of a pass scaled to the nominal host speed."""
    return [t * hostspeed.scale(p) for _, t, p in done]


def measure(cli, calls, seconds: float, gate) -> dict:
    """Warm pass, then whole passes back to back until the budget is
    spent (a pass is started only if it should end in time). The set-up
    spawns run one at a time between passes and do not count toward the
    passes' time."""
    run_pass(cli.main, calls, gate, hostspeed.probe)
    spawn_seconds()  # fills the file cache and the bytecode; not counted
    done, spawns, passes = [], [], 0
    start = time.perf_counter()
    while True:
        done += run_pass(cli.main, calls, gate, hostspeed.probe)
        passes += 1
        elapsed = time.perf_counter() - start
        if len(spawns) < SETUP_SPAWNS * elapsed / seconds:
            spawns.append(spawn_seconds())
        if elapsed + 0.5 * elapsed / passes >= seconds:
            break
    while len(spawns) < SETUP_SPAWNS:
        spawns.append(spawn_seconds())
    return {"done": done, "passes": passes, "spawns": spawns}


def end_to_end(cli, calls, seconds, gate) -> tuple:
    got = measure(cli, calls, seconds, gate)
    done = got["done"]
    times = scaled(done)
    raw = [t for _, t, _ in done]
    # a spawn runs in another process and cannot be bracketed call by
    # call; the median probe of the whole run scales the spawns' median
    probe_s = statistics.median(p for _, _, p in done)
    spawns = statistics.median(got["spawns"])
    value, pct = tail(times)
    ok = 1.0 - gate.failed / gate.attempted
    metrics = {
        "setup_s": (spawns * hostspeed.scale(probe_s), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "report_s.p50": (statistics.median(times), "s"),
        "report_s.tail": (value, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "ok_frac": (ok, "ratio"),
    }
    per_verb = {}
    for (verb, _, _), t in zip(done, times):
        per_verb.setdefault(verb, []).append(t)
    detail = {"raw": {"setup_s": spawns, "ops_per_s": len(raw) / sum(raw),
                      "report_s.p50": statistics.median(raw),
                      "report_s.tail": tail(raw)[0]},
              "probe_s_median": probe_s, "setup_spawns_raw_s": got["spawns"],
              "passes": got["passes"], "samples": len(times),
              "tail_percentile": pct, "fail_frac": 1.0 - ok,
              "per_verb_median_s": {v: statistics.median(ts) for v, ts
                                    in sorted(per_verb.items())}}
    return metrics, detail


def traced(cli, framekit, calls, seconds, gate, spans_path) -> tuple:
    """Alternate untraced and traced passes of the same calls; the
    wrappers are installed only around the traced passes. Span times are
    raw; the overhead compares scaled pass times."""
    run_pass(cli.main, calls, gate, hostspeed.probe)
    tracer = Tracer()
    plain_t = traced_t = 0.0
    passes = 0
    start = time.perf_counter()
    main = lambda argv: cli.main(argv)  # looked up per call: sees wrappers
    while True:
        plain_t += sum(scaled(run_pass(main, calls, gate, hostspeed.probe)))
        tracer.install(framekit)
        try:
            traced_t += sum(scaled(run_pass(main, calls, gate,
                                            hostspeed.probe)))
        finally:
            tracer.restore()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            break
    layer = layer_metrics(tracer, passes)
    layer["trace.overhead_frac"] = traced_t / plain_t - 1.0
    metrics = {name: (layer.get(name, 0.0), unit_of(name))
               for name in PER_LAYER}
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, request in tracer.spans:
            fh.write(json.dumps([name, t0, t1, parent, request]) + "\n")
    detail = {"passes": passes, "untraced_s": plain_t, "traced_s": traced_t,
              "spans": len(tracer.spans), "spans_file": spans_path,
              "fail_frac": gate.failed / gate.attempted}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "framekit", "cli.py")):
        print(f"error: no framekit sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import numpy as np
    import framekit
    import framekit.cli as cli
    if not os.path.abspath(framekit.__file__).startswith(SRC + os.sep):
        print(f"error: imported framekit from {framekit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(".perfbench", "work",
                        f"{args.workload}-{args.seed}")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                             f"trace{args.trace}")
    gate = Gate()
    try:
        calls = build(args.workload, args.seed, work)
        if args.trace:
            metrics, detail = traced(cli, framekit, calls, args.seconds,
                                     gate, stem + "-spans.jsonl")
        else:
            metrics, detail = end_to_end(cli, calls, args.seconds, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "load": "closed loop, one caller, in process",
        "environment": environment(np),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "detail": detail, "attempted": gate.attempted,
        "failed": gate.failed, "failures": gate.failure_list(),
        "reports_sha256": gate.combined_digest(),
        "reports": gate.digests(),
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for f in record["failures"]:
        print(f"FAILED x{f['count']}: {' '.join(f['argv'])}: {f['reason']}")
    if not args.trace:
        print(f"report_s.tail is p{detail['tail_percentile']:.2f} of "
              f"{detail['samples']} samples")
    print(f"reports sha256 {record['reports_sha256']}; record {stem}.json")
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
