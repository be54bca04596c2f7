"""Closed loop and correctness gate.

One caller issues the pass's invocations back to back, in process,
through ``framekit.cli.main(argv)``: the next call starts only when the
previous one has returned. Nothing else runs alongside the timed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """What one invocation returned: exit code, stdout, stderr, and the
    wall time from argv to canonical JSON on stdout."""

    code: object
    out: str
    err: str
    seconds: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out.encode()).hexdigest()


def invoke(main, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception:  # a crash is recorded as a failed invocation
        code = "crash: " + traceback.format_exc(limit=-3).strip()
    seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def _non_finite(x, path="$"):
    if isinstance(x, float) and not math.isfinite(x):
        return path
    if isinstance(x, dict):
        for k, v in x.items():
            bad = _non_finite(v, f"{path}.{k}")
            if bad:
                return bad
    if isinstance(x, list):
        for i, v in enumerate(x):
            bad = _non_finite(v, f"{path}[{i}]")
            if bad:
                return bad
    return None


def verdict(call, got: Outcome):
    """None when the invocation did what its construction implies,
    otherwise the reason it failed."""
    if got.code != call.exit:
        return f"exit {got.code!r}, expected {call.exit}" + \
               (f" ({got.err.strip()[:200]})" if got.err else "")
    if call.exit == 2:
        if got.out or not got.err.startswith("error:"):
            return "usage error must print only 'error: ...' on stderr"
        return None
    try:
        rep = json.loads(got.out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    bad = _non_finite(rep)
    if bad:
        return f"non-finite value at {bad}"
    canon = json.dumps(rep, sort_keys=True, separators=(",", ":"),
                       allow_nan=False) + "\n"
    if canon != got.out:
        return "stdout is not canonical JSON"
    failed = {c["name"] for c in rep["checks"] if not c["passed"]}
    if failed != set(call.failed):
        return f"failed checks {sorted(failed)}, expected {sorted(call.failed)}"
    want_status = "pass" if call.exit == 0 else "fail"
    if rep["status"] != want_status:
        return f"status {rep['status']}, expected {want_status}"
    if call.error is not None and not str(rep.get("error", "")).startswith(
            call.error):
        return f"error {rep.get('error')!r}, expected {call.error}"
    if call.expect is not None:
        return call.expect(rep)
    return None


@dataclass
class Gate:
    """Checks every invocation: the first call of each argv in full, every
    later one by exit code and byte identity with the first."""

    first: dict = field(default_factory=dict)  # argv -> (code, digest, why)
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)  # argv -> [reason, count]

    def record(self, call, got: Outcome) -> bool:
        self.attempted += 1
        key = call.argv
        if key not in self.first:
            reason = verdict(call, got)
            self.first[key] = (got.code, got.digest, reason)
        else:
            code, digest, reason = self.first[key]
            if reason is None and (got.code, got.digest) != (code, digest):
                reason = "report bytes differ from the first call with " \
                         "the same argv"
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(key, [reason, 0])[1] += 1
        return reason is None

    def failure_list(self) -> list:
        return [{"argv": list(k), "reason": why, "count": n}
                for k, (why, n) in self.failures.items()]

    def digests(self) -> list:
        return [{"argv": list(k), "exit": v[0], "sha256": v[1]}
                for k, v in self.first.items()]

    def combined_digest(self) -> str:
        h = hashlib.sha256()
        for k, (code, digest, _) in self.first.items():
            h.update(json.dumps([list(k), code, digest]).encode())
        return h.hexdigest()


def run_pass(main, calls, gate: Gate, probe) -> list:
    """Issue every call once. Returns each call's (verb, wall seconds,
    probe seconds). The host-speed probe runs before each call and after
    the last, outside the calls' times; a call's probe seconds are the
    mean of the runs just before and just after it."""
    done, probes = [], [probe()]
    for call in calls:
        got = invoke(main, call.argv)
        gate.record(call, got)
        probes.append(probe())
        done.append((call.verb, got.seconds, (probes[-2] + probes[-1]) / 2))
    return done
