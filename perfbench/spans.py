"""Spans recorded around framekit's layers from outside the program.

``Tracer.install`` replaces the public functions of each ``framekit``
module with timing wrappers on every name a caller looks up: the module
attribute, any other module's ``from .x import f`` binding of the same
function, the methods of the vsdilate dataclasses, ``MetricSample``'s
constructor hook and the ``cli._HANDLERS`` table. ``restore`` puts every
original back. Spans (name, start, end, parent, request) stay in memory
until the run writes them out; ``layer_metrics`` folds them into the
per-layer figures, using self time: a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "hframe", "pasf", "sip", "metricframe", "multiplier", "ovf",
          "vsdilate", "cuntz", "linops")

# Per-element helpers, called once per vector, matrix entry or word: a
# span costs more than the call itself, so these stay unwrapped and their
# time counts toward the caller.
UNWRAPPED = {
    "linops": {"vec_pnorm", "herm", "as_matrix", "as_vector",
               "dual_exponent"},
    "vsdilate": {"max_abs"},
    "sip": {"sip", "sip_functional"},
    "cuntz": {"word", "unit", "zero", "commutator"},
    "metricframe": {"log_family_reconstructor"},
    "cli": {"g", "interval", "fmt_basis", "dump_matrix", "dump_frame",
            "dump_pasf", "dump_ovf", "dump_word_element",
            "dump_word_matrix", "command", "top_group"},
}
# Private names that still mark a layer boundary.
PRIVATE_WRAPPED = {"cli": {"_plain", "_parse_range"}}
# Functions that call themselves through their module global.
RECURSIVE = {"cli._plain"}

ARGPARSE = {"cli.build_parser"}
RENDER = {"cli._plain", "cli.canonical", "cli.render_text"}
SAMPLE = {"metricframe.sample_from_points", "metricframe.sample_from_vectors",
          "metricframe.MetricSample.__post_init__"}
METRIC_SCAN = {f"metricframe.{n}" for n in (
    "metric_frame_bounds", "reconstruction_check", "lipschitz_number",
    "perturb_certificate", "diff_lip_radius")}
MULTIPLIER_SCAN = {f"multiplier.{n}" for n in (
    "lip_bound_check", "tail_decay", "continuity")}
VS_VERIFY = {"vsdilate.mat_power"} | {
    f"vsdilate.{cls}.{m}" for cls, m in (
        ("DilationQuadruple", "compression"),
        ("DilationQuadruple", "inverse_defect"),
        ("BandedWindow", "compression"),
        ("BandedWindow", "interior_identity_defect"),
        ("StandardDilation", "dilation_defect"),
        ("StandardDilation", "idempotent_defect"),
        ("StandardDilation", "minimality_check"),
        ("AndoDilation", "dilation_defect"),
        ("AndoDilation", "pad_identity_check"))}
INTERVAL = {"linops.opnorm_interval", "linops.opnorm_mixed_interval"}


def _is_load(name: str) -> bool:
    short = name.split(".", 1)[1] if name.startswith("cli.") else ""
    return short.startswith("parse_") or short in (
        "load_json", "need_in", "family_arg", "_parse_range", "csv_floats",
        "vector_arg", "subset_arg", "config_from")


class Tracer:
    """Installs wrappers, records spans and work counts, restores."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, request]
        self.stack = []
        self.request = -1
        self.counts = defaultdict(float)
        self.hi_lo = 1.0
        self._patches = []  # (namespace, key, original, is_dict)
        self.handlers = set()

    # ---------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn, after=None, unbind=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            if not stack:  # a root span starts a new request
                self.request += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if unbind is not None:
                setattr(unbind, fn.__name__, fn)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if unbind is not None:
                    setattr(unbind, fn.__name__, wrapper)
                stack.pop()
                spans[sid] = [name, t0, t1, parent, self.request]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after(self, name: str):
        """Work counters read from a call's arguments or result."""
        if name in METRIC_SCAN:
            return lambda args, _: self._pairs("metricframe.pairs", args[0].n)
        if name in MULTIPLIER_SCAN:
            return lambda args, _: self._pairs("multiplier.pairs",
                                               args[0].sample.n)
        if name == "cuntz.solve_b":
            def iterations(_, result):
                self.counts["cuntz.solve_iterations"] += result.iterations
            return iterations
        if name in INTERVAL:
            def looseness(_, iv):
                if iv.lo > 0:
                    self.hi_lo = max(self.hi_lo, iv.hi / iv.lo)
            return looseness
        return None

    def _pairs(self, key: str, n: int):
        self.counts[key] += n * (n - 1) // 2

    def _patch(self, namespace, key, value, is_dict=False):
        original = namespace[key] if is_dict else getattr(namespace, key)
        self._patches.append((namespace, key, original, is_dict))
        if is_dict:
            namespace[key] = value
        else:
            setattr(namespace, key, value)

    def install(self, package) -> None:
        """Wrap the layers of an imported framekit package."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for key, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    continue
                private = key.startswith("_")
                if key in UNWRAPPED.get(layer, ()) or (
                        private and key not in PRIVATE_WRAPPED.get(layer, ())):
                    continue
                name = f"{layer}.{key}"
                unbind = mod if name in RECURSIVE else None
                wrapper = self._wrap(name, obj, self._after(name), unbind)
                wrapped[id(obj)] = wrapper
                self._patch(mod, key, wrapper)
        # other modules' own bindings (from .linops import inverse, ...)
        for mod in modules.values():
            for key, obj in list(vars(mod).items()):
                if id(obj) in wrapped and getattr(mod, key) is obj:
                    self._patch(mod, key, wrapped[id(obj)])
        vs = modules["vsdilate"]
        for cls in [c for c in vars(vs).values()
                    if inspect.isclass(c) and c.__module__ == vs.__name__]:
            for key, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not key.startswith("_"):
                    name = f"vsdilate.{cls.__name__}.{key}"
                    self._patch(cls, key, self._wrap(name, obj))
        sample = modules["metricframe"].MetricSample
        self._patch(sample, "__post_init__", self._wrap(
            "metricframe.MetricSample.__post_init__", sample.__post_init__))
        table = modules["cli"]._HANDLERS
        for path, fn in list(table.items()):
            wrapper = wrapped.get(id(fn)) or self._wrap(
                f"cli.{fn.__name__}", fn)
            self.handlers.add(f"cli.{fn.__name__}")
            self._patch(table, path, wrapper, is_dict=True)

    def restore(self) -> None:
        while self._patches:
            namespace, key, original, is_dict = self._patches.pop()
            if is_dict:
                namespace[key] = original
            else:
                setattr(namespace, key, original)


# ------------------------------------------------------------ analysis


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for sid, (_, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for sid, (_, t0, t1, _, _) in enumerate(spans):
        covered, edge = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per pass of the workload's verb list."""
    own = self_times(tracer.spans)
    m = defaultdict(float)
    for (name, *_), t in zip(tracer.spans, own):
        layer = name.split(".", 1)[0]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += t
        if name in ARGPARSE:
            m["cli.argparse_s"] += t
        elif name in RENDER:
            m["cli.render_s"] += t
        elif _is_load(name):
            m["cli.load_s"] += t
        elif name in tracer.handlers:
            m["cli.handler_self_s"] += t
        if name in SAMPLE:
            m["metricframe.sample_s"] += t
        elif name in METRIC_SCAN:
            m["metricframe.scan_s"] += t
        elif name in MULTIPLIER_SCAN:
            m["multiplier.scan_s"] += t
        elif name in VS_VERIFY:
            m["vsdilate.verify_s"] += t
        elif layer == "vsdilate":
            m["vsdilate.build_s"] += t
        elif name == "cuntz.solve_b":
            m["cuntz.solve_s"] += t
        elif name == "cuntz.lemma_structure":
            m["cuntz.lemma_s"] += t
        elif name in ("cuntz.build_DX", "cuntz.verify_bounds"):
            m["cuntz.build_s"] += t
        elif name in INTERVAL:
            m["linops.interval_s"] += t
        elif name.endswith(".perturb_certificate"):
            m[f"{layer}.perturb_s"] += t
    for key, value in tracer.counts.items():
        m[key] += value
    out = {key: value / passes for key, value in m.items()}
    out["linops.interval_hi_lo"] = tracer.hi_lo
    return out


PER_LAYER = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    + ["cli.argparse_s", "cli.load_s", "cli.render_s", "cli.handler_self_s",
       "metricframe.sample_s", "metricframe.scan_s", "metricframe.pairs",
       "multiplier.pairs", "multiplier.scan_s", "vsdilate.build_s",
       "vsdilate.verify_s", "cuntz.solve_s", "cuntz.lemma_s", "cuntz.build_s",
       "cuntz.solve_iterations", "linops.interval_s", "linops.interval_hi_lo",
       "hframe.perturb_s", "pasf.perturb_s", "ovf.perturb_s",
       "trace.overhead_frac"])


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s/pass"
    if name in ("linops.interval_hi_lo", "trace.overhead_frac"):
        return "ratio"
    return "count/pass"
