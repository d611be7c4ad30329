"""Per-layer tracing from outside the program.

``install`` wraps the public functions of each gerbelab module (and a few
named methods) so that every call records a span: name, start, end, parent
span and job id.  Spans are kept in memory; ``write_spans`` saves them when
the run ends.  The wrappers replace the function in every namespace that
binds it (``gerbelab/__init__`` re-exports, ``from x import y`` in other
modules), and methods are replaced on their class.  Outside a job or set-up
span the wrappers record nothing.

A layer is a gerbelab module.  A span's self time is its duration minus the
part of it that its child spans cover.  The wrappers' own bookkeeping (sizes
read from arguments and results) runs inside ``trace.probe`` spans, which
belong to no layer but are subtracted from their parent's self time.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter

LAYERS = ("nerve", "models", "coeffs", "snf", "cech", "lifting", "schwinger",
          "connection", "io", "cli")

# Methods traced on their class; module-level public functions are all traced.
METHODS = {
    ("cech", "TwistedLocalSystem"): ("delta_matrix", "delta_snf", "delta_snf_mod"),
    ("lifting", "ObstructionResult"): ("class_result",),
    ("schwinger", "LoopPolynomial"): ("bracket",),
    ("connection", "BundleData"): ("transition_values",),
    ("cli", "Report"): ("add", "emit"),
}

# Per-simplex accessors: a span each would cost more than the call itself.
UNTRACED = {"nerve.faces", "nerve.simplices"}

# Calls answered by the cech layer; nested ones are part of their caller.
ANSWERS = ("cech.cohomology", "cech.is_coboundary", "cech.u1_is_coboundary",
           "cech.bockstein_dd")

PROBE = "trace.probe"
JOB = "job"
SETUP = "setup"


def span_name(layer, attr):
    if layer == "io" and (attr.startswith("parse_") or attr == "load_document"):
        return "io.parse"
    if layer == "cli" and attr in ("add", "emit"):
        return "cli.report"
    return f"{layer}.{attr}"


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.info = None


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name, job=None):
        parent = self.stack[-1] if self.stack else None
        if job is None and parent is not None:
            job = self.spans[parent].job
        self.spans.append(Span(name, clock(), parent, job))
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = clock()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                probe = tracer.open(PROBE)
                state = before(args)
                tracer.close(probe)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                probe = tracer.open(PROBE)
                span.info = after(args, result, state)
                tracer.close(probe)
            return result

        return traced


# ---------------------------------------------------------------------------
# size probes, computed from arguments and results


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _snf_sizes(args, result, _state):
    matrix = args[0]
    cols = result.ncols
    return {"cells": result.nrows * cols,
            "nnz": sum(1 for row in matrix for x in row if x),
            "bits": max(_bits([result.diag]), _bits(result.s),
                        _bits(result.s_inv), _bits(result.t))}


def _operator_bytes(_args, result, _state):
    return {"bytes": result.matrix.nbytes}


def _sample_cached(args):
    data, k, i = args[0], args[1], args[2]
    return (k, i) in getattr(data, "_transition_samples", {})


def _sample_hit(_args, _result, cached):
    return {"hit": cached}


PROBES = {
    "snf.smith_normal_form": (None, _snf_sizes),
    "schwinger.block_operator": (None, _operator_bytes),
    "connection.transition_values": (_sample_cached, _sample_hit),
}


def install(tracer, namespaces=()):
    """Wrap gerbelab for ``tracer``; returns an undo list for ``uninstall``.

    ``namespaces`` are extra modules (the benchmark's own) whose bindings of
    gerbelab functions are replaced as well.
    """
    replacements = {}
    undo = []
    for layer in LAYERS:
        mod = importlib.import_module(f"gerbelab.{layer}")
        for attr, obj in vars(mod).items():
            name = span_name(layer, attr)
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in UNTRACED):
                continue
            replacements[obj] = tracer.wrap(name, obj, *PROBES.get(name, (None, None)))
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(importlib.import_module(f"gerbelab.{layer}"), cls_name)
        for attr in methods:
            name = span_name(layer, attr)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original, *PROBES.get(name, (None, None))))
            undo.append((cls, attr, original))
    modules = [m for n, m in sys.modules.items()
               if n == "gerbelab" or n.startswith("gerbelab.")]
    for mod in modules + list(namespaces):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])
                undo.append((mod, attr, obj))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# self time and per-layer metrics


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, lo, hi = 0.0, None, None
        for c in sorted(children[i], key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.end - s.start - covered)
    return out


# (name, unit, better, should move, on workload).  BENCHMARK.json's
# per_layer list mirrors the first three columns.
PER_LAYER = [
    ("nerve.build_nerve.calls", "count", "lower", "setup_s", "exact"),
    ("nerve.build_nerve.self_s", "s", "lower", "setup_s", "exact"),
    ("nerve.simplices", "count", "lower", "setup_s (computed size)", "exact"),
    ("models.ordered_product.self_s", "s", "lower", "setup_s", "exact"),
    ("coeffs.verify_extension.self_s", "s", "lower", "setup_s", "exact"),
    ("coeffs.cyclic_central_extension.self_s", "s", "lower", "setup_s", "exact"),
    ("snf.smith_normal_form.calls", "count", "lower", "jobs_per_s job_tail_s", "exact"),
    ("snf.smith_normal_form.self_s", "s", "lower", "jobs_per_s job_tail_s setup_s", "exact"),
    ("snf.smith_normal_form.cells", "count", "lower", "peak_rss_mb", "exact"),
    ("snf.smith_normal_form.nnz_frac", "ratio", "lower", "(computed size)", "exact"),
    ("snf.max_entry_bits", "bit", "lower", "peak_rss_mb job_tail_s", "exact"),
    ("snf.matvec.calls", "count", "lower", "jobs_per_s", "exact"),
    ("snf.matvec.self_s", "s", "lower", "jobs_per_s", "exact"),
    ("snf.solve.self_s", "s", "lower", "job_p50_s", "exact"),
    ("snf.kernel_basis.self_s", "s", "lower", "jobs_per_s", "exact"),
    ("snf.lattice_basis.self_s", "s", "lower", "jobs_per_s job_tail_s", "exact"),
    ("snf.real_in_lattice.self_s", "s", "lower", "job_tail_s", "exact"),
    ("cech.cohomology.calls", "count", "lower", "jobs_per_s", "exact"),
    ("cech.cohomology.self_s", "s", "lower", "jobs_per_s", "exact"),
    ("cech.is_coboundary.calls", "count", "lower", "job_p50_s", "exact"),
    ("cech.is_coboundary.self_s", "s", "lower", "job_p50_s job_tail_s", "exact"),
    ("cech.u1_is_coboundary.calls", "count", "lower", "job_tail_s", "exact"),
    ("cech.u1_is_coboundary.self_s", "s", "lower", "job_tail_s", "exact"),
    ("cech.bockstein_dd.calls", "count", "lower", "job_tail_s", "exact"),
    ("cech.bockstein_dd.self_s", "s", "lower", "job_tail_s", "exact"),
    ("cech.coboundary.self_s", "s", "lower", "job_p50_s", "exact"),
    ("cech.delta_matrix.self_s", "s", "lower", "jobs_per_s", "exact"),
    ("cech.delta_snf.hit_ratio", "ratio", "higher", "job_p50_s job_tail_s", "exact"),
    ("cech.snf_per_answer", "ratio", "lower", "jobs_per_s job_tail_s", "exact"),
    ("lifting.obstruction.calls", "count", "lower", "job_p50_s", "exact"),
    ("lifting.obstruction.self_s", "s", "lower", "job_p50_s", "exact"),
    ("lifting.trivialize.calls", "count", "lower", "job_p50_s", "exact"),
    ("lifting.trivialize.self_s", "s", "lower", "job_p50_s", "exact"),
    ("lifting.check_twisted_cocycle.self_s", "s", "lower", "job_p50_s", "exact"),
    ("lifting.class_result.calls", "count", "lower", "job_p50_s", "exact"),
    ("schwinger.block_operator.calls", "count", "lower", "jobs_per_s", "analytic"),
    ("schwinger.block_operator.self_s", "s", "lower", "jobs_per_s job_tail_s", "analytic"),
    ("schwinger.block_operator.bytes", "B", "lower", "peak_rss_mb", "analytic"),
    ("schwinger.schwinger_trace.self_s", "s", "lower", "jobs_per_s job_tail_s", "analytic"),
    ("schwinger.schwinger_residue.self_s", "s", "lower", "jobs_per_s", "analytic"),
    ("schwinger.dirac_defect.self_s", "s", "lower", "jobs_per_s job_tail_s", "analytic"),
    ("schwinger.defect_curvature.self_s", "s", "lower", "jobs_per_s job_tail_s", "analytic"),
    ("schwinger.mode_number_operator.self_s", "s", "lower", "jobs_per_s", "analytic"),
    ("schwinger.bracket.self_s", "s", "lower", "jobs_per_s", "analytic"),
    ("connection.local_connection.calls", "count", "lower", "jobs_per_s", "analytic"),
    ("connection.local_connection.self_s", "s", "lower", "jobs_per_s job_tail_s", "analytic"),
    ("connection.curvature.self_s", "s", "lower", "jobs_per_s", "analytic"),
    ("connection.gauge_residual.self_s", "s", "lower", "jobs_per_s job_tail_s", "analytic"),
    ("connection.chern_number.self_s", "s", "lower", "jobs_per_s job_tail_s", "analytic"),
    ("connection.transition_values.hit_ratio", "ratio", "higher", "jobs_per_s", "analytic"),
    ("connection.grid_points", "count", "lower", "(computed size)", "analytic"),
    ("io.parse.self_s", "s", "lower", "job_p50_s", "cli"),
    ("io.sha256_of.self_s", "s", "lower", "job_p50_s", "cli"),
    ("cli.report.self_s", "s", "lower", "job_p50_s", "cli"),
    ("cli.main.self_s", "s", "lower", "job_p50_s import_s", "cli"),
] + [(f"{layer}.self_s", "s", "lower", "(layer total)", "every workload")
     for layer in LAYERS] + [
    ("job.time_s", "s", "lower", "(all job time, traced)", "every workload"),
    ("unattributed_s", "s", "lower", "(job time outside any layer span)", "every workload"),
    ("trace_overhead", "ratio", "lower", "(untraced / traced jobs_per_s)", "every workload"),
]


def layer_metrics(spans, rounds, sizes, overhead):
    """Per-layer metrics from the spans of one traced set-up and ``rounds``
    whole rounds of jobs: set-up totals plus job totals per round.

    ``sizes`` supplies the computed input sizes ``nerve.simplices`` and
    ``connection.grid_points``; ``overhead`` is the untraced over traced
    jobs_per_s ratio.
    """
    selfs = self_times(spans)
    calls, self_s, info = defaultdict(float), defaultdict(float), defaultdict(float)
    bits = 0
    for i, s in enumerate(spans):
        w = 1.0 if s.job == SETUP else 1.0 / rounds
        calls[s.name] += w
        self_s[s.name] += w * selfs[i]
        if s.info:
            for key, value in s.info.items():
                info[(s.name, key)] += w * value
            bits = max(bits, s.info.get("bits", 0))
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s.name)

    def is_nested_answer(i):
        p = spans[i].parent
        while p is not None:
            if spans[p].name in ANSWERS:
                return True
            p = spans[p].parent
        return False

    delta = [i for i, s in enumerate(spans) if s.name == "cech.delta_snf"]
    delta_hits = sum(1 for i in delta if "snf.smith_normal_form" not in children[i])
    answers = sum(1 for i, s in enumerate(spans)
                  if s.name in ANSWERS and not is_nested_answer(i))
    snf_calls = sum(1 for s in spans if s.name == "snf.smith_normal_form")
    samples = [s for s in spans if s.name == "connection.transition_values"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name, *_ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[base]
        elif field == "self_s" and base in LAYERS:
            out[name] = sum(v for n, v in self_s.items() if n.split(".")[0] == base)
        elif field == "self_s":
            out[name] = self_s[base]
    out["job.time_s"] = sum((s.end - s.start) / rounds for s in spans if s.name == JOB)
    out["unattributed_s"] = sum(selfs[i] / rounds for i, s in enumerate(spans) if s.name == JOB)
    cells = info[("snf.smith_normal_form", "cells")]
    out["snf.smith_normal_form.cells"] = cells
    out["snf.smith_normal_form.nnz_frac"] = ratio(info[("snf.smith_normal_form", "nnz")], cells)
    out["snf.max_entry_bits"] = bits
    out["schwinger.block_operator.bytes"] = info[("schwinger.block_operator", "bytes")]
    out["cech.delta_snf.hit_ratio"] = ratio(delta_hits, len(delta))
    out["cech.snf_per_answer"] = ratio(snf_calls, answers)
    out["connection.transition_values.hit_ratio"] = ratio(
        sum(1 for s in samples if s.info and s.info["hit"]), len(samples))
    out["nerve.simplices"] = sizes.get("nerve.simplices", 0)
    out["connection.grid_points"] = sizes.get("connection.grid_points", 0)
    out["trace_overhead"] = overhead
    return out


def job_shares(spans):
    """Each layer's share of job time (set-up excluded), from self times."""
    selfs = self_times(spans)
    total = sum(s.end - s.start for s in spans if s.name == JOB)
    shares = defaultdict(float)
    for i, s in enumerate(spans):
        layer = s.name.split(".")[0]
        if s.job != SETUP and layer in LAYERS and total:
            shares[layer] += selfs[i] / total
    return dict(shares)


def write_spans(spans, path):
    """One JSON line per span: name, start, end, parent index, job id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job]) + "\n")
