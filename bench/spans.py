"""Span recorder for the benchmark's traced run.

The recorder wraps public functions of the pdelin layers from outside: it
replaces every binding of each target function in every loaded ``pdelin``
module with a wrapper that records a span -- name, start, end, parent span
and job id -- and restores the original bindings afterwards.  Spans stay in
memory, in flat columns, until the run ends; ``self_times`` and
``layer_totals`` turn them into per-layer self times and counts.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array

# (module, function, layer) for every public function the traced run wraps.
TARGETS = (
    ("pdelin.wsfile", "load_workspace_text", "wsfile.load"),
    ("pdelin.conslaw", "determining_system", "conslaw.determining_system"),
    ("pdelin.conslaw", "reduce_determining_system", "conslaw.reduce"),
    ("pdelin.conslaw", "reduce_family_constraints", "conslaw.reduce"),
    ("pdelin.conslaw", "verify_multipliers", "conslaw.verify_multipliers"),
    ("pdelin.jets", "euler_operator", "jets.euler_operator"),
    ("pdelin.linearize", "match_multiplier_form", "linearize.match"),
    ("pdelin.linearize", "augmented_identity", "linearize.augmented_identity"),
    ("pdelin.linearize", "extract_dependent_part",
     "linearize.extract_dependent_part"),
    ("pdelin.linearize", "verify_linearization",
     "linearize.verify_linearization"),
    ("pdelin.linearize", "build_mapping", "linearize.build_mapping"),
    ("pdelin.linearize", "target_system", "linearize.target_system"),
    ("pdelin.mapping", "apply_transformation", "mapping.apply_transformation"),
    ("pdelin.mapping", "equations_match_up_to_factor",
     "mapping.equations_match"),
    ("pdelin.mapping", "check_contact_condition", "mapping.check_contact"),
    ("pdelin.expr", "add", "expr.add"),
    ("pdelin.expr", "mul", "expr.mul"),
    ("pdelin.expr", "total_derivative", "expr.total_derivative"),
    ("pdelin.expr", "substitute", "expr.substitute"),
    ("pdelin.expr", "is_zero", "expr.is_zero"),
    ("pdelin.probe", "numeric_probe", "probe.numeric_probe"),
    ("pdelin.grammar", "parse", "grammar.parse"),
    ("pdelin.grammar", "to_text", "grammar.to_text"),
)

JOB = "job"
LAYERS = (JOB,) + tuple(dict.fromkeys(layer for _, _, layer in TARGETS))

# lru caches whose hit ratios the traced run reports
CACHED = ("total_derivative", "diff_atom")


class Recorder:
    """In-memory span store.  Span i is (name[i], start[i], end[i],
    parent[i], job[i]); parent is -1 for a job's root span."""

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.stack = []
        self.current_job = -1
        # per job: extra counts such as conslaw.reduce_steps, the largest
        # add/mul result, and lru-cache hits and misses
        self.values = {}

    def __len__(self):
        return len(self.name)

    def _open(self, code):
        idx = len(self.name)
        self.name.append(code)
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.current_job)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def bump(self, key, n, combine=int.__add__):
        counts = self.values.setdefault(self.current_job, {})
        counts[key] = combine(counts[key], n) if key in counts else n

    @contextlib.contextmanager
    def job_span(self, job_id):
        """Root span of one job; every wrapped call inside is its child."""
        self.current_job = job_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.current_job = -1

    def wrap(self, layer, fn, on_result=None):
        code = LAYERS.index(layer)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(code)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(self, out)
            return out

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target function in every loaded pdelin module to
        its wrapper; restore on exit."""
        hooks = _result_hooks()
        originals = {}
        for mod_name, fn_name, layer in TARGETS:
            fn = getattr(sys.modules[mod_name], fn_name)
            originals[fn_name] = (fn, self.wrap(layer, fn, hooks.get(fn_name)))
        spaces = [vars(m) for n, m in list(sys.modules.items())
                  if (n == "pdelin" or n.startswith("pdelin.")) and m is not None]
        patched = []
        for ns in spaces:
            for attr, value in list(ns.items()):
                for fn, wrapper in originals.values():
                    if value is fn:
                        ns[attr] = wrapper
                        patched.append((ns, attr, fn))
        try:
            yield
        finally:
            for ns, attr, fn in patched:
                ns[attr] = fn

    def record_cache_stats(self, job_id):
        """Record the kernel lru-cache statistics of a job that just ended;
        call before the caches are cleared for the next job."""
        expr = sys.modules["pdelin.expr"]
        counts = self.values.setdefault(job_id, {})
        for name in CACHED:
            info = getattr(expr, name).cache_info()
            counts[f"{name}.hits"] = info.hits
            counts[f"{name}.misses"] = info.misses

    def merge(self, data, job_id):
        """Append the spans of one job recorded by a child process."""
        base = len(self.name)
        for code, s, e, p in zip(data["name"], data["start"], data["end"],
                                 data["parent"]):
            self.name.append(code)
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + base if p >= 0 else -1)
            self.job.append(job_id)
        self.values[job_id] = data["values"]

    def export(self):
        """Columns of a one-job recorder (job id 0) as plain lists, for a
        child process to hand to ``merge``."""
        return {"name": list(self.name), "start": list(self.start),
                "end": list(self.end), "parent": list(self.parent),
                "values": self.values.get(0, {})}

    def write(self, path, job_labels):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tjob\tlabel\tname\tparent\tstart\tend\n")
            for i in range(len(self.name)):
                j = self.job[i]
                fh.write(f"{i}\t{j}\t{job_labels.get(j, '')}\t"
                         f"{LAYERS[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _result_hooks():
    from pdelin.expr import Add

    def terms(rec, out):
        rec.bump("expr.max_result_terms",
                 len(out.terms) if isinstance(out, Add) else 1, max)

    def det_terms(rec, det):
        rec.bump("conslaw.determining_system_terms",
                 sum(len(eq.terms) if isinstance(eq, Add) else 1
                     for _, _, eq in det.equations))

    def det_steps(rec, res):
        rec.bump("conslaw.reduce_steps", len(res.steps))

    def family_steps(rec, res):
        rec.bump("conslaw.reduce_steps", len(res[1]))

    return {"add": terms, "mul": terms, "determining_system": det_terms,
            "reduce_determining_system": det_steps,
            "reduce_family_constraints": family_steps}


def self_times(rec):
    """Per-span self time: duration minus the time its direct children
    cover."""
    n = len(rec)
    child = [0.0] * n
    start, end, parent = rec.start, rec.end, rec.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(n)]


def layer_totals(rec):
    """Per job: root wall time, and per layer self time and call count.

    Returns {job: {"wall": s, "self": {layer: s}, "calls": {layer: n}}}."""
    selfs = self_times(rec)
    jobs = {}
    for i in range(len(rec)):
        j = rec.job[i]
        entry = jobs.setdefault(j, {"wall": 0.0, "self": {}, "calls": {}})
        layer = LAYERS[rec.name[i]]
        if rec.parent[i] < 0:
            entry["wall"] += rec.end[i] - rec.start[i]
        entry["self"][layer] = entry["self"].get(layer, 0.0) + selfs[i]
        entry["calls"][layer] = entry["calls"].get(layer, 0) + 1
    return jobs
