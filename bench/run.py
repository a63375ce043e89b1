"""The pdelin benchmark: a closed-loop load generator with one client, one
job at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  cli-corpus         `pdelin {detsys,linearize,verify} {burgers,pipeline,
                     telegraph}`, each in a fresh interpreter, nine jobs per
                     cycle in a seeded order
  kernel-identities  seeded random kernel tasks with known answers
                     (kernel.py), in process, caches cleared before each
                     task, forty tasks per cycle

The run sets up, then runs whole cycles of jobs until `--seconds` have
passed, checking every job's output.  With `--trace 0` it reports the
end-to-end metrics: setup_s (median of fresh-process set-ups, three before
the loop and one after each cycle),
latency_p50_s and latency_tail_s (p90, p75 on cli-corpus) per job,
jobs_per_s (jobs over the time of the job passes, set-up samples left out)
and peak_rss_mb (of the children on cli-corpus).  With `--trace 1` it runs each cycle untraced and then
traced (span recorder in spans.py) and reports the per-layer metrics and the
tracing overhead.  Counts come from the first traced cycle, which the seed
fixes, so they repeat exactly; self times are means per traced job.  The
last line of standard output is the result object; the line before it
holds the details (environment, sample counts, bases of every ratio, the
end-to-end metric each layer metric moves).  Both, and the spans of a traced
run, are also written under `.bench_out/`.  Metric names and units are read
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import corpus_jobs
import spans
from corpus_jobs import BENCH, ROOT, SRC

OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 3      # fresh-process set-ups before the loop, then one a cycle

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# per-layer metric -> the end-to-end metric and workload it moves
LAYER_TARGETS = {
    "cli.interpreter_s": "environment baseline for setup_s (cli-corpus)",
    "cli.import_s": "setup_s and every latency on cli-corpus; nothing on kernel-identities",
    "cli.detsys_p50_s": "per-command median, untraced jobs of the traced run",
    "cli.linearize_p50_s": "per-command median, untraced jobs of the traced run",
    "cli.verify_p50_s": "per-command median, untraced jobs of the traced run",
    "wsfile.load_s": "guard only",
    "conslaw.determining_system_s": "detsys median on cli-corpus",
    "conslaw.determining_system_terms": "detsys median on cli-corpus",
    "conslaw.reduce_s": "detsys median on cli-corpus",
    "conslaw.reduce_steps": "detsys median on cli-corpus",
    "jets.euler_operator_s": "detsys median on cli-corpus",
    "jets.euler_operator_calls": "detsys median on cli-corpus",
    "conslaw.verify_multipliers_s": "cli.verify_p50_s on cli-corpus",
    "linearize.match_s": "linearize and verify medians on cli-corpus; none on kernel-identities",
    "linearize.augmented_identity_s": "linearize and verify medians on cli-corpus; none on kernel-identities",
    "linearize.extract_dependent_part_s": "linearize and verify medians on cli-corpus; none on kernel-identities",
    "linearize.augmented_identity_calls": "per job that runs it (1 is ideal); linearize and verify medians",
    "linearize.verify_linearization_s": "linearize median on cli-corpus",
    "linearize.build_mapping_s": "linearize median on cli-corpus",
    "linearize.target_system_s": "linearize median on cli-corpus",
    "mapping.apply_transformation_s": "verify median on cli-corpus",
    "mapping.equations_match_s": "verify median on cli-corpus",
    "mapping.check_contact_s": "verify median on cli-corpus",
    "expr.add_calls": "all latencies",
    "expr.mul_calls": "all latencies",
    "expr.max_result_terms": "all latencies",
    "expr.total_derivative_hit_ratio": "all latencies",
    "expr.diff_atom_hit_ratio": "all latencies",
    "expr.add_s": "latency on kernel-identities",
    "expr.mul_s": "latency on kernel-identities",
    "expr.total_derivative_s": "latency on kernel-identities",
    "expr.substitute_s": "latency on kernel-identities",
    "expr.is_zero_s": "latency on kernel-identities",
    "expr.share": "latency on kernel-identities",
    "probe.numeric_probe_s": "latency on kernel-identities only",
    "probe.numeric_probe_calls": "latency on kernel-identities only",
    "probe.useful_ratio": "latency on kernel-identities only",
    "probe.share": "latency on kernel-identities only",
    "grammar.parse_s": "latency on kernel-identities; a small share of cli-corpus",
    "grammar.to_text_s": "latency on kernel-identities; a small share of cli-corpus",
    "grammar.to_text_calls": "latency on kernel-identities; a small share of cli-corpus",
    "grammar.share": "latency on kernel-identities; a small share of cli-corpus",
    "trace.untraced_p50_s": "tracing overhead base",
    "trace.traced_p50_s": "tracing overhead base",
    "trace.overhead_s": "tracing overhead: traced minus untraced median",
}

# self-time metrics: metric -> span layer
SELF_TIME = {m: m[:-2] for m, unit in LAYER_UNITS.items()
             if unit == "s" and not m.startswith(("cli.", "trace."))}
CALLS = {"jets.euler_operator_calls": "jets.euler_operator",
         "expr.add_calls": "expr.add", "expr.mul_calls": "expr.mul",
         "probe.numeric_probe_calls": "probe.numeric_probe",
         "grammar.to_text_calls": "grammar.to_text"}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100)[q - 1]


def fresh_python(args, env):
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT, check=True)
    return proc.stdout


def setup_samples(n):
    """Time `import pdelin.cli` and the corpus load in `n` fresh
    interpreters."""
    env = corpus_jobs.child_env()
    return [json.loads(fresh_python([os.path.join(BENCH, "child.py"),
                                     "--setup"], env)) for _ in range(n)]


def environment():
    """The interpreter, mpmath, processor count and a bare interpreter's
    start-up time and pre-imported third-party modules."""
    import mpmath

    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
    site = json.loads(fresh_python(
        ["-c", "import json, sys; print(json.dumps(sorted(m for m in "
               "sys.modules if m != '__main__' and m.split('.')[0] not in "
               "sys.stdlib_module_names)))"], dict(os.environ)))
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "interpreter_s": median(walls),
            "site_preimported": site}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class CliCorpus:
    name = "cli-corpus"
    in_process = False    # a traced job installs the recorder in its child
    tail = 75   # about 110 jobs in a 50 s run: p90 would have ten or fewer beyond

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.err = tempfile.TemporaryFile(dir=OUT)
        self.spans_path = os.path.join(OUT, "child-spans.json")

    def setup(self):
        pass

    def setup_time(self, sample):
        return sample["import_s"]

    def cycle(self, index):
        jobs = list(corpus_jobs.CLI_CORPUS)
        self.rng.shuffle(jobs)
        return jobs

    def command(self, job):
        return job[0]

    def label(self, job):
        return " ".join(job)

    def run(self, job, rec=None, job_id=None):
        if rec is not None and os.path.exists(self.spans_path):
            os.remove(self.spans_path)
        wall, code, text, rss_kib = corpus_jobs.run_fresh(
            job, self.err, None if rec is None else self.spans_path)
        problems = corpus_jobs.check_document(job, code, text)
        self.err.seek(0)
        err = self.err.read().decode()
        if problems and err:
            problems.append(err[-300:])
        if rec is not None and code == 0:
            with open(self.spans_path, encoding="utf-8") as fh:
                rec.merge(json.load(fh), job_id)
        return wall, problems, rss_kib / 1024

    def close(self):
        self.err.close()


class KernelIdentities:
    name = "kernel-identities"
    in_process = True     # traced by rebinding the pdelin functions here
    tail = 90

    def __init__(self, seed):
        import kernel   # imports pdelin, so only once src is on the path

        self.kernel = kernel
        self.seed = seed
        self.probe_points = {}   # job id -> (attempted, useful, interval
                                 #            comparisons, unsound ones)

    def setup(self):
        t0 = time.perf_counter()
        import pdelin.cli as cli

        for name in ("burgers", "pipeline", "telegraph"):
            cli.load_workspace_text(
                cli.bundled_path(name).read_text(encoding="utf-8"))
        self.ctx = self.kernel.Context()
        self.own_setup_s = time.perf_counter() - t0

    def setup_time(self, sample):
        return sample["import_s"] + sample["load_s"]

    def cycle(self, index):
        batch = self.kernel.BATCH
        return self.kernel.plans(self.seed, index * batch, batch)

    def command(self, job):
        return None

    def label(self, job):
        return f"task {job['index']}"

    def run(self, job, rec=None, job_id=None):
        from pdelin import expr

        expr.clear_caches()
        if rec is None:
            wall, out = self.kernel.run_task(self.ctx, job)
        else:
            with rec.job_span(job_id):
                wall, out = self.kernel.run_task(self.ctx, job)
            rec.record_cache_stats(job_id)
        problems, self.probe_points[job_id] = self.kernel.check_task(job, out)
        return wall, problems, None

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (CliCorpus, KernelIdentities)}


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------


def run_job(wl, job, rec=None, job_id=None):
    """One job; an exception is a failed job, never the end of the run."""
    try:
        return wl.run(job, rec, job_id)
    except Exception:
        return None, ["exception: " + traceback.format_exc(limit=3)[-400:]], None


def measure(wl, seconds, trace, env):
    samples = setup_samples(SETUP_SAMPLES)
    wl.setup()
    rec = spans.Recorder() if trace else None
    untraced, traced, per_command, rss, labels = [], [], {}, [], {}
    attempted = failed = 0
    pass_jobs, pass_s = 0, 0.0   # jobs and time of the untraced job passes
    problems = []
    first_traced = []
    t0 = time.perf_counter()
    index = 0
    while time.perf_counter() - t0 < seconds:
        jobs = wl.cycle(index)
        for pass_rec in ([None, rec] if trace else [None]):
            with (rec.installed() if pass_rec is not None and wl.in_process
                  else contextlib.nullcontext()):
                outcomes = []
                pass_t0 = time.perf_counter()
                for job in jobs:
                    job_id = len(labels)
                    labels[job_id] = wl.label(job)
                    if pass_rec is not None and index == 0:
                        first_traced.append(job_id)
                    outcomes.append((job, job_id,
                                     run_job(wl, job, pass_rec, job_id)))
                if pass_rec is None:
                    pass_s += time.perf_counter() - pass_t0
                    pass_jobs += len(jobs)
            for job, job_id, (wall, probs, job_rss) in outcomes:
                attempted += 1
                if probs:
                    failed += 1
                    more = f"; {len(probs) - 2} more" if len(probs) > 2 else ""
                    problems.append(
                        f"{labels[job_id]}: {'; '.join(probs[:2])}{more}")
                if wall is None:     # raised: no latency to record
                    continue
                (untraced if pass_rec is None else traced).append(wall)
                if pass_rec is None and wl.command(job) is not None:
                    per_command.setdefault(wl.command(job), []).append(wall)
                if job_rss is not None:
                    rss.append(job_rss)
        # set-up is timed across the run, like the jobs, not only before it
        samples.extend(setup_samples(1))
        index += 1
    loop_s = time.perf_counter() - t0
    details = {"workload": wl.name, "cycles": index, "loop_s": loop_s,
               "samples": len(untraced), "failed_ratio":
               failed / attempted if attempted else 0.0,
               "problems": problems[:20],
               "setup_samples": samples,
               "in_process_setup_s": getattr(wl, "own_setup_s", None)}
    points = getattr(wl, "probe_points", {}).values()
    if points:
        details["probe_points"] = dict(zip(
            ("attempted", "useful", "interval_comparisons", "unsound"),
            (sum(p[i] for p in points) for i in range(4))))
    if not trace:
        tail = percentile(untraced, wl.tail)
        if not rss:
            rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        metrics = {"setup_s": median([wl.setup_time(s) for s in samples]),
                   "latency_p50_s": median(untraced),
                   "latency_tail_s": tail,
                   "jobs_per_s": pass_jobs / pass_s,
                   "peak_rss_mb": max(rss)}
        details.update({
            "latency_tail_percentile": wl.tail,
            "samples_beyond_tail": sum(1 for x in untraced if x > tail),
            "per_command_p50_s": {k: median(v) for k, v in per_command.items()},
            "per_command_samples": {k: len(v) for k, v in per_command.items()},
            "job_passes_s": pass_s,
            "peak_rss_source": "child processes" if wl.name == "cli-corpus"
                               else "this process"})
        units = END_TO_END_UNITS
    else:
        metrics, extra = layer_metrics(wl, rec, first_traced, samples,
                                       untraced, traced, per_command)
        metrics["cli.interpreter_s"] = env["interpreter_s"]
        details.update(extra)
        rec.write(os.path.join(OUT, f"spans-{wl.name}-seed{wl.seed}.tsv.gz"),
                  labels)
        units = LAYER_UNITS
    if set(metrics) != set(units):
        raise RuntimeError("metrics disagree with BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": metrics[m], "unit": u}
                          for m, u in units.items()}}
    return result, details, {"untraced": untraced, "traced": traced}


def layer_metrics(wl, rec, first_traced, samples, untraced, traced,
                  per_command):
    """Per-layer metrics of a traced run; `untraced` and `traced` hold the
    job latencies of the two passes."""
    totals = spans.layer_totals(rec)
    jobs = [j for j in totals if j >= 0]
    window = [j for j in first_traced if j in totals]
    n, w = len(jobs) or 1, len(window) or 1     # no traced job: all zero
    m = {}
    m["cli.import_s"] = median([s["import_s"] for s in samples])
    for cmd in ("detsys", "linearize", "verify"):
        m[f"cli.{cmd}_p50_s"] = median(per_command.get(cmd, []))
    for metric, layer in SELF_TIME.items():
        m[metric] = sum(totals[j]["self"].get(layer, 0.0) for j in jobs) / n
    for metric, layer in CALLS.items():
        m[metric] = sum(totals[j]["calls"].get(layer, 0) for j in window) / w
    values = [rec.values.get(j, {}) for j in window]
    for key in ("conslaw.determining_system_terms", "conslaw.reduce_steps"):
        m[key] = sum(v.get(key, 0) for v in values) / w
    m["expr.max_result_terms"] = max((v.get("expr.max_result_terms", 0)
                                      for v in values), default=0)
    runs = [totals[j]["calls"].get("linearize.augmented_identity", 0)
            for j in window]
    runs = [c for c in runs if c]
    m["linearize.augmented_identity_calls"] = sum(runs) / len(runs) if runs else 0.0
    bases = {"traced_jobs": len(jobs), "count_window_jobs": len(window),
             "augmented_identity_jobs": len(runs)}
    for cache in spans.CACHED:
        hits = sum(v.get(f"{cache}.hits", 0) for v in values)
        lookups = hits + sum(v.get(f"{cache}.misses", 0) for v in values)
        m[f"expr.{cache}_hit_ratio"] = hits / lookups if lookups else 0.0
        bases[f"{cache}_lookups"] = lookups
    points = [getattr(wl, "probe_points", {}).get(j, (0, 0, 0, 0))
              for j in window]
    attempted, useful, intervals, unsound = (sum(p[i] for p in points)
                                             for i in range(4))
    m["probe.useful_ratio"] = useful / attempted if attempted else 0.0
    bases.update({"probe_points_attempted": attempted,
                  "probe_interval_comparisons": intervals,
                  "probe_unsound_enclosures": unsound,
                  "probe_unsound_enclosure_ratio":
                      unsound / intervals if intervals else 0.0})
    wall = sum(totals[j]["wall"] for j in jobs) or 1.0
    for prefix in ("expr", "probe", "grammar"):
        m[f"{prefix}.share"] = sum(
            s for j in jobs for layer, s in totals[j]["self"].items()
            if layer.startswith(prefix + ".")) / wall
    m["trace.untraced_p50_s"] = median(untraced)
    m["trace.traced_p50_s"] = median(traced)
    m["trace.overhead_s"] = m["trace.traced_p50_s"] - m["trace.untraced_p50_s"]
    worst = max((sum(totals[j]["self"].values()) / totals[j]["wall"]
                 for j in jobs), default=0.0)
    bases["max_self_sum_over_wall"] = worst
    bases["traced_wall_s"] = wall
    bases["layer_targets"] = LAYER_TARGETS
    return m, bases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pdelin", "__init__.py")):
        print(f"run.py: no pdelin sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pdelin

    if not os.path.abspath(pdelin.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported pdelin from {pdelin.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    wl = WORKLOADS[args.workload](args.seed)
    try:
        result, details, latencies = measure(wl, args.seconds, args.trace,
                                             env)
    finally:
        wl.close()
    details["environment"] = env
    details["seed"] = args.seed
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details,
                   "latencies": latencies}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
