"""Tests of the benchmark itself: the correctness gate catches tampered
documents and wrong verdicts, seeds fix the inputs, and the traced run's
counts repeat exactly.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus_jobs  # noqa: E402
import kernel  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

GENERATED = "  generated-at = 2026-01-01T00:00:00+00:00\n"


def _document(argv):
    """The reference of `argv` as the program prints it."""
    ref = corpus_jobs.reference(argv)
    head, rest = ref.split("  input-sha256", 1)
    line, tail = rest.split("\n", 1)
    return head + "  input-sha256" + line + "\n" + GENERATED + tail


def test_reference_documents_pass():
    for argv in corpus_jobs.CLI_CORPUS:
        assert corpus_jobs.check_document(argv, 0, _document(argv)) == [], argv


def test_fields_are_read_from_the_document():
    fields = dict(corpus_jobs.document_fields(_document(("linearize", "telegraph"))))
    assert fields[("augmented-identity", "residual")] == "0"
    assert fields[("transformation", "z2 (T)")] == "t - log(u1)"
    assert corpus_jobs.ws_transformation("pipeline") == ["u_x", "t"]


def test_tampered_reference_is_flagged():
    argv = ("linearize", "telegraph")
    doc = _document(argv)
    ref = corpus_jobs.reference(argv).replace("w2 (w2) = u1", "w2 (w2) = u2")
    assert corpus_jobs.check_document(argv, 0, doc, ref) == [
        "document differs from its reference"]


@pytest.mark.parametrize("argv, old, new", [
    (("linearize", "telegraph"), "  residual = 0", "  residual = u1"),
    (("linearize", "burgers"), "    - 0", "    - u1_x"),
    (("linearize", "pipeline"), "mapping-check = ok", "mapping-check = mismatch"),
    (("verify", "pipeline"), "contact-condition = ok", "contact-condition = violated"),
    (("verify", "burgers"), "matches-target = True", "matches-target = False"),
    (("detsys", "telegraph"), "  ok = True", "  ok = False"),
    (("linearize", "telegraph"), "z2 (T) = t - log(u1)", "z2 (T) = t"),
    (("linearize", "burgers"), "case = II", "case = I"),
    (("detsys", "burgers"), "status = ok", "status = error"),
])
def test_tampered_field_is_flagged_even_with_a_matching_reference(argv, old, new):
    doc = _document(argv)
    assert old in doc
    bad = doc.replace(old, new, 1)
    problems = corpus_jobs.check_document(argv, 0, bad, ref=bad)
    assert problems, (argv, old)


def test_wrong_exit_code_is_flagged():
    argv = ("verify", "telegraph")
    assert corpus_jobs.check_document(argv, 4, _document(argv)) == ["exit code 4"]


@pytest.fixture(scope="module")
def kernel_context():
    return kernel.Context()


def test_kernel_task_answers_and_wrong_verdicts(kernel_context):
    plan = kernel.make_plan(5, 0)
    _, out = kernel.run_task(kernel_context, plan)
    problems, points = kernel.check_task(plan, out)
    assert problems == []
    assert points[1] > 0
    for name in out["zero"]:
        wrong = dict(out, zero=dict(out["zero"], **{name: not out["zero"][name]}))
        assert kernel.check_task(plan, wrong)[0], name
    wrong = dict(out, roundtrip=[False] + out["roundtrip"][1:])
    assert kernel.check_task(plan, wrong)[0]
    # the control probed equal to the product: a wrong "nonzero" verdict
    probes = [None if p is None else p[:4] + [p[3]] for p in out["probes"]]
    assert kernel.check_task(plan, dict(out, probes=probes))[0]


def test_exact_probe_values_must_satisfy_the_identity(kernel_context):
    from fractions import Fraction

    plan = kernel.make_plan(5, 0)
    _, out = kernel.run_task(kernel_context, plan)
    one = Fraction(1)
    probes = [None if p is None else [one, one, one, Fraction(3), Fraction(3)]
              for p in out["probes"]]
    problems, _ = kernel.check_task(plan, dict(out, probes=probes))
    assert any("contradict" in p for p in problems)


def test_unsound_enclosure_fails_the_task(kernel_context):
    from fractions import Fraction

    from pdelin.probe import Interval

    plan = kernel.make_plan(5, 0)
    _, out = kernel.run_task(kernel_context, plan)
    c, a = plan["control"]
    one, three = Fraction(1), Fraction(3)
    # A*(B + C) = 2, but the enclosure of the expansion is [3, 3]
    probes = [None if p is None else
              [Interval(one, one), one, one, Interval(three, three),
               2 + c * values[a]]
              for values, p in zip(plan["points"], out["probes"])]
    problems, points = kernel.check_task(plan, dict(out, probes=probes))
    assert problems
    assert all("unsound enclosure" in p for p in problems)
    assert points[3] == points[2] == len(problems)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="pdelin.probe._mpf_to_fraction rounds interval "
                          "endpoints to mpmath's working precision")
def test_probe_endpoints_are_rounded_at_default_precision(kernel_context):
    import mpmath
    from fractions import Fraction

    from pdelin import expr, probe

    x = kernel_context.atoms["x"]
    e = expr.exp_(expr.mul(expr.Rat(Fraction(3, 2)), x))
    with mpmath.workprec(53):
        got = probe.numeric_probe(e, {x: Fraction(1)})
    with mpmath.workprec(400):
        value = Fraction(*mpmath.libmp.to_rational(
            mpmath.exp(mpmath.mpf(3) / 2)._mpf_))
    eps = Fraction(1, 2 ** 380)    # far above the 400-bit rounding error
    # a sound enclosure contains exp(3/2)
    assert got.lo <= value + eps and value - eps <= got.hi


def test_same_seed_same_jobs_and_expressions(kernel_context):
    from pdelin import grammar

    a, b, c = run.CliCorpus(7), run.CliCorpus(7), run.CliCorpus(8)
    order_a = [a.cycle(i) for i in range(3)]
    assert order_a == [b.cycle(i) for i in range(3)]
    assert order_a != [c.cycle(i) for i in range(3)]
    for wl in (a, b, c):
        wl.close()
    assert kernel.plans(7, 0, 5) == kernel.plans(7, 0, 5)
    assert kernel.plans(7, 0, 5) != kernel.plans(8, 0, 5)
    texts = [[grammar.to_text(kernel._build(kernel_context, poly))
              for poly in plan["polys"]] for plan in kernel.plans(7, 0, 5)]
    again = [[grammar.to_text(kernel._build(kernel_context, poly))
              for poly in plan["polys"]] for plan in kernel.plans(7, 0, 5)]
    assert texts == again


def test_self_times_sum_to_the_job_wall_time():
    rec = spans.Recorder()
    wl = run.KernelIdentities(0)
    wl.setup()
    with rec.installed():
        for job_id, job in enumerate(wl.cycle(0)[:3]):
            wl.run(job, rec, job_id)
    assert not rec.stack
    totals = spans.layer_totals(rec)
    for entry in totals.values():
        assert sum(entry["self"].values()) <= entry["wall"] * (1 + 1e-9)
        assert entry["calls"]["expr.add"] > 0
    # wrappers are gone again
    from pdelin import expr

    assert not hasattr(expr.add, "__wrapped__")


def _traced_run(workload, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    details = json.loads(proc.stdout.splitlines()[-2])["details"]
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, details


COUNTS = [m for m, unit in run.LAYER_UNITS.items()
          if unit in ("count", "ratio") and not m.endswith("share")]


def test_every_layer_metric_has_a_target():
    assert set(run.LAYER_TARGETS) == set(run.LAYER_UNITS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, d1 = _traced_run(workload, 1)
    second, d2 = _traced_run(workload, 2)
    assert (first["attempted"], first["failed"]) == (second["attempted"],
                                                     second["failed"])
    assert set(first["metrics"]) == set(run.LAYER_UNITS)
    counts = [{m: r["metrics"][m]["value"] for m in COUNTS}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["expr.add_calls"] > 0
    for d in (d1, d2):
        assert d["max_self_sum_over_wall"] <= 1 + 1e-9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-corpus", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
