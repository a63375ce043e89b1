"""The pdelin command jobs of the `cli-corpus` workload, how to run them,
and the correctness gate for their documents.

A job is an argv for ``pdelin``.  Its document is checked twice: byte for
byte, without its ``generated-at`` line, against a reference stored in
``refs/`` (written by ``make_refs.py``), and field by field against facts
known independently of the references (exit code, status, literal-zero
residuals, verification verdicts, the transformation coordinates written in
the bundled ``.ws`` file, and the reduction case of the Burgers system).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(BENCH, "refs")
SYSTEMS = ("burgers", "pipeline", "telegraph")
COMMANDS = ("detsys", "linearize", "verify")

# what the installed `pdelin` console script runs
CONSOLE = "import sys; from pdelin.cli import main; sys.exit(main())"

CLI_CORPUS = tuple((cmd, s) for cmd in COMMANDS for s in SYSTEMS)

_GENERATED_AT = re.compile(r"^\s*generated-at = .*\n?", re.M)

RESIDUAL_KEYS = ("euler-residuals", "identity-residuals", "residual",
                 "flux-residual")
VERDICTS = {"ok": "True", "mapping-check": "ok", "contact-condition": "ok",
            "matches-target": "True"}


def job_name(argv):
    return "-".join(argv)


def strip_generated_at(text):
    return _GENERATED_AT.sub("", text)


def reference(argv):
    with open(os.path.join(REFS, job_name(argv) + ".txt"),
              encoding="utf-8") as fh:
        return fh.read()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# running a job
# ---------------------------------------------------------------------------


def run_fresh(argv, err, traced_spans=None):
    """Run one job in a fresh interpreter, as the console script does (or,
    with `traced_spans`, through the tracing entry point ``child.py``).

    Returns (wall seconds, exit code, stdout text, child peak RSS in KiB)."""
    if traced_spans is None:
        cmd = [sys.executable, "-c", CONSOLE, *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH, "child.py"),
               "--spans", traced_spans, *argv]
    err.seek(0)
    err.truncate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                            env=child_env(), cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------


def document_fields(text):
    """Flatten an indented result document into (path, value) pairs; list
    items get the path of their list."""
    fields = []
    stack = []   # (indent, key)
    for line in text.splitlines():
        body = line.lstrip(" ")
        if not body:
            continue
        indent = len(line) - len(body)
        while stack and stack[-1][0] >= indent:
            stack.pop()
        path = tuple(k for _, k in stack)
        if body.startswith("- "):
            fields.append((path, body[2:]))
        elif body == "-":
            continue
        elif " = " in body:
            key, value = body.split(" = ", 1)
            fields.append((path + (key,), value))
        elif body.endswith(":"):
            stack.append((indent, body[:-1]))
    return fields


def ws_transformation(system):
    """The z coordinates written in the [transformation] section of a
    bundled workspace file, read as plain text."""
    path = os.path.join(SRC, "pdelin", "corpus", f"{system}.ws")
    section = None
    z = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line
            elif section == "[transformation]" and "=" in line:
                key, value = (p.strip() for p in line.split("=", 1))
                if re.fullmatch(r"z\d+", key):
                    z[key] = value
    return [z[k] for k in sorted(z)]


def check_document(argv, code, text, ref=None):
    """Every way the document of `argv` departs from what is known; an empty
    list means the job is correct."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if ref is None:
        ref = reference(argv)
    if strip_generated_at(text) != strip_generated_at(ref):
        problems.append("document differs from its reference")
    fields = document_fields(text)
    get = {}
    for path, value in fields:
        get.setdefault(path, []).append(value)
    if get.get(("status",)) != ["ok"]:
        problems.append(f"status {get.get(('status',))}")
    for path, value in fields:
        if path and path[-1] in RESIDUAL_KEYS and value != "0":
            problems.append(f"{'/'.join(path)} = {value}")
        if path and path[-1] in VERDICTS and value != VERDICTS[path[-1]]:
            problems.append(f"{'/'.join(path)} = {value}")
    cmd, system = argv[0], argv[1]
    required = {
        "linearize": [("augmented-identity", "residual"),
                      ("verification", "identity-residuals"),
                      ("verification", "mapping-check")],
        "verify": [("transformation-verification", "matches-target")],
        "detsys": [("family-verification", "ok")],
    }[cmd]
    if cmd == "verify" and system == "pipeline":
        required.append(("transformation-verification", "contact-condition"))
    if cmd == "verify" and system != "burgers":
        required.append(("multiplier-verification", "ok"))
    for path in required:
        if path not in get:
            problems.append(f"missing {'/'.join(path)}")
    if cmd in ("linearize", "verify"):
        got = [v for p, v in fields if len(p) == 2 and p[0] == "transformation"
               and re.fullmatch(r"z\d+ \(.*\)", p[1])]
        want = ws_transformation(system)
        if got != want:
            problems.append(f"z coordinates {got}, expected {want}")
    if system == "burgers" and cmd in ("detsys", "linearize"):
        case = get.get(("reduction", "case"))
        if case != ["II"]:
            problems.append(f"reduction case {case}, expected II")
    return problems
