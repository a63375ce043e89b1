"""Line coverage of `src/pdelin` under the test suite, with the standard
library only.  Not a test: pytest does not collect it.

    PYTHONPATH=src python tests/linecov.py [--out FILE] [pytest args...]

runs `python -m pytest -q` with a `sitecustomize` hook on `PYTHONPATH`, so
the suite's process and every interpreter it starts (the CLI subprocesses
inherit `PYTHONPATH`) trace `src/pdelin` with `sys.settrace` and
`threading.settrace`.  Each traced process writes the lines it ran when it
exits.  The merged result is the executable lines that never ran, per
function, as JSON (`{"uncovered": n, "executable": m, "functions":
{"module.qualname": [lines]}}`) on stdout or in FILE.  An executable line
is one that some code object's `co_lines` names.  Tracing makes the suite
several times slower."""

import sys


def _install(package, out_dir):
    """Trace every frame whose code lives under `package` and record its
    lines; write them to a file in `out_dir` at exit.  Imports nothing the
    traced program would not load itself until the process exits."""
    import atexit
    import threading

    hits = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        lines = hits.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def dump():
        import os
        sys.settrace(None)
        path = os.path.join(out_dir, f"{os.getpid()}-{id(hits)}.txt")
        with open(path, "w", encoding="utf-8") as f:
            for filename, lines in hits.items():
                f.write(filename + "\t" + " ".join(map(str, sorted(lines)))
                        + "\n")

    atexit.register(dump)
    threading.settrace(trace)
    sys.settrace(trace)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def executable_lines(path):
    """{line: qualified name of the innermost code object running it}."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    owner = {}
    for obj in _code_objects(code):
        for _, _, line in obj.co_lines():
            if line is not None:
                owner[line] = obj.co_qualname
    return owner


def main(argv=None):
    import json
    import os
    import pathlib
    import subprocess
    import tempfile

    argv = list(sys.argv[1:] if argv is None else argv)
    out = None
    if argv[:1] == ["--out"]:
        out, argv = argv[1], argv[2:]
    root = pathlib.Path(__file__).resolve().parent.parent
    package = root / "src" / "pdelin"
    with tempfile.TemporaryDirectory() as tmp:
        hook = pathlib.Path(tmp, "hook")
        hits_dir = pathlib.Path(tmp, "hits")
        hook.mkdir()
        hits_dir.mkdir()
        (hook / "sitecustomize.py").write_text(
            "import sys\n"
            f"sys.path.insert(0, {str(root / 'tests')!r})\n"
            "import linecov\n"
            "del sys.path[0]\n"
            f"linecov._install({str(package) + os.sep!r}, "
            f"{str(hits_dir)!r})\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(hook), str(root / "src"),
                        env.get("PYTHONPATH", "")) if p)
        status = subprocess.run([sys.executable, "-m", "pytest", "-q",
                                 *argv], cwd=root, env=env).returncode
        hits = {}
        for path in hits_dir.iterdir():
            for row in path.read_text(encoding="utf-8").splitlines():
                filename, _, lines = row.partition("\t")
                hits.setdefault(filename, set()).update(
                    map(int, lines.split()))
    functions = {}
    executable = 0
    for path in sorted(package.glob("*.py")):
        owner = executable_lines(str(path))
        executable += len(owner)
        ran = hits.get(str(path), set())
        for line in sorted(set(owner) - ran):
            functions.setdefault(f"{path.stem}.{owner[line]}", []).append(line)
    report = {"uncovered": sum(map(len, functions.values())),
              "executable": executable, "functions": functions}
    text = json.dumps(report, indent=1)
    if out:
        pathlib.Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
