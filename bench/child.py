"""Fresh-process entry point used by the benchmark.

    child.py --setup
        time `import pdelin.cli` and the load of the three bundled
        workspaces in this fresh interpreter; print them as JSON.
    child.py --spans FILE ARGV...
        install the span recorder, run `pdelin ARGV...` through `cli.main`,
        write the recorded spans to FILE as JSON and exit with the command's
        exit code.

Run with ``src`` on PYTHONPATH.
"""

import sys
import time


def setup():
    t0 = time.perf_counter()
    import pdelin.cli
    t1 = time.perf_counter()
    for name in ("burgers", "pipeline", "telegraph"):
        text = pdelin.cli.bundled_path(name).read_text(encoding="utf-8")
        pdelin.cli.load_workspace_text(text)
    t2 = time.perf_counter()
    import json
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
    return 0


def traced(path, argv):
    import json

    import spans
    from pdelin import cli

    rec = spans.Recorder()
    with rec.installed():
        with rec.job_span(0):
            code = cli.main(argv)
        rec.record_cache_stats(0)
    sys.stdout.flush()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec.export(), fh)
    return code


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup"]:
        sys.exit(setup())
    if len(sys.argv) > 3 and sys.argv[1] == "--spans":
        sys.exit(traced(sys.argv[2], sys.argv[3:]))
    sys.exit("usage: child.py --setup | --spans FILE ARGV...")
