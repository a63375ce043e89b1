"""Write the reference documents of the command jobs into ``refs/``.

Each reference is the text document of one argv, produced in a fresh
process, with its ``generated-at`` line removed.  The references pin the
documents of the commit that defined the benchmark; rerun this only when a
change is meant to alter a document, and say so with the change.

    python3 bench/make_refs.py
"""

import os
import sys
import tempfile

import corpus_jobs


def main():
    os.makedirs(corpus_jobs.REFS, exist_ok=True)
    with tempfile.TemporaryFile() as err:
        for argv in corpus_jobs.CLI_CORPUS:
            _, code, out, _ = corpus_jobs.run_fresh(argv, err)
            if code != 0:
                err.seek(0)
                sys.stderr.write(err.read().decode())
                raise SystemExit(f"{' '.join(argv)}: exit code {code}")
            path = os.path.join(corpus_jobs.REFS,
                                corpus_jobs.job_name(argv) + ".txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(corpus_jobs.strip_generated_at(out))
            print(path)


if __name__ == "__main__":
    main()
