"""Byte-identity of the result documents: the nine `pdelin {detsys,linearize,
verify} {burgers,pipeline,telegraph}` jobs, run in process, print exactly the
reference documents stored in bench/refs (compared without `generated-at`),
and print the same documents when they run concurrently in threads."""

import io
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import COMMANDS, GENERATED_AT, SYSTEMS, reference_document
from pdelin.cli import main
from pdelin.expr import clear_caches


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("command", COMMANDS)
def test_document_matches_reference(command, system, capsys):
    assert main([command, system]) == 0
    out = GENERATED_AT.sub("", capsys.readouterr().out)
    assert out == reference_document(command, system)


class _PerThreadStdout:
    """A stand-in for sys.stdout that sends each thread's writes to that
    thread's own buffer."""

    def __init__(self):
        self.local = threading.local()

    def write(self, text):
        return self.local.buffer.write(text)

    def flush(self):
        pass


def test_concurrent_jobs_match_serial(monkeypatch):
    # the nine jobs at once, each in its own thread, from cold derivative
    # caches and with frequent thread switches: every document and exit
    # code equals the serial run's
    stdout = _PerThreadStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    jobs = [(command, system) for command in COMMANDS for system in SYSTEMS]

    def run(job):
        stdout.local.buffer = io.StringIO()
        code = main(list(job))
        return code, GENERATED_AT.sub("", stdout.local.buffer.getvalue())

    serial = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(2):
            clear_caches()
            start = threading.Barrier(len(jobs), timeout=60)

            def run_together(job):
                start.wait()
                return run(job)

            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                concurrent = list(pool.map(run_together, jobs, timeout=300))
            assert concurrent == serial
    finally:
        sys.setswitchinterval(interval)
