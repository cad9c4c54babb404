"""Smoke test of the benchmark harness: one traced and one plain
invocation of ``perfbench/run.py`` on the entropy workload.

The tracer and the step clock patch package functions by name, so a
refactor that renames or drops one fails here, not only when the
benchmark runs."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_traced_run_is_correct():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "burgers-entropy",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, done.stdout
    assert last["attempted"] >= 2
