"""What the runner and the workload modules share."""

from __future__ import annotations

import os
import subprocess
import time
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One operation of a round: `run()` does the timed work and returns its
# answer; `check(answer)` returns None when the answer is right, else a
# one-line description of what is wrong.
Op = namedtuple("Op", "name run check")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, timeout=170):
    """(exit code, stdout, stderr, wall seconds) of one child process,
    waited for before returning."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(),
                            cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return (proc.returncode, out.decode(), err.decode(),
            time.perf_counter() - start)
