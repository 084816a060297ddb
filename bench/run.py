"""charpk benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload gf-curves --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; nothing needs to be installed.
The runner puts `src` on the import path itself and starts CLI jobs as
`python -m charpk.cli` with `PYTHONPATH=src`, one child process at a
time.  Each run repeats whole rounds of the workload's fixed operations
for about `--seconds`, checks every answer, and prints one JSON object
as its last line of standard output.

--trace 0 reports the end-to-end metrics (see README.md):
  setup_s      median over fresh processes of: start, import charpk,
               build the inputs from the seed
  run_ref      median over rounds of the summed operation times, in
               reference units (below)
  op_p50_ref   median time of one operation, in reference units
  peak_rss_mb  peak resident memory (of the largest CLI child for
               cli-instances)
A reference unit is the time of one `reference_chunk()`, a fixed piece
of pure-Python work that does not touch charpk, run between the
operations of every round and averaged over that round.  The host's
speed drifts by up to 1.7x within minutes; the chunk drifts with it, so
times in its units stay put while the raw seconds (logged to stderr)
do not.  The run and every child it starts are held to one core, where
the chunks run too.
--trace 1 installs span wrappers around the library and reports the
per-layer metrics; it also writes bench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT, SRC

OUT = os.path.join(HERE, "out")

WORKLOADS = {"gf-curves": "gf_curves",
             "fpt-pstructure": "fpt_pstructure",
             "cli-instances": "cli_instances"}
SETUP_PROBES = 5
CHILD_PROBES = 3
REF_LOOP = 4000      # one reference chunk: 0.4 to 0.9 ms on a shared x86-64 host
REF_EVERY_S = 0.05   # one more chunk after an operation per this much of its time
_REF_SLOTS = {}


def load(workload, seed):
    """Import charpk from the checkout and build the workload's ops."""
    sys.path.insert(0, SRC)
    return importlib.import_module(WORKLOADS[workload]).build(seed)


def setup_seconds(workload, seed):
    """Median wall time from spawning a fresh interpreter to its report
    that charpk is imported and the inputs are built."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.communicate(timeout=60)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit("setup probe failed")
    return statistics.median(times)


def reference_chunk():
    """The reference unit's work: int arithmetic and dict stores of
    untracked ints, so neither charpk nor the garbage collector moves it."""
    s = 0
    for i in range(REF_LOOP):
        s = (s * 31 + i) % 1000003
        _REF_SLOTS[s & 255] = i
    return s


def run_rounds(ops, seconds, log):
    """Whole rounds for about `seconds`: a round starts while it can be
    expected to end less than half a round past the deadline.  After each
    operation come reference chunks, one plus one per REF_EVERY_S of the
    operation's time, so that they sample the host's speed across the
    round as the operations felt it.  Returns per-round op times, the
    per-round mean chunk time, the failure count and whether every answer
    checked out."""
    rounds, units, failed, correct = [], [], 0, True
    start_all = time.perf_counter()
    while True:
        begun = time.perf_counter()
        times, ref_s, chunks = [], 0.0, 0
        for op in ops:
            start = time.perf_counter()
            try:
                answer = op.run()
            except Exception as exc:  # an op that raises counts as failed
                answer, problem = None, f"{type(exc).__name__}: {exc}"
            else:
                problem = None
            times.append(time.perf_counter() - start)
            n = 1 + int(times[-1] / REF_EVERY_S)
            start = time.perf_counter()
            for _ in range(n):
                reference_chunk()
            ref_s += time.perf_counter() - start
            chunks += n
            if problem:
                failed += 1
                log(f"FAILED {op.name}: {problem}")
                continue
            problem = op.check(answer)
            if problem:
                correct = False
                log(f"WRONG {op.name}: {problem}")
        rounds.append(times)
        units.append(ref_s / chunks)
        now = time.perf_counter()
        if now - start_all + (now - begun) / 2 >= seconds:
            return rounds, units, failed, correct


def end_to_end(workload, seed, seconds, log):
    setup = setup_seconds(workload, seed)
    ops = load(workload, seed)
    rounds, units, failed, correct = run_rounds(ops, seconds, log)
    # every CLI job is a child; the setup probes are children too but
    # only import and read the job list, so the largest child is a job
    who = (resource.RUSAGE_CHILDREN if workload == "cli-instances"
           else resource.RUSAGE_SELF)
    rss = resource.getrusage(who).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup, "s"),
        "run_ref": (statistics.median(sum(r) / u
                                      for r, u in zip(rounds, units)),
                    "ref"),
        "op_p50_ref": (statistics.median(t / u for r, u in zip(rounds, units)
                                         for t in r), "ref"),
        "peak_rss_mb": (rss, "MB"),
    }
    log(f"{len(rounds)} rounds of {len(ops)} ops; raw run_s "
        f"{statistics.median(sum(r) for r in rounds):.4f}, op_p50_ms "
        f"{1000 * statistics.median(t for r in rounds for t in r):.4f}, "
        f"reference unit {1000 * statistics.median(units):.4f} ms")
    return correct, len(rounds) * len(ops), failed, metrics


def traced(workload, seed, seconds, log):
    ops = load(workload, seed)
    import cli_instances
    import probes
    from tracing import MODULES, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rounds, _, failed, correct = run_rounds(ops, seconds, log)
        traced_run_s = statistics.median(sum(r) for r in rounds)
        per_round = {m: [v / len(rounds) for v in stats]
                     for m, stats in tracer.snapshot().items()}
        # one pass of the in-process CLI job set, traced, so that every
        # layer a CLI user reaches shows on every workload
        ok, _ = cli_instances.run_in_process()
        correct = correct and ok
        after = tracer.snapshot()
    finally:
        tracer.uninstall()
    ok, inproc_s = cli_instances.run_in_process()
    correct = correct and ok
    metrics = {}
    for m in MODULES:
        calls, total, self_s = (r + a - len(rounds) * r for r, a in
                                zip(per_round[m], after[m]))
        metrics[f"{m}.calls"] = (calls, "count")
        metrics[f"{m}.total_s"] = (total, "s")
        metrics[f"{m}.self_s"] = (self_s, "s")
    for name, value in probes.scalar_ops().items():
        metrics[f"fields.{name}"] = (value, "us")
    metrics["variety.enum_hits_per_candidate"] = (
        tracer.enum_points / max(tracer.enum_candidates, 1), "ratio")
    metrics["cli.import_ms"] = (1000 * probes.child_median(
        [sys.executable, "-c", "import charpk.cli"], CHILD_PROBES), "ms")
    metrics["cli.startup_ms"] = (1000 * probes.child_median(
        [sys.executable, "-m", "charpk.cli", "field", "GF(2,4)"],
        CHILD_PROBES), "ms")
    metrics["cli.inproc_s"] = (inproc_s, "s")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload}-{seed}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "rounds": len(rounds), "traced_run_s": traced_run_s,
                   "ops": [op.name for op in ops],
                   "round_op_seconds": rounds,
                   "enum_points": tracer.enum_points,
                   "enum_candidates": tracer.enum_candidates,
                   "metrics": {k: v for k, (v, _) in metrics.items()}},
                  fh, indent=1)
    log(f"traced run_s {traced_run_s:.4f} over {len(rounds)} rounds")
    return correct, len(rounds) * len(ops), failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "charpk", "__init__.py")):
        print(f"no charpk sources under {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        load(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    # one core for this process and every child it starts, so that the
    # reference chunks run on the core the operations and CLI jobs ran on;
    # chunks in the parent did not follow jobs left free to run elsewhere
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = run(args.workload, args.seed,
                                              args.seconds, log)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
