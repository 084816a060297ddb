"""Fixed-operand probes for the traced run: scalar kernels and start-up."""

from __future__ import annotations

import statistics
import time

from charpk import fields
from common import run_child

BATCHES = 5
BATCH_SECONDS = 0.05


def _per_op_us(fn):
    """Median over batches of the time of one call, in microseconds; the
    batch size is what a fifth of BATCH_SECONDS holds, times five."""
    n, start = 0, time.perf_counter()
    while time.perf_counter() - start < BATCH_SECONDS / 5:
        fn()
        n += 1
    n *= 5
    per = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        per.append((time.perf_counter() - start) / n)
    return 1e6 * statistics.median(per)


def scalar_ops():
    gf7 = fields.make_field("GF(7,1)")
    gf16 = fields.make_field("GF(2,4)")
    rat = fields.make_field("Fp(3;t1,t2)")
    a7, b7 = gf7.from_int(3), gf7.from_int(5)
    a16, b16 = gf16.parse("g^3 + g"), gf16.parse("g^2 + 1")
    ar = rat.parse("(t1^2 + t2)/(t1 + 1)")
    br = rat.parse("(t2 + 2)/(t1*t2 + 1)")
    cube = ar ** 3
    return {
        "gfp_mul_us": _per_op_us(lambda: a7 * b7),
        "gfq_mul_us": _per_op_us(lambda: a16 * b16),
        "gfq_inv_us": _per_op_us(a16.inverse),
        "ratfunc_add_us": _per_op_us(lambda: ar + br),
        "ratfunc_mul_us": _per_op_us(lambda: ar * br),
        "pth_root_us": _per_op_us(lambda: fields.pth_root(cube)),
    }


def child_median(argv, runs):
    """Median wall seconds of `runs` fresh processes (each must exit 0)."""
    times = []
    for _ in range(runs):
        code, _, err, wall = run_child(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {err.strip()}")
        times.append(wall)
    return statistics.median(times)
