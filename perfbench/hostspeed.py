"""The host's speed, read from a fixed calibration kernel.

The benchmark runs on shared hosts whose speed drifts: the same pure-Python
loop runs 1.3 to 1.8 times slower in spells that last from seconds to
longer than a whole run, while the fastest runs stay steady.  The kernel
below is a fixed piece of exact arithmetic that does not touch hessk3.  It
is timed next to every operation and every set-up probe, and every 50 ms
while a child process runs, with the garbage collector off so that the
program's heap does not slow it.  A measured time is scaled by REF_NS over
the kernel's median time around it: "seconds on a host where the kernel
takes REF_NS".  A change to hessk3 moves the operation's time and not the
kernel's, so it shows in full.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import time
from fractions import Fraction

# The kernel's time on the reference host (nproc 2, Python 3.11.7) when it
# was quiet; only a scale, the same for every run and every commit.
REF_NS = 1_000_000


def kernel_ns() -> int:
    """One timed run of the calibration kernel, in ns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        acc = Fraction(0)
        row: tuple = ()
        for i in range(1, 500):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            row = (acc, i) if len(row) > 8 else row + (acc, i)
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def slowdown(samples) -> float:
    """How much slower than the reference host the kernel ran, from samples taken around one op."""
    return statistics.median(samples) / REF_NS


def run_child(cmd, stdin, cwd, env, samples: list, timeout: float = 170):
    """Run one child process to its end; while it runs, append a kernel time
    to `samples` every 50 ms (about 2% of the other CPU).  Returns
    (returncode, stdout, stderr)."""
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=cwd, env=env,
    )
    deadline = time.monotonic() + timeout
    try:
        while True:
            try:
                stdout, stderr = proc.communicate(stdin, timeout=0.05)
                return proc.returncode, stdout, stderr
            except subprocess.TimeoutExpired:
                stdin = None
                if time.monotonic() > deadline:
                    raise
                samples.append(kernel_ns())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
