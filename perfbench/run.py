"""hessk3 benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {certify,transport,points,cli-cold,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One client runs one operation at a time.
With --trace 0 the last stdout line is one JSON object with the end-to-end
metrics; with --trace 1 a separate traced run reports per-layer metrics
and writes the full span totals to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
NAMES = ("certify", "transport", "points", "cli-cold")


# -- one run ---------------------------------------------------------------------


class Tally:
    """Accounting of a series of operations: attempted, failed and wrong,
    and per operation its input, time, host slowdown and success."""

    def __init__(self, keep: bool = False):
        self.attempted = self.failed = self.wrong = 0
        # (slot, item) of the operations, only when they are to be rerun:
        # holding every input would add to the measured peak memory
        self.kept: list | None = [] if keep else None
        self.times: list = []  # ns per operation
        self.slowdowns: list = []  # host slowdown around each operation
        self.ok: list = []  # True when the operation succeeded and passed its check
        self.errors: dict = {}

    @property
    def scaled(self) -> list:
        """Operation times in ns on the reference host (see hostspeed)."""
        return [t / f for t, f in zip(self.times, self.slowdowns)]


def run_slot(wl, slot, tally, tracer=None, item=None):
    """Run one slot: draw (or reuse) an input, time it, check it, count it.
    An operation that raises or reports an error fails; one whose output
    fails its check is also wrong."""
    if item is None:
        item = slot.draw()
    wl.host_samples = [hostspeed.kernel_ns()]
    if tracer:
        tracer.begin_op()
    error = output = None
    t0 = time.perf_counter_ns()
    try:
        output = wl.execute(item)
    except Exception as exc:  # counted below; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter_ns() - t0
    if tracer:
        tracer.end_op()
    wl.host_samples.append(hostspeed.kernel_ns())
    tally.attempted += 1
    if tally.kept is not None:
        tally.kept.append((slot, item))
    tally.times.append(dt)
    tally.slowdowns.append(hostspeed.slowdown(wl.host_samples))
    if error is None:
        error = wl.failure(output)
    ok = False
    if error is not None:
        tally.failed += 1
        tally.errors[error] = tally.errors.get(error, 0) + 1
    elif not passes_check(wl, item, output):
        tally.failed += 1
        tally.wrong += 1
    else:
        ok = True
    tally.ok.append(ok)


def passes_check(wl, item, output) -> bool:
    """A check that cannot even read the output (a missing key, an unknown
    token name) has found a wrong output."""
    try:
        return bool(wl.check(item, output))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError):
        return False


def run_rounds(wl, slots, seconds=None, rounds=None, keep=False) -> Tally:
    """Whole rounds until `seconds` have passed, or exactly `rounds` rounds;
    whole rounds keep failed / attempted the same share in every run."""
    tally = Tally(keep)
    start = time.perf_counter()
    done = 0
    while True:
        for slot in slots:
            run_slot(wl, slot, tally)
        done += 1
        if rounds is not None and done >= rounds:
            return tally
        if seconds is not None and time.perf_counter() - start >= seconds:
            return tally


def repeat(wl, first: Tally, tracer=None) -> Tally:
    """The inputs `first` counted, again and in the same order."""
    tally = Tally()
    for slot, item in first.kept:
        run_slot(wl, slot, tally, tracer=tracer, item=item)
    return tally


def end_to_end(wl, tally, setup_samples) -> dict:
    """Operation times scaled to the reference host (see hostspeed)."""
    lat_ms = sorted(t / 1e6 for t, ok in zip(tally.scaled, tally.ok) if ok)
    if not lat_ms:
        raise RuntimeError("no operation succeeded")
    if wl.tail:
        p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    else:
        p90 = statistics.median(lat_ms)
        print(f"{wl.name}: {len(lat_ms)} operations hold no tail; op_p90_ms reports the median", file=sys.stderr)
    who = resource.RUSAGE_CHILDREN if wl.cold else resource.RUSAGE_SELF
    raw_ms = statistics.median(t / 1e6 for t, ok in zip(tally.times, tally.ok) if ok)
    print(
        f"{wl.name}: host slowdown {statistics.median(tally.slowdowns):.3f} (median), "
        f"unscaled op p50 {raw_ms:.4g} ms",
        file=sys.stderr,
    )
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "ops_per_s": {"value": len(lat_ms) / (sum(tally.scaled) / 1e9), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it could run the first
    timed op, scaled to the reference host like the operations."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if workload in ("certify", "cli-cold"):
        cmd = [sys.executable, "-c", "import time, hessk3.cli; print(time.monotonic_ns())"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    samples = [hostspeed.kernel_ns()]
    t0 = time.monotonic_ns()
    code, stdout, stderr = hostspeed.run_child(cmd, "", ROOT, env, samples, timeout=120)
    samples.append(hostspeed.kernel_ns())
    if code != 0:
        raise RuntimeError(f"setup probe failed: {stderr.strip()[-500:]}")
    return (int(stdout.split()[-1]) - t0) / 1e9 / hostspeed.slowdown(samples)


def make_workload(name: str, seed: int):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter_ns()
    import hessk3.cli  # noqa: F401  (the import every user pays; part of set-up)

    import_ns = time.perf_counter_ns() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[name](ROOT, seed)
    wl.setup()
    return wl, import_ns


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_samples = [] if trace else [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    wl, import_ns = make_workload(name, seed)
    slots = wl.slots()
    if not trace:
        tally = run_rounds(wl, slots, seconds=None if wl.rounds else seconds, rounds=wl.rounds)
        metrics = end_to_end(wl, tally, setup_samples)
    else:
        tally, metrics = traced_run(wl, slots, import_ns)
    report(name, tally)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def report(name, tally) -> None:
    print(
        f"{name}: attempted {tally.attempted}, failed {tally.failed} (wrong output {tally.wrong})",
        file=sys.stderr,
    )
    for err, n in sorted(tally.errors.items()):
        print(f"  failed {n}x with {err}", file=sys.stderr)


# -- the traced run ------------------------------------------------------------------


def traced_run(wl, slots, import_ns):
    """`wl.trace_rounds` rounds untraced, then the same inputs again with every span traced."""
    from tracer import Tracer, merge

    reference = run_rounds(wl, slots[: wl.trace_slots], rounds=wl.trace_rounds, keep=True)
    if wl.cold:
        wl.traced = True
        traced = repeat(wl, reference)
        wl.traced = False
        snapshot: dict = {}
        for part in wl.child_traces:
            merge(snapshot, part)
        import_ms = sum(p["import_ns"] for p in wl.child_traces) / 1e6 / len(wl.child_traces)
    else:
        tracer = Tracer()
        tracer.install()
        traced = repeat(wl, reference, tracer=tracer)
        snapshot = tracer.snapshot()
        import_ms = import_ns / 1e6
    overhead = 100.0 * (sum(traced.scaled) / sum(reference.scaled) - 1.0)
    from layers import per_layer

    metrics = per_layer(snapshot, import_ms, overhead)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{wl.name}-seed{wl.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed, "metrics": metrics, "spans": snapshot}, fh, indent=1)
    return traced, metrics


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hessk3", "__init__.py")):
        print(f"error: no hessk3 sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    if args.probe:
        make_workload(args.workload, args.seed)
        print(time.monotonic_ns())
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in result["metrics"].items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one line per metric, then a combined object."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {name}/{key} = {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}/{key}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
