"""Run `hessk3.cli` once with every public name traced.

    PYTHONPATH=src python3 perfbench/trace_child.py <cli arguments>

Stdout is the command's envelope, as with `python -m hessk3.cli`; the exit
code is the command's.  The last line of stderr is one JSON object: the
tracer snapshot for this process (one operation) plus `import_ns`, the
time `import hessk3.cli` took.
"""

import json
import sys
import time

t0 = time.perf_counter_ns()
import hessk3.cli  # noqa: E402

import_ns = time.perf_counter_ns() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    try:
        code = hessk3.cli.main(sys.argv[1:])
    finally:
        tracer.end_op()
        snap = tracer.snapshot()
        snap["import_ns"] = import_ns
        sys.stdout.flush()
        print(json.dumps(snap), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
