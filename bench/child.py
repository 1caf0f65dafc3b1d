"""One benchmark operation, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED OUT_DIR TRACE

Imports the package, writes the workload's spec into OUT_DIR (the input
generation), then runs the CLI command on it.  With TRACE=1 the engine
layers are traced and the spans are saved to OUT_DIR/spans.npz after the
command returns.  Prints one JSON line: the `time.perf_counter` readings
at which the command started and returned, and its exit code.  That clock
is CLOCK_MONOTONIC, shared by every process on the host, so the parent
measures set-up as start minus the moment it spawned this process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    workload, seed, out, trace = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1"
    import neuromf.cli

    import workloads

    argv = workloads.prepare(workload, seed, out)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.main", neuromf.cli.main)
    else:
        main_fn = neuromf.cli.main
    t_start = perf_counter()
    code = main_fn(argv)
    t_end = perf_counter()
    if tracer is not None:
        tracer.save(out / "spans.npz")
    print(json.dumps({"t_start": t_start, "t_end": t_end, "exit_code": code}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
