"""Benchmark of the neuromf command line, end to end and per engine layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  Each
operation is one CLI command in a fresh interpreter (`bench/child.py`),
with NEUROMF_WORKERS unset, so one worker.  Operations repeat in whole
rounds until the next round would end after S seconds (at least
MIN_ROUNDS rounds).  The first operation's artifacts are kept and checked
(`bench/checks.py`) after the timed loop; every later one must write the
same bytes.

--trace 0 reports the end-to-end metrics, medians over the operations:
  run_s         wall time of the command, spec read to last artifact written
  setup_s       interpreter start, package import and input generation
  peak_rss_mib  peak resident memory of the operation's process
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of `tracer.layer_metrics` (medians over the traced ones)
plus trace.overhead_s, median traced run_s minus median untraced run_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_ROUNDS = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NEUROMF_WORKERS", None)
    # byte-code caches, as an installed copy has them (src/ and bench/ only:
    # the interpreter's and site-packages' caches already exist)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def operation(workload: str, seed: int, out: Path, trace: bool, env: dict[str, str]) -> dict | None:
    """Run one command in a fresh process; None when it failed."""
    out.mkdir(parents=True)
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        t_spawn = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(out), str(int(trace))],
            stdout=so, stderr=se, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = (out / "stdout.txt").read_text().splitlines()
    try:
        timing = json.loads(lines[-1])
    except (IndexError, ValueError):
        timing = None
    if proc.returncode != 0 or timing is None or timing["exit_code"] != 0:
        tail = (out / "stderr.txt").read_text()[-2000:]
        print(f"operation failed (exit {proc.returncode}): {tail}", file=sys.stderr)
        return None
    return {
        "run_s": timing["t_end"] - timing["t_start"],
        "setup_s": timing["t_start"] - t_spawn,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every file the command wrote (and of its spec)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
            if p.name not in ("stdout.txt", "stderr.txt", "spans.npz")}


def median(values: list) -> float | int:
    """The median; a count that every operation agrees on stays an integer."""
    if len(set(values)) == 1:
        return values[0]
    return float(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "neuromf" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'neuromf'}", file=sys.stderr)
        return 2
    # importing here also leaves byte-code caches for the operations' imports
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)

    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    env = child_env()

    plan = [False, True] if trace else [False]
    results: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    ref_dir = None
    ref_digests: dict[str, str] = {}
    mismatches: list[str] = []
    layer_runs: list[dict[str, tuple[float, str]]] = []
    rounds = 0
    t_begin = perf_counter()
    while True:
        for traced in plan:
            out = out_root / f"op{attempted:03d}"
            attempted += 1
            res = operation(args.workload, args.seed, out, traced, env)
            if res is None:
                failed += 1
                continue
            results[traced].append(res)
            print(f"{out.name}{' traced' if traced else ''}: run_s {res['run_s']:.4f}  "
                  f"setup_s {res['setup_s']:.4f}  peak_rss_mib {res['peak_rss_mib']:.1f}", flush=True)
            if traced:
                layer_runs.append(tracer.layer_metrics(*tracer.summarize(out / "spans.npz")))
                if len(layer_runs) == 1:  # targets the tracer could not wrap
                    for note in (out / "stderr.txt").read_text().splitlines():
                        if note.startswith("trace:"):
                            print(note, file=sys.stderr)
            digests = artifact_digests(out)
            if ref_dir is None:
                ref_dir, ref_digests = out, digests
                continue
            if digests != ref_digests:
                mismatches.append(f"{out.name} wrote other bytes than {ref_dir.name}")
            shutil.rmtree(out)
        rounds += 1
        elapsed = perf_counter() - t_begin
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    if not results[trace]:
        print("bench: every operation failed", file=sys.stderr)
        return 1

    failures = checks.run_checks(args.workload, ref_dir, workloads.make_spec(args.workload, args.seed))
    for msg in failures + mismatches:
        print(f"check failed: {msg}", file=sys.stderr)

    if trace:
        metrics = {name: {"value": median([run[name][0] for run in layer_runs]), "unit": unit}
                   for name, (_, unit) in layer_runs[0].items()}
        overhead = (median([r["run_s"] for r in results[True]])
                    - median([r["run_s"] for r in results[False]])) if results[False] else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
        metrics = {name: {"value": median([r[name] for r in results[False]]), "unit": unit}
                   for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures and not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
