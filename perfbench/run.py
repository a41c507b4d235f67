"""Run one workload of the end-to-end benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload flow-cold --seed 1 --seconds 20 \\
        --trace 0

Workloads: flow-cold, table1, population, serve (see README.md in this
directory).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same inputs with per-layer spans and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the same object, and a traced run's spans, go under ``perfbench/out/``.
"""

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

ENTERED_S = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT))
                if path not in sys.path]

from perfbench import tracing, workloads  # noqa: E402  (needs the path)
from perfbench.checks import CheckError  # noqa: E402


def process_age_s() -> float:
    """Seconds since this process started: the kernel's start time where
    ``/proc`` has it, else this script's start."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started_s = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started_s
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - ENTERED_S


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole rounds for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float):
    """Run whole rounds until ``seconds`` have passed.

    Returns the timed ``(start, end)`` window of every round that
    completed, the operations attempted and failed, and the first
    check failure (``None`` when every output checked out).
    """
    windows = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        if workload.tracer is not None:
            workload.tracer.group += 1
        attempted += workload.operations_per_round
        started = time.perf_counter()
        try:
            workload.round()
        except Exception:  # count the round failed and keep measuring
            failed += workload.operations_per_round
            traceback.print_exc()
            continue
        windows.append((started, time.perf_counter()))
        try:
            workload.check_round()
        except CheckError as exc:
            return windows, attempted, failed, exc
    return windows, attempted, failed, None


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = tracing.Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer, OUT_DIR)
    if tracer is not None and workload.traces_in_process:
        tracing.install(tracer)
    try:
        workload.setup()
        setup_s = process_age_s()
        windows, attempted, failed, error = measure(workload, args.seconds)
        if not windows:
            print("no round completed", file=sys.stderr)
            return 1
        peak_rss_mb = workload.peak_rss_mb()
        if error is None:
            try:
                workload.final_check()
            except CheckError as exc:
                error = exc
    finally:
        workload.close()
    if error is not None:
        print(f"check failed: {error}", file=sys.stderr)

    round_s = [end - start for start, end in windows]
    print(workload.summary(round_s), file=sys.stderr)
    if tracer is not None:
        metrics = workload.layer_metrics(windows)
    else:
        metrics = {"round_s": (workload.typical_round_s(round_s), "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    result = {
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.json")
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
