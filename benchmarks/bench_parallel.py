"""Serial vs process-pool population tuning on a 1000-die population.

The parallel execution engine (``repro/flow/parallel.py``) shards a
Monte Carlo population's out-of-budget dies across a
``ProcessPoolExecutor``; every die's calibration is independent, so the
sweep should scale with cores while staying bit-identical to the serial
reference path.  This bench tunes the same 1000-die c1355 population
through the per-die engine (``engine="serial"``) with 1 and with 4
workers, asserts the summaries are equal, and
writes the artefact to ``benchmarks/out/parallel.txt`` (referenced by
EXPERIMENTS.md).

Acceptance (tiered by host size, so a shared CI runner cannot fail the
gate nondeterministically):

* more than 4 usable cores — the 4-worker sweep must be >= 2x faster
  than serial (the full engine claim, with scheduling headroom);
* exactly 4 usable cores (public ubuntu-latest runners: 4 shared
  vCPUs) — a relaxed >= 1.3x still proves real parallel speedup while
  tolerating runner contention;
* fewer cores than workers — a process pool cannot beat one busy
  core, so the gate degrades to the bit-identity assertions and the
  artefact records the measured ratio with a note.

Both modes are timed best-of-2 to amortize cold pool spawn and noise.
"""

import os
import time

import pytest

from repro.tuning import TuningController, tune_population
from repro.variation import sample_dies

DESIGN = "c1355"
DIES = 1000
SEED = 0
WORKERS = 4
REQUIRED_SPEEDUP = 2.0
RELAXED_SPEEDUP = 1.3  # hosts with exactly WORKERS (shared) cores


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


@pytest.mark.benchmark(group="parallel-tuning")
def test_parallel_population_tuning_speedup(flow_factory, out_dir):
    flow = flow_factory(DESIGN)
    population = sample_dies(flow.placed, DIES, seed=SEED,
                             store_scales=False)
    controller = TuningController(flow.placed, flow.clib)
    slow_dies = len(population.slow_dies())

    # Best-of-2 per mode: shared CI runners are noisy and the first
    # pooled run additionally pays cold process-spawn; the gate should
    # measure the engine, not scheduler jitter.
    def timed(workers):
        best_s, summary = float("inf"), None
        for _ in range(2):
            started = time.perf_counter()
            summary = tune_population(controller, population,
                                      workers=workers, engine="serial")
            best_s = min(best_s, time.perf_counter() - started)
        return best_s, summary

    serial_s, serial = timed(1)
    parallel_s, parallel = timed(WORKERS)

    assert parallel == serial  # bit-identical summary, floats and all
    speedup = serial_s / parallel_s
    cores = _usable_cores()
    if cores > WORKERS:
        required = REQUIRED_SPEEDUP
        gate_note = f"ENFORCED at {required:.1f}x (> {WORKERS} cores)"
    elif cores == WORKERS:
        required = RELAXED_SPEEDUP
        gate_note = (f"ENFORCED at relaxed {required:.1f}x (exactly "
                     f"{WORKERS} possibly-shared cores)")
    else:
        required = None
        gate_note = ("skipped (host has fewer cores than workers; "
                     "equivalence still asserted)")

    text = "\n".join([
        f"parallel population tuning: {DESIGN}, {DIES} dies "
        f"(seed {SEED}), {slow_dies} out-of-budget dies tuned",
        f"  serial  (workers=1): {serial_s:8.3f} s  (best of 2)",
        f"  pooled  (workers={WORKERS}): {parallel_s:8.3f} s  (best of 2)",
        f"  speedup:             {speedup:8.2f}x "
        f"(required >= {REQUIRED_SPEEDUP:.0f}x above {WORKERS} cores, "
        f">= {RELAXED_SPEEDUP:.1f}x at exactly {WORKERS})",
        f"  usable cores:        {cores}",
        f"  speedup gate:        {gate_note}",
        "",
        f"tuned yield {serial.yield_after:.3f} "
        f"(before {serial.yield_before:.3f}), "
        f"{serial.recovered} recovered / {serial.lost} lost",
        "parallel summary is bit-identical to serial "
        "(asserted, not sampled).",
    ])
    (out_dir / "parallel.txt").write_text(text + "\n", encoding="utf-8")
    print("\n" + text)

    if required is not None:
        assert speedup >= required
