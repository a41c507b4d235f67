"""Per-die vs batched population calibration on a 1000-die population.

The batched calibration engine (``repro/tuning/batched.py``) advances
every out-of-budget die one sense/allocate/verify step per matrix pass:
one allocation per *distinct* quantised estimate (cached across
passes), one batched-STA verify per pass (incremental via ``refine``
from the second pass on).  This bench tunes the same 1000-die c1355
population through the per-die reference loop and the batched engine,
asserts the summaries are bit-identical, and writes the artefact to
``benchmarks/out/tuning_throughput.txt`` (referenced by
EXPERIMENTS.md).

Acceptance (tiered by host size, mirroring ``bench_parallel.py``, so a
shared CI runner cannot fail the gate nondeterministically):

* 4 or more usable cores — the batched engine must tune >= 10x more
  dies/s than the per-die loop (the ROADMAP claim; measured ~50x on an
  unloaded host);
* 2-3 usable cores — a relaxed >= 6x still proves the engine while
  tolerating runner contention (both paths are single-process, but
  numpy's threaded kernels and co-tenants skew small-host timings);
* 1 usable core — the gate degrades to the bit-identity assertion and
  the artefact records the measured ratio with a note.

The batched engine (``tune_population``'s default) is timed best-of-2;
the per-die reference (``engine="serial"``) runs once
(it is the slow side by an order of magnitude, and noise on seconds of
runtime cannot tip a 10x gate).
"""

import os
import time

import pytest

from repro.tuning import TuningController, tune_population
from repro.variation import sample_dies

DESIGN = "c1355"
DIES = 1000
SEED = 0
REQUIRED_SPEEDUP = 10.0
RELAXED_SPEEDUP = 6.0  # small (2-3 core, possibly shared) hosts
ENFORCE_CORES = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


@pytest.mark.benchmark(group="tuning-throughput")
def test_batched_calibration_throughput(flow_factory, out_dir):
    flow = flow_factory(DESIGN)
    population = sample_dies(flow.placed, DIES, seed=SEED,
                             store_scales=False)
    controller = TuningController(flow.placed, flow.clib)
    slow_dies = len(population.slow_dies())

    started = time.perf_counter()
    serial = tune_population(controller, population, engine="serial")
    serial_s = time.perf_counter() - started

    batched_s, batched = float("inf"), None
    for _ in range(2):
        fresh = TuningController(flow.placed, flow.clib)
        started = time.perf_counter()
        batched = tune_population(fresh, population)
        batched_s = min(batched_s, time.perf_counter() - started)

    assert batched == serial  # bit-identical summary, floats and all
    speedup = serial_s / batched_s
    cores = _usable_cores()
    if cores >= ENFORCE_CORES:
        required = REQUIRED_SPEEDUP
        gate_note = (f"ENFORCED at {required:.0f}x "
                     f"(>= {ENFORCE_CORES} cores)")
    elif cores >= 2:
        required = RELAXED_SPEEDUP
        gate_note = (f"ENFORCED at relaxed {required:.0f}x "
                     f"({cores} possibly-shared cores)")
    else:
        required = None
        gate_note = ("skipped (single-core host; equivalence still "
                     "asserted)")

    text = "\n".join([
        f"batched population calibration: {DESIGN}, {DIES} dies "
        f"(seed {SEED}), {slow_dies} out-of-budget dies tuned",
        f"  per-die loop:   {serial_s:8.3f} s "
        f"({DIES / serial_s:9.1f} dies/s)",
        f"  batched engine: {batched_s:8.3f} s "
        f"({DIES / batched_s:9.1f} dies/s, best of 2)",
        f"  speedup:        {speedup:8.2f}x "
        f"(required >= {REQUIRED_SPEEDUP:.0f}x at {ENFORCE_CORES}+ "
        f"cores, >= {RELAXED_SPEEDUP:.0f}x at 2-3)",
        f"  usable cores:   {cores}",
        f"  speedup gate:   {gate_note}",
        "",
        f"tuned yield {serial.yield_after:.3f} "
        f"(before {serial.yield_before:.3f}), "
        f"{serial.recovered} recovered / {serial.lost} lost",
        "batched summary is bit-identical to the per-die loop "
        "(asserted, not sampled).",
    ])
    (out_dir / "tuning_throughput.txt").write_text(text + "\n",
                                                   encoding="utf-8")
    print("\n" + text)

    if required is not None:
        assert speedup >= required
