"""Cross-epoch allocation reuse in the lifetime loop.

The lifetime study (``repro/tuning/lifetime.py``) re-runs the paper's
sense/allocate/apply/verify loop (Sec. 3.1, Fig. 2) at every epoch.
Model-mode epochs calibrate through the batched engine, which keeps
its allocations on the ``TuningController`` (``allocations``: quantised
estimate -> applied scale row and leakage).  An allocation depends
only on the estimate and the controller's fixed configuration, so each
epoch re-reads what earlier epochs allocated and builds a problem only
for estimates it has not seen.

This bench ages a 500-die c5315 population through 8 NBTI drift epochs
on a fresh controller (model mode, default drift: the shape of the
lifetime spec in perfbench's ``population`` workload), counts
allocations by wrapping ``build_problem`` as ``repro.tuning.controller``
sees it, and writes ``benchmarks/out/aging.txt`` (referenced by
EXPERIMENTS.md).

Two gates, both exact counts (no wall-clock gate):

* **one allocation per distinct estimate** — the run calls
  ``build_problem`` once for each distinct estimate it allocated, and
  never twice for the same one;
* **warm re-run** — a second ``run_lifetime`` on the same controller
  makes zero allocations and returns a ``LifetimeSummary`` equal to the
  first, ``runtime_s`` aside.

For reference the artefact also records a run that empties the
controller's allocations before every epoch's calibration, which is
how often the lifetime loop allocated when the cache lived for one
call only; its summary must equal the cold run's too.
"""

import dataclasses
import time

import pytest

import repro.tuning.controller as controller_module
import repro.tuning.lifetime as lifetime_module
from repro.tuning import TuningController, run_lifetime
from repro.variation import DriftModel, sample_dies

DESIGN = "c5315"
NUM_DIES = 500
EPOCHS = 8
SEED = 7


@pytest.mark.benchmark(group="aging")
def test_lifetime_reuses_allocations_across_epochs(flow_factory, out_dir,
                                                   monkeypatch):
    flow = flow_factory(DESIGN)
    population = sample_dies(flow.placed, NUM_DIES, seed=SEED)
    drift = DriftModel()

    estimates = []
    build = controller_module.build_problem

    def counting_build(*args, **kwargs):
        estimates.append(args[2])  # the estimate the problem derates by
        return build(*args, **kwargs)

    monkeypatch.setattr(controller_module, "build_problem", counting_build)
    controller = TuningController(flow.placed, flow.clib)

    started = time.perf_counter()
    cold = run_lifetime(controller, population, drift, epochs=EPOCHS,
                        seed=SEED)
    cold_s = time.perf_counter() - started
    cold_allocations = len(estimates)
    distinct = len(set(estimates))

    started = time.perf_counter()
    warm = run_lifetime(controller, population, drift, epochs=EPOCHS,
                        seed=SEED)
    warm_s = time.perf_counter() - started
    warm_allocations = len(estimates) - cold_allocations

    calibrate = lifetime_module.calibrate_dies_batched

    def calibrate_afresh(controller, *args, **kwargs):
        controller.allocations.clear()
        return calibrate(controller, *args, **kwargs)

    monkeypatch.setattr(lifetime_module, "calibrate_dies_batched",
                        calibrate_afresh)
    before = len(estimates)
    started = time.perf_counter()
    afresh = run_lifetime(TuningController(flow.placed, flow.clib),
                          population, drift, epochs=EPOCHS, seed=SEED)
    afresh_s = time.perf_counter() - started
    afresh_allocations = len(estimates) - before

    text = "\n".join([
        f"lifetime allocation reuse: {DESIGN}, {NUM_DIES} dies, "
        f"{EPOCHS} drift epochs (seed {SEED}), model mode, cadence 1",
        f"  cold run:  {cold_allocations:4d} allocations for {distinct} "
        f"distinct estimates, {cold_s:6.2f} s",
        f"  warm run:  {warm_allocations:4d} allocations on the same "
        f"controller, {warm_s:6.2f} s",
        f"  reference: {afresh_allocations:4d} allocations when every "
        f"epoch allocates afresh, {afresh_s:6.2f} s",
        f"  yield curve: "
        f"{', '.join(f'{y:.3f}' for y in cold.yield_curve())}",
        f"  end-of-life mean leakage: "
        f"{cold.outcomes[-1].mean_leakage_nw / 1e3:.3f} uW",
        "",
        "gates (exact counts, asserted, never skipped): one allocation "
        "per distinct estimate; zero allocations on the warm re-run, "
        "with a LifetimeSummary equal to the cold run's (runtime_s "
        "aside); the reference run's summary equals it too.  Times are "
        "informational.",
    ])
    (out_dir / "aging.txt").write_text(text + "\n", encoding="utf-8")
    print("\n" + text)

    assert cold_allocations > 0
    assert cold_allocations == distinct
    assert warm_allocations == 0
    steady = dataclasses.replace(cold, runtime_s=0.0)
    assert dataclasses.replace(warm, runtime_s=0.0) == steady
    assert dataclasses.replace(afresh, runtime_s=0.0) == steady
