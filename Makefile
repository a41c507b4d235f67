# Convenience targets; everything is plain pytest underneath.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test lint docs-check bench bench-aging bench-batched \
	bench-cache bench-parallel bench-placer bench-serve bench-spatial \
	bench-grouping bench-tuning-throughput test-aging test-parallel \
	test-placement test-serve test-spatial test-grouping test-batched \
	examples

test:
	$(PYTEST) -x -q

# Static checks, three layers: ruff (style families, config in
# ruff.toml), the repro.lint AST contract checkers (determinism,
# hash-stability, units-suffix, registry-docstring, paper-anchor; see
# DESIGN.md "Static contract checking"), and the registry/docs policy
# suites.  ruff is optional locally but required (and installed) in CI;
# repro.lint has no dependencies beyond the repo itself and always runs.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping style pass (CI runs it)"; \
	fi
	PYTHONPATH=src python -m repro.lint src tests benchmarks examples \
		perfbench
	$(PYTEST) -q tests/core/test_registry.py \
		tests/grouping/test_grouping.py tests/test_docs.py \
		tests/lint/

docs-check:
	$(PYTEST) -q tests/test_docs.py

# Run every example script at full size (tests/test_examples.py smoke-
# runs the same scripts with REPRO_EXAMPLE_TINY=1 on every `make test`).
examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src python $$script; \
	done

bench:
	$(PYTEST) -q benchmarks/

# The lifetime loop's cross-epoch allocation reuse, gated by exact
# counts: an 8-epoch, 500-die c5315 lifetime allocates once per
# distinct estimate, and a warm re-run on the same controller allocates
# nothing and returns the same summary.
bench-aging:
	$(PYTEST) -q benchmarks/bench_aging.py

bench-batched:
	$(PYTEST) -q benchmarks/bench_batched_sta.py

bench-cache:
	$(PYTEST) -q benchmarks/bench_cache.py

bench-parallel:
	$(PYTEST) -q benchmarks/bench_parallel.py

# The annealing placer, gated: anneal:default <= 0.8x the BFS well
# boundaries at equal-or-better leakage on industrial3, batched
# delta-HPWL >= 10x the scalar oracle at equal move count, plus the
# knob-sweep Pareto table.
bench-placer:
	$(PYTEST) -q benchmarks/bench_placer.py

# The allocation service, gated: warm-path dominance on a mixed
# hot/cold workload, sustained hot req/s over loopback HTTP, and
# single-flight collapse of concurrent identical specs.
bench-serve:
	$(PYTEST) -q benchmarks/bench_serve.py

# The paper's central claim, gated: spatial-vs-uniform dominance,
# monotone yield advantage in correlation length, worker determinism.
bench-spatial:
	$(PYTEST) -q benchmarks/bench_spatial.py

# Bias-domain grouping, gated: >= 3x ILP+heuristic solve-time speedup
# at bands:8 on the largest catalog circuit, the coarser-groups ->
# fewer-boundaries / higher-leakage monotone trade-off, and identity-
# grouping bit-identity.
bench-grouping:
	$(PYTEST) -q benchmarks/bench_grouping.py

# Batched population calibration, gated: >= 10x tuned dies/s over the
# per-die loop on c1355/1000 dies (tiered by cores), summaries
# bit-identical either way.
bench-tuning-throughput:
	$(PYTEST) -q benchmarks/bench_tuning_throughput.py

# The temporal-scenario suite on its own: the NBTI drift process and
# the closed-loop lifetime engine, cross-epoch allocation reuse
# included (CI's aging-smoke job).
test-aging:
	$(PYTEST) -q tests/variation/test_aging.py \
		tests/tuning/test_lifetime.py

# The batched-calibration suite on its own: batched-vs-serial summary
# equivalence (randomized populations, groupings, workers) plus the
# incremental-STA refine() oracle tests.
test-batched:
	$(PYTEST) -q tests/tuning/test_batched_equivalence.py \
		tests/sta/test_incremental.py

# The parallel/concurrency suite on its own: cache hammering across
# processes plus serial-vs-parallel equivalence (CI's smoke job).
test-parallel:
	$(PYTEST) -q tests/flow/test_parallel.py \
		tests/tuning/test_population_parallel.py

# The placement suite on its own: floorplan/BFS placer, the HPWL
# kernel's vectorized-vs-scalar equivalence, and the seeded annealer's
# determinism contract (CI's placer-smoke job).
test-placement:
	$(PYTEST) -q tests/placement/

# The serving-layer suite on its own: engine backends, HTTP framing,
# single-flight semantics and graceful drain (CI's serve-smoke job).
test-serve:
	$(PYTEST) -q tests/serve/ tests/flow/test_executor.py

# The spatial compensation engine suite on its own.
test-spatial:
	$(PYTEST) -q tests/tuning/test_spatial.py

# The bias-domain grouping suite on its own (unit + property tests +
# grouped tuning).
test-grouping:
	$(PYTEST) -q tests/grouping/ tests/tuning/test_grouping_tuning.py
