"""The four benchmark workloads: flow-cold, table1, population, serve.

Each workload draws its inputs from one seed, builds what it needs in
:meth:`setup`, and then runs whole rounds of the same operations:
:meth:`round` is the timed work, :meth:`check_round` verifies its
outputs untimed, and :meth:`final_check` runs the once-per-run checks.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from perfbench import checks, tracing
from repro import api
from repro.circuits.catalog import ALL_BENCHMARK_NAMES
from repro.errors import ServeError
from repro.flow.cache import ArtifactCache, canonical_json
from repro.flow.design_flow import implement
from repro.serve.client import fetch_stats, request_shutdown, submit_spec

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"

#: slowdowns are drawn where every catalog design is feasible
#: (industrial1 is infeasible at 0.14)
BETA_RANGE = (0.02, 0.10)


def draw_betas(rng: np.random.Generator, count: int,
               taken=frozenset()) -> list[float]:
    """``count`` distinct slowdowns in :data:`BETA_RANGE`, none in
    ``taken``."""
    betas: list[float] = []
    while len(betas) < count:
        beta = round(float(rng.uniform(*BETA_RANGE)), 6)
        if beta not in taken and beta not in betas:
            betas.append(beta)
    return betas


def process_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> None:
    """Run this thread, and every thread or process it starts from now
    on, on the lowest-numbered CPU it may use (Linux only)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Workload:
    """One workload's inputs, timed rounds and checks."""

    name = ""
    operations_per_round = 1
    #: False where the traced code runs in another process
    traces_in_process = True
    tracer: tracing.Tracer | None = None

    def setup(self) -> None:
        """Build everything the rounds reuse."""

    def round(self) -> None:
        """One timed round of operations."""
        raise NotImplementedError

    def check_round(self) -> None:
        """Verify the outputs of the last round (untimed)."""

    def final_check(self) -> None:
        """Checks made once per run, after measuring."""

    def typical_round_s(self, round_s: list[float]) -> float:
        """Seconds of a typical round, from the timed rounds' seconds."""
        return statistics.median(round_s)

    def summary(self, round_s: list[float]) -> str:
        """One line on what was measured, for standard error."""
        return (f"{self.name}: {len(round_s)} rounds, typical round "
                f"{self.typical_round_s(round_s):.4f} s")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb()

    def layer_metrics(self, windows) -> dict:
        """Per-layer metrics of a traced run of ``len(windows)`` rounds."""
        metrics = tracing.layer_metrics(self.tracer.spans, windows,
                                        len(windows))
        metrics["serve.outside_engine_ms"] = (0.0, "ms")
        return metrics

    def close(self) -> None:
        """Release processes and temporary files."""


class FlowCold(Workload):
    """Every catalog design allocated from a cold artifact cache."""

    name = "flow-cold"
    ANNEAL_DESIGN = "c5315"
    ANNEAL_PLACER = "anneal:default"

    def __init__(self, seed: int, tracer, workdir: Path) -> None:
        self.tracer = tracer
        betas = draw_betas(np.random.default_rng(seed), 2)
        self.specs = [api.RunSpec(kind="allocate", design=design, beta=beta)
                      for beta in betas for design in ALL_BENCHMARK_NAMES]
        self.specs.append(api.RunSpec(kind="allocate",
                                      design=self.ANNEAL_DESIGN,
                                      beta=betas[0],
                                      placer=self.ANNEAL_PLACER))
        self.operations_per_round = len(self.specs)
        self.last = None

    def setup(self) -> None:
        # The first cold pass in a process pays one-off imports (the
        # annealer, sparse matrices); pay them here on a small design.
        warm = [api.RunSpec(kind="allocate", design="c1355"),
                api.RunSpec(kind="allocate", design="c1355",
                            placer="anneal:quick")]
        api.run_many(warm, cache=ArtifactCache())

    def round(self) -> None:
        cache = ArtifactCache()
        self.last = (cache, api.run_many(self.specs, cache=cache))

    def check_round(self) -> None:
        cache, results = self.last
        self.last = None
        for spec, result in zip(self.specs, results, strict=True):
            flow = implement(spec.design, placer=spec.placer, cache=cache)
            checks.check_allocation(flow, spec, result.payload)


class _FixedSpecs(Workload):
    """Rounds that re-execute a fixed spec list on flows built during
    set-up, timing each spec."""

    designs: tuple[str, ...] = ()

    def __init__(self, specs, tracer) -> None:
        self.tracer = tracer
        self.specs = list(specs)
        self.operations_per_round = len(self.specs)
        self.spec_s: list[list[float]] = [[] for _ in self.specs]
        self.results: list = []
        self.cache = ArtifactCache()

    def setup(self) -> None:
        for design in self.designs:
            implement(design, cache=self.cache)

    def round(self) -> None:
        self.results = []
        for spec, times in zip(self.specs, self.spec_s):
            started = time.perf_counter()
            self.results.append(
                api.run(spec, cache=self.cache, use_cache=False))
            times.append(time.perf_counter() - started)

    def typical_round_s(self, round_s: list[float]) -> float:
        """The sum of each spec's median seconds: a slow stretch of the
        machine during one spec moves only that spec's median."""
        return sum(statistics.median(times) for times in self.spec_s)


class Table1(_FixedSpecs):
    """Table 1 rows: Single BB, exact ILP and heuristic at C = 2, 3."""

    name = "table1"
    designs = ("c1355", "c3540", "c5315", "c7552")
    BETA = 0.05

    def __init__(self, seed: int, tracer, workdir: Path) -> None:
        super().__init__([api.RunSpec(kind="table1", design=design,
                                      beta=self.BETA)
                          for design in self.designs], tracer)

    def check_round(self) -> None:
        for result in self.results:
            checks.check_table1_row(result.payload)


class Population(_FixedSpecs):
    """A mix of die-population studies on flows built during set-up."""

    name = "population"
    designs = ("c5315", "industrial1", "soc_quad", "c1355")
    EQUIVALENCE_DIES = 60

    def __init__(self, seed: int, tracer, workdir: Path) -> None:
        seeds = [int(value) for value in
                 np.random.default_rng(seed).integers(0, 2**31, size=5)]
        super().__init__([
            api.RunSpec.from_dict({
                "kind": "population", "design": "c5315", "num_dies": 3000,
                "tune": True, "tuning_engine": "batched",
                "seed": seeds[0]}),
            api.RunSpec.from_dict({
                "kind": "population", "design": "industrial1",
                "num_dies": 1500, "tune": True,
                "tuning_engine": "batched", "seed": seeds[1]}),
            # The spatial per-die loop costs in proportion to the slow
            # dies it draws and varies most from round to round, so it
            # is kept to a minor share of the round.
            api.RunSpec(kind="spatial", design="soc_quad", num_dies=100,
                        seed=seeds[2]),
            api.RunSpec(kind="lifetime", design="c5315", num_dies=500,
                        epochs=8, seed=seeds[3]),
        ], tracer)
        self.equivalence_seed = seeds[4]

    def check_round(self) -> None:
        by_kind = {"population": checks.check_population_row,
                   "spatial": checks.check_spatial_row,
                   "lifetime": checks.check_lifetime_row}
        for result in self.results:
            by_kind[result.kind](result.payload)

    def final_check(self) -> None:
        payloads = [api.execute_spec(
            api.RunSpec(kind="population", design="c1355",
                        num_dies=self.EQUIVALENCE_DIES, tune=True,
                        seed=self.equivalence_seed, tuning_engine=engine),
            cache=self.cache) for engine in ("serial", "batched")]
        checks.check_same_payload("serial vs batched calibration",
                                  *payloads)

    def summary(self, round_s: list[float]) -> str:
        dies = sum(spec.num_dies for spec in self.specs)
        return (f"{super().summary(round_s)}, "
                f"{dies / self.typical_round_s(round_s):.1f} dies/s")


class Serve(Workload):
    """A closed-loop client against a ``repro.cli serve`` subprocess."""

    name = "serve"
    traces_in_process = False
    HIT_DESIGNS = ("c1355", "c3540", "c5315", "c7552", "soc_quad")
    HITS_PER_DESIGN = 2
    MISS_DESIGN = "industrial1"
    #: requests per round: one miss at a seeded position, the rest hits
    BLOCK = 25
    WARM_MISSES = 2
    WARM_HITS = 200
    SAMPLE_SIZE = 3
    START_TIMEOUT_S = 60.0
    EXIT_TIMEOUT_S = 30.0

    def __init__(self, seed: int, tracer, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        betas = draw_betas(self.rng,
                           len(self.HIT_DESIGNS) * self.HITS_PER_DESIGN)
        self.hit_specs = [
            api.RunSpec(kind="allocate", design=design, beta=beta)
            for design, beta in zip(
                self.HIT_DESIGNS * self.HITS_PER_DESIGN, betas)]
        self.miss_betas: set[float] = set()
        self.tracer = tracer
        self.workdir = workdir
        self.operations_per_round = self.BLOCK
        self.tempdir: Path | None = None
        self.server: subprocess.Popen | None = None
        self.url = ""
        self.exchanges: list = []
        self.payloads: dict[str, str] = {}
        self.sent: dict[str, api.RunSpec] = {}
        self.requests = 0
        self.hit_s: list[float] = []
        self.miss_s: list[float] = []

    # -- server lifetime --------------------------------------------------

    def setup(self) -> None:
        # Client and server share one CPU: each request hands control
        # from one to the other and back.  On a 2-core host a round took
        # about 58 ms pinned and 80 ms unpinned, and unpinned rounds
        # spread by a third of their median between runs.
        pin_to_one_cpu()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tempdir = Path(tempfile.mkdtemp(prefix="serve-",
                                             dir=self.workdir))
        port_file = self.tempdir / "port"
        serve_args = ["serve", "--port", "0", "--port-file", str(port_file),
                      "--cache-dir", str(self.tempdir / "cache")]
        if self.tracer is not None:
            command = [sys.executable, str(LAUNCHER),
                       str(self.tempdir / "spans.json"), *serve_args]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.server = subprocess.Popen(command, env=env, cwd=ROOT,
                                       stdout=subprocess.DEVNULL)
        self.url = f"http://127.0.0.1:{self._wait_for_port(port_file)}"

        warm = list(self.hit_specs)
        warm += [self._miss_spec() for _ in range(self.WARM_MISSES)]
        warm += [self.hit_specs[index] for index in self.rng.integers(
            len(self.hit_specs), size=self.WARM_HITS)]
        self.exchanges = self._exchange(warm)
        self._check_exchanges(record=False)
        fetch_stats(self.url)  # marks the start of the timed requests

    def _wait_for_port(self, port_file: Path) -> int:
        deadline = time.perf_counter() + self.START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.server.returncode} "
                    "before listening")
            if port_file.is_file():
                text = port_file.read_text().strip()
                if text:
                    return int(text)
            time.sleep(0.01)
        raise RuntimeError(
            f"server not listening after {self.START_TIMEOUT_S} s")

    def close(self) -> None:
        """Drain and reap the server whatever state it is in, then remove
        the temporary cache: ``/shutdown``, then terminate, then kill."""
        if self.server is not None and self.server.poll() is None:
            if self.url:
                try:
                    request_shutdown(self.url, timeout_s=5.0)
                except (ServeError, ValueError) as exc:  # reaped below
                    print(f"serve: shutdown request failed: {exc}",
                          file=sys.stderr)
            try:
                self.server.wait(timeout=self.EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.server.terminate()
                try:
                    self.server.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
        if self.tempdir is not None:
            shutil.rmtree(self.tempdir, ignore_errors=True)

    # -- requests ---------------------------------------------------------

    def _miss_spec(self) -> api.RunSpec:
        beta = draw_betas(self.rng, 1, taken=self.miss_betas)[0]
        self.miss_betas.add(beta)
        return api.RunSpec(kind="allocate", design=self.MISS_DESIGN,
                           beta=beta)

    def _exchange(self, specs) -> list:
        exchanges = []
        for spec in specs:
            started = time.perf_counter()
            result = submit_spec(self.url, spec)
            exchanges.append((spec, result, time.perf_counter() - started))
        return exchanges

    def _check_exchanges(self, record: bool) -> None:
        for spec, result, elapsed_s in self.exchanges:
            self.requests += 1
            key = spec.spec_hash()
            text = canonical_json(result.payload)
            seen = key in self.payloads
            checks.check_cache_flag(key, seen, result.cache_hit)
            if seen:
                checks.check_hit_payload(key, self.payloads[key], text)
            else:
                self.payloads[key] = text
                self.sent[key] = spec
            if record:
                (self.hit_s if seen else self.miss_s).append(elapsed_s)
        self.exchanges = []

    def round(self) -> None:
        block = [self.hit_specs[index] for index in self.rng.integers(
            len(self.hit_specs), size=self.BLOCK - 1)]
        block.insert(int(self.rng.integers(self.BLOCK)), self._miss_spec())
        self.exchanges = self._exchange(block)

    def check_round(self) -> None:
        self._check_exchanges(record=True)

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server process, MiB (Linux ``/proc``:
        the child's ``getrusage`` figure would include this process's
        own resident set at the fork)."""
        with open(f"/proc/{self.server.pid}/status",
                  encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in the server's status")

    def final_check(self) -> None:
        stats = fetch_stats(self.url)  # marks the end of the timed requests
        checks.check_server_counts(self.requests, len(self.payloads), stats)
        request_shutdown(self.url)
        code = self.server.wait(timeout=self.EXIT_TIMEOUT_S)
        if code != 0:
            raise checks.CheckError(f"server exited with {code}")
        if self.tracer is not None:
            self.tracer.spans = tracing.Tracer.read(
                self.tempdir / "spans.json")

        keys = sorted(self.payloads)
        sample = self.rng.choice(len(keys), size=self.SAMPLE_SIZE,
                                 replace=False)
        cache = ArtifactCache()
        for index in sorted(int(i) for i in sample):
            key = keys[index]
            local = api.run(self.sent[key], cache=cache)
            checks.check_same_payload(f"served spec {key[:12]}",
                                      json.loads(self.payloads[key]),
                                      local.payload)

    def summary(self, round_s: list[float]) -> str:
        def tails(label, samples, pcts):
            return f"{len(samples)} {label} " + ", ".join(
                f"p{pct} {checks.percentile(samples, pct) * 1e3:.3f} ms"
                for pct in pcts if samples)
        return (f"{super().summary(round_s)}, "
                f"{self.BLOCK * len(round_s) / sum(round_s):.1f} req/s; "
                f"{tails('hits', self.hit_s, (50, 90, 99))}; "
                f"{tails('misses', self.miss_s, (50, 90))}")

    def layer_metrics(self, windows) -> dict:
        """Per-layer metrics from the server's spans between its two
        timed-section ``/stats`` requests."""
        spans = self.tracer.spans
        marks = [span for span in spans if span.name == "serve.stats"]
        window = ([(marks[0].end_s, marks[-1].start_s)]
                  if len(marks) >= 2 else [])
        rounds = len(windows)
        metrics = tracing.layer_metrics(spans, window, rounds)
        engine_s = metrics["flow.executor_run_spec_s"][0] * rounds
        client_s = sum(self.hit_s) + sum(self.miss_s)
        metrics["serve.outside_engine_ms"] = (
            (client_s - engine_s) / (self.BLOCK * rounds) * 1e3, "ms")
        return metrics


WORKLOADS = {cls.name: cls for cls in (FlowCold, Table1, Population, Serve)}
