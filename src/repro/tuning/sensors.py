"""On-die timing sensors (paper Sec. 3.1).

Two sensing models from the literature the paper builds on:

* :class:`InSituMonitor` — flip-flop-embedded transition detectors
  (Mitra [3]); modelled as a full-STA check that flags any endpoint
  whose degraded arrival lands inside the detection window before
  ``Tcrit``.
* :class:`SpatialSensorGrid` — a grid of per-region monitors over
  contiguous row bands.  The paper's central argument is that intra-die
  variation is spatially *correlated*, so a monitor per physical
  cluster senses its neighbourhood's slowdown; the grid turns one
  sampled per-gate delay-scale field into per-region (and per-row)
  slowdown estimates, and localizes timing alarms back to regions.
  A 1-region grid that senses only the die's central band is the
  classic critical-path replica (Teodorescu et al. [5]) — the
  uniform-biasing baseline the spatial experiments compare against
  (:meth:`repro.tuning.controller.TuningController.replica_sensor_grid`).

Both are simulation models: they answer the question the silicon sensor
would answer, given a die state (slowdown + bias assignment).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import TuningError
from repro.placement.placed_design import PlacedDesign
from repro.sta.engine import TimingAnalyzer
from repro.sta.paths import TimingPath

if TYPE_CHECKING:  # grouping sits above the sensor layer: no runtime dep
    from repro.grouping.domains import RowGrouping


@dataclass
class InSituMonitor:
    """Flip-flop transition detectors across a block (STA-backed model)."""

    analyzer: TimingAnalyzer
    tcrit_ps: float
    detection_window_ps: float = 0.0
    alarms_raised: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.tcrit_ps <= 0:
            raise TuningError("Tcrit must be positive")
        if self.detection_window_ps < 0:
            raise TuningError("detection window cannot be negative")

    def check(self, die_slowdown: float,
              scales: Mapping[str, float] | None = None) -> bool:
        """Run the monitors; returns True (and counts) on a timing alarm."""
        critical = self.analyzer.critical_delay_ps(
            scales, derate=1.0 + die_slowdown)
        alarm = critical > self.tcrit_ps - self.detection_window_ps
        if alarm:
            self.alarms_raised += 1
        return alarm


class SpatialSensorGrid:
    """Per-region monitor grid over contiguous row bands (Sec. 3.1
    sensing, clustered per the paper's physical-locality argument).

    The die's rows are split into ``num_regions`` contiguous bands; each
    band hosts one monitor.  A monitor is modelled as a delay-weighted
    replica of its band's gates: given a per-gate delay-scale field it
    reports the band's effective slowdown
    ``sum(d_g * s_g) / sum(d_g) - 1`` — exactly what a local replica
    path threading the region would measure.  The grid also carries the
    region-resolved view of the in-situ monitors: per-path nominal
    delay/region incidence matrices that localize a timing alarm under
    any combined (die x bias) scale field to the regions whose paths
    violate, which is what lets the spatial tuning loop bump only the
    under-estimated regions.

    ``num_regions=1`` is the die-uniform baseline: one monitor, one
    estimate, every row biased against the same number.  Pass
    ``sense_rows`` to bound the monitors' *physical* extent: a 1-region
    grid sensing only the die's central band models the classic single
    path-replica sensor — a circuit at one location whose local reading
    stands in for the whole die, and whose blind spots are exactly what
    the spatial experiments measure.
    """

    def __init__(self, placed: PlacedDesign, num_regions: int,
                 base_delays_ps: Mapping[str, float],
                 paths: Sequence[TimingPath] = (),
                 sense_rows: tuple[int, int] | None = None) -> None:
        if num_regions < 1:
            raise TuningError(
                f"need at least one sensor region, got {num_regions}")
        num_rows = placed.num_rows
        if sense_rows is not None:
            lo, hi = sense_rows
            if not 0 <= lo < hi <= num_rows:
                raise TuningError(
                    f"sense_rows {sense_rows} outside [0, {num_rows})")
        self.sense_rows = sense_rows
        """Physical extent of the monitors, as a row range: a monitor
        only measures gates inside it (None = each monitor covers its
        whole band).  A 1-region grid with a narrow ``sense_rows`` is
        the classic single path-replica sensor — one circuit at one
        location whose reading stands in for the whole die."""
        self.num_rows = num_rows
        self.num_regions = min(num_regions, num_rows)
        self.gate_names: tuple[str, ...] = tuple(placed.netlist.gates)
        self._index = {name: i for i, name in enumerate(self.gate_names)}

        # Contiguous row bands, sizes as equal as possible (the same
        # deterministic split the parallel engine uses for die chunks).
        base, extra = divmod(num_rows, self.num_regions)
        bands: list[tuple[int, int]] = []
        start = 0
        for region in range(self.num_regions):
            size = base + (1 if region < extra else 0)
            bands.append((start, start + size))
            start += size
        self.row_bands: tuple[tuple[int, int], ...] = tuple(bands)
        self.region_of_row = np.empty(num_rows, dtype=np.intp)
        for region, (lo, hi) in enumerate(self.row_bands):
            self.region_of_row[lo:hi] = region

        gate_rows = np.array([placed.row_of(name)
                              for name in self.gate_names], dtype=np.intp)
        self.gate_region = self.region_of_row[gate_rows]
        self.gate_weight_ps = np.array(
            [base_delays_ps[name] for name in self.gate_names])
        if sense_rows is not None:
            lo, hi = sense_rows
            self._sense_weight = np.where(
                (gate_rows >= lo) & (gate_rows < hi),
                self.gate_weight_ps, 0.0)
        else:
            self._sense_weight = self.gate_weight_ps
        # Per-region weight normalizers; a band of empty rows (or one
        # entirely outside the monitors' physical extent) senses 0.
        self._region_weight = np.zeros(self.num_regions)
        np.add.at(self._region_weight, self.gate_region,
                  self._sense_weight)

        # Region-resolved in-situ monitors: nominal path-delay matrix
        # (paths x gates) and path->region incidence (paths x regions).
        self.paths: tuple[TimingPath, ...] = tuple(paths)
        data, rows_idx, cols_idx = [], [], []
        inc_rows, inc_cols = [], []
        for k, path in enumerate(self.paths):
            regions_hit: set[int] = set()
            for gate_name, delay in zip(path.gates, path.gate_delays_ps):
                gate = self._index[gate_name]
                rows_idx.append(k)
                cols_idx.append(gate)
                data.append(delay)
                regions_hit.add(int(self.gate_region[gate]))
            for region in sorted(regions_hit):
                inc_rows.append(k)
                inc_cols.append(region)
        num_paths = len(self.paths)
        self._path_delay = csr_matrix(
            (data, (rows_idx, cols_idx)),
            shape=(num_paths, len(self.gate_names)))
        self._path_region = csr_matrix(
            (np.ones(len(inc_rows)), (inc_rows, inc_cols)),
            shape=(num_paths, self.num_regions))
        self._path_setup = np.array(
            [path.setup_ps for path in self.paths])

    # -- field views ------------------------------------------------------

    def as_row(self, scales: Mapping[str, float] | np.ndarray
               ) -> np.ndarray:
        """A per-gate scale field as a ``(num_gates,)`` array in this
        grid's ``gate_names`` order (missing gates default to 1.0)."""
        if isinstance(scales, Mapping):
            return np.array([scales.get(name, 1.0)
                             for name in self.gate_names])
        row = np.asarray(scales, dtype=float)
        if row.shape != (len(self.gate_names),):
            raise TuningError(
                f"scale field needs shape ({len(self.gate_names)},), "
                f"got {row.shape}")
        return row

    # -- sensing ----------------------------------------------------------

    def estimate_region_betas(self, scales: Mapping[str, float] | np.ndarray
                              ) -> np.ndarray:
        """Each monitor's slowdown reading of the field, shape (R,)."""
        row = self.as_row(scales)
        weighted = np.zeros(self.num_regions)
        np.add.at(weighted, self.gate_region, self._sense_weight * row)
        safe = np.maximum(self._region_weight, 1e-12)
        estimates = weighted / safe - 1.0
        return np.where(self._region_weight > 0, estimates, 0.0)

    def row_betas(self, region_betas: np.ndarray) -> np.ndarray:
        """Expand per-region estimates into the per-row slowdown vector
        ``build_problem`` consumes, floored at zero."""
        region_betas = np.asarray(region_betas, dtype=float)
        if region_betas.shape != (self.num_regions,):
            raise TuningError(
                f"need {self.num_regions} region betas, got "
                f"{region_betas.shape}")
        return np.maximum(region_betas[self.region_of_row], 0.0)

    def estimate_row_betas(self, scales: Mapping[str, float] | np.ndarray
                           ) -> np.ndarray:
        """Sense the field and expand to rows in one step."""
        return self.row_betas(self.estimate_region_betas(scales))

    def group_betas(self, region_betas: np.ndarray,
                    grouping: RowGrouping) -> np.ndarray:
        """Map the monitors' per-region readings onto bias domains.

        Each domain takes the *worst* (maximum) reading over the rows
        it spans — conservative by construction, because one
        domain-wide bias must recover the domain's slowest region.
        This is the sensor-side of bias-domain grouping (DESIGN.md,
        "Bias-domain grouping"): with domains coarser than the monitor
        grid, several regions fold into one estimate; with finer
        domains, neighbouring domains share their region's reading.
        Returns shape ``(grouping.num_groups,)``, floored at zero like
        :meth:`row_betas`.
        """
        if grouping.num_rows != self.num_rows:
            raise TuningError(
                f"grouping {grouping.name!r} covers {grouping.num_rows} "
                f"rows, grid has {self.num_rows}")
        return grouping.aggregate_max(self.row_betas(region_betas))

    # -- alarm localization ------------------------------------------------

    def alarm_regions(self, scales: Mapping[str, float] | np.ndarray,
                      tcrit_ps: float) -> np.ndarray:
        """Boolean mask of regions whose monitored paths violate
        ``tcrit_ps`` under a combined (die x bias) scale field."""
        if not self.paths:
            return np.zeros(self.num_regions, dtype=bool)
        delays = self._path_delay @ self.as_row(scales) + self._path_setup
        violated = delays > tcrit_ps
        return np.asarray(
            self._path_region.T @ violated, dtype=float).ravel() > 0
