"""Post-silicon tuning (paper Sec. 3.1, Fig. 2): sensors, bias
generator, closed-loop controller, and wafer-scale population
calibration — including the spatial per-region compensation mode and
the epoch-based lifetime re-calibration loop, whose epochs reuse each
other's allocations through the controller."""

from repro.tuning.batched import calibrate_dies_batched
from repro.tuning.controller import (DEFAULT_SENSOR_REGIONS,
                                     TuningController, TuningOutcome)
from repro.tuning.generator import BodyBiasGenerator
from repro.tuning.lifetime import (LIFETIME_MODES, EpochOutcome,
                                   LifetimeSummary, run_lifetime)
from repro.tuning.population import (DIE_STATUSES, TUNING_ENGINES,
                                     TUNING_MODES, DieTuningRecord,
                                     PopulationTuningSummary, calibrate_die,
                                     calibrate_die_spatial, tune_population)
from repro.tuning.sensors import InSituMonitor, SpatialSensorGrid

__all__ = [
    "BodyBiasGenerator",
    "DEFAULT_SENSOR_REGIONS",
    "DIE_STATUSES",
    "DieTuningRecord",
    "EpochOutcome",
    "InSituMonitor",
    "LIFETIME_MODES",
    "LifetimeSummary",
    "PopulationTuningSummary",
    "SpatialSensorGrid",
    "TUNING_ENGINES",
    "TUNING_MODES",
    "TuningController",
    "TuningOutcome",
    "calibrate_die",
    "calibrate_die_spatial",
    "calibrate_dies_batched",
    "run_lifetime",
    "tune_population",
]
