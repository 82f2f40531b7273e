"""Experiment runners: one per table and figure of the paper.

:data:`~repro.experiments.base.EXPERIMENT_MODULES` lists every
experiment; use :func:`run_experiment`/:func:`run_experiments`/
:func:`list_experiments` to drive them.  Importing this package loads no
runner module and no substrate: each loads when a result first misses
the cache.
"""

from ..engine import ArtifactCache, ExperimentResults, RunReport, run_experiments
from .base import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    execute_experiment,
    list_experiments,
    run_experiment,
    write_series_csv,
)
from .digest import canonical_payload, result_digest
from .scenario import SCALES, STAGES, Scenario, ScenarioConfig, ScenarioParams, default_scenario
from .validation import SHAPE_CHECKS, ShapeCheck, ValidationReport, validate_scenario

__all__ = [
    "ArtifactCache",
    "ExperimentResult",
    "ExperimentResults",
    "RESULT_SCHEMA_VERSION",
    "RunReport",
    "write_series_csv",
    "canonical_payload",
    "result_digest",
    "execute_experiment",
    "list_experiments",
    "run_experiment",
    "run_experiments",
    "SCALES",
    "STAGES",
    "Scenario",
    "ScenarioConfig",
    "ScenarioParams",
    "default_scenario",
    "SHAPE_CHECKS",
    "ShapeCheck",
    "ValidationReport",
    "validate_scenario",
]
