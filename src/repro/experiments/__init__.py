"""Experiment drivers: one module per paper figure/table.

Every module exposes ``run(**kwargs) -> ExperimentResult`` and
self-registers via the ``@experiment`` decorator; the registry maps
experiment ids (``fig23``, ``table3``, ...) to those callables and the
CLI (``cryowire``) prints the same rows/series the paper reports. The
execution engine (:mod:`repro.experiments.engine`) adds parallel fan-out
and content-addressed result caching on top of the same registry.
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    experiment,
    get_spec,
    iter_specs,
    run_experiment,
)

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "ExperimentSpec",
    "experiment",
    "get_spec",
    "iter_specs",
    "run_experiment",
]
