"""Experiment registry: id -> runner, populated by ``@experiment``.

Experiment modules self-register by decorating their driver::

    from repro.experiments.registry import experiment

    @experiment("fig23", cost="slow", section="Fig. 23", tags=("system",))
    def run() -> ExperimentResult: ...

The decorator records an :class:`ExperimentSpec` (runner plus scheduling
metadata — the execution engine runs ``cost="slow"`` experiments first
and keys its cache on the module's source digest) and returns the
function unchanged, so direct calls like ``fig23.run()`` keep working.

Two views over the spec table stay beside :func:`get_spec`:
``EXPERIMENTS`` behaves exactly like the old hand-maintained
``{id: runner}`` dict and is what the CLI and the benchmark enumerate
experiment ids from; ``run_experiment`` is the serial, uncached
reference path that the engine and chaos tests compare the engine's
results against.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

from repro.experiments.base import ExperimentResult
from repro.util.guards import GuardContext, get_guards, use_guards

Runner = Callable[..., ExperimentResult]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: its runner plus scheduling metadata."""

    experiment_id: str
    runner: Runner
    cost: str = "fast"  # "fast" | "slow"; slow experiments are scheduled first
    section: str = ""  # paper artefact it regenerates, e.g. "Fig. 23"
    tags: Tuple[str, ...] = ()
    #: Per-experiment wall-clock budget in seconds. ``None`` defers to the
    #: engine's cost-scaled default; ``0`` disables the timeout entirely.
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cost not in ("fast", "slow"):
            raise ValueError(
                f"{self.experiment_id}: cost must be 'fast' or 'slow', "
                f"got {self.cost!r}"
            )
        if self.timeout_s is not None and self.timeout_s < 0:
            raise ValueError(
                f"{self.experiment_id}: timeout_s must be >= 0 or None, "
                f"got {self.timeout_s!r}"
            )

    @property
    def source_file(self) -> Optional[str]:
        """Path of the module defining the runner (None for builtins)."""
        return inspect.getsourcefile(self.runner)


_SPECS: Dict[str, ExperimentSpec] = {}


def experiment(
    experiment_id: str,
    *,
    cost: str = "fast",
    section: str = "",
    tags: Tuple[str, ...] = (),
    timeout_s: Optional[float] = None,
) -> Callable[[Runner], Runner]:
    """Register the decorated function as the runner for ``experiment_id``."""

    def decorate(runner: Runner) -> Runner:
        if experiment_id in _SPECS:
            raise ValueError(
                f"experiment {experiment_id!r} registered twice "
                f"({_SPECS[experiment_id].runner} and {runner})"
            )
        _SPECS[experiment_id] = ExperimentSpec(
            experiment_id=experiment_id,
            runner=runner,
            cost=cost,
            section=section,
            tags=tuple(tags),
            timeout_s=timeout_s,
        )
        return runner

    return decorate


class _RegistryView(Mapping):
    """Live read-only ``{id: runner}`` view of the spec table.

    Drop-in replacement for the old module-level dict: iteration,
    membership, ``[]`` and ``len`` all work, and registrations made
    after import show up immediately.
    """

    def __getitem__(self, experiment_id: str) -> Runner:
        return _SPECS[experiment_id].runner

    def __iter__(self) -> Iterator[str]:
        return iter(_SPECS)

    def __len__(self) -> int:
        return len(_SPECS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EXPERIMENTS({sorted(_SPECS)})"


EXPERIMENTS: Mapping[str, Runner] = _RegistryView()


def get_spec(experiment_id: str) -> ExperimentSpec:
    try:
        return _SPECS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(sorted(_SPECS))}"
        ) from None


def iter_specs() -> Iterator[ExperimentSpec]:
    """All registered specs, in id order."""
    for experiment_id in sorted(_SPECS):
        yield _SPECS[experiment_id]


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Serial, uncached execution — the thin wrapper existing callers use.

    The parallel/cached path lives in :mod:`repro.experiments.engine`.
    Like the engine, the driver runs in a *fresh* guard context
    (inheriting strictness from the ambient one) and the collected
    model-validity warnings are attached to the result — so this path
    and the engine return byte-identical results, warnings included.
    """
    with use_guards(GuardContext(strict=get_guards().strict)) as guards:
        result = get_spec(experiment_id).runner(**kwargs)
    result.warnings = [w.to_dict() for w in guards.warnings]
    return result


# Importing the experiment modules fires their ``@experiment`` decorators
# and populates the registry. This must come *after* the decorator is
# defined: the modules import it back from here (the cycle is benign
# because they only need the names defined above).
from repro.experiments import (  # noqa: E402,F401  (imported for registration)
    ablations,
    robustness,
    fig02,
    fig03,
    fig05,
    fig09,
    fig10,
    fig12_14,
    fig16,
    fig17,
    fig18,
    fig20,
    fig21,
    fig22,
    fig23,
    fig24,
    fig25,
    fig26,
    fig27,
    stage_assignment,
    table1,
    table3,
    table4,
)
