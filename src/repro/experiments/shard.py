"""Sharded sweep orchestration that survives dying worker groups.

One :class:`~repro.experiments.engine.ExecutionEngine` already
tolerates crashed workers, hung drivers and corrupt cache entries — but
it is a single *worker group*: one process pool, one manifest, one
blast radius. Audit-grid-scale sweeps (the paper's CryoSP/CryoBus
operating-point grids, the Pai et al. frequency-limit sweeps) fan out
for hours, and at that scale a whole group dying — an OOM-killed pool
host, a wedged engine, a lost container — must cost one shard's
in-progress work, never the run.

:class:`ShardCoordinator` provides that layer:

* **Deterministic partition.** Work items (experiment id + canonical
  kwargs) hash stably onto ``n_shards`` shards (:func:`shard_of`), so
  the same sweep always shards the same way across machines and runs —
  a prerequisite for reasoning about any post-mortem.
* **One engine per shard.** Each shard runs its own
  :class:`ExecutionEngine` (its own process pool = its own worker
  group) on its own thread, with retry/quarantine/timeout machinery
  unchanged, a *derived* jitter seed (:func:`derive_shard_seed`) and a
  per-shard jitter stream so concurrent shards never synchronize their
  retry storms.
* **Checkpointed shard manifests.** Every shard persists a
  :class:`ShardManifest` (``<cache>/shards/shard-<k>.json``) after each
  chunk of work, so a run can be reassembled from partial wreckage.
* **Heartbeats + dead-shard requeue.** Shards beat between chunks; a
  shard whose heartbeat is older than ``heartbeat_timeout_s`` — or that
  died outright — is declared dead and its *incomplete* items are
  requeued onto surviving shards. An item that keeps killing its groups
  exhausts ``max_requeues`` and is quarantined instead of being re-run
  forever; late results from a falsely-declared-dead shard are
  discarded so no item is ever recorded twice.
* **Straggler detection + bounded stealing.** With ``steal=True`` an
  idle shard steals queued items from a straggler (p95 per-item wall
  ≥ ``straggler_factor`` × the sibling median, falling back to queue
  imbalance before enough samples exist), bounded by
  ``max_steals_per_shard``.
* **Merge.** Completed shard manifests merge into one
  :class:`RunManifest` in deterministic (schedule) order whose status
  totals — and whose experiment *results*, drivers being pure — are
  identical to an unsharded run's.
* **Cross-shard resume.** ``run(..., resume=True)`` reconstructs the
  done-set from whatever subset of shard manifests is readable
  (:func:`read_shard_manifests`); unreadable ones are logged and
  treated as empty, never fatal.

Shard lifecycle state machine::

    running --(queue drained)------------------------> done
    running --(InjectedFault / internal error)-------> dead  [self]
    running --(heartbeat older than timeout)---------> dead  [declared]

On either ``dead`` edge the coordinator requeues the shard's
incomplete items (in-flight + queued, minus anything already recorded)
onto survivors; if no survivor is left, the coordinator itself salvages
them inline after the fleet drains.

Chaos sites (see :mod:`repro.util.faults`): ``shard.heartbeat.<k>``,
``shard.group.kill.<k>`` and ``shard.manifest.write.<k>`` — glob
``shard.group.kill.*`` to threaten every shard, or name an index to
kill one deterministically. These sites live in the coordinator
process, so plans should use ``transient``/``fatal``/``hang`` (never
``kill``, which would take down the coordinator itself); any injected
exception at a shard site is *interpreted* as that group dying.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.experiments.base import ExperimentResult
from repro.experiments.engine import (
    COMPLETED_STATUSES,
    ERROR,
    QUARANTINED,
    ExecutionEngine,
    RunManifest,
    RunOutcome,
    RunRecord,
    _Task,
)
from repro.util.digest import canonical_json, sha256_hex
from repro.util.faults import InjectedFault, fault_point, maybe_corrupt

_LOG = logging.getLogger(__name__)

#: Subdirectory (inside the cache dir) holding per-shard manifests.
SHARDS_DIR_NAME = "shards"

#: Shard manifest schema version.
SHARD_MANIFEST_SCHEMA = 1

#: Shard lifecycle states (see the module docstring's state machine).
RUNNING = "running"
DONE = "done"
DEAD = "dead"


class ShardGroupDied(RuntimeError):
    """A whole worker group died (self-reported or declared by timeout)."""


# -- deterministic partition --------------------------------------------------


def shard_of(experiment_id: str, kwargs: Optional[Dict], n_shards: int) -> int:
    """Stable shard index for one work item.

    A pure function of the experiment id and its canonical kwargs (no
    salted ``hash()``, no process state), so a sweep partitions
    identically on every machine and every run.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    material = canonical_json({"id": experiment_id, "kwargs": kwargs or {}})
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def assign_shards(
    experiment_ids: Sequence[str],
    kwargs_by_id: Optional[Dict[str, Dict]],
    n_shards: int,
) -> Dict[int, List[str]]:
    """Partition ``experiment_ids`` (order-preserving) across shards."""
    kwargs_by_id = kwargs_by_id or {}
    assigned: Dict[int, List[str]] = {k: [] for k in range(n_shards)}
    for experiment_id in experiment_ids:
        index = shard_of(experiment_id, kwargs_by_id.get(experiment_id), n_shards)
        assigned[index].append(experiment_id)
    return assigned


def derive_shard_seed(run_seed: Optional[int], shard_index: int) -> int:
    """Per-shard jitter seed derived from the run seed + shard index.

    Concurrent shards must not share a jitter stream: identical seeds
    would produce identical backoff schedules, synchronizing retry
    storms across the fleet instead of spreading them out.
    """
    base = "default" if run_seed is None else str(int(run_seed))
    material = f"{base}|shard{shard_index}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


# -- shard manifests ----------------------------------------------------------


@dataclass
class ShardManifest:
    """Checkpointed state of one shard (``<cache>/shards/shard-<k>.json``).

    Written after every chunk of work and on every lifecycle
    transition, so a coordinator crash — or the shard's own death —
    loses at most the chunk in flight. ``run_key`` fingerprints the
    sweep (ids + kwargs) for post-mortem attribution; resume reads do
    not require it to match (the content-addressed result cache already
    protects against stale results).
    """

    shard_index: int
    n_shards: int
    run_key: str
    state: str = RUNNING
    assigned: List[str] = field(default_factory=list)
    records: List[RunRecord] = field(default_factory=list)
    beats: int = 0
    beat_wall: float = 0.0  # wall-clock epoch of the last heartbeat
    requeued_in: List[str] = field(default_factory=list)
    stolen_in: List[str] = field(default_factory=list)
    stolen_out: List[str] = field(default_factory=list)
    death: str = ""

    def to_dict(self) -> Dict:
        return {
            "schema": SHARD_MANIFEST_SCHEMA,
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "run_key": self.run_key,
            "state": self.state,
            "assigned": list(self.assigned),
            "beats": self.beats,
            "beat_wall": self.beat_wall,
            "requeued_in": list(self.requeued_in),
            "stolen_in": list(self.stolen_in),
            "stolen_out": list(self.stolen_out),
            "death": self.death,
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ShardManifest":
        if not isinstance(data, dict) or "shard_index" not in data:
            raise ValueError("not a shard manifest")
        return cls(
            shard_index=data["shard_index"],
            n_shards=data.get("n_shards", 1),
            run_key=data.get("run_key", ""),
            state=data.get("state", RUNNING),
            assigned=list(data.get("assigned", [])),
            records=[RunRecord.from_dict(r) for r in data.get("records", [])],
            beats=data.get("beats", 0),
            beat_wall=data.get("beat_wall", 0.0),
            requeued_in=list(data.get("requeued_in", [])),
            stolen_in=list(data.get("stolen_in", [])),
            stolen_out=list(data.get("stolen_out", [])),
            death=data.get("death", ""),
        )

    def completed_ids(self) -> Set[str]:
        return {
            r.experiment_id for r in self.records if r.status in COMPLETED_STATUSES
        }

    def save(self, path: Union[str, Path]) -> None:
        """Atomically checkpoint this manifest (a chaos-testable site).

        ``shard.manifest.write.<k>`` faults can raise here (control
        faults) or mangle the bytes on their way to disk (``corrupt``
        faults) — the coordinator treats both as a lost checkpoint, not
        a dead shard.
        """
        path = Path(path)
        fault_point(f"shard.manifest.write.{self.shard_index}")
        raw = maybe_corrupt(
            f"shard.manifest.write.{self.shard_index}",
            json.dumps(self.to_dict(), indent=2).encode("utf-8"),
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".shard-{self.shard_index}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


def read_shard_manifests(
    shards_dir: Union[str, Path],
) -> Tuple[List[ShardManifest], int]:
    """Every readable shard manifest under ``shards_dir``.

    Returns ``(manifests, n_unreadable)``. Unreadable or corrupt
    manifests are logged and simply *absent* from the result — a resume
    reconstructing the done-set treats them as empty, never as fatal.
    """
    shards_dir = Path(shards_dir)
    manifests: List[ShardManifest] = []
    unreadable = 0
    if not shards_dir.is_dir():
        return manifests, unreadable
    for path in sorted(shards_dir.glob("shard-*.json")):
        try:
            manifests.append(ShardManifest.load(path))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            unreadable += 1
            _LOG.warning(
                "unreadable shard manifest %s treated as empty: %s", path, exc
            )
    return manifests, unreadable


def run_key_for(tasks: Sequence[_Task]) -> str:
    """Fingerprint of one planned sweep (ids + kwargs), for attribution."""
    material = canonical_json(
        {
            "ids": sorted(task.experiment_id for task in tasks),
            "kwargs": {task.experiment_id: task.kwargs for task in tasks},
        }
    )
    return sha256_hex(material)[:16]


# -- per-shard runner ---------------------------------------------------------


class _ShardRunner:
    """One worker group: an engine plus its queue, records and lifecycle.

    All mutable state shared with the coordinator (queue, records,
    in-flight list, lifecycle flags) is guarded by the coordinator's
    lock; the runner thread only blocks outside it (inside
    ``engine.run`` and checkpoint I/O).
    """

    def __init__(
        self,
        coordinator: "ShardCoordinator",
        index: int,
        engine: ExecutionEngine,
        assigned: Sequence[str],
    ) -> None:
        self.coordinator = coordinator
        self.index = index
        self.engine = engine
        self.assigned: List[str] = list(assigned)
        self.queue: Deque[str] = deque(assigned)
        self.in_flight: List[str] = []
        self.records: List[RunRecord] = []
        self.results: Dict[str, ExperimentResult] = {}
        self.recorded: Set[str] = set()
        self.state = RUNNING
        self.death = ""
        self.declared_dead = False  # set by the coordinator (liveness timeout)
        self.last_beat = time.monotonic()
        self.beats = 0
        self.requeued_in: List[str] = []
        self.stolen_in: List[str] = []
        self.stolen_out: List[str] = []
        self.steals_done = 0
        self.wall_samples: List[float] = []
        self.manifest_write_failures = 0
        self.thread = threading.Thread(
            target=self._run, daemon=True, name=f"cryowire-shard-{index}"
        )

    # -- observability --------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.coordinator.shards_dir / f"shard-{self.index}.json"

    def _snapshot_locked(self) -> ShardManifest:
        return ShardManifest(
            shard_index=self.index,
            n_shards=self.coordinator.n_shards,
            run_key=self.coordinator._run_key,
            state=self.state,
            assigned=list(self.assigned),
            records=list(self.records),
            beats=self.beats,
            beat_wall=time.time(),
            requeued_in=list(self.requeued_in),
            stolen_in=list(self.stolen_in),
            stolen_out=list(self.stolen_out),
            death=self.death,
        )

    def checkpoint(self) -> None:
        """Persist the shard manifest (best effort, never kills work).

        A failed checkpoint costs observability and resume granularity,
        not correctness: the merge uses in-memory records, and resume
        treats an unreadable manifest as empty.
        """
        with self.coordinator._lock:
            manifest = self._snapshot_locked()
        try:
            manifest.save(self.manifest_path)
        except (InjectedFault, OSError) as exc:
            self.manifest_write_failures += 1
            _LOG.warning(
                "shard %d: manifest checkpoint failed (%s); continuing",
                self.index,
                exc,
            )

    # -- lifecycle ------------------------------------------------------------

    def _beat(self) -> None:
        fault_point(f"shard.heartbeat.{self.index}")
        self.last_beat = time.monotonic()
        self.beats += 1

    def _take_chunk(self) -> Optional[List[str]]:
        with self.coordinator._lock:
            if self.declared_dead:
                return None
            chunk: List[str] = []
            while self.queue and len(chunk) < self.coordinator.chunk_size:
                chunk.append(self.queue.popleft())
            if not chunk and self.coordinator.steal:
                chunk.extend(self.coordinator._steal_for_locked(self))
            if not chunk:
                return None
            self.in_flight = list(chunk)
            return chunk

    def _record_outcome(self, outcome: RunOutcome) -> None:
        with self.coordinator._lock:
            if self.declared_dead:
                # The coordinator already requeued this chunk elsewhere;
                # recording it here would double-count the items.
                _LOG.warning(
                    "shard %d: discarding %d late result(s) after being "
                    "declared dead",
                    self.index,
                    len(outcome.manifest.records),
                )
                self.in_flight = []
                return
            for record in outcome.manifest.records:
                record.shard = self.index
                self.records.append(record)
                self.recorded.add(record.experiment_id)
                if record.wall_time_s > 0:
                    self.wall_samples.append(record.wall_time_s)
            self.results.update(outcome.results)
            self.in_flight = []

    def _drain_incomplete_locked(self) -> List[str]:
        """Empty the queue and in-flight list; returns the unrecorded items."""
        incomplete = [
            eid
            for eid in self.in_flight + list(self.queue)
            if eid not in self.recorded
        ]
        self.in_flight = []
        self.queue.clear()
        return incomplete

    def _die(self, reason: str) -> None:
        with self.coordinator._lock:
            self.state = DEAD
            if not self.death:
                self.death = reason
        _LOG.warning("shard %d died: %s", self.index, reason)
        # Best-effort final checkpoint: completed records survive for
        # cross-shard resume even though the group is gone.
        self.checkpoint()

    def _run(self) -> None:
        try:
            while True:
                self._beat()
                fault_point(f"shard.group.kill.{self.index}")
                chunk = self._take_chunk()
                if chunk is None:
                    break
                outcome = self.engine.run(
                    chunk,
                    kwargs_by_id=self.coordinator._kwargs_by_id,
                    write_manifest=False,
                    keep_going=True,
                )
                self._record_outcome(outcome)
                self._beat()
                self.checkpoint()
        except InjectedFault as exc:
            self._die(f"injected group fault: {exc}")
        except BaseException as exc:  # noqa: BLE001 - a dead group, not a crash
            self._die(f"{type(exc).__name__}: {exc}")
        else:
            with self.coordinator._lock:
                if self.state == RUNNING and not self.declared_dead:
                    self.state = DONE
            self.checkpoint()


# -- coordinator --------------------------------------------------------------


class ShardCoordinator(ExecutionEngine):
    """Partitions a sweep across worker groups and survives their deaths.

    An :class:`ExecutionEngine` whose :meth:`~ExecutionEngine.run` keeps
    the engine's plan and conclude steps and overrides two things: the
    dispatch step runs the planned work on ``n_shards`` worker groups
    (partition, heartbeats, requeue, stealing, salvage, merge), and a
    resume reads its done-set from the shard manifests first. The
    returned manifest is the *merged* run manifest — records in
    deterministic schedule order, each tagged with the shard that
    produced it — and is written to ``last_run.json`` like any run's.

    Keyword arguments other than the ones below are engine settings
    (``cache_dir``, ``use_cache``, ``retries``, ``timeout_s``,
    ``strict``, ``rng_seed``, ...); every shard's engine is built from
    them, with a jitter seed derived per shard. The shard-specific
    knobs:

    ``n_shards``
        Worker groups to partition the sweep across (>= 1).
    ``jobs_per_shard``
        Process-pool width *inside* each shard's engine (also the
        default chunk size a shard leases from its queue at a time).
    ``heartbeat_timeout_s``
        Liveness bound: a shard whose last heartbeat is older than this
        is declared dead and its incomplete items are requeued.
        ``None``/``0`` disables declaration (self-reported deaths are
        still handled). Heartbeats tick between chunks, so the timeout
        must exceed the slowest single chunk (the per-experiment
        timeout bounds that) or a slow shard is falsely declared dead —
        which wastes its in-flight chunk but stays correct: late
        results from a declared-dead shard are discarded.
    ``steal`` / ``straggler_factor`` / ``max_steals_per_shard``
        Bounded work-stealing: an idle shard steals one queued item at
        a time from the most-loaded straggler (p95 per-item wall >=
        ``straggler_factor`` x the sibling median; before enough
        samples exist, queue imbalance >= 2 qualifies), at most
        ``max_steals_per_shard`` items per thief.
    ``requeue`` / ``max_requeues``
        Dead-shard recovery. ``requeue=False`` records a dead group's
        incomplete items as errors instead (the pre-sharding
        behaviour). An item whose groups died ``max_requeues`` times is
        quarantined — mirroring the engine's crash-strikes ledger — so
        a group-killer is never re-run forever.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        jobs_per_shard: int = 1,
        heartbeat_timeout_s: Optional[float] = None,
        steal: bool = False,
        straggler_factor: float = 2.0,
        max_steals_per_shard: int = 8,
        requeue: bool = True,
        max_requeues: int = 2,
        poll_interval_s: float = 0.05,
        chunk_size: Optional[int] = None,
        **engine_settings,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if jobs_per_shard < 1:
            raise ValueError(f"jobs_per_shard must be >= 1, got {jobs_per_shard}")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s < 0:
            raise ValueError(
                f"heartbeat_timeout_s must be >= 0, got {heartbeat_timeout_s}"
            )
        if max_requeues < 0:
            raise ValueError(f"max_requeues must be >= 0, got {max_requeues}")
        if straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1.0, got {straggler_factor}"
            )
        super().__init__(jobs=jobs_per_shard, **engine_settings)
        self._engine_settings = engine_settings
        self.n_shards = n_shards
        self.heartbeat_timeout_s = heartbeat_timeout_s or None
        self.steal = steal
        self.straggler_factor = straggler_factor
        self.max_steals_per_shard = max_steals_per_shard
        self.requeue = requeue
        self.max_requeues = max_requeues
        self.poll_interval_s = poll_interval_s
        self.chunk_size = chunk_size if chunk_size else self.jobs
        self._lock = threading.RLock()
        self._runners: List[_ShardRunner] = []
        self._start_run([])

    def _start_run(self, tasks: Sequence[_Task]) -> None:
        """Reset the per-run state for a sweep of ``tasks``."""
        self._kwargs_by_id = {task.experiment_id: task.kwargs for task in tasks}
        self._run_key = run_key_for(tasks)
        self._requeue_counts: Dict[str, int] = {}
        self._handled_deaths: Set[int] = set()
        self._coordinator_records: List[RunRecord] = []
        self._salvage: List[str] = []
        self._total_requeued = 0
        self._total_stolen = 0

    @property
    def shards_dir(self) -> Path:
        return self.cache.cache_dir / SHARDS_DIR_NAME

    def _engine_for(
        self, shard_index: int, jitter_label: str = "shard"
    ) -> ExecutionEngine:
        """One worker group's engine: this one's settings, its own jitter."""
        settings = dict(
            self._engine_settings,
            rng_seed=derive_shard_seed(
                self._engine_settings.get("rng_seed"), shard_index
            ),
            jitter_stream=f"engine.backoff.{jitter_label}{shard_index}",
        )
        return ExecutionEngine(jobs=self.jobs, **settings)

    # -- resume ---------------------------------------------------------------

    def _previously_completed(self, tasks: Sequence[_Task]) -> FrozenSet[str]:
        """Done-set reconstructed from any readable subset of manifests.

        Shard manifests are the primary source; when none exist (the
        previous run was unsharded) the engine's ``last_run.json`` is
        consulted instead, so ``--resume`` composes across sharded and
        unsharded runs.
        """
        manifests, unreadable = read_shard_manifests(self.shards_dir)
        if not manifests and not unreadable:
            return super()._previously_completed(tasks)
        run_key = run_key_for(tasks)
        done: Set[str] = set()
        for manifest in manifests:
            if manifest.run_key and manifest.run_key != run_key:
                _LOG.warning(
                    "shard manifest %d is from a different sweep "
                    "(run_key %s != %s); using its completions anyway — "
                    "the content-addressed cache guards against staleness",
                    manifest.shard_index,
                    manifest.run_key,
                    run_key,
                )
            done.update(manifest.completed_ids())
        if unreadable:
            _LOG.warning(
                "%d unreadable shard manifest(s) treated as empty during resume",
                unreadable,
            )
        return frozenset(done)

    # -- death handling -------------------------------------------------------

    def _survivors_locked(self, dead: _ShardRunner) -> List[_ShardRunner]:
        return [
            runner
            for runner in self._runners
            if runner is not dead
            and runner.state == RUNNING
            and not runner.declared_dead
            and runner.thread.is_alive()
        ]

    def _requeue_from_locked(self, dead: _ShardRunner) -> None:
        incomplete = dead._drain_incomplete_locked()
        if not incomplete:
            return
        survivors = self._survivors_locked(dead)
        for position, experiment_id in enumerate(incomplete):
            if not self.requeue:
                self._coordinator_records.append(
                    RunRecord(
                        experiment_id,
                        ERROR,
                        error=f"shard group {dead.index} died: {dead.death}",
                        attempts=0,
                        shard=dead.index,
                    )
                )
                continue
            count = self._requeue_counts.get(experiment_id, 0)
            if count >= self.max_requeues:
                self._coordinator_records.append(
                    RunRecord(
                        experiment_id,
                        QUARANTINED,
                        error=(
                            f"quarantined after outliving {count} dead shard "
                            f"group(s); not requeued again"
                        ),
                        attempts=0,
                        shard=dead.index,
                    )
                )
                continue
            self._requeue_counts[experiment_id] = count + 1
            self._total_requeued += 1
            if survivors:
                target = survivors[position % len(survivors)]
                target.queue.append(experiment_id)
                target.requeued_in.append(experiment_id)
                _LOG.warning(
                    "requeued %s from dead shard %d onto shard %d",
                    experiment_id,
                    dead.index,
                    target.index,
                )
            else:
                # No group left standing: the coordinator salvages these
                # itself once the fleet has drained.
                self._salvage.append(experiment_id)

    def _detect_deaths_locked(self, now: float) -> None:
        for runner in self._runners:
            if runner.index in self._handled_deaths:
                continue
            if (
                runner.state == RUNNING
                and not runner.declared_dead
                and self.heartbeat_timeout_s
                and runner.thread.is_alive()
                and now - runner.last_beat > self.heartbeat_timeout_s
            ):
                runner.declared_dead = True
                runner.state = DEAD
                runner.death = (
                    f"declared dead: no heartbeat for "
                    f"{now - runner.last_beat:.2f}s "
                    f"(timeout {self.heartbeat_timeout_s:g}s)"
                )
                _LOG.warning("shard %d %s", runner.index, runner.death)
            if runner.state == DEAD or runner.declared_dead:
                self._handled_deaths.add(runner.index)
                self._requeue_from_locked(runner)

    # -- work stealing --------------------------------------------------------

    @staticmethod
    def _p95(samples: Sequence[float]) -> float:
        ordered = sorted(samples)
        index = max(0, int(0.95 * len(ordered) + 0.999999) - 1)
        return ordered[index]

    def _is_straggler_locked(self, donor: _ShardRunner) -> bool:
        sibling_p95 = [
            self._p95(runner.wall_samples)
            for runner in self._runners
            if runner is not donor and runner.wall_samples
        ]
        if donor.wall_samples and sibling_p95:
            ordered = sorted(sibling_p95)
            median = ordered[len(ordered) // 2]
            return self._p95(donor.wall_samples) >= self.straggler_factor * median
        # Not enough timing data yet: treat a queue imbalance against an
        # idle sibling as straggling (the thief's queue is empty by
        # construction when this is consulted).
        return len(donor.queue) >= 2

    def _steal_for_locked(self, thief: _ShardRunner) -> List[str]:
        """At most one stolen item for an idle shard (bounded overall)."""
        if thief.steals_done >= self.max_steals_per_shard:
            return []
        donors = [
            runner
            for runner in self._runners
            if runner is not thief
            and runner.state == RUNNING
            and not runner.declared_dead
            and len(runner.queue) >= 2
        ]
        if not donors:
            return []
        donor = max(donors, key=lambda r: (len(r.queue), -r.index))
        if not self._is_straggler_locked(donor):
            return []
        # Steal from the tail: the schedule is slow-first, so the tail
        # holds the cheapest (least disruptive) items.
        item = donor.queue.pop()
        donor.stolen_out.append(item)
        thief.stolen_in.append(item)
        thief.steals_done += 1
        self._total_stolen += 1
        _LOG.info("shard %d stole %s from shard %d", thief.index, item, donor.index)
        return [item]

    # -- dispatch -------------------------------------------------------------

    def _dispatch(
        self,
        tasks: List[_Task],
        results: Dict[str, ExperimentResult],
        manifest: RunManifest,
    ) -> None:
        """Run the planned work on the worker groups, then merge.

        Partitions the tasks not resumed, runs one engine per shard on
        its own thread while the coordinator watches heartbeats and
        requeues dead shards' items, salvages what no shard could take,
        and rebuilds ``manifest.records`` as one record per experiment
        in schedule order.
        """
        self._start_run(tasks)
        self._reset_shards_dir()
        remaining = [task.experiment_id for task in tasks if not task.resumed]
        assigned = assign_shards(remaining, self._kwargs_by_id, self.n_shards)
        self._runners = [
            _ShardRunner(self, index, self._engine_for(index), assigned[index])
            for index in range(self.n_shards)
        ]
        for runner in self._runners:
            runner.checkpoint()  # manifests exist from t=0 (observability)
        for runner in self._runners:
            runner.thread.start()

        try:
            while any(runner.thread.is_alive() for runner in self._runners):
                with self._lock:
                    self._detect_deaths_locked(time.monotonic())
                time.sleep(self.poll_interval_s)
        finally:
            for runner in self._runners:
                runner.thread.join()
        with self._lock:
            self._detect_deaths_locked(time.monotonic())
            self._collect_leftovers_locked()

        for runner in self._runners:
            results.update(runner.results)
        salvage_records = self._run_salvage(results)
        manifest.records = self._merge_records(
            [task.experiment_id for task in tasks], manifest.records, salvage_records
        )

    def _reset_shards_dir(self) -> None:
        """Clear the previous run's shard manifests (post resume read)."""
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        for path in self.shards_dir.glob("shard-*.json"):
            try:
                path.unlink()
            except OSError:
                pass

    def _collect_leftovers_locked(self) -> None:
        """Queue remnants of *finished* runners go to the salvage pool.

        A requeue can race a survivor's final empty-queue check: the
        survivor exits with the freshly-pushed item still queued. Rare,
        but the coordinator must never lose an item over it.
        """
        for runner in self._runners:
            if runner.index in self._handled_deaths:
                continue
            leftovers = runner._drain_incomplete_locked()
            if leftovers:
                _LOG.warning(
                    "shard %d finished with %d unprocessed item(s); "
                    "salvaging inline",
                    runner.index,
                    len(leftovers),
                )
                self._salvage.extend(leftovers)

    def _run_salvage(self, results: Dict[str, ExperimentResult]) -> List[RunRecord]:
        """Inline salvage of items no surviving group could take."""
        if not self._salvage:
            return []
        _LOG.warning(
            "coordinator salvaging %d item(s) with no surviving shard: %s",
            len(self._salvage),
            ", ".join(self._salvage),
        )
        engine = self._engine_for(self.n_shards, jitter_label="salvage")
        outcome = engine.run(
            self._salvage, self._kwargs_by_id, write_manifest=False, keep_going=True
        )
        results.update(outcome.results)
        return list(outcome.manifest.records)

    def _merge_records(
        self,
        ordered: Sequence[str],
        skipped_records: List[RunRecord],
        salvage_records: List[RunRecord],
    ) -> List[RunRecord]:
        """One record per experiment, in deterministic schedule order.

        Precedence on the (theoretically impossible) duplicate: a real
        execution record beats a coordinator-side error/quarantine
        record, and the first execution wins.
        """
        by_id: Dict[str, RunRecord] = {}
        for record in skipped_records:
            by_id.setdefault(record.experiment_id, record)
        for runner in self._runners:
            for record in runner.records:
                if record.experiment_id in by_id:
                    _LOG.warning(
                        "duplicate record for %s (shards %d and %d); keeping "
                        "the first",
                        record.experiment_id,
                        by_id[record.experiment_id].shard,
                        record.shard,
                    )
                    continue
                by_id[record.experiment_id] = record
        for record in salvage_records:
            by_id.setdefault(record.experiment_id, record)
        for record in self._coordinator_records:
            by_id.setdefault(record.experiment_id, record)
        merged = [by_id[eid] for eid in ordered if eid in by_id]
        missing = [eid for eid in ordered if eid not in by_id]
        for experiment_id in missing:
            merged.append(
                RunRecord(
                    experiment_id,
                    ERROR,
                    error="lost by the shard fleet (no record produced)",
                    attempts=0,
                )
            )
        return merged

    # -- observability --------------------------------------------------------

    @property
    def total_requeued(self) -> int:
        """Items moved off dead shards during the last run."""
        return self._total_requeued

    @property
    def total_stolen(self) -> int:
        """Items work-stolen from stragglers during the last run."""
        return self._total_stolen
