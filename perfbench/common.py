"""Shared plumbing: the run context, outcomes, and child processes."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The end-to-end metrics every workload reports, name -> unit. These are
#: the gated ones; open-loop latency percentiles and throughput are
#: printed and recorded too, but on a shared host they swing more between
#: runs than any usable bound (see README.md).
END_TO_END = {
    "setup_s": "s",
    "wall_ms_per_op": "ms",
    "cpu_ms_per_op": "ms",
    "ok_rate": "ratio",
}

#: Fresh-process set-ups per run; the median is reported.
SETUP_SAMPLES = 5

#: Any single child process is given at most this long.
CHILD_TIMEOUT_S = 150.0


@dataclass
class RunContext:
    """Where and how one benchmark run executes."""

    root: Path  # the checkout (holds src/ and perfbench/)
    work: Path  # scratch directory inside the checkout, removed afterwards
    out: Path  # kept outputs (traces, results), inside the checkout
    workload: str
    seed: int
    seconds: float
    trace: bool

    @property
    def spans_path(self) -> Path:
        """Where a traced run writes its spans (one file per workload)."""
        return self.out / f"trace-{self.workload}"

    @property
    def env(self) -> Dict[str, str]:
        """Environment for child processes: the checkout's ``src`` first,
        and every cache the program keeps pointed into the scratch dir."""
        env = dict(os.environ)
        src = str(self.root / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = os.pathsep.join([src, existing]) if existing else src
        env["CRYOWIRE_CACHE_DIR"] = str(self.work / "cryowire-cache")
        env["XDG_CACHE_HOME"] = str(self.work / "xdg-cache")
        env.pop("CRYOWIRE_FAULT_PLAN", None)
        env.pop("CRYOWIRE_NO_CACHE", None)
        return env

    def python(self, *args: str) -> List[str]:
        return [sys.executable, *args]

    def run_child(
        self, argv: Sequence[str], log_name: str
    ) -> subprocess.CompletedProcess:
        """Run a child to completion with output kept in a log file."""
        log = self.work / f"{log_name}.log"
        with open(log, "wb") as handle:
            proc = subprocess.run(
                list(argv),
                cwd=self.root,
                env=self.env,
                stdout=handle,
                stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
            )
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise RuntimeError(
                f"{' '.join(argv)} exited with {proc.returncode}:\n{tail}"
            )
        return proc


@dataclass
class Outcome:
    """What one workload run produced."""

    correct: bool
    attempted: int
    failed: int
    #: Metrics for the result line: end-to-end or per-layer names.
    metrics: Dict[str, float]
    #: Named values for the human-readable report: (name, value, unit).
    report: List[Tuple[str, object, str]] = field(default_factory=list)
    #: Why ``correct`` is false (empty when it is true).
    problems: List[str] = field(default_factory=list)
    #: Set when the run cannot be trusted at all (e.g. the load generator
    #: fell behind); such a run prints no result.
    invalid: Optional[str] = None


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used so far (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
