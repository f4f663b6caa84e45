"""CryoWire benchmark: cold paper sweeps and ``cryowire serve`` traffic.

One run of one workload::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 55 --trace 0

prints a human-readable report, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Every workload in turn::

    python3 perfbench/run.py [--seed 1] [--seconds 55] [--trace 0]

Run it from the root of a checkout; it measures the program in that
checkout's ``src/``. Results rows (stamped with commit, source digest and
host fingerprint) are appended to ``.bench_build/perfbench/results.jsonl``
and traced runs write their spans next to it. See ``perfbench/README.md``.

Exit status: 0 with a result line; 1 if the run crashed or was invalid
(no result line); 2 if there is no program to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"

#: workload -> (module, function) producing its Outcome.
WORKLOADS: Dict[str, tuple] = {
    "paper": ("paper", "run_paper"),
    "serve_fresh": ("serve_load", "run_serve"),
}


def _find_program() -> bool:
    """Put the checkout's ``src`` first on the path; False if it is absent."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    return Path(repro.__file__).resolve() == package.resolve()


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from common import RunContext

    module_name, function = WORKLOADS[name]
    runner = getattr(importlib.import_module(module_name), function)
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT / "work"))
    ctx = RunContext(ROOT, work, OUT, name, seed, seconds, trace)
    try:
        return runner(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_outcome(name: str, outcome) -> None:
    print(f"[{name}] correct={outcome.correct} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    for label, value, unit in outcome.report:
        print(f"  {label} = {_format(value)} {unit}".rstrip())
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")


def _result_line(outcome, units: Dict[str, str]) -> Dict:
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _append_row(stamp: Dict, args, name: str, outcome) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    row = {
        **stamp,
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": outcome.correct,
        "invalid": outcome.invalid,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "report": [[label, value, unit] for label, value, unit in outcome.report],
        "problems": outcome.problems,
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="CryoWire benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _find_program():
        print(f"error: no CryoWire program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The in-process parts (traced server, bit-identity check) keep any
    # cache they open inside the checkout too.
    os.environ["CRYOWIRE_CACHE_DIR"] = str(OUT / "cryowire-cache")
    os.environ["XDG_CACHE_HOME"] = str(OUT / "xdg-cache")

    from common import END_TO_END
    from host import stamp as make_stamp
    from layers import PER_LAYER_METRICS

    stamp = make_stamp(ROOT)
    print(f"# commit {stamp['commit'] or 'unknown'}  src {stamp['src_digest'][:16]}")
    print(f"# host {json.dumps(stamp['host'])}")
    units = (
        {name: unit for name, (unit, _) in PER_LAYER_METRICS.items()}
        if args.trace
        else END_TO_END
    )
    names = [args.workload] if args.workload else list(WORKLOADS)
    outcomes = {}
    for name in names:
        try:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except Exception:  # noqa: BLE001 - report and fail without a result
            traceback.print_exc()
            print(f"error: workload {name} crashed", file=sys.stderr)
            return 1
        _print_outcome(name, outcome)
        _append_row(stamp, args, name, outcome)
        if outcome.invalid:
            print(f"error: {name} run invalid: {outcome.invalid}", file=sys.stderr)
            return 1
        outcomes[name] = outcome

    if args.workload:
        print(json.dumps(_result_line(outcomes[args.workload], units)))
        return 0

    correct = all(o.correct for o in outcomes.values())
    print(f"all workloads correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
