"""The paper workload: the 27-experiment sweep, cold and serial.

Each sample is one cold serial sweep (engine ``jobs=1``, result cache
off) in a fresh interpreter (``paper_worker.py``), repeated while another
sweep of the same length still fits in the run's seconds (at least one).

The traced run adds one traced sweep, for the per-layer numbers, and one
pooled sweep through the real CLI, ``cryowire all --jobs 2 --no-cache``
into a scratch cache dir, for the engine's. Its results are written as
JSON artifacts so their digest can be compared with the serial sweep's.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Dict, List

from repro.experiments.engine import FAILURE_STATUSES
from repro.util.digest import canonical_json, sha256_hex

from common import SETUP_SAMPLES, Outcome, RunContext
from layers import empty_metrics, engine_metrics, experiment_metrics
from stats import median

WORKER = Path(__file__).resolve().parent / "paper_worker.py"


def _worker(ctx: RunContext, name: str, *flags: str) -> Dict:
    out = ctx.work / f"{name}.json"
    spawned = time.monotonic()
    ctx.run_child(ctx.python(str(WORKER), "--out", str(out), *flags), name)
    sample = json.loads(out.read_text())
    sample["setup_s"] = sample["registered"] - spawned
    return sample


def _repeat(ctx: RunContext, sample) -> List:
    """Call ``sample(k)`` at least once, and again while another sample of
    the same length still fits in the run's seconds."""
    samples = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        samples.append(sample(len(samples)))
        now = time.monotonic()
        if now + (now - began) - start > ctx.seconds:
            return samples


def _problems(sweeps: List[Dict]) -> List[str]:
    problems = []
    for sweep in sweeps:
        bad = [r["id"] for r in sweep["records"] if r["id"] not in sweep["ok"]]
        if bad:
            problems.append(f"{len(bad)} experiment(s) not ok: {', '.join(bad)}")
    digests = {s["digest"] for s in sweeps}
    if len(digests) > 1:
        problems.append(f"sweeps disagree: {len(digests)} distinct result digests")
    anchors = [a for s in sweeps for a in s.get("anchors", [])]
    if any(not math.isfinite(measured) for *_, measured in anchors):
        problems.append("a paper anchor is not finite")
    return problems


def _sweep_report(walls: Dict[str, float]) -> List:
    """The slowest experiments of a sweep, for the report."""
    top = sorted(walls.items(), key=lambda item: -item[1])[:3]
    return [(f"paper/{eid}_s", wall, "s") for eid, wall in top]


def run_paper(ctx: RunContext) -> Outcome:
    if ctx.trace:
        return _run_paper_traced(ctx)
    sweeps = _repeat(ctx, lambda k: _worker(ctx, f"sweep-{k}"))
    # Every sweep's interpreter is one set-up; more make up the number.
    setups = [s["setup_s"] for s in sweeps] + [
        _worker(ctx, f"setup-{k}", "--setup-only")["setup_s"]
        for k in range(SETUP_SAMPLES - len(sweeps))
    ]
    n_ids = sweeps[0]["n_experiments"]
    attempted = n_ids * len(sweeps)
    failed = attempted - sum(len(s["ok"]) for s in sweeps)
    problems = _problems(sweeps)

    # The mean sweep, i.e. all of the run's sweep time per sweep: it
    # averages the host's slow spells over the whole run, where a median
    # of two to four sweeps would pick one of them.
    serial_s = sum(s["serial_s"] for s in sweeps) / len(sweeps)
    serial_cpu_s = sum(s["serial_cpu_s"] for s in sweeps) / len(sweeps)
    first = sweeps[0]
    metrics = {
        "setup_s": median(setups),
        "wall_ms_per_op": 1e3 * serial_s / n_ids,
        "cpu_ms_per_op": 1e3 * serial_cpu_s / n_ids,
        "ok_rate": (attempted - failed) / attempted,
    }
    report = [
        ("paper/setup_s", metrics["setup_s"], "s"),
        ("paper/serial_s", serial_s, "s"),
        ("paper/serial_cpu_s", serial_cpu_s, "s"),
        ("paper/model_warnings", first["model_warnings"], "count"),
        ("paper/anchor_mdape_pct", first.get("anchor_mdape_pct", math.nan), "%"),
        ("paper/error_rate", failed / attempted, "ratio"),
        ("paper/digest", first["digest"], "sha256"),
        ("paper/sweeps", len(sweeps), "count"),
        ("paper/sweep_serial_s", json.dumps([s["serial_s"] for s in sweeps]), "s"),
        *_sweep_report({r["id"]: r["wall_s"] for r in first["records"]}),
    ]
    return Outcome(not problems, attempted, failed, metrics, report, problems)


def _pool_sweep(ctx: RunContext) -> Dict:
    """``cryowire all --jobs 2 --no-cache``: its wall time, manifest and the
    serial sweep's digest rule applied to its JSON artifacts."""
    cache, artifacts = ctx.work / "pool" / "cache", ctx.work / "pool" / "results"
    start = time.monotonic()
    ctx.run_child(
        ctx.python("-m", "repro.experiments.cli", "all", "--jobs", "2", "--no-cache",
                   "--cache-dir", str(cache), "--format", "json",
                   "--output", str(artifacts)),
        "pool",
    )
    wall = time.monotonic() - start
    results = {
        path.stem: json.loads(path.read_text())
        for path in sorted(artifacts.glob("*.json"))
    }
    return {"wall_s": wall,
            "manifest": json.loads((cache / "last_run.json").read_text()),
            "digest": sha256_hex(canonical_json(results))}


def _run_paper_traced(ctx: RunContext) -> Outcome:
    """One untraced sweep, one traced sweep and one pooled sweep."""
    plain = _worker(ctx, "sweep")
    traced = _worker(ctx, "traced", "--trace", "--spans", str(ctx.spans_path))
    pool = _pool_sweep(ctx)
    sweeps = [plain, traced]
    n_ids = plain["n_experiments"]
    records = pool["manifest"]["records"]
    pool_ok = sum(r["status"] not in FAILURE_STATUSES for r in records)
    attempted = 2 * n_ids + len(records)
    failed = attempted - len(plain["ok"]) - len(traced["ok"]) - pool_ok
    problems = _problems(sweeps)
    if pool_ok != len(records):
        problems.append(f"{len(records) - pool_ok} pooled experiment(s) not ok")
    if pool["digest"] != plain["digest"]:
        problems.append("the serial and pooled sweeps produced different results")

    metrics = empty_metrics()
    metrics.update(traced["layer_metrics"])
    metrics.update(experiment_metrics({r["id"]: r["wall_s"] for r in plain["records"]}))
    metrics.update(engine_metrics(pool["manifest"], pool["wall_s"]))
    metrics["paper.model_warnings"] = plain["model_warnings"]
    metrics["paper.anchor_mdape_pct"] = plain.get("anchor_mdape_pct", 0.0)
    metrics["trace.overhead_s"] = traced["serial_s"] - plain["serial_s"]
    report = [
        ("paper/serial_s", plain["serial_s"], "s"),
        ("paper/traced_serial_s", traced["serial_s"], "s"),
        ("paper/parallel_s", pool["wall_s"], "s"),
        ("paper/digest", plain["digest"], "sha256"),
        ("paper/pooled_digest", pool["digest"], "sha256"),
        ("paper/warnings_by_site", json.dumps(plain["warnings_by_site"]), ""),
    ]
    return Outcome(not problems, attempted, failed, metrics, report, problems)
