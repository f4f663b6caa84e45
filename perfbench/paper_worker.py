"""One cold paper sample, run in a fresh interpreter by ``paper.py``.

A fresh interpreter per sample is the only way to start cold: module
memos such as the ``lru_cache`` on
``repro.tech.resistivity.bloch_gruneisen_ratio`` survive
``clear_context()``.

Usage::

    python perfbench/paper_worker.py --out sample.json [--setup-only [--cli]]
    python perfbench/paper_worker.py --out sample.json [--trace --spans DIR/paper]

The worker writes one JSON object to ``--out``. ``registered`` is the
``time.monotonic()`` reading (system-wide on Linux, so the parent can
subtract its spawn time) taken once every experiment is registered.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cli", action="store_true",
                        help="set up through the CLI module, as `cryowire` does")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.cli:
        from repro.experiments import cli  # noqa: F401  (imports the registry)
    from repro.experiments import registry

    registered = time.monotonic()
    sample = {"registered": registered, "n_experiments": len(registry.EXPERIMENTS)}
    if args.setup_only:
        args.out.write_text(json.dumps(sample))
        return 0

    from repro.experiments.engine import FAILURE_STATUSES, ExecutionEngine
    from repro.experiments.report import collect
    from repro.tech.context import get_context
    from repro.util.digest import canonical_json, sha256_hex

    from stats import anchor_mdape_pct

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install_model(tracer)

    ids = sorted(registry.EXPERIMENTS)
    engine = ExecutionEngine(jobs=1, use_cache=False)
    start, start_cpu = time.monotonic(), time.process_time()
    outcome = engine.run(ids, write_manifest=False, keep_going=True)
    sample["serial_s"] = time.monotonic() - start
    sample["serial_cpu_s"] = time.process_time() - start_cpu
    if tracer is not None:
        tracer.restore()

    records = outcome.manifest.records
    sample["records"] = [
        {"id": r.experiment_id, "status": r.status, "wall_s": r.wall_time_s}
        for r in records
    ]
    sample["ok"] = [
        r.experiment_id for r in records if r.status not in FAILURE_STATUSES
    ]
    warnings = [w for r in records for w in r.warnings]
    sample["model_warnings"] = len(warnings)
    sample["warnings_by_site"] = dict(Counter(w["site"] for w in warnings))
    results = {eid: outcome.results[eid].to_dict() for eid in sorted(outcome.results)}
    sample["digest"] = sha256_hex(canonical_json(results))
    if len(outcome.results) == len(ids):
        rows = collect(runner=outcome.results.__getitem__)
        sample["anchors"] = [list(row) for row in rows]
        sample["anchor_mdape_pct"] = anchor_mdape_pct(rows)

    if tracer is not None:
        metrics = layers.model_metrics(tracer)
        stats = get_context().stats()
        metrics.update(layers.context_metrics(stats.hits, stats.misses, stats.evictions))
        metrics["guards.warnings"] = len(warnings)
        metrics["guards.warning_sites"] = len(sample["warnings_by_site"])
        sample["layer_metrics"] = metrics
        if args.spans is not None:
            tracer.write(args.spans)

    args.out.write_text(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
