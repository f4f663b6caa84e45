"""Which program functions the traced run wraps, and the per-layer metrics.

Each target is a public function or method at a layer boundary. The
traced run patches them through :class:`tracing.Tracer`; the untraced
run installs none of them, so end-to-end numbers carry no tracing cost.

``PER_LAYER_METRICS`` lists every per-layer metric with its unit. A
workload that does not exercise a layer reports 0 for its metrics —
exactly the "should stay quiet" prediction of the layer map in
``README.md``.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from stats import tail_percentile
from tracing import ResultHook, Tracer, summarize

# (module, class or None for a module function, attribute, span name)
Target = Tuple[str, Optional[str], str, str]

#: Model layers, shared by the paper sweep and the serve model path.
MODEL_TARGETS: List[Target] = [
    ("repro.noc.simulator", "NocSimulator", "simulate_router_network",
     "noc.simulate_router_network"),
    ("repro.noc.simulator", "NocSimulator", "simulate_bus", "noc.simulate_bus"),
    ("repro.noc.traffic", "TrafficPattern", "packets", "noc.traffic_packets"),
    ("repro.noc.topology", "RouterTopology", "hops", "noc.topology_hops"),
    ("repro.noc.topology", "RouterTopology", "average_hops", "noc.average_hops"),
    ("repro.pipeline.model", "PipelineModel", "stage_delay", "pipeline.stage_delay"),
    ("repro.pipeline.model", "PipelineModel", "evaluate", "pipeline.evaluate"),
    ("repro.tech.batch", "OperatingPointBatch", "__init__", "tech.batch_new"),
    ("repro.tech.resistivity", None, "bloch_gruneisen_ratio_batch",
     "tech.bg_ratio_batch"),
    ("repro.tech.repeater", "RepeaterOptimizer", "optimize_batch",
     "tech.repeater_optimize_batch"),
    ("repro.util.guards", None, "check_operating_point_batch", "guards.check_batch"),
    ("repro.circuits.simulator", "CircuitSimulator", "simulate_batch",
     "circuits.simulate_batch"),
    ("repro.circuits.simulator", "CircuitSimulator", "simulate_repeated_wire",
     "circuits.simulate_repeated_wire"),
    ("repro.circuits.simulator", "CircuitSimulator", "simulate_driven_wire",
     "circuits.simulate_driven_wire"),
    ("repro.system.multicore", "MulticoreSystem", "evaluate", "system.evaluate"),
]

#: Serve request path (only the in-thread traced server runs these).
SERVE_TARGETS: List[Target] = [
    ("repro.serve.service", None, "parse_point_query", "serve.parse"),
    ("repro.serve.batching", "MicroBatcher", "submit", "serve.batcher.submit"),
    ("repro.serve.service", "ModelService", "evaluate_points", "serve.model"),
]

#: name -> (unit, better). Every traced run reports all of them.
PER_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "experiments.fig25_s": ("s", "lower"),
    "experiments.fig21_s": ("s", "lower"),
    "experiments.robustness_s": ("s", "lower"),
    "experiments.rest_s": ("s", "lower"),
    "noc.simulate_router_network.calls": ("count", "lower"),
    "noc.simulate_router_network.self_s": ("s", "lower"),
    "noc.simulate_bus.self_s": ("s", "lower"),
    "noc.traffic_packets.calls": ("count", "lower"),
    "noc.traffic_packets.self_s": ("s", "lower"),
    "noc.topology_hops.calls": ("count", "lower"),
    "noc.topology_hops.self_s": ("s", "lower"),
    "noc.average_hops.calls": ("count", "lower"),
    "pipeline.stage_delay.calls": ("count", "lower"),
    "pipeline.stage_delay.self_s": ("s", "lower"),
    "pipeline.evaluate.calls": ("count", "lower"),
    "tech.batch_new.calls": ("count", "lower"),
    "tech.batch_new.self_s": ("s", "lower"),
    "tech.bg_ratio_batch.calls": ("count", "lower"),
    "tech.bg_ratio_batch.unique_t": ("count", "lower"),
    "tech.bg_ratio_batch.self_s": ("s", "lower"),
    "tech.repeater_optimize_batch.calls": ("count", "lower"),
    "tech.repeater_optimize_batch.self_s": ("s", "lower"),
    "tech.context.hit_rate": ("ratio", "higher"),
    "tech.context.misses": ("count", "lower"),
    "tech.context.evictions": ("count", "lower"),
    "guards.check_batch.calls": ("count", "lower"),
    "guards.check_batch.self_s": ("s", "lower"),
    "guards.warnings": ("count", "lower"),
    "guards.warning_sites": ("count", "lower"),
    "circuits.simulate.calls": ("count", "lower"),
    "circuits.simulate.self_s": ("s", "lower"),
    "system.evaluate.calls": ("count", "lower"),
    "system.evaluate.iterations": ("count", "lower"),
    "system.evaluate.self_s": ("s", "lower"),
    "system.evaluate.clamped": ("count", "lower"),
    "engine.busy_s": ("s", "lower"),
    "engine.idle_frac": ("ratio", "lower"),
    "engine.critical_s": ("s", "lower"),
    "engine.cli_overhead_s": ("s", "lower"),
    "serve.parse.self_us": ("us", "lower"),
    "serve.batcher.wait_ms": ("ms", "lower"),
    "serve.model.self_us": ("us", "lower"),
    "serve.model.total_us": ("us", "lower"),
    "serve.outside_model_ms": ("ms", "lower"),
    "serve.batching.mean_batch_size": ("count", "higher"),
    "serve.batching.coalescing_rate": ("ratio", "higher"),
    "serve.overload.shed_deadline": ("count", "lower"),
    "serve.overload.shed_overload": ("count", "lower"),
    "serve.client.gen_lag_p99_ms": ("ms", "lower"),
    "paper.model_warnings": ("count", "lower"),
    "paper.anchor_mdape_pct": ("%", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: (span name, metric field) pairs copied straight from the span summary.
_SPAN_FIELDS = [
    ("noc.simulate_router_network", "calls"),
    ("noc.simulate_router_network", "self_s"),
    ("noc.simulate_bus", "self_s"),
    ("noc.traffic_packets", "calls"),
    ("noc.topology_hops", "calls"),
    ("noc.topology_hops", "self_s"),
    ("noc.average_hops", "calls"),
    ("pipeline.stage_delay", "calls"),
    ("pipeline.stage_delay", "self_s"),
    ("pipeline.evaluate", "calls"),
    ("tech.batch_new", "calls"),
    ("tech.batch_new", "self_s"),
    ("tech.bg_ratio_batch", "calls"),
    ("tech.bg_ratio_batch", "self_s"),
    ("tech.repeater_optimize_batch", "calls"),
    ("tech.repeater_optimize_batch", "self_s"),
    ("guards.check_batch", "calls"),
    ("guards.check_batch", "self_s"),
    ("system.evaluate", "calls"),
    ("system.evaluate", "self_s"),
]


def empty_metrics() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_METRICS}


def _count_unique_t(tracer: Tracer, args, kwargs, result, start, end) -> None:
    temperatures = args[0] if args else kwargs["temperature_k"]
    tracer.add("tech.bg_ratio_batch.unique_t", len(np.unique(temperatures)))


def _count_iterations(tracer: Tracer, args, kwargs, result, start, end) -> None:
    tracer.add("system.evaluate.iterations", result.iterations_used)
    if result.convergence.saturation_clamped:
        tracer.add("system.evaluate.clamped")


_MODEL_HOOKS: Dict[str, ResultHook] = {
    "tech.bg_ratio_batch": _count_unique_t,
    "system.evaluate": _count_iterations,
}


def _install(tracer: Tracer, targets: List[Target], hooks: Dict[str, ResultHook]):
    for module_name, class_name, attr, span in targets:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        tracer.patch(owner, attr, span, hooks.get(span))


def install_model(tracer: Tracer) -> None:
    """Wrap the model layers (paper sweep, serve model path)."""
    _install(tracer, MODEL_TARGETS, _MODEL_HOOKS)


def model_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer model metrics from the spans and counters of a run."""
    summary = summarize(tracer)
    metrics = empty_metrics()
    for span, field in _SPAN_FIELDS:
        if span in summary:
            metrics[f"{span}.{field}"] = summary[span][field]
    # Summed families: a generator's resumptions, the circuit entry points.
    for metric, prefix in (("noc.traffic_packets.self_s", "noc.traffic_packets"),
                           ("circuits.simulate.self_s", "circuits.simulate_"),
                           ("circuits.simulate.calls", "circuits.simulate_")):
        field = metric.rsplit(".", 1)[1]
        metrics[metric] = sum(
            entry[field] for name, entry in summary.items() if name.startswith(prefix)
        )
    for counter in ("tech.bg_ratio_batch.unique_t", "system.evaluate.iterations",
                    "system.evaluate.clamped"):
        metrics[counter] = tracer.counters.get(counter, 0)
    return metrics


def context_metrics(hits: int, misses: int, evictions: int) -> Dict[str, float]:
    lookups = hits + misses
    return {
        "tech.context.hit_rate": hits / lookups if lookups else 0.0,
        "tech.context.misses": misses,
        "tech.context.evictions": evictions,
    }


class ServeTrace:
    """Request-id plumbing for the in-thread traced server.

    The client sends ``X-Request-Id``; a wrapper around
    ``repro.serve.http.read_request`` copies it into the tracer's
    request id for the connection task, so the parse and submit spans of
    one request share it. Parsed queries are mapped back to their request
    so a coalesced ``evaluate_points`` batch knows whom it served.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._query_rid: Dict[int, int] = {}
        #: (model-call duration, request ids in the batch) per batch.
        self.batches: List[Tuple[float, List[int]]] = []

    def install(self) -> None:
        install_model(self.tracer)
        hooks = {
            "serve.parse": self._on_parse,
            "serve.model": self._on_model,
        }
        _install(self.tracer, SERVE_TARGETS, hooks)
        http = importlib.import_module("repro.serve.http")
        original = http.read_request
        request_id = self.tracer.request_id

        async def read_request(*args, **kwargs):
            request = await original(*args, **kwargs)
            if request is not None:
                request_id.set(int(request.headers.get("x-request-id", "-1")))
            return request

        self.tracer.replace(http, "read_request", original, read_request)
        app = importlib.import_module("repro.serve.app")
        self.tracer.replace(app, "read_request", original, read_request)

    def _on_parse(self, tracer, args, kwargs, result, start, end) -> None:
        self._query_rid[id(result)] = tracer.request_id.get()

    def _on_model(self, tracer, args, kwargs, result, start, end) -> None:
        queries = args[1] if len(args) > 1 else kwargs["queries"]
        rids = [self._query_rid.pop(id(q), -1) for q in queries]
        self.batches.append((end - start, rids))

    def metrics(
        self,
        client_latency_s: Dict[int, float],
        server_stats: Dict,
        gen_lag_s: List[float],
    ) -> Dict[str, float]:
        """Per-layer serve metrics; ``client_latency_s`` is keyed by request id."""
        tracer = self.tracer
        metrics = model_metrics(tracer)
        summary = summarize(tracer)
        spans = tracer.spans()
        names = tracer.names
        submit_nid = names.index("serve.batcher.submit")
        submits = spans[spans["nid"] == submit_nid]
        submit_s = dict(
            zip(submits["rid"].tolist(), (submits["end"] - submits["start"]).tolist())
        )
        model_s = {rid: dur for dur, rids in self.batches for rid in rids}
        waits = [submit_s[r] - model_s[r] for r in submit_s if r in model_s]
        outside = [
            latency - submit_s[r]
            for r, latency in client_latency_s.items()
            if r in submit_s
        ]
        points = sum(len(rids) for _, rids in self.batches)
        parse = summary.get("serve.parse", {"calls": 0, "self_s": 0.0})
        model = summary.get("serve.model", {"self_s": 0.0, "total_s": 0.0})
        batching = server_stats["batching"]
        overload = server_stats["overload"]
        context = server_stats["tech_context"]
        lag_p99 = tail_percentile(gen_lag_s, 0.99)
        if lag_p99 is None:
            lag_p99 = max(gen_lag_s)
        metrics.update(
            {
                "serve.parse.self_us": 1e6 * parse["self_s"] / max(parse["calls"], 1),
                "serve.batcher.wait_ms": 1e3 * _mean(waits),
                "serve.model.self_us": 1e6 * model["self_s"] / max(points, 1),
                "serve.model.total_us": 1e6 * model["total_s"] / max(points, 1),
                "serve.outside_model_ms": 1e3 * _mean(outside),
                "serve.batching.mean_batch_size": batching["mean_batch_size"],
                "serve.batching.coalescing_rate": batching["coalescing_rate"],
                "serve.overload.shed_deadline": overload["shed_deadline"],
                "serve.overload.shed_overload": overload["shed_overload"],
                "serve.client.gen_lag_p99_ms": 1e3 * lag_p99,
            }
        )
        metrics.update(
            context_metrics(context["hits"], context["misses"], context["evictions"])
        )
        return metrics


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def engine_metrics(manifest: Dict, cli_wall_s: float) -> Dict[str, float]:
    """Per-layer engine metrics from a ``cryowire all`` run manifest."""
    walls = [record["wall_time_s"] for record in manifest["records"]]
    elapsed = manifest["elapsed_s"]
    busy = sum(walls)
    return {
        "engine.busy_s": busy,
        "engine.idle_frac": 1.0 - busy / (manifest["jobs"] * elapsed),
        "engine.critical_s": max(walls),
        "engine.cli_overhead_s": cli_wall_s - elapsed,
    }


def experiment_metrics(walls: Dict[str, float]) -> Dict[str, float]:
    """Split a sweep's per-experiment wall times into the three big ones + rest."""
    big = {"fig25": "experiments.fig25_s", "fig21": "experiments.fig21_s",
           "robustness": "experiments.robustness_s"}
    metrics = {name: walls.get(eid, 0.0) for eid, name in big.items()}
    metrics["experiments.rest_s"] = sum(
        wall for eid, wall in walls.items() if eid not in big
    )
    return metrics

