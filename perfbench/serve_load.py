"""The serve workload: a spawned ``cryowire serve`` and its load client.

One client process (this one) drives the server over at most two
keep-alive connections, one per client thread:

1. an untimed warm-up;
2. an open-loop phase: a seeded Poisson arrival schedule at the fixed
   rate :data:`OPEN_LOOP_RPS`; each request's latency is timed from when
   it was *due*, so a stall charges every request queued behind it;
3. a closed-loop phase: each thread sends its next request as soon as
   the previous one is answered.

Every request carries ``X-CryoWire-Deadline-Ms: 50``. The query mix is
the continuum-random ``/v1/query`` body of ``tools/loadtest.py``
(operating point + device card + global wire), so nearly every request
misses the server's ``TechContext`` memo.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from common import SETUP_SAMPLES, Outcome, RunContext, process_cpu_s
from stats import Tally, median, tail_percentile

#: Open-loop arrival rate: 40% of the 2-connection closed-loop throughput
#: (~350 rps) the commit that added this benchmark reaches (see
#: README.md). Fixed once; it does not follow the server, so a faster
#: server sees the same load.
OPEN_LOOP_RPS = 140.0
#: The per-request latency limit the server enforces (408 when missed).
DEADLINE_MS = 50
CONNECTIONS = 2
WARMUP_REQUESTS = 200
#: Share of the run's seconds given to the open-loop phase (the rest is
#: closed-loop); the open-loop phase never has fewer requests than p99
#: needs (1000 plus margin).
OPEN_LOOP_SHARE = 0.6
MIN_OPEN_REQUESTS = 1100
#: Responses re-evaluated in-process for the bit-identity check.
CHECK_SAMPLE = 64
#: The run is invalid when the generator itself sent this late (p99):
#: then the client, not the server, would set the measured latency.
#: Scheduler jitter on a busy 2-CPU host alone reaches a few ms.
MAX_GEN_LAG_P99_S = 0.020

TEMPERATURE_RANGE_K = (77.0, 300.0)
VDD_RANGE_V = (0.6, 1.25)
VTH_V = 0.25
WIRE_LENGTHS_UM = (500.0, 2000.0, 6220.0)
CARDS = ("freepdk45", "industry_2z")


def make_query(rng: random.Random) -> Dict:
    """One continuum-random ``/v1/query`` body."""
    t = rng.uniform(*TEMPERATURE_RANGE_K)
    vdd = rng.uniform(*VDD_RANGE_V)
    return {
        "operating_point": {
            "temperature_k": t,
            "vdd_v": max(vdd, VTH_V + 0.1),
            "vth_v": VTH_V,
        },
        "card": rng.choice(CARDS),
        "wire": {"layer": "global", "length_um": rng.choice(WIRE_LENGTHS_UM)},
    }


class QueryStream:
    """Deterministic request bodies for one workload and seed."""

    def __init__(self, workload: str, seed: int, stream: str) -> None:
        self._rng = random.Random(f"{workload}/{seed}/{stream}")

    def next(self) -> bytes:
        return _encode(make_query(self._rng))


def _encode(body: Dict) -> bytes:
    return json.dumps(body).encode("utf-8")


# -- the server process -------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """``cryowire serve`` in its own process."""

    def __init__(self, ctx, log_name: str, cpus: Optional[Set[int]] = None) -> None:
        self.port = free_port()
        self.url_host = "127.0.0.1"
        self._log = open(ctx.work / f"{log_name}.log", "wb")
        self.spawned = time.monotonic()
        try:
            self.proc = subprocess.Popen(
                ctx.python("-m", "repro.experiments.cli", "serve",
                           "--host", self.url_host, "--port", str(self.port)),
                cwd=ctx.root,
                env=ctx.env,
                stdout=self._log,
                stderr=subprocess.STDOUT,
            )
        except OSError:
            self._log.close()
            raise
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Poll ``/readyz``; returns seconds from spawn to the first 200."""
        give_up = self.spawned + timeout_s
        while time.monotonic() < give_up:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection(self.url_host, self.port, timeout=2)
                try:
                    conn.request("GET", "/readyz")
                    if conn.getresponse().status == 200:
                        return time.monotonic() - self.spawned
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server did not become ready in time")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it lingers; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# -- the client -----------------------------------------------------------------


@dataclass
class Phase:
    """Per-request records of one load phase."""

    tally: Tally = field(default_factory=Tally)
    #: Latency of every answered request (from its due time when open-loop).
    latencies_s: List[float] = field(default_factory=list)
    gen_lag_s: List[float] = field(default_factory=list)
    #: (request id, body, response payload) of every 200.
    answered: List[Tuple[int, bytes, Dict]] = field(default_factory=list)
    #: request id -> client round trip, for the traced run's per-request join.
    latency_by_id: Dict[int, float] = field(default_factory=dict)
    elapsed_s: float = 0.0


class Client:
    """Keep-alive connection with request ids and the deadline header."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn: Optional[http.client.HTTPConnection] = None

    def post(self, request_id: int, body: bytes) -> Tuple[Optional[int], Optional[Dict]]:
        """(status, payload); ``(None, None)`` on a connection error."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            self.conn.request(
                "POST",
                "/v1/query",
                body=body,
                headers={
                    "Content-Type": "application/json",
                    "X-CryoWire-Deadline-Ms": str(DEADLINE_MS),
                    "X-Request-Id": str(request_id),
                },
            )
            response = self.conn.getresponse()
            payload = json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError):
            # A dropped connection or a torn body: the request failed.
            self.close()
            return None, None
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, payload

    def get_json(self, path: str) -> Dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class _Ids:
    """Request ids, unique across phases and threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def take(self) -> int:
        with self._lock:
            self._next += 1
            return self._next


def _record(phase: Phase, lock, rid, body, status, payload, latency, round_trip) -> None:
    """Account one request. Every answered request, failed or not, adds its
    latency: a 408 or 503 arrives late or refused and so counts against the
    limit rather than vanishing from the percentiles."""
    with lock:
        phase.tally.record(status)
        if status is not None:
            phase.latencies_s.append(latency)
            phase.latency_by_id[rid] = round_trip
        if status == 200:
            phase.answered.append((rid, body, payload))


def _run_threads(targets) -> None:
    """Run the load threads to completion; re-raise the first that failed."""
    errors: List[BaseException] = []

    def guarded(target) -> None:
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(t,), daemon=True) for t in targets
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("load thread did not finish")
    if errors:
        raise errors[0]


def closed_loop(host, port, streams, ids: _Ids, duration_s=None, n_requests=None) -> Phase:
    """Each connection sends back to back, for a duration or a request count."""
    phase = Phase()
    lock = threading.Lock()
    start = time.monotonic()
    end = start + duration_s if duration_s is not None else None
    remaining = [n_requests]

    def worker(stream: QueryStream) -> None:
        client = Client(host, port)
        try:
            while True:
                if end is not None and time.monotonic() >= end:
                    return
                if n_requests is not None:
                    with lock:
                        if remaining[0] <= 0:
                            return
                        remaining[0] -= 1
                rid = ids.take()
                body = stream.next()
                sent = time.monotonic()
                status, payload = client.post(rid, body)
                took = time.monotonic() - sent
                _record(phase, lock, rid, body, status, payload, took, took)
        finally:
            client.close()

    _run_threads([lambda s=s: worker(s) for s in streams])
    phase.elapsed_s = time.monotonic() - start
    return phase


def open_loop(host, port, bodies: List[bytes], gaps_s: List[float], ids: _Ids) -> Phase:
    """Send ``bodies`` on a Poisson schedule over the two connections.

    Whichever connection is free takes the next due request. Latency runs
    from the due time; generator lag is how late a send left relative to
    the later of its due time and its connection becoming free — the
    client's own tardiness, not the server's.
    """
    phase = Phase()
    lock = threading.Lock()
    t0 = time.monotonic() + 0.05
    due_times = []
    t = t0
    for gap in gaps_s:
        t += gap
        due_times.append(t)
    cursor = [0]

    def worker() -> None:
        client = Client(host, port)
        free_at = time.monotonic()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(bodies):
                    return
                due = due_times[index]
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                rid = ids.take()
                sent = time.monotonic()
                lag = sent - max(due, free_at)
                status, payload = client.post(rid, bodies[index])
                free_at = time.monotonic()
                with lock:
                    phase.gen_lag_s.append(max(lag, 0.0))
                _record(phase, lock, rid, bodies[index], status, payload,
                        free_at - due, free_at - sent)
        finally:
            client.close()

    _run_threads([worker] * CONNECTIONS)
    phase.elapsed_s = time.monotonic() - t0
    return phase


def open_loop_schedule(workload: str, seed: int, n: int) -> Tuple[List[bytes], List[float]]:
    """Bodies and exponential inter-arrival gaps for the open-loop phase."""
    stream = QueryStream(workload, seed, "open")
    rng = random.Random(f"{workload}/{seed}/arrivals")
    gaps = [rng.expovariate(OPEN_LOOP_RPS) for _ in range(n)]
    return [stream.next() for _ in range(n)], gaps


@dataclass
class LoadResult:
    warmup: Phase
    open: Phase
    closed: Phase
    stats: Dict  # the server's /stats after the run
    cpu_s: float  # server CPU seconds spent over the open-loop phase


def drive(
    host: str,
    port: int,
    workload: str,
    seed: int,
    seconds: float,
    server_cpu_s: Callable[[], float],
) -> LoadResult:
    """Warm-up, open loop, closed loop against a ready server.

    ``server_cpu_s`` reads the server's CPU clock; its advance over the
    open-loop phase is recorded in the result. That phase has a fixed
    request count and arrival schedule, so its CPU per request is not
    skewed by how many requests the host let the closed loop push through
    (where faster runs coalesce more and pay less per request).
    """
    ids = _Ids()
    warm = [QueryStream(workload, seed, f"warm{k}") for k in range(CONNECTIONS)]
    warmup = closed_loop(host, port, warm, ids, n_requests=WARMUP_REQUESTS)
    n_open = max(MIN_OPEN_REQUESTS, round(OPEN_LOOP_RPS * OPEN_LOOP_SHARE * seconds))
    bodies, gaps = open_loop_schedule(workload, seed, n_open)
    cpu_before = server_cpu_s()
    opened = open_loop(host, port, bodies, gaps, ids)
    cpu_s = server_cpu_s() - cpu_before
    streams = [QueryStream(workload, seed, f"closed{k}") for k in range(CONNECTIONS)]
    closed = closed_loop(host, port, streams, ids,
                         duration_s=(1.0 - OPEN_LOOP_SHARE) * seconds)
    stats = Client(host, port).get_json("/stats")
    return LoadResult(warmup, opened, closed, stats, cpu_s)


def check_bit_identical(phases: List[Phase], seed: int) -> List[str]:
    """Re-evaluate a seeded sample of 200 responses in-process.

    Each sampled body goes through ``parse_point_query`` and
    ``ModelService.evaluate_points``; the JSON round trip of that payload
    must equal the served one exactly (the server adds only the
    ``deadline`` budget record).
    """
    from repro.serve.service import ModelService, parse_point_query

    answered = [item for phase in phases for item in phase.answered]
    rng = random.Random(f"check/{seed}")
    sample = rng.sample(answered, min(CHECK_SAMPLE, len(answered)))
    service = ModelService()
    problems = []
    for rid, body, served in sample:
        query = parse_point_query(json.loads(body))
        expected = json.loads(json.dumps(service.evaluate_points([query])[0]))
        got = {key: value for key, value in served.items() if key != "deadline"}
        if got != expected:
            problems.append(f"request {rid}: served payload differs from in-process")
    if not sample:
        problems.append("no 200 responses to check")
    return problems


def _serve_outcome(ctx: RunContext, load: LoadResult, setups: List[float]) -> Outcome:
    """End-to-end metrics, accounting and checks for one serve run."""
    name = ctx.workload
    opened, closed = load.open, load.closed
    both = opened.tally.merged(closed.tally)
    p99 = tail_percentile(opened.latencies_s, 0.99)
    lag_p99 = tail_percentile(opened.gen_lag_s, 0.99)
    if lag_p99 is None:
        lag_p99 = max(opened.gen_lag_s)
    problems = check_bit_identical([opened, closed], ctx.seed)
    if p99 is None:
        problems.append(f"p99 unsupported by {len(opened.latencies_s)} samples")
    metrics = {
        "setup_s": median(setups),
        # The median closed-loop round trip: it holds the batching window,
        # the executor hops and the model, and it moves less between runs
        # on a shared host than the open-loop percentiles do.
        "wall_ms_per_op": 1e3 * median(closed.latencies_s),
        "cpu_ms_per_op": 1e3 * load.cpu_s / opened.tally.attempted,
        "ok_rate": both.ok / both.attempted,
    }
    report = [
        (f"{name}/p50_ms", 1e3 * median(opened.latencies_s), "ms"),
        (f"{name}/p99_ms", 1e3 * (max(opened.latencies_s) if p99 is None else p99),
         "ms"),
        (f"{name}/open_loop_samples", len(opened.latencies_s), "count"),
        (f"{name}/throughput_rps", closed.tally.ok / closed.elapsed_s, "1/s"),
        (f"{name}/closed_loop_p50_ms", metrics["wall_ms_per_op"], "ms"),
        (f"{name}/error_rate", both.error_rate, "ratio"),
        (f"{name}/server_cpu_ms_per_request", metrics["cpu_ms_per_op"], "ms"),
        (f"{name}/open_loop_rps", OPEN_LOOP_RPS, "1/s"),
        (f"{name}/open_loop_achieved_rps", opened.tally.attempted / opened.elapsed_s,
         "1/s"),
        (f"{name}/gen_lag_p99_ms", 1e3 * lag_p99, "ms"),
        (f"{name}/tech_context_hit_rate", load.stats["tech_context"]["hit_rate"],
         "ratio"),
        (f"{name}/mean_batch_size", load.stats["batching"]["mean_batch_size"], "count"),
        (f"{name}/warmup", load.warmup.tally.describe(), ""),
        (f"{name}/open_loop", opened.tally.describe(), ""),
        (f"{name}/closed_loop", closed.tally.describe(), ""),
    ]
    if not ctx.trace:  # in-thread, the server had nothing left to import
        report.insert(0, (f"{name}/setup_s", metrics["setup_s"], "s"))
    outcome = Outcome(not problems, both.attempted, both.failed, metrics, report,
                      problems)
    if lag_p99 > MAX_GEN_LAG_P99_S:
        outcome.invalid = (
            f"the load generator fell behind its schedule (p99 send lag "
            f"{1e3 * lag_p99:.1f} ms > {1e3 * MAX_GEN_LAG_P99_S:.0f} ms)"
        )
    return outcome


def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """(server CPUs, client CPUs): disjoint halves when there are two or more.

    Keeping the load generator off the server's CPUs stops the two from
    preempting each other, which otherwise swings throughput by tens of
    percent between runs on a 2-CPU host.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return None, None
    if len(cpus) < 2:
        return None, None
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


def run_serve(ctx: RunContext) -> Outcome:
    """serve_fresh: spawn, load, check (traced: in-thread)."""
    if ctx.trace:
        return _run_serve_traced(ctx)
    server_cpus, client_cpus = split_cpus()
    own_cpus = os.sched_getaffinity(0) if client_cpus else None
    setups = []
    try:
        if client_cpus:
            os.sched_setaffinity(0, client_cpus)
        for k in range(SETUP_SAMPLES - 1):
            server = ServerProcess(ctx, f"setup-{k}", server_cpus)
            try:
                setups.append(server.wait_ready())
            finally:
                server.stop()
        server = ServerProcess(ctx, "server", server_cpus)
        try:
            setups.append(server.wait_ready())
            load = drive(server.url_host, server.port, ctx.workload, ctx.seed,
                         ctx.seconds, lambda: process_cpu_s(server.proc.pid))
        finally:
            server.stop()
    finally:
        if own_cpus:
            os.sched_setaffinity(0, own_cpus)
    return _serve_outcome(ctx, load, setups)


def _run_serve_traced(ctx: RunContext) -> Outcome:
    """The same load against an in-thread server whose layers are wrapped.

    Hosting the server in this process lets the wrappers see it, at the
    price of sharing the interpreter with the client — which is why the
    end-to-end serve numbers come only from the untraced run.
    """
    from layers import ServeTrace, empty_metrics
    from tracing import Tracer

    tracer = Tracer()
    trace = ServeTrace(tracer)
    trace.install()
    from repro.serve.app import serve_in_thread

    started = time.monotonic()
    handle = serve_in_thread(host="127.0.0.1", port=0)
    setup_s = time.monotonic() - started
    try:
        # In-thread, the server's CPU clock is this whole process's.
        load = drive("127.0.0.1", handle.port, ctx.workload, ctx.seed, ctx.seconds,
                     time.process_time)
    finally:
        handle.stop()
        tracer.restore()
    outcome = _serve_outcome(ctx, load, [setup_s])
    layer = empty_metrics()
    latency_by_id = {**load.open.latency_by_id, **load.closed.latency_by_id}
    layer.update(trace.metrics(latency_by_id, load.stats, load.open.gen_lag_s))
    outcome.metrics = layer
    tracer.write(ctx.spans_path)
    return outcome
