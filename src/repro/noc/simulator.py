"""Cycle-accurate NoC simulation (the repo's BookSim).

Two execution engines share one result type:

* **router networks** (mesh / cmesh / flattened butterfly) run an
  event-driven packet simulation: every router output port is a serially
  reusable resource; a packet claims ports hop by hop, paying the router
  pipeline, link traversal and flit serialisation, and queueing behind
  earlier packets at contended ports.
* **buses** run a grant-by-grant simulation: pending requests go through
  the matrix arbiter, the winner occupies the bus for its broadcast
  time, and everyone else waits -- which is exactly where the contention
  wall of Figs. 18/21 comes from. Address interleaving (Section 7.1)
  splits traffic across independent ways.

Offered/delivered/saturation accounting is shared with the flit-level
engine through :mod:`repro.noc.measure`, so all engines mean the same
thing by "acceptance" and "saturated".

Latencies are reported in NoC cycles; divide by the design's clock to
compare fabrics running at different frequencies.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from repro.noc.arbiter import MatrixArbiter
from repro.noc.bus import BusDesign
from repro.noc.measure import (
    SATURATION_FACTOR,
    LatencyMeter,
    LoadLatencyPoint,
    summarise as _summarise,
)
from repro.noc.topology import RouterTopology
from repro.noc.traffic import TrafficPattern
from repro.util.guards import SimulationStalled

__all__ = [
    "LoadLatencyPoint",
    "NocSimulator",
    "SATURATION_FACTOR",
]


class NocSimulator:
    """Load-latency measurement for router networks and buses."""

    def __init__(
        self,
        n_cycles: int = 20_000,
        warmup_fraction: float = 0.2,
        packet_flits: int = 1,
    ):
        if n_cycles < 100:
            raise ValueError("simulation too short to measure anything")
        if not (0.0 <= warmup_fraction < 1.0):
            raise ValueError("warmup fraction must lie in [0, 1)")
        if packet_flits < 1:
            raise ValueError("packets need at least one flit")
        self.n_cycles = n_cycles
        self.warmup = int(n_cycles * warmup_fraction)
        self.packet_flits = packet_flits

    # ------------------------------------------------------------------
    # router networks
    # ------------------------------------------------------------------
    def simulate_router_network(
        self,
        topology: RouterTopology,
        pattern: TrafficPattern,
        injection_rate: float,
        router_cycles: int = 1,
        hops_per_cycle: int = 4,
        seed: str = "noc",
    ) -> LoadLatencyPoint:
        """Event-driven packet simulation over a router topology."""
        if pattern.n_nodes != topology.n_nodes:
            raise ValueError("pattern/topology node counts differ")
        if router_cycles < 1 or hops_per_cycle < 1:
            raise ValueError("router_cycles and hops_per_cycle must be >= 1")

        hop_mm = 2.0  # physical hop granularity of the link model

        def link_cycles(length_mm: float) -> int:
            hops = max(length_mm / hop_mm, 1.0)
            return max(1, math.ceil(hops / hops_per_cycle))

        port_free: Dict[Tuple[int, int], int] = {}
        meter = LatencyMeter(self.warmup)
        horizon = self.n_cycles * 4  # drain window after injection stops

        # Events: (time, seq, inject_time, measured, route_hops, hop_idx).
        events: List[Tuple[int, int, int, bool, tuple, int]] = []
        seq = 0
        for cycle, src, dst in pattern.packets(injection_rate, self.n_cycles, seed):
            measured = meter.offer(cycle)
            route = tuple(topology.route(topology.router_of(src), topology.router_of(dst)))
            if not route:  # same router: injection + ejection only
                if measured:
                    meter.deliver_local(self.packet_flits)
                continue
            heapq.heappush(events, (cycle + 1, seq, cycle, measured, route, 0))
            seq += 1

        while events:
            time, _, inject, measured, route, hop_idx = heapq.heappop(events)
            if time > horizon:
                continue  # stuck in saturation; drop (counts as undelivered)
            frm, to, length_mm = route[hop_idx]
            port = (frm, to)
            start = max(time + router_cycles, port_free.get(port, 0))
            port_free[port] = start + self.packet_flits
            arrival = start + link_cycles(length_mm)
            if hop_idx + 1 < len(route):
                heapq.heappush(events, (arrival, seq, inject, measured, route, hop_idx + 1))
                seq += 1
            elif measured:
                # Ejection (1 cycle) plus tail-flit serialisation.
                done = arrival + 1 + (self.packet_flits - 1)
                meter.deliver(inject, done)

        zero_load = router_cycles * (topology.average_hops() + 1) + topology.average_hops()
        return meter.summarise(injection_rate, zero_load)

    # ------------------------------------------------------------------
    # buses
    # ------------------------------------------------------------------
    def simulate_bus(
        self,
        bus: BusDesign,
        pattern: TrafficPattern,
        injection_rate: float,
        hops_per_cycle: int,
        seed: str = "bus",
    ) -> LoadLatencyPoint:
        """Grant-by-grant bus simulation with the matrix arbiter."""
        if pattern.n_nodes != bus.n_nodes:
            raise ValueError("pattern/bus node counts differ")
        broadcast = bus.broadcast_cycles(hops_per_cycle)
        overhead = bus.arbitration_cycles + bus.control_cycles
        horizon = self.n_cycles * 4

        # Split traffic across interleaved ways (by destination id --
        # a stand-in for address bits).
        ways: List[List[Tuple[int, int]]] = [[] for _ in range(bus.interleave_ways)]
        meter = LatencyMeter(self.warmup)
        for cycle, src, dst in pattern.packets(injection_rate, self.n_cycles, seed):
            meter.offer(cycle)
            ways[dst % bus.interleave_ways].append((cycle, src))

        for way_packets in ways:
            arbiter = MatrixArbiter(bus.n_nodes)
            pending: List[Tuple[int, int, int]] = []  # (ready, seq, idx)
            by_core: Dict[int, List[int]] = {}
            idx = 0
            now = 0
            seq = 0
            while idx < len(way_packets) or pending:
                if now > horizon:
                    # A saturated way would otherwise grind through every
                    # admitted packet serially; nothing past the horizon
                    # can be recorded, so the remainder counts as
                    # undelivered (same semantics as the router engine's
                    # drop path).
                    break
                # Admit every request that is ready by `now`.
                while idx < len(way_packets) and way_packets[idx][0] + overhead <= now:
                    ready = way_packets[idx][0] + overhead
                    core = way_packets[idx][1]
                    heapq.heappush(pending, (ready, seq, idx))
                    by_core.setdefault(core, []).append(idx)
                    seq += 1
                    idx += 1
                if not pending:
                    now = way_packets[idx][0] + overhead
                    continue
                requesters = {
                    way_packets[i][1] for _, _, i in pending
                }
                winner = arbiter.grant(requesters)
                if winner is None or not by_core.get(winner):
                    # A healthy matrix arbiter always grants one of its
                    # requesters; an unusable grant would loop forever on
                    # the same pending set. Fail loudly with the state.
                    raise SimulationStalled(
                        f"bus arbitration produced an unusable grant "
                        f"({winner!r}) at cycle {now}: {len(pending)} "
                        "requests pending and none can make progress",
                        snapshot={
                            "cycle": now,
                            "winner": winner,
                            "pending_requests": len(pending),
                            "requesters": sorted(requesters),
                            "admitted": idx,
                            "way_total": len(way_packets),
                        },
                    )
                win_idx = by_core[winner].pop(0)
                pending = [(r, s, i) for r, s, i in pending if i != win_idx]
                heapq.heapify(pending)
                start = now
                finish = start + broadcast
                inject_cycle = way_packets[win_idx][0]
                if inject_cycle >= self.warmup and finish <= horizon:
                    meter.deliver(inject_cycle, finish)
                now = finish

        zero_load = overhead + broadcast
        return meter.summarise(injection_rate, zero_load)
