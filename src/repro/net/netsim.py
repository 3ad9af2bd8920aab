"""Event-driven fluid network simulation.

:class:`NetworkSim` marries the topology/routing layer with the max-min
rate allocator and the DES kernel: every active transfer is a fluid flow;
whenever flows start or finish, rates are recomputed globally and the
next completion is rescheduled.  This is the standard flow-level model
used by datacenter-network simulators — accurate for transfers that are
large relative to RTT (shuffles, block writes, VM migrations), which is
exactly what the experiments here measure.

Routes come from per-destination next-hop tables.  Links are interned
to integer ids and each flow's ``FlowSpec`` is built once and kept in
one :class:`~repro.net.flows.FlowTable` from its start wave to its
completion; flows starting at one instant share one solve (a *start
wave*); one ``net-waker`` :class:`~repro.simcore.kernel.Alarm` is
moved, not respawned, when rates change; a progress advance only
decrements each flow's remaining bytes, and per-link bytes are charged
once, when a flow finishes.
None of this changes a simulated float (``tests/net/test_netsim_pinned.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..common.errors import NetworkError
from ..common.units import Gbit_per_s
from ..simcore.events import Event
from ..simcore.kernel import Alarm, Simulator
from .flows import FlowSpec, FlowTable, LinkKey, allocate_rates
from .topology import Link, Topology

__all__ = ["NetworkSim", "TransferStats"]

_EPS_BYTES = 1e-6


@dataclass
class TransferStats:
    """Completion record delivered as a transfer event's value."""

    src: str
    dst: str
    nbytes: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Wall-clock seconds from request to last byte."""
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Average bytes/second (0 for instant transfers)."""
        return self.nbytes / self.duration if self.duration > 0 else float("inf")


class _Flow:
    __slots__ = ("spec", "src", "dst", "nbytes", "remaining", "event",
                 "start")

    def __init__(self, spec: FlowSpec, src: str, dst: str, nbytes: float,
                 event: Event, start: float) -> None:
        self.spec = spec
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.event = event
        self.start = start


class NetworkSim:
    """Flow-level network simulator bound to a DES kernel.

    Use :meth:`transfer` to move bytes between hosts; the returned event
    fires with a :class:`TransferStats` when the last byte lands.  Per-link
    byte counters (:attr:`link_bytes`) and a global counter
    (:attr:`total_bytes`) support traffic accounting in experiments.
    """

    def __init__(self, sim: Simulator, topo: Topology,
                 local_copy_bw: float = Gbit_per_s(100)) -> None:
        self.sim = sim
        self.topo = topo
        self.local_copy_bw = local_copy_bw
        self._flows: Dict[int, _Flow] = {}
        # the specs of ``_flows``, indexed for the rate solver
        self._table = FlowTable()
        self._next_fid = 0
        self._last_t = sim.now
        self._rates: Dict[int, float] = {}
        # interned links: key -> id (ids count up from 0), id -> capacity
        self._link_ids: Dict[LinkKey, int] = {}
        self._caps: Dict[int, float] = {}
        # bytes of finished flows per link id, in the order links first
        # saw a flow finish
        self._carried: Dict[int, float] = {}
        # start time -> flows of the start wave landing then
        self._waves: Dict[float, List[_Flow]] = {}
        # one moved wake-up at the next flow completion
        self._alarm = Alarm(sim, self._reallocate, "net-waker")
        #: cumulative bytes moved over the network (excludes local copies)
        self.total_bytes = 0.0
        #: number of transfers started
        self.n_transfers = 0

    # -- public API ----------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float,
                 limit: float = float("inf"),
                 weight: float = 1.0) -> Event:
        """Move ``nbytes`` from host ``src`` to host ``dst``.

        ``limit`` caps the flow's rate (sender-side throttle); ``weight``
        scales its share of contended links (weighted max-min / WFQ-style
        QoS).  A transfer with ``src == dst`` is a local copy charged at
        ``local_copy_bw``.  Zero-byte transfers complete after path latency
        only.
        """
        if weight <= 0:
            raise NetworkError("transfer weight must be positive")
        if limit <= 0:
            raise NetworkError("transfer limit must be positive")
        if nbytes < 0:
            raise NetworkError(f"negative transfer size {nbytes}")
        self.n_transfers += 1
        ev = self.sim.event()
        start = self.sim.now
        if src == dst:
            dur = nbytes / min(self.local_copy_bw, limit)
            self._complete_later(ev, src, dst, nbytes, start, dur)
            return ev
        fid = self._next_fid
        self._next_fid += 1
        path = self.topo.path(src, dst, flow_id=fid)
        latency = self.topo.path_latency(path)
        if nbytes == 0:
            self._complete_later(ev, src, dst, 0, start, latency)
            return ev
        spec = FlowSpec(fid, tuple(self._intern(l) for l in path), limit,
                        weight)
        flow = _Flow(spec, src, dst, nbytes, ev, start)
        # charge path latency up-front; flows landing at one instant join
        # one start wave (the timeout below fires at exactly ``start + latency``)
        at = start + latency
        wave = self._waves.get(at)
        if wave is not None:
            wave.append(flow)
        else:
            self._waves[at] = [flow]
            self.sim.process(self._start_wave(at, latency), name=f"xfer{fid}")
        return ev

    @property
    def active_flows(self) -> int:
        """Number of flows currently moving bytes."""
        return len(self._flows)

    @property
    def link_bytes(self) -> Dict[LinkKey, float]:
        """Cumulative bytes carried per link key (``Link.key``).

        Finished flows count their whole size.  Read mid-run, each
        in-flight flow adds the bytes it has sent by now, worked out
        without advancing the flows (splitting an advance would change
        its rounding); each link's reading is one exactly rounded sum,
        so successive readings never decrease.
        """
        carried = dict(self._carried)
        if self._flows:
            dt = self.sim.now - self._last_t
            rates = self._rates
            sent: Dict[int, List[float]] = {}
            for fid, flow in self._flows.items():
                left = flow.remaining - rates.get(fid, 0.0) * dt
                part = flow.nbytes - max(left, 0.0)
                for lid in flow.spec.links:
                    sent.setdefault(lid, []).append(part)
            for lid, parts in sent.items():
                carried[lid] = math.fsum([carried.get(lid, 0.0), *parts])
        keys = list(self._link_ids)
        return {keys[lid]: nbytes for lid, nbytes in carried.items()}

    # -- engine --------------------------------------------------------------

    def _intern(self, link: Link) -> int:
        lid = self._link_ids.setdefault(link.key, len(self._link_ids))
        self._caps[lid] = link.capacity
        return lid

    def _complete_later(self, ev: Event, src: str, dst: str, nbytes: float,
                        start: float, dur: float) -> None:
        def _finisher(sim: Simulator):
            yield sim.timeout(dur)
            ev.succeed(TransferStats(src, dst, int(nbytes), start, sim.now))
        self.sim.process(_finisher(self.sim), name="xfer-local")

    def _start_wave(self, at: float, latency: float):
        yield self.sim.timeout(latency)
        for flow in self._waves.pop(at):
            self._flows[flow.spec.flow_id] = flow
            self._table.add(flow.spec)
            self.total_bytes += flow.nbytes
        self._reallocate()

    def _advance_progress(self) -> List[_Flow]:
        """Move every flow's progress up to now; returns the finished flows."""
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0:
            return [f for f in self._flows.values() if f.remaining <= _EPS_BYTES]
        rates, done = self._rates, []
        for fid, flow in self._flows.items():
            flow.remaining -= rates.get(fid, 0.0) * dt
            if flow.remaining <= _EPS_BYTES:
                done.append(flow)
        return done

    def _reallocate(self) -> None:
        """Advance progress, complete finished flows, recompute rates.

        A finished flow charges its ``nbytes`` once to each link on its
        path, so with integer sizes the ledger is exact."""
        carried = self._carried
        for flow in self._advance_progress():
            del self._flows[flow.spec.flow_id]
            self._table.remove(flow.spec.flow_id)
            for lid in flow.spec.links:
                carried[lid] = carried.get(lid, 0.0) + flow.nbytes
            flow.event.succeed(TransferStats(
                flow.src, flow.dst, int(flow.nbytes), flow.start, self.sim.now))
        if not self._flows:
            self._rates = {}
            return
        self._rates = allocate_rates(self._table, self._caps)
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        next_dt = math.inf
        rates = self._rates
        for fid, flow in self._flows.items():
            rate = rates[fid]
            if rate > 0:
                dt = flow.remaining / rate
                if dt < next_dt:
                    next_dt = dt
        if math.isinf(next_dt):
            raise NetworkError("active flows exist but none can make progress")
        self._alarm.set(next_dt)
