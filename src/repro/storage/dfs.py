"""A block-structured distributed filesystem on the simulated cluster.

Models the HDFS architecture: files split into fixed-size blocks, each
block either *replicated* (rack-aware placement: first copy on the writer,
second on another rack, third on a different node of that second rack) or
*erasure-coded* with a systematic RS(k, m) stripe spread over k+m nodes.

Every operation charges realistic costs to the simulation: disk bandwidth
at each storing node and network transfers along the real topology.  Reads
pick the closest live replica (local → rack-local → remote) and fall back
to degraded EC decoding when data shards are on dead nodes.  Node failures
trigger re-replication / fragment reconstruction after a detection delay,
with the repair traffic accounted; a repair starved of live sources or
targets is stalled and retried when a node recovers.

When actual ``data`` is supplied, content is stored (and erasure-coded)
for real, so tests can verify byte-exact reads through failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import (
    BlockNotFoundError,
    CapacityError,
    ChecksumError,
    ConfigError,
    InsufficientReplicasError,
    RetryBudgetExhaustedError,
)
from ..common.rng import RandomState, ensure_rng
from ..common.units import MB
from ..cluster.cluster import Cluster
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..resilience import (CircuitBreaker, ResiliencePolicies, RetryPolicy,
                          RetrySession, run_hedged)
from ..simcore.events import Event
from ..simcore.kernel import Simulator
from . import integrity
from .reedsolomon import RSCode

__all__ = ["DFSConfig", "BlockInfo", "FileInfo", "DistributedFS"]


#: Scrub verify throughput (bytes/s) each scrub pass paces itself to.
SCRUB_RATE = MB(64)


@dataclass(frozen=True)
class DFSConfig:
    """Filesystem-wide settings."""

    block_size: int = MB(128)
    replication: int = 3
    ec_k: int = 6
    ec_m: int = 3
    rack_aware: bool = True
    auto_repair: bool = True
    detection_delay: float = 5.0         # seconds until a failure is acted on
    scrub_interval: float = 0.0          # seconds between scrub passes; 0 = off

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ConfigError("block_size must be positive")
        if self.replication < 1:
            raise ConfigError("replication must be >= 1")
        if self.ec_k < 1 or self.ec_m < 0:
            raise ConfigError("invalid EC parameters")
        if self.scrub_interval < 0:
            raise ConfigError("scrub_interval must be >= 0")


@dataclass
class BlockInfo:
    """One block (or EC stripe) of a file."""

    block_id: int
    path: str
    index: int
    size: int
    mode: str                             # "replicate" | "ec"
    locations: Dict[int, str] = field(default_factory=dict)
    # replica index -> node (replicated) / fragment index -> node (ec)

    def nodes(self) -> List[str]:
        """All nodes currently holding a piece of this block."""
        return list(self.locations.values())


@dataclass
class FileInfo:
    """Namespace entry."""

    path: str
    size: int
    mode: str
    blocks: List[BlockInfo] = field(default_factory=list)


class DistributedFS:
    """The filesystem facade; all mutating calls return simulation events."""

    def __init__(self, cluster: Cluster, config: Optional[DFSConfig] = None,
                 seed: RandomState = None,
                 policies: Optional[ResiliencePolicies] = None) -> None:
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.config = config or DFSConfig()
        self.rng = ensure_rng(seed)
        self.files: Dict[str, FileInfo] = {}
        self._blocks: Dict[int, BlockInfo] = {}
        self._next_block_id = 0
        # (block_id, slot) -> stored bytes; replicated blocks hold one
        # entry per replica slot so a single copy can rot independently
        # (entries alias the same bytes object until corruption replaces
        # one, so the memory cost of per-slot keys is just the dict slots)
        self._content: Dict[Tuple[int, int], bytes] = {}
        self._seals: Dict[Tuple[int, int], integrity.Seal] = {}
        self._block_data_len: Dict[int, int] = {}
        self.codec = RSCode(self.config.ec_k, self.config.ec_m)
        # resilience policies (all optional): a per-node breaker steers
        # reads and repair targets away from flaky nodes, the retry
        # policy governs repair attempts/backoff (default RetryPolicy():
        # 4 immediate attempts), and the hedge policy races the two
        # closest replicas on reads
        self.policies = policies
        self.breaker: Optional[CircuitBreaker] = None
        if policies is not None and policies.breaker_config is not None:
            self.breaker = CircuitBreaker(policies.breaker_config)
        self._hedge = policies.hedge if policies is not None else None
        self._repair_retry = policies.retry if policies is not None else None
        self._read_durations: List[float] = []
        # metrics: typed monotone counters (a negative adjustment — e.g. a
        # counter "rolled back" on a failed read — raises instead of hiding)
        self.metrics = MetricsRegistry()
        for name in ("dfs.bytes_written", "dfs.bytes_read",
                     "dfs.degraded_reads", "dfs.failed_reads",
                     "dfs.repairs_started", "dfs.repairs_failed",
                     "dfs.repairs_abandoned", "dfs.repairs_stalled",
                     "dfs.repair_bytes",
                     "dfs.hedged_reads", "integrity.detected",
                     "integrity.quarantined", "integrity.latent_discarded",
                     "integrity.scrub_pieces", "integrity.scrub_bytes"):
            self.metrics.counter(name)
        # (block_id, slot) of repairs that found too few live sources or
        # no target node; retried when a node recovers
        self._stalled: Set[Tuple[int, int]] = set()
        self._watching = False
        if self.config.auto_repair or self.breaker is not None:
            self._watch_failures()
        self._scrubbing = False
        if self.config.scrub_interval > 0:
            self.start_scrubber()

    # ---- counter facade (back-compat: `dfs.bytes_read += n` still works,
    # but every mutation lands in the typed registry)

    def _counter_prop(name: str, as_int: bool = False,
                      prefix: str = "dfs"):  # noqa: N805
        full = f"{prefix}.{name}"

        def _get(self):
            v = self.metrics.counter(full).value
            return int(v) if as_int else v

        def _set(self, value):
            c = self.metrics.counter(full)
            c.inc(value - c.value)
        return property(_get, _set)

    bytes_written = _counter_prop("bytes_written")
    bytes_read = _counter_prop("bytes_read")
    degraded_reads = _counter_prop("degraded_reads", as_int=True)
    failed_reads = _counter_prop("failed_reads", as_int=True)
    repairs_started = _counter_prop("repairs_started", as_int=True)
    repairs_failed = _counter_prop("repairs_failed", as_int=True)
    repairs_abandoned = _counter_prop("repairs_abandoned", as_int=True)
    repairs_stalled = _counter_prop("repairs_stalled", as_int=True)
    repair_bytes = _counter_prop("repair_bytes")
    hedged_reads = _counter_prop("hedged_reads", as_int=True)
    integrity_detected = _counter_prop("detected", as_int=True,
                                       prefix="integrity")
    integrity_quarantined = _counter_prop("quarantined", as_int=True,
                                          prefix="integrity")
    integrity_latent_discarded = _counter_prop("latent_discarded",
                                               as_int=True,
                                               prefix="integrity")
    scrub_pieces = _counter_prop("scrub_pieces", as_int=True,
                                 prefix="integrity")
    scrub_bytes = _counter_prop("scrub_bytes", prefix="integrity")
    del _counter_prop

    # ------------------------------------------------------------------ write

    def write(self, path: str, size: Optional[int] = None,
              data: Optional[bytes] = None, writer: Optional[str] = None,
              mode: Optional[str] = None) -> Event:
        """Create file ``path`` of ``size`` bytes (or actual ``data``).

        ``writer`` is the client node (defaults to a random live node);
        ``mode`` is ``"replicate"`` (the default) or ``"ec"``.  The
        returned event fires with the :class:`FileInfo` once every
        block is durably stored.
        """
        if path in self.files:
            raise ConfigError(f"file {path!r} already exists")
        if (size is None) == (data is None):
            raise ConfigError("pass exactly one of size= or data=")
        if data is not None:
            size = len(data)
        if size < 0:
            raise ConfigError("size must be nonnegative")
        mode = mode or "replicate"
        if mode not in ("replicate", "ec"):
            raise ConfigError("mode must be 'replicate' or 'ec'")
        writer = writer or self._random_live_node()
        info = FileInfo(path, size, mode)
        self.files[path] = info
        done = self.sim.event()
        self.sim.process(self._write_proc(info, data, writer, done),
                         name=f"dfs-write:{path}")
        return done

    def _write_proc(self, info: FileInfo, data: Optional[bytes],
                    writer: str, done: Event):
        bs = self.config.block_size
        n_blocks = max(1, -(-info.size // bs)) if info.size else 1
        for i in range(n_blocks):
            blk_size = min(bs, info.size - i * bs) if info.size else 0
            blk_data = None
            if data is not None:
                blk_data = data[i * bs: i * bs + blk_size]
            block = BlockInfo(self._next_block_id, info.path, i, blk_size,
                              info.mode)
            self._next_block_id += 1
            self._blocks[block.block_id] = block
            info.blocks.append(block)
            if info.mode == "replicate":
                yield from self._write_replicated(block, blk_data, writer)
            else:
                yield from self._write_ec(block, blk_data, writer)
        done.succeed(info)

    def _write_replicated(self, block: BlockInfo, data: Optional[bytes],
                          writer: str):
        nodes = self._choose_replica_nodes(writer, self.config.replication)
        # pipelined: the client streams to replica 1 which streams to 2, ...
        # modeled as concurrent hop transfers plus a disk write per replica.
        # every replica holds the same bytes: seal them once
        seal = (integrity.seal(data)
                if data is not None else None)
        pending = []
        prev = writer
        for r, node in enumerate(nodes):
            block.locations[r] = node
            if data is not None:
                self._store_piece(block.block_id, r, data, seal)
            pending.append(self.cluster.transfer(prev, node, block.size))
            pending.append(self.cluster.nodes[node].disk_write(block.size))
            prev = node
        if pending:
            yield self.sim.all_of(pending)
        self.bytes_written += block.size * len(nodes)

    def _write_ec(self, block: BlockInfo, data: Optional[bytes], writer: str):
        k, m = self.codec.k, self.codec.m
        frag_size = self.codec.fragment_size(block.size)
        nodes = self._choose_stripe_nodes(k + m)
        if data is not None:
            frags = self.codec.encode(data)
            self._block_data_len[block.block_id] = len(data)
            for idx in range(k + m):
                self._store_piece(block.block_id, idx, frags[idx])
        pending = []
        for idx, node in enumerate(nodes):
            block.locations[idx] = node
            pending.append(self.cluster.transfer(writer, node, frag_size))
            pending.append(self.cluster.nodes[node].disk_write(frag_size))
        if pending:
            yield self.sim.all_of(pending)
        self.bytes_written += frag_size * (k + m)

    # ------------------------------------------------------------------- read

    def read(self, path: str, reader: Optional[str] = None) -> Event:
        """Read the whole file to ``reader``; fires with (data|None, nbytes).

        Blocks are fetched in parallel (the analytics access pattern).
        ``data`` is the original byte content when the file was written
        with ``data=``, else ``None``.
        """
        info = self._file(path)
        reader = reader or self._random_live_node()
        done = self.sim.event()

        def _proc(sim: Simulator):
            evs = [self.read_block(b, reader) for b in info.blocks]
            if evs:
                results = yield sim.all_of(evs)
                parts = [results[i] for i in range(len(evs))]
            else:
                parts = []
            if all(p is not None for p in parts) and parts:
                payload: Optional[bytes] = b"".join(parts)
            else:
                payload = None
            done.succeed((payload, info.size))
        self.sim.process(_proc(self.sim), name=f"dfs-read:{path}")
        return done

    def read_block(self, block: BlockInfo, reader: str) -> Event:
        """Read one block to ``reader``; fires with the content bytes or None."""
        done = self.sim.event()
        if block.mode == "replicate":
            proc = self._read_replicated(block, reader, done)
        else:
            proc = self._read_ec(block, reader, done)
        self.sim.process(proc, name=f"dfs-readblk:{block.block_id}")
        return done

    def _live_replicas(self, block: BlockInfo) -> List[str]:
        return [n for n in block.locations.values()
                if self.cluster.nodes[n].alive]

    def _read_replicated(self, block: BlockInfo, reader: str, done: Event):
        # Detection → recovery loop: a replica whose chunk CRCs fail is
        # quarantined (dropped from ``block.locations`` and scheduled for
        # re-replication) and the read falls to the next replica, still
        # breaker- and hedge-aware — the re-ranked candidate set simply
        # no longer contains the corrupt copy.
        while True:
            live = self._live_replicas(block)
            if not live:
                self.failed_reads += 1
                done.fail(InsufficientReplicasError(
                    f"block {block.block_id} of {block.path} "
                    f"has no live replica"))
                return
            live = self._prefer_unbroken(live)
            hedge_delay = (self._hedge.delay(self._read_durations)
                           if self._hedge is not None else None)
            if hedge_delay is not None and len(set(live)) > 1:
                src = yield from self._hedged_fetch(block, reader, live,
                                                    hedge_delay)
            else:
                src = self._closest(reader, live)
                t0 = self.sim.now
                yield self.cluster.nodes[src].disk_read(block.size)
                if src != reader:
                    yield self.cluster.transfer(src, reader, block.size)
                if self._hedge is not None:
                    self._read_durations.append(self.sim.now - t0)
            slot = self._slot_of(block, src)
            if slot is None or self._pieces_clean(block, [slot]):
                if self.breaker is not None:
                    self.breaker.record_success(src, self.sim.now)
                self.bytes_read += block.size
                done.succeed(self._content.get((block.block_id, slot))
                             if slot is not None else None)
                return

    def _hedged_fetch(self, block: BlockInfo, reader: str,
                      live: List[str], delay: float):
        """Race the two closest replicas; first byte stream in wins.

        The loser's fetch is abandoned (its disk/network charges were
        already in flight, as in real hedged reads) and its completion
        event defused by :func:`run_hedged`.
        """
        ranked = sorted(
            set(live),
            key=lambda n: (n != reader,
                           not self.cluster.same_rack(n, reader)
                           if reader in self.cluster.nodes
                           else True, n))

        def launch(i: int):
            src = ranked[min(i, len(ranked) - 1)]
            ev = self.sim.event()

            def _fetch(sim: Simulator):
                yield self.cluster.nodes[src].disk_read(block.size)
                if src != reader:
                    yield self.cluster.transfer(src, reader, block.size)
                if not ev.triggered:
                    ev.succeed(src)
            self.sim.process(_fetch(self.sim),
                             name=f"dfs-fetch:b{block.block_id}:{src}")
            return ev, None
        t0 = self.sim.now
        res = yield run_hedged(self.sim, launch, delay,
                               op=f"read:b{block.block_id}")
        src, winner = res
        self.hedged_reads += 1
        self._read_durations.append(self.sim.now - t0)
        return src

    def _read_ec(self, block: BlockInfo, reader: str, done: Event):
        k = self.codec.k
        frag_size = self.codec.fragment_size(block.size)
        # Detection → recovery loop: a fragment whose CRCs fail is
        # quarantined and the stripe re-read excludes it — RS decoding
        # from the remaining ≥ k fragments reconstructs the payload (the
        # degraded path), while reconstruction of the bad fragment is
        # scheduled in the background.
        while True:
            live = {idx: node for idx, node in block.locations.items()
                    if self.cluster.nodes[node].alive}
            data_live = [i for i in range(k) if i in live]
            if len(live) < k:
                self.failed_reads += 1
                done.fail(InsufficientReplicasError(
                    f"block {block.block_id}: only {len(live)} of {k} "
                    f"fragments live"))
                return
            degraded = len(data_live) < k
            if degraded:
                self.degraded_reads += 1
                tr = obs_trace.get_tracer()
                if tr is not None:
                    tr.instant("degraded_read", self.sim.now,
                               lane=("dfs", "read"),
                               cat="dfs", block_id=block.block_id)
                chosen = sorted(live)[:k]
            else:
                chosen = data_live
            evs = []
            for idx in chosen:
                node = live[idx]
                evs.append(self.cluster.nodes[node].disk_read(frag_size))
                if node != reader:
                    evs.append(self.cluster.transfer(node, reader, frag_size))
            yield self.sim.all_of(evs)
            self.bytes_read += frag_size * len(chosen)
            if not self._pieces_clean(block, chosen):
                continue
            payload = None
            if any((block.block_id, i) in self._content for i in chosen):
                frags = {i: self._content[(block.block_id, i)]
                         for i in chosen
                         if (block.block_id, i) in self._content}
                if len(frags) >= k:
                    orig_len = self._block_data_len.get(block.block_id,
                                                        block.size)
                    payload = self.codec.decode(frags, orig_len)
            done.succeed(payload)
            return

    # ------------------------------------------------------------ placement

    def _random_live_node(self) -> str:
        live = [n.name for n in self.cluster.live_nodes()]
        if not live:
            raise CapacityError("no live nodes")
        return str(self.rng.choice(live))

    def _choose_replica_nodes(self, writer: str, n: int) -> List[str]:
        """HDFS-style: writer-local, then off-rack, then that rack again."""
        live = [nd.name for nd in self.cluster.live_nodes()]
        if len(live) < 1:
            raise CapacityError("no live nodes for placement")
        n = min(n, len(live))
        chosen: List[str] = []
        if writer in live:
            chosen.append(writer)
        else:
            chosen.append(str(self.rng.choice(live)))
        if not self.config.rack_aware:
            pool = [x for x in live if x not in chosen]
            while len(chosen) < n and pool:
                pick = str(self.rng.choice(pool))
                chosen.append(pick)
                pool.remove(pick)
            return chosen
        first_rack = self.cluster.rack_of(chosen[0])
        off_rack = [x for x in live if self.cluster.rack_of(x) != first_rack]
        if len(chosen) < n and off_rack:
            second = str(self.rng.choice(off_rack))
            chosen.append(second)
            second_rack = self.cluster.rack_of(second)
            same_as_second = [x for x in live
                              if self.cluster.rack_of(x) == second_rack
                              and x not in chosen]
            if len(chosen) < n and same_as_second:
                chosen.append(str(self.rng.choice(same_as_second)))
        pool = [x for x in live if x not in chosen]
        while len(chosen) < n and pool:
            pick = str(self.rng.choice(pool))
            chosen.append(pick)
            pool.remove(pick)
        return chosen

    def _choose_stripe_nodes(self, n: int) -> List[str]:
        """Spread a stripe round-robin over racks for failure independence."""
        by_rack: Dict[str, List[str]] = {}
        for node in self.cluster.live_nodes():
            by_rack.setdefault(node.rack, []).append(node.name)
        for members in by_rack.values():
            idx = self.rng.permutation(len(members))
            members[:] = [members[i] for i in idx]
        racks = sorted(by_rack)
        chosen: List[str] = []
        r = 0
        while len(chosen) < n and any(by_rack.values()):
            rack = racks[r % len(racks)]
            if by_rack[rack]:
                chosen.append(by_rack[rack].pop())
            r += 1
        if len(chosen) < n:
            raise CapacityError(f"stripe needs {n} nodes, only {len(chosen)} live")
        return chosen

    def _closest(self, reader: str, candidates: List[str]) -> str:
        """local > rack-local > remote; ties broken deterministically."""
        def rank(node: str):
            if node == reader:
                return (0, node)
            if reader in self.cluster.nodes and \
                    self.cluster.same_rack(node, reader):
                return (1, node)
            return (2, node)
        return min(candidates, key=rank)

    # ------------------------------------------------------------ integrity

    def _slot_of(self, block: BlockInfo, node: str) -> Optional[int]:
        """The (lowest) slot of ``block`` stored on ``node``, or None."""
        for slot in sorted(block.locations):
            if block.locations[slot] == node:
                return slot
        return None

    def _piece_size(self, block: BlockInfo) -> int:
        """Bytes of one stored piece: the block, or one EC fragment."""
        return (block.size if block.mode == "replicate"
                else self.codec.fragment_size(block.size))

    def _store_piece(self, block_id: int, slot: int, data: bytes,
                     seal: Optional[integrity.Seal] = None) -> None:
        """Store one replica/fragment payload with its seal, sealing it
        here unless the caller passes the (immutable) seal of the same
        bytes."""
        self._content[(block_id, slot)] = data
        self._seals[(block_id, slot)] = (
            seal if seal is not None
            else integrity.seal(data))

    def _copy_piece(self, block_id: int, src_slot: int, dst_slot: int) -> None:
        """Clone a verified piece (bytes + seal) into another slot."""
        src = (block_id, src_slot)
        if src in self._content:
            self._content[(block_id, dst_slot)] = self._content[src]
            if src in self._seals:
                self._seals[(block_id, dst_slot)] = self._seals[src]

    def _piece_clean(self, block_id: int, slot: int) -> bool:
        """Silent verification (no counters, no traces) of one piece.

        True when the stored bytes match their seal, or there is nothing
        to verify (size-only file, missing seal).
        """
        key = (block_id, slot)
        data = self._content.get(key)
        s = self._seals.get(key)
        if data is None or s is None:
            return True
        try:
            integrity.verify(data, s)
        except ChecksumError:
            return False
        return True

    def _verify_piece(self, block: BlockInfo, slot: int) -> bool:
        """Counted verification: False (and ``integrity.detected`` +1,
        trace instant) when the stored piece fails its checksums."""
        key = (block.block_id, slot)
        data = self._content.get(key)
        s = self._seals.get(key)
        if data is None or s is None:
            return True
        layer = ("dfs.replica" if block.mode == "replicate"
                 else "dfs.fragment")
        try:
            integrity.verify(
                data, s, layer=layer,
                path=f"{block.path}#b{block.block_id}s{slot}")
        except ChecksumError as exc:
            self.integrity_detected += 1
            tr = obs_trace.get_tracer()
            if tr is not None:
                tr.instant("integrity_detected", self.sim.now,
                           lane=("dfs", "integrity"), cat="integrity",
                           block_id=block.block_id, slot=slot,
                           layer=exc.layer, offset=exc.offset)
            return False
        return True

    def _pieces_clean(self, block: BlockInfo, slots: List[int]) -> bool:
        """Verify ``slots`` of ``block``, quarantining each rotten piece.

        The one detection step of reads, scrubs and repairs: True when
        every piece passed its checksums.
        """
        rotten = [s for s in slots if not self._verify_piece(block, s)]
        for slot in rotten:
            self._quarantine(block, slot)
        return not rotten

    def _quarantine(self, block: BlockInfo, slot: int) -> None:
        """Remove a checksum-failed piece from service and schedule repair.

        The slot leaves ``block.locations`` *before* any repair picks
        sources, so a repair can never clone the corrupt copy; the bad
        bytes and their stale seal are dropped with it.  The holding
        node's breaker records a failure — a node serving rotten bytes is
        as suspect as one timing out.
        """
        key = (block.block_id, slot)
        held = block.locations.pop(slot, None)
        self._content.pop(key, None)
        self._seals.pop(key, None)
        self.integrity_quarantined += 1
        if self.breaker is not None and held is not None:
            self.breaker.record_failure(held, self.sim.now)
        if not self.config.auto_repair:
            return

        def _re(sim: Simulator):
            yield sim.timeout(0.0)
            yield from self._repair_piece(block, slot)
        self.sim.process(
            _re(self.sim),
            name=f"dfs-requarantine:b{block.block_id}s{slot}")

    def _discard_piece(self, block: BlockInfo, slot: int) -> None:
        """Account a stored piece about to be overwritten unverified.

        Repair for a dead node rewrites the slot's content wholesale; if
        the bytes being replaced were corrupt, that corruption leaves the
        system without ever having been *read* — counted separately
        (``integrity.latent_discarded``) so the oracle's accounting
        identity ``injected == detected + latent_discarded + latent``
        stays exact under composed fault plans.
        """
        if not self._piece_clean(block.block_id, slot):
            self.integrity_latent_discarded += 1

    def corrupt_piece(self, block_id: int, slot: int,
                      offset: Optional[int] = None,
                      rng=None) -> Optional[int]:
        """Chaos hook: flip one stored byte of ``(block, slot)``.

        The seal is deliberately left stale — that is what makes the
        corruption *silent* until a read or scrub verifies the chunk.
        Returns the flipped offset, or ``None`` when nothing is stored.
        """
        key = (block_id, slot)
        data = self._content.get(key)
        if not data:
            return None
        if offset is None:
            offset = int(rng.integers(len(data))) if rng is not None else 0
        offset %= len(data)
        self._content[key] = integrity.flip_byte(data, offset)
        return offset

    def audit_integrity(self) -> List[Tuple[int, int]]:
        """All location-referenced pieces whose checksums fail, silently.

        A debug/oracle helper: walks every stored piece without charging
        simulation costs or touching counters, returning the corrupt
        ``(block_id, slot)`` keys (latent corruption not yet read).
        """
        bad: List[Tuple[int, int]] = []
        for bid in sorted(self._blocks):
            block = self._blocks[bid]
            for slot in sorted(block.locations):
                if not self._piece_clean(bid, slot):
                    bad.append((bid, slot))
        return bad

    # ------------------------------------------------------------ scrubbing

    def start_scrubber(self) -> None:
        """Start the background scrub loop (idempotent).

        Every ``scrub_interval`` seconds the scrubber walks all stored
        pieces in deterministic order, charges verify IO at each holding
        node, paces itself to :data:`SCRUB_RATE` bytes/second, and
        quarantines + repairs any piece whose checksums fail — catching
        bit-rot on cold data before a reader ever trips over it.
        """
        if self._scrubbing or self.config.scrub_interval <= 0:
            return
        self._scrubbing = True

        def _loop(sim: Simulator):
            while True:
                yield sim.timeout(self.config.scrub_interval)
                yield from self._scrub_pass()
        self.sim.process(_loop(self.sim), name="dfs-scrub")

    def scrub_now(self) -> Event:
        """One full scrub pass on demand; fires with the corrupt count."""
        done = self.sim.event()

        def _proc(sim: Simulator):
            found = yield from self._scrub_pass()
            done.succeed(found)
        self.sim.process(_proc(self.sim), name="dfs-scrub-now")
        return done

    def _scrub_pass(self):
        tr = obs_trace.get_tracer()
        span = (tr.begin("scrub", self.sim.now, lane=("dfs", "scrub"),
                         cat="integrity") if tr is not None else None)
        found = 0
        for bid in sorted(self._blocks):
            block = self._blocks[bid]
            piece_size = self._piece_size(block)
            for slot in sorted(block.locations):
                node = block.locations.get(slot)
                if node is None or not self.cluster.nodes[node].alive:
                    continue
                if piece_size > 0:
                    yield self.cluster.nodes[node].disk_read(piece_size)
                    yield self.sim.timeout(piece_size / SCRUB_RATE)
                self.scrub_pieces += 1
                self.scrub_bytes += piece_size
                if not self._pieces_clean(block, [slot]):
                    found += 1
        if tr is not None and span is not None:
            tr.end(span, self.sim.now, corrupt_found=found)
        return found

    # ------------------------------------------------------------ repair

    def _watch_failures(self) -> None:
        if self._watching:
            return
        self._watching = True
        for node in self.cluster.nodes.values():
            node.listeners.append(self._on_node_event)

    def _on_node_event(self, node, kind: str) -> None:
        if self.breaker is not None:
            # a node event is definitive knowledge, not an inference from
            # failed calls: open/close the breaker for that node directly
            if kind == "fail":
                self.breaker.trip(node.name, self.sim.now)
            elif kind == "recover":
                self.breaker.reset(node.name)
        if not self.config.auto_repair:
            return
        if kind == "recover":
            if self._stalled:
                self.sim.process(self._retry_stalled(),
                                 name="dfs-retry-stalled")
            return

        def _repair(sim: Simulator):
            yield sim.timeout(self.config.detection_delay)
            if node.alive:           # transient blip, nothing to do
                return
            yield from self._repair_node(node.name)
        self.sim.process(_repair(self.sim), name=f"dfs-repair:{node.name}")

    def _prefer_unbroken(self, nodes: List[str]) -> List[str]:
        """Drop breaker-open nodes, unless that would leave nothing.

        Availability beats breaker hygiene: when every candidate's
        breaker is open the unfiltered list comes back, so a read or a
        repair is never refused outright by policy.
        """
        if self.breaker is None or not nodes:
            return nodes
        ok = [n for n in nodes
              if self.breaker.state(n, self.sim.now) != "open"]
        return ok if ok else nodes

    def _repair_node(self, dead: str):
        """Re-protect every block that lost a piece on ``dead``."""
        affected = [b for b in self._blocks.values()
                    if dead in b.locations.values()]
        for block in affected:
            slots = [idx for idx, n in block.locations.items() if n == dead]
            for idx in slots:
                yield from self._repair_piece(block, idx)

    def _retry_stalled(self):
        """Retry every stalled repair, in order (after a node recovers).

        A slot that is live again (its node came back) needs nothing.
        """
        pending = sorted(self._stalled)
        self._stalled.clear()
        for bid, slot in pending:
            block = self._blocks[bid]
            node = block.locations.get(slot)
            if node is None or not self.cluster.nodes[node].alive:
                yield from self._repair_piece(block, slot)

    def _repair_session(self, block: BlockInfo, slot: int) -> RetrySession:
        """Per-repair retry state under the configured (or default) policy."""
        return (self._repair_retry or RetryPolicy()).session(
            key=f"repair:b{block.block_id}s{slot}", job="dfs-repair",
            stage=block.block_id)

    def _repair_failed(self, session: RetrySession, op: str,
                       reason: str) -> float:
        """Record one failed repair attempt; returns the backoff delay.

        Returns a negative value when the attempt bound is exhausted and
        the repair must be abandoned.  Repairs run in detached watcher
        processes, so exhaustion is recorded (counter + trace) rather
        than raised — the block stays under-protected and surfaces on
        the next read.
        """
        self.repairs_failed += 1
        try:
            return session.record_failure(op, reason, self.sim.now)
        except RetryBudgetExhaustedError:
            self.repairs_abandoned += 1
            tr = obs_trace.get_tracer()
            if tr is not None:
                tr.instant("repair_abandoned", self.sim.now,
                           lane=("dfs", "repair"), cat="resilience", op=op,
                           attempts=len(session.history))
            return -1.0

    def _begin_repair_span(self, block: BlockInfo, slot: int,
                           target: str):
        tr = obs_trace.get_tracer()
        if tr is None:
            return None
        return tr.begin("repair", self.sim.now, lane=("dfs", "repair"),
                        cat="dfs", block_id=block.block_id, slot=slot,
                        target=target)

    def _end_repair_span(self, span, outcome: str) -> None:
        tr = obs_trace.get_tracer()
        if tr is not None and span is not None:
            tr.end(span, self.sim.now, outcome=outcome)

    def _repair_piece(self, block: BlockInfo, slot: int):
        """Re-protect ``slot`` of ``block`` on a new node: the one repair path.

        A replica is copied from the live replica closest to the target;
        a fragment is rebuilt from the lowest k live fragments and freshly
        sealed.  Sources are verified before any bytes move, and a rotten
        one is quarantined and the pass retried (costing no attempt), so
        a corrupt copy is never cloned.  The target can die while the
        piece is in flight; its fail event fired before
        ``block.locations`` named it, so no watcher would re-protect the
        slot: the location is committed only once the target proves alive
        after the write, otherwise a fresh target is drawn, with the
        retry session bounding the deaths and setting the backoff.  A
        repair that finds too few live sources or no target is stalled
        (counted) and retried when a node recovers.
        """
        self.repairs_started += 1
        session = self._repair_session(block, slot)
        op = f"repair:b{block.block_id}s{slot}"
        replicate = block.mode == "replicate"
        need = 1 if replicate else self.codec.k
        size = self._piece_size(block)
        while True:
            live = {s: n for s, n in block.locations.items()
                    if s != slot and self.cluster.nodes[n].alive}
            exclude = set(block.nodes())
            candidates = [n.name for n in self.cluster.live_nodes()
                          if n.name not in exclude]
            if len(live) < need or not candidates:
                self._stalled.add((block.block_id, slot))
                self.repairs_stalled += 1
                return
            target = str(self.rng.choice(self._prefer_unbroken(candidates)))
            span = self._begin_repair_span(block, slot, target)
            if replicate:
                src = self._closest(
                    target, self._prefer_unbroken(list(live.values())))
                sources = [self._slot_of(block, src)]
            else:
                sources = sorted(live)[:need]
            if not self._pieces_clean(block, sources):
                self._end_repair_span(span, "source_corrupt")
                continue
            # a replica streams read → transfer; fragments are read and
            # shipped in parallel (each sequence fixes simulated time)
            if replicate:
                yield self.cluster.nodes[src].disk_read(size)
                yield self.cluster.transfer(src, target, size)
            else:
                yield self.sim.all_of([
                    ev for i in sources for ev in (
                        self.cluster.nodes[live[i]].disk_read(size),
                        self.cluster.transfer(live[i], target, size))])
            yield self.cluster.nodes[target].disk_write(size)
            self.repair_bytes += size * need
            if not self.cluster.nodes[target].alive:
                self._end_repair_span(span, "target_lost")
                delay = self._repair_failed(session, op, "target_lost")
                if delay < 0:
                    return   # policy exhausted: abandoned, typed + counted
                if delay > 0:
                    yield self.sim.timeout(delay)
                continue
            self._discard_piece(block, slot)
            if replicate:
                self._copy_piece(block.block_id, sources[0], slot)
            else:
                frags = {i: self._content[(block.block_id, i)]
                         for i in sources
                         if (block.block_id, i) in self._content}
                if len(frags) >= need:
                    orig_len = self._block_data_len.get(block.block_id,
                                                        block.size)
                    self._store_piece(
                        block.block_id, slot,
                        self.codec.reconstruct_fragment(frags, slot,
                                                        orig_len))
            block.locations[slot] = target
            if self.breaker is not None:
                self.breaker.record_success(target, self.sim.now)
            self._end_repair_span(span, "ok")
            return

    # ------------------------------------------------------------ queries

    def _file(self, path: str) -> FileInfo:
        try:
            return self.files[path]
        except KeyError:
            raise BlockNotFoundError(f"no such file {path!r}")

    def locations(self, path: str) -> List[List[str]]:
        """Per-block lists of nodes holding pieces of ``path``."""
        return [b.nodes() for b in self._file(path).blocks]

    def blocks_of(self, path: str) -> List[BlockInfo]:
        """Block metadata for ``path``."""
        return list(self._file(path).blocks)

    def balance(self, threshold: float = 0.1) -> "Event":
        """Rebalance block placement across live nodes (HDFS balancer).

        Computes each node's stored bytes; while the spread between the
        fullest and emptiest node exceeds ``threshold`` x mean, moves one
        block replica from the fullest to the emptiest node that does not
        already hold a piece of that block.  Every move is charged as a
        disk read + network transfer + disk write.  The returned event
        fires with the number of replicas moved.
        """
        done = self.sim.event()

        def _proc(sim: Simulator):
            moves = 0
            for _round in range(10_000):
                usage = self.node_usage()
                if len(usage) < 2:
                    break
                mean = sum(usage.values()) / len(usage)
                if mean <= 0:
                    break
                fullest = max(usage, key=lambda n: (usage[n], n))
                emptiest = min(usage, key=lambda n: (usage[n], n))
                if usage[fullest] - usage[emptiest] <= threshold * mean:
                    break
                moved = False
                for block in self._blocks.values():
                    holders = set(block.nodes())
                    if fullest in holders and emptiest not in holders:
                        size = self._piece_size(block)
                        if usage[fullest] - size < usage[emptiest] + size \
                                - threshold * mean:
                            continue   # this move would overshoot
                        slot = next(i for i, n in block.locations.items()
                                    if n == fullest)
                        yield self.cluster.nodes[fullest].disk_read(size)
                        yield self.cluster.transfer(fullest, emptiest, size)
                        yield self.cluster.nodes[emptiest].disk_write(size)
                        block.locations[slot] = emptiest
                        moves += 1
                        moved = True
                        break
                if not moved:
                    break
            done.succeed(moves)
        self.sim.process(_proc(self.sim), name="dfs-balancer")
        return done

    def node_usage(self) -> Dict[str, float]:
        """Bytes stored per live node (balancer metric)."""
        usage = {n.name: 0.0 for n in self.cluster.live_nodes()}
        for b in self._blocks.values():
            size = self._piece_size(b)
            for node in b.locations.values():
                if node in usage:
                    usage[node] += size
        return usage

    def stored_bytes(self) -> float:
        """Total bytes currently stored across all replicas/fragments."""
        return sum(self._piece_size(b) * len(b.locations)
                   for b in self._blocks.values())
