"""Seed-deterministic fault plans — the chaos DSL.

A :class:`FaultPlan` is an immutable, time-sorted script of
:class:`FaultEvent` instances.  Plans are built either explicitly
(:meth:`FaultPlan.scripted`) or from per-kind Poisson renewal processes
(:meth:`FaultPlan.renewal`) — the exponential MTBF/MTTR model, for every
layer of the stack (cluster nodes, the dataflow engine, streaming
operators, the DFS, load-facing services).  Node churn with mean time
between failures ``mtbf`` per target and mean repair time ``mttr`` is
``renewal(seed, horizon, {"node_fail": len(targets) / mtbf},
targets=targets, mean_duration=mttr)`` fed to
:class:`~repro.chaos.adapters.ClusterChaos`.

Determinism contract: a plan is a pure function of its constructor
arguments (seed included), and adapters that need additional randomness at
injection time draw it from :meth:`FaultPlan.rng`, a per-plan, per-purpose
child stream.  Two runs driven by the same plan therefore inject the
identical fault sequence — the property the recovery-equivalence oracle
(:mod:`repro.chaos.oracle`) checks mechanically.

Fault kinds:

``node_fail``
    Kill a cluster node; ``duration`` seconds later it recovers
    (``duration`` 0 means the node stays down).
``slow_node``
    Straggler injection: scale a node's compute speed by ``magnitude``
    (< 1 is slower) for ``duration`` seconds.
``task_crash``
    Crash the next launching dataflow task attempt(s); ``magnitude`` is
    how many attempts to kill.
``operator_crash``
    Crash a stateful streaming operator at event-time ``time`` (maps to
    ``run_stateful_stream(crash_times=...)``).
``lost_shuffle``
    Silently drop ``magnitude`` registered map outputs from the engine's
    shuffle registry (disk corruption / external shuffle loss).
``lost_block``
    Silently drop one replica / EC fragment of a DFS block (bit rot,
    single-disk loss) and let repair re-protect it.
``load_burst``
    Multiply offered load by ``magnitude`` during
    ``[time, time + duration)`` (microbatch sources, autoscaler traces).
``data_corrupt``
    Silent corruption: flip bytes in stored data without any loud
    failure — a DFS replica or EC fragment, a registered shuffle
    bucket, or a streaming checkpoint snapshot, depending on which
    adapter consumes the plan.  ``magnitude`` is how many pieces to
    rot per event.  Detection relies entirely on the checksummed data
    plane (:mod:`repro.storage.integrity`); the recovery-equivalence
    oracle's ``check_integrity`` layer proves results stay
    byte-identical and every corruption is accounted for.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigError

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan"]

#: Every fault kind the DSL understands, and the layer that consumes it.
FAULT_KINDS = frozenset({
    "node_fail",        # cluster / dfs / engine
    "slow_node",        # cluster (straggler)
    "task_crash",       # dataflow engine
    "operator_crash",   # streaming checkpoint/replay
    "lost_shuffle",     # dataflow engine shuffle registry
    "lost_block",       # storage.dfs
    "load_burst",       # microbatch / autoscaler
    "data_corrupt",     # storage.dfs / engine shuffle / streaming ckpt
})

#: Default magnitudes per kind for renewal-generated events.
_DEFAULT_MAGNITUDE: Dict[str, float] = {
    "slow_node": 0.25,      # run at quarter speed
    "load_burst": 3.0,      # triple the offered load
    "task_crash": 1.0,      # one attempt
    "lost_shuffle": 1.0,    # one map output
    "data_corrupt": 1.0,    # one piece (replica/fragment/bucket/snapshot)
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` optionally names the victim (a node name); ``None`` lets
    the adapter pick deterministically.  ``duration`` and ``magnitude``
    are interpreted per kind (see module docstring).
    """

    time: float
    kind: str
    target: Optional[str] = None
    duration: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ConfigError("fault time must be >= 0")
        if self.duration < 0:
            raise ConfigError("fault duration must be >= 0")
        if self.magnitude <= 0:
            raise ConfigError("fault magnitude must be > 0")

    def key(self) -> Tuple:
        """Stable sort/identity key."""
        return (self.time, self.kind, self.target or "", self.duration,
                self.magnitude)


class FaultPlan:
    """An immutable, time-ordered fault script shared by every adapter."""

    def __init__(self, events: Iterable[FaultEvent], seed: int = 0,
                 name: str = "plan") -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=FaultEvent.key))
        self.seed = int(seed)
        self.name = name

    # -- construction -----------------------------------------------------

    @classmethod
    def scripted(cls, events: Sequence[FaultEvent], seed: int = 0,
                 name: str = "scripted") -> "FaultPlan":
        """A plan from an explicit event list."""
        return cls(events, seed=seed, name=name)

    @classmethod
    def renewal(cls, seed: int, horizon: float,
                rates: Mapping[str, float],
                targets: Sequence[str] = (),
                mean_duration: float = 10.0,
                magnitudes: Optional[Mapping[str, float]] = None,
                name: str = "renewal") -> "FaultPlan":
        """Per-kind Poisson renewal processes over ``[0, horizon)``.

        ``rates[kind]`` is the expected number of faults per second for
        that kind.  Each kind draws from its own child RNG stream, so
        adding a kind never perturbs the schedule of another (the classic
        reproducibility rule from :mod:`repro.common.rng`).  Durations are
        exponential with mean ``mean_duration``; magnitudes default per
        kind (see ``_DEFAULT_MAGNITUDE``) unless overridden.
        """
        if horizon <= 0:
            raise ConfigError("horizon must be positive")
        mags = dict(_DEFAULT_MAGNITUDE)
        if magnitudes:
            mags.update(magnitudes)
        events: List[FaultEvent] = []
        for kind in sorted(rates):
            rate = float(rates[kind])
            if kind not in FAULT_KINDS:
                raise ConfigError(f"unknown fault kind {kind!r}")
            if rate < 0:
                raise ConfigError("fault rate must be >= 0")
            if rate == 0:
                continue
            # salt by kind *name*, not enumeration index: adding a kind to
            # ``rates`` must never perturb another kind's schedule
            salt = zlib.crc32(kind.encode("utf-8"))
            rng = np.random.default_rng([int(seed), int(salt)])
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / rate))
                if t >= horizon:
                    break
                target = str(rng.choice(list(targets))) if targets else None
                dur = (float(rng.exponential(mean_duration))
                       if mean_duration > 0 else 0.0)
                events.append(FaultEvent(t, kind, target, dur,
                                         mags.get(kind, 1.0)))
        return cls(events, seed=seed, name=name)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def only(self, *kinds: str) -> "FaultPlan":
        """The sub-plan containing just the given kinds."""
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigError(f"unknown fault kind {kind!r}")
        return FaultPlan([e for e in self.events if e.kind in kinds],
                         seed=self.seed, name=self.name)

    def until(self, horizon: float) -> "FaultPlan":
        """The sub-plan of events strictly before ``horizon``."""
        return FaultPlan([e for e in self.events if e.time < horizon],
                         seed=self.seed, name=self.name)

    def kinds(self) -> List[str]:
        """Distinct kinds present, sorted."""
        return sorted({e.kind for e in self.events})

    def signature(self) -> Tuple[Tuple, ...]:
        """Hashable identity of the full schedule (trace comparisons)."""
        return tuple(e.key() for e in self.events)

    def rng(self, purpose: str) -> np.random.Generator:
        """A deterministic child RNG for ``purpose``.

        Adapters use this for injection-time choices (victim blocks, map
        outputs).  The stream depends only on (plan seed, purpose), so
        re-running the same plan reproduces the same choices.
        """
        salt = zlib.crc32(purpose.encode("utf-8"))
        return np.random.default_rng([self.seed, int(salt)])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        by_kind: Dict[str, int] = {}
        for e in self.events:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(by_kind.items()))
        return f"<FaultPlan {self.name!r} seed={self.seed} [{inner}]>"
