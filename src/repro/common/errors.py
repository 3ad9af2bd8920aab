"""Exception hierarchy shared by every ``repro`` subsystem.

All framework errors derive from :class:`ReproError` so callers can catch
one base class at API boundaries.  Subsystems raise the most specific
subclass that applies; nothing in the framework raises bare ``Exception``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "SchedulingError",
    "StorageError",
    "BlockNotFoundError",
    "InsufficientReplicasError",
    "CapacityError",
    "ChecksumError",
    "DataflowError",
    "BucketFileError",
    "PlanError",
    "UnpicklableTaskError",
    "WorkerTaskError",
    "RetryBudgetExhaustedError",
    "DeadlineExceededError",
    "TaskFailedError",
    "NetworkError",
    "RoutingError",
    "CloudError",
    "PlacementError",
    "MigrationError",
    "StreamingError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` framework."""


class ConfigError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class RetryBudgetExhaustedError(ReproError):
    """A retry policy ran out of attempts (per-op) or budget (per-job).

    Carries enough context to diagnose the failure from the exception
    alone: ``op`` is the operation that exhausted its attempts, ``job`` /
    ``stage`` locate it, ``attempts`` is the full ordered history of
    failed attempts recorded by the owning
    :class:`~repro.resilience.policy.RetrySession` (each entry exposes
    ``op`` / ``time`` / ``error`` / ``delay``), and ``budget`` is the
    per-session budget that was configured (``None`` = unlimited).
    """

    def __init__(self, message: str = "", *, op=None, job=None, stage=None,
                 attempts=(), budget=None) -> None:
        self.op = op
        self.job = job
        self.stage = stage
        self.attempts = tuple(attempts)
        self.budget = budget
        super().__init__(message or self.describe())

    def describe(self) -> str:
        """Render the failure context, attempt history included."""
        where = "/".join(str(x) for x in (self.job, self.stage, self.op)
                         if x is not None) or "?"
        head = (f"retry budget exhausted at {where} "
                f"({len(self.attempts)} failed attempts recorded"
                + (f", budget={self.budget}" if self.budget is not None
                   else "") + ")")
        lines = [f"  #{i + 1} t={getattr(a, 'time', '?')} "
                 f"op={getattr(a, 'op', '?')}: {getattr(a, 'error', a)}"
                 for i, a in enumerate(self.attempts)]
        return "\n".join([head] + lines)


class DeadlineExceededError(ReproError):
    """An operation ran past its :class:`~repro.resilience.policy.Deadline`."""

    def __init__(self, message: str = "", *, deadline=None, now=None,
                 op=None) -> None:
        self.deadline = deadline
        self.now = now
        self.op = op
        if not message:
            message = (f"deadline exceeded"
                       + (f" for {op}" if op is not None else "")
                       + (f": now={now} > deadline={deadline}"
                          if deadline is not None else ""))
        super().__init__(message)


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly (e.g. time travel)."""


class SchedulingError(ReproError):
    """A scheduler invariant was violated or a job cannot be scheduled."""


class StorageError(ReproError):
    """Base class for distributed-storage errors."""


class BlockNotFoundError(StorageError):
    """A block id does not exist in the namespace."""


class InsufficientReplicasError(StorageError):
    """Too few live replicas/fragments remain to serve or rebuild a block."""


class CapacityError(StorageError):
    """A node or cluster ran out of storage capacity."""


class ChecksumError(StorageError):
    """Stored bytes no longer match their checksum (silent corruption).

    Raised by :mod:`repro.storage.integrity` verification at *read* time,
    anywhere on the checksummed data plane — DFS replicas and EC
    fragments, shuffle bucket files, streaming checkpoint snapshots.
    Carries full provenance so recovery code (and humans) can locate the
    bad bytes without a debugger: ``layer`` names the data plane
    (``"dfs.replica"``, ``"shuffle"``, ``"checkpoint"``, ...), ``path``
    the stored object, ``offset`` the first corrupt chunk's byte offset,
    and ``expected`` / ``actual`` the checksum pair that disagreed.

    Picklable by construction (``__reduce__``): a pool worker that hits
    corruption re-raises the *typed* error driver-side, where the
    corrupt-bucket recovery path keys off these attributes.
    """

    def __init__(self, message: str = "", *, layer: str = "?",
                 path: str = "?", offset: int = -1, expected: int = 0,
                 actual: int = 0) -> None:
        self.layer = layer
        self.path = path
        self.offset = int(offset)
        self.expected = int(expected)
        self.actual = int(actual)
        super().__init__(message or
                         f"checksum mismatch in {layer} at {path}"
                         f" offset {offset}: expected {expected:#010x},"
                         f" got {actual:#010x}")

    def __reduce__(self):
        return (_rebuild_checksum_error,
                (str(self), self.layer, self.path, self.offset,
                 self.expected, self.actual))


def _rebuild_checksum_error(message, layer, path, offset, expected, actual):
    return ChecksumError(message, layer=layer, path=path, offset=offset,
                         expected=expected, actual=actual)


class DataflowError(ReproError):
    """Base class for dataflow-engine errors."""


class PlanError(DataflowError):
    """The logical plan is malformed (e.g. cycle, arity mismatch)."""


class UnpicklableTaskError(DataflowError):
    """A plan closure or payload cannot be serialized for pool dispatch.

    Raised by the multi-process backend *before* shipping work, naming
    the plan node (``dataset``) and attribute (``operator``) that failed
    so users can find the offending closure without decoding a worker
    traceback.  ``reason`` preserves the underlying serialization error.
    """

    def __init__(self, message: str = "", *, dataset=None, operator=None,
                 reason=None) -> None:
        self.dataset = dataset
        self.operator = operator
        self.reason = reason
        if not message:
            message = ("cannot serialize "
                       + (str(operator) if operator is not None else "object")
                       + (f" of {dataset}" if dataset is not None else "")
                       + " for the process-pool backend"
                       + (f": {reason}" if reason is not None else ""))
        super().__init__(message)


class BucketFileError(DataflowError):
    """A shuffle bucket file cannot serve a requested ``(offset, length)``.

    Raised by :func:`repro.dataflow.shuffleio.read_bucket_file` when a
    spill file is shorter than its offset table claims (truncation, a
    torn write) or the requested reduce id has no entry.  Before this
    type, a truncated file surfaced as an opaque ``UnpicklingError``
    with no hint of *which* file or bucket was short.
    """

    def __init__(self, message: str = "", *, path: str = "?",
                 reduce_id: int = -1, offset: int = -1, length: int = -1,
                 file_size: int = -1) -> None:
        self.path = path
        self.reduce_id = int(reduce_id)
        self.offset = int(offset)
        self.length = int(length)
        self.file_size = int(file_size)
        super().__init__(message or
                         f"bucket file {path} cannot serve reduce "
                         f"{reduce_id}: need [{offset}, {offset + length})"
                         f" of a {file_size}-byte file")

    def __reduce__(self):
        return (_rebuild_bucket_file_error,
                (str(self), self.path, self.reduce_id, self.offset,
                 self.length, self.file_size))


def _rebuild_bucket_file_error(message, path, reduce_id, offset, length,
                               file_size):
    return BucketFileError(message, path=path, reduce_id=reduce_id,
                           offset=offset, length=length,
                           file_size=file_size)


class WorkerTaskError(DataflowError):
    """A pool worker task raised an error that could not ship back as-is.

    Carries the remote traceback text; the original exception type is in
    ``remote_type``.
    """

    def __init__(self, message: str = "", *, remote_type: str = "",
                 remote_traceback: str = "") -> None:
        self.remote_type = remote_type
        self.remote_traceback = remote_traceback
        super().__init__(message or
                         f"pool worker task failed ({remote_type}):\n"
                         f"{remote_traceback}")


class TaskFailedError(DataflowError, RetryBudgetExhaustedError):
    """A task exhausted its retry budget and the job must fail.

    Doubles as the dataflow-flavoured :class:`RetryBudgetExhaustedError`:
    every job runs a :class:`~repro.resilience.RetrySession`, and the
    engine re-raises its exhaustion as this type with the session's
    ``op`` / ``job`` / ``stage`` / ``attempts`` context attached, so both
    ``except DataflowError`` call sites and resilience-aware callers see
    the error they expect.
    """


class NetworkError(ReproError):
    """Base class for network-substrate errors."""


class RoutingError(NetworkError):
    """No route exists between two endpoints."""


class CloudError(ReproError):
    """Base class for cloud-layer errors."""


class PlacementError(CloudError):
    """A VM request cannot be placed on any host."""


class MigrationError(CloudError):
    """A live migration could not start or converge."""


class StreamingError(ReproError):
    """Micro-batch streaming engine error."""
