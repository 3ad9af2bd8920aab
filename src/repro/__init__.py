"""repro — an HPBDC laboratory: big-data & cloud computing, simulated end to end.

The package provides (bottom-up):

* :mod:`repro.simcore`   — deterministic discrete-event simulation kernel
* :mod:`repro.net`       — datacenter topologies + max-min fair flow simulation
* :mod:`repro.cluster`   — machines, racks, fluid resources, node fail/recover
* :mod:`repro.storage`   — HDFS-like DFS, Reed–Solomon EC, cache policies
* :mod:`repro.dataflow`  — RDD-style lazy plans; local and simulated engines
* :mod:`repro.scheduler` — FIFO/Fair/Capacity/SRPT/DRF cluster scheduling
* :mod:`repro.cloud`     — VM placement, live migration, autoscaling, spot
* :mod:`repro.streaming` — windows, watermarks, micro-batch engine
* :mod:`repro.graph`     — graph generators + direct & dataflow algorithms
* :mod:`repro.ml`        — SGD kernels and distributed-training simulation
* :mod:`repro.workloads` — deterministic workload generators
* :mod:`repro.resilience` — deadlines, retry budgets, breakers, hedging, admission
* :mod:`repro.chaos`     — cross-layer fault plans + recovery-equivalence oracles
* :mod:`repro.serve`     — multi-tenant serving gateway composing the full stack
* :mod:`repro.bench`     — the experiment harness used by ``benchmarks/``

Quickstart::

    from repro.dataflow import DataflowContext

    ctx = DataflowContext()
    counts = (ctx.parallelize(["a b", "b c"])
                 .flat_map(str.split)
                 .map(lambda w: (w, 1))
                 .reduce_by_key(lambda a, b: a + b)
                 .collect())
"""

__version__ = "1.0.0"

import importlib

__all__ = [
    "common", "simcore", "net", "cluster", "storage", "dataflow",
    "scheduler", "cloud", "streaming", "graph", "ml", "workloads", "bench",
    "sql", "chaos", "resilience", "serve",
    "__version__",
]


def __getattr__(name: str):
    """Import a subpackage on first use (PEP 562), so that importing one
    layer does not pull in every other."""
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
