"""The benchmark's per-layer split must keep seeing the rate solver.

``perfbench/spans.py`` times the flow model's solver by wrapping the
module-level name ``repro.net.netsim.allocate_rates``.  If the call site
were renamed, ``net.rate_solve`` would silently read zero and its time
would land in ``net``.  One traced ``shuffle_sort`` job guards that.
"""

import importlib.util
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "perfbench")


def _load(name: str):
    """Import ``perfbench/<name>.py`` under a private module name."""
    mod_name = f"_perfbench_{name}"
    if mod_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            mod_name, os.path.join(PERFBENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[mod_name] = module
        spec.loader.exec_module(module)
    return sys.modules[mod_name]


def test_traced_shuffle_sort_times_the_rate_solver():
    spans, jobs = _load("spans"), _load("jobs")
    workload = jobs.WORKLOADS["shuffle_sort"]
    inputs = workload.setup(1)
    tracer = spans.LayerTracer()
    sims = []

    def on_sim(sim):
        sims.append(sim)
        sim.attach_observer(tracer)

    try:
        with tracer.patched(), tracer.job(0):
            out = workload.run(inputs, on_sim)
    finally:
        for sim in sims:
            sim.detach_observer()
    assert workload.check(inputs, out) == []
    assert tracer.rate_solves > 0
    by_job, _ = spans.self_times(tracer.spans())
    assert by_job[0]["net.rate_solve"] > 0
