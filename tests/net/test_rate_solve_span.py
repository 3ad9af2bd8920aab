"""The benchmark's per-layer split must keep seeing the rate solver and
the router.

``perfbench/spans.py`` times the flow model's solver by wrapping the
module-level name ``repro.net.netsim.allocate_rates``, and routing by
wrapping ``Topology.path``.  If either entry point were renamed or
bypassed, ``net.rate_solve`` or ``net.route`` would silently read zero
and its time would land in ``net``.  One traced ``shuffle_sort`` job
guards both, and pins how many solves that job makes.
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
    # one solve per start wave and per completion instant, as before the
    # solver and the router were made cheaper
    assert tracer.rate_solves == 117
    by_job, _ = spans.self_times(tracer.spans())
    assert by_job[0]["net.rate_solve"] > 0
    assert by_job[0]["net.route"] > 0
