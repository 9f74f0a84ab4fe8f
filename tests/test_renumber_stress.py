"""Renumbering stress: every Figure 16 kernel profiled with an absurdly
small ``counter_limit`` must produce profiles identical to the
unconstrained run.

``counter_limit=64`` forces the timestamp-compaction pass to fire
hundreds of times per trace — orders of magnitude more often than the
32-bit overflow it models — so any drift between renumbered and plain
timestamps shows up as a profile difference immediately.
"""

import pytest

from repro.core import profile_events
from repro.vm import FaultPlan, Machine
from repro.workloads.kernels import (
    fork_join_kernel,
    montecarlo_kernel,
    pipeline_io_kernel,
    stencil_kernel,
    wavefront_kernel,
)

KERNELS = [
    ("fork_join", lambda m: fork_join_kernel(m, "fj", workers=3, rounds=3)),
    ("wavefront", lambda m: wavefront_kernel(m, "wf", workers=3, size=8)),
    ("pipeline_io", lambda m: pipeline_io_kernel(m, "pipe", items=8)),
    ("montecarlo", lambda m: montecarlo_kernel(m, "mc", workers=3, trials=8)),
    ("stencil", lambda m: stencil_kernel(m, "st", workers=3, iterations=3)),
]


def kernel_trace(build, faults=None):
    machine = Machine(faults=faults)
    build(machine)
    machine.run()
    return machine.trace


@pytest.mark.parametrize("name,build", KERNELS, ids=[k[0] for k in KERNELS])
def test_renumbering_preserves_profiles(name, build):
    trace = kernel_trace(build)
    plain = profile_events(trace)
    squeezed = profile_events(trace, counter_limit=64)
    assert plain.profiles.activations == squeezed.profiles.activations
    assert len(trace) > 64, "trace must actually overflow the counter"


@pytest.mark.parametrize("name,build", KERNELS, ids=[k[0] for k in KERNELS])
def test_renumbering_preserves_profiles_under_faults(name, build):
    """Renumbering composes with fault unwinding: a trace containing
    synthetic abort returns still profiles identically when compacted."""
    trace = kernel_trace(
        build,
        faults=FaultPlan(
            seed=17,
            syscall_error_rate=0.1,
            short_io_rate=0.0,
            io_delay_rate=0.1,
            thread_kill_rate=0.01,
            sched_perturb_rate=0.1,
        ),
    )
    plain = profile_events(trace)
    squeezed = profile_events(trace, counter_limit=64)
    assert plain.profiles.activations == squeezed.profiles.activations


# Kernel sizes whose activation/switch counter genuinely exceeds 64, so
# ``counter_limit=64`` must fire (montecarlo is omitted: its workers run
# one long activation each, so its counter never reaches a realistic
# limit no matter how many trials run).
OVERFLOWING_KERNELS = [
    ("fork_join", lambda m: fork_join_kernel(m, "fj", workers=4, rounds=6)),
    ("wavefront", lambda m: wavefront_kernel(m, "wf", workers=3, size=8)),
    ("pipeline_io", lambda m: pipeline_io_kernel(m, "pipe", items=8)),
    ("stencil", lambda m: stencil_kernel(m, "st", workers=4, iterations=8)),
]


@pytest.mark.parametrize(
    "name,build",
    OVERFLOWING_KERNELS,
    ids=[k[0] for k in OVERFLOWING_KERNELS],
)
def test_stats_snapshot_reports_renumbering(name, build):
    """``Machine.stats_snapshot()`` must surface the compaction activity:
    each of these kernels overflows ``counter_limit=64`` at least once,
    and the renumbering telemetry has to say so."""
    from repro.core.timestamping import DrmsProfiler

    machine = Machine()
    build(machine)
    registry = machine.enable_metrics()
    profiler = DrmsProfiler(
        counter_limit=64, keep_activations=False, metrics=registry
    )
    machine.set_batch_sink(profiler.consume_columnar)
    machine.run()
    profiler.publish_metrics(registry)
    snapshot = machine.stats_snapshot()
    assert snapshot["drms.renumber.passes"] >= 1
    assert snapshot["drms.renumber.before_total"] > snapshot[
        "drms.renumber.after_total"
    ]
    assert snapshot["vm.switches"] == machine.switches
