"""Figure 16 — time and space overhead vs number of threads (SPEC OMP).

The paper sweeps 1-8 OpenMP threads: because Valgrind serialises guest
threads, *slowdown grows with the thread count for every tool* (an
infrastructure property, not a tool property), while space overhead
grows only modestly — and aprof-drms stays below helgrind throughout.
Our VM serialises threads the same way, so the same trends emerge.
As in Table 1, every tool replays on ``engine="scalar"``, one
per-event substrate for all of them (DESIGN §2).
"""

from _support import print_banner
from repro.tools import geometric_mean, measure_workload
from repro.workloads.registry import suite

THREAD_COUNTS = (1, 2, 4, 8)
SPEC_SUBSET = ("md", "nab", "swim", "ilbdc")
TOOLS = ("nulgrind", "memcheck", "helgrind", "aprof", "aprof-drms")


def measure_at(threads):
    workloads = {w.name: w for w in suite("specomp")}
    per_tool_slowdown = {tool: [] for tool in TOOLS}
    per_tool_space = {tool: [] for tool in TOOLS}
    switches = []
    for name in SPEC_SUBSET:
        workload = workloads[name]
        measurement = measure_workload(
            name,
            lambda w=workload, t=threads: w.build(threads=t, scale=3),
            repeats=3,
            engine="scalar",
        )
        for tool in TOOLS:
            per_tool_slowdown[tool].append(measurement.tools[tool].slowdown)
            per_tool_space[tool].append(measurement.tools[tool].space_overhead)
    return (
        {tool: geometric_mean(v) for tool, v in per_tool_slowdown.items()},
        {tool: geometric_mean(v) for tool, v in per_tool_space.items()},
    )


def test_fig16_overhead_vs_threads(benchmark):
    results = benchmark.pedantic(
        lambda: {t: measure_at(t) for t in THREAD_COUNTS},
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 16: overhead as a function of the number of threads")
    print("(a) slowdown:")
    print(f"{'threads':>8} " + " ".join(f"{t:>10}" for t in TOOLS))
    for threads in THREAD_COUNTS:
        slowdown, _ = results[threads]
        print(
            f"{threads:>8} "
            + " ".join(f"{slowdown[t]:>10.2f}" for t in TOOLS)
        )
    print("(b) space overhead:")
    print(f"{'threads':>8} " + " ".join(f"{t:>10}" for t in TOOLS))
    for threads in THREAD_COUNTS:
        _, space = results[threads]
        print(f"{threads:>8} " + " ".join(f"{space[t]:>10.2f}" for t in TOOLS))

    # (a) serialisation: per-tool work grows with threads, so the
    # profilers' slowdown at 8 threads exceeds their 1-thread slowdown
    for tool in ("aprof", "aprof-drms", "helgrind"):
        assert (
            results[8][0][tool] > results[1][0][tool] * 0.9
        ), f"{tool} slowdown should not shrink with threads"
    # aprof-drms stays costlier than aprof overall (individual thread
    # counts are wall-clock measurements and can jitter)
    drms_mean = geometric_mean(
        [results[t][0]["aprof-drms"] for t in THREAD_COUNTS]
    )
    aprof_mean = geometric_mean([results[t][0]["aprof"] for t in THREAD_COUNTS])
    assert drms_mean > aprof_mean
    # (b) aprof-drms remains smaller than helgrind once threads multiply
    for threads in THREAD_COUNTS:
        _slowdown, space = results[threads]
        if threads >= 2:
            assert space["aprof-drms"] < space["helgrind"]
    # space grows only modestly with the thread count (paper: "a modest
    # growth"): well under proportionality to the 8x thread increase
    drms_space_1 = results[1][1]["aprof-drms"]
    drms_space_8 = results[8][1]["aprof-drms"]
    assert drms_space_8 < 4.0 * drms_space_1
    assert drms_space_8 >= drms_space_1 * 0.9
