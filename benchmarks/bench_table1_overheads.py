"""Table 1 — slowdown and space overhead of the six tools on both suites.

Regenerates the paper's comparison: geometric-mean slowdown (tool time
over native time) and space overhead for nulgrind, memcheck, callgrind,
helgrind, aprof and aprof-drms over the SPEC OMP2012 and PARSEC 2.1
models.  Absolute factors are not comparable to the paper's native-vs-
Valgrind numbers (our "native" is already an interpreter); the asserted
shape is the paper's ordering:

* nulgrind is the floor; callgrind and memcheck stay light;
* recognising induced first-reads costs extra: aprof-drms is slower
  than aprof (paper: +29%) and than memcheck (paper: memcheck 1.5x
  faster);
* helgrind is the slowest tool and uses the most memory;
* aprof uses less space than aprof-drms (no global shadow memory).

All six tools replay on ``engine="scalar"``: each consumes the same
per-event stream, as Valgrind's tools share one instrumentation
substrate (DESIGN §2).  On the default engine aprof and aprof-drms
replay fused rows through the columnar kernels while the other four
replay expanded events, so the table would compare replay engines as
much as tools.
"""

from _support import print_banner
from repro.tools import measure_workload, suite_summary
from repro.workloads.registry import suite

SPEC_SUBSET = ("md", "nab", "smithwa", "kdtree", "swim", "ilbdc", "botsalgn")
PARSEC_SUBSET = (
    "blackscholes",
    "bodytrack",
    "dedup",
    "fluidanimate",
    "swaptions",
    "vips",
    "x264",
)
TOOL_ORDER = (
    "nulgrind",
    "memcheck",
    "callgrind",
    "helgrind",
    "aprof",
    "aprof-drms",
)


def measure_suite(names):
    measurements = []
    for name in names:
        workload = [w for w in suite_all() if w.name == name][0]
        measurements.append(
            measure_workload(
                name,
                lambda w=workload: w.build(threads=4, scale=3),
                repeats=3,
                engine="scalar",
            )
        )
    return suite_summary(measurements)


def suite_all():
    return suite("parsec") + suite("specomp") + suite("apps")


def test_table1_tool_overheads(benchmark):
    summaries = benchmark.pedantic(
        lambda: {
            "SPEC OMP2012": measure_suite(SPEC_SUBSET),
            "PARSEC 2.1": measure_suite(PARSEC_SUBSET),
        },
        rounds=1,
        iterations=1,
    )
    print_banner("Table 1: slowdown and space overhead (geometric means)")
    header = f"{'suite':>14} " + " ".join(f"{t:>10}" for t in TOOL_ORDER)
    print("slowdown (x):")
    print(header)
    for suite_name, summary in summaries.items():
        row = " ".join(f"{summary[t]['slowdown']:>10.2f}" for t in TOOL_ORDER)
        print(f"{suite_name:>14} {row}")
    print("space overhead (x):")
    print(header)
    for suite_name, summary in summaries.items():
        row = " ".join(
            f"{summary[t]['space_overhead']:>10.2f}" for t in TOOL_ORDER
        )
        print(f"{suite_name:>14} {row}")

    for suite_name, summary in summaries.items():
        slowdown = {t: summary[t]["slowdown"] for t in TOOL_ORDER}
        space = {t: summary[t]["space_overhead"] for t in TOOL_ORDER}
        # nulgrind is the floor
        assert slowdown["nulgrind"] == min(slowdown.values()), suite_name
        # recognising induced first-reads costs time over plain aprof...
        assert slowdown["aprof-drms"] > slowdown["aprof"], suite_name
        # ...but within ~2x (the paper reports ~29%)
        assert slowdown["aprof-drms"] < 2.0 * slowdown["aprof"], suite_name
        # memcheck is faster than aprof-drms (no call/return tracing)
        assert slowdown["memcheck"] < slowdown["aprof-drms"], suite_name
        # helgrind is the slowest of the six
        assert slowdown["helgrind"] == max(slowdown.values()), suite_name
        # space: aprof < aprof-drms (global shadow memory) < helgrind
        assert space["aprof"] < space["aprof-drms"], suite_name
        assert space["aprof-drms"] < space["helgrind"], suite_name
        # memcheck's compact validity bits undercut the profilers
        assert space["memcheck"] < space["aprof"], suite_name
