"""The comparison tool suite: working re-implementations of the Valgrind
tools the paper benchmarks against, all consuming the same VM event
stream, plus the measurement harness behind Table 1 and Figure 16."""

from repro.tools.aprof import AprofTool
from repro.tools.aprof_drms import AprofDrmsTool
from repro.tools.base import AnalysisTool
from repro.tools.callgrind import Callgrind
from repro.tools.helgrind import Helgrind, VectorClock
from repro.tools.memcheck import Memcheck
from repro.tools.nulgrind import Nulgrind
from repro.tools.runner import (
    DEFAULT_ENGINE,
    DEFAULT_TOOLS,
    ENGINES,
    Degradation,
    ToolMeasurement,
    WorkloadMeasurement,
    geometric_mean,
    measure_workload,
    publish_measurement,
    record_trace,
    replay_tool,
    suite_summary,
)

__all__ = [
    "AnalysisTool",
    "Nulgrind",
    "Memcheck",
    "Callgrind",
    "Helgrind",
    "VectorClock",
    "AprofTool",
    "AprofDrmsTool",
    "DEFAULT_ENGINE",
    "DEFAULT_TOOLS",
    "ENGINES",
    "Degradation",
    "ToolMeasurement",
    "WorkloadMeasurement",
    "record_trace",
    "replay_tool",
    "measure_workload",
    "publish_measurement",
    "geometric_mean",
    "suite_summary",
]
