"""aprof: the rms-based input-sensitive profiler, as an analysis tool.

This is the baseline the paper extends: the PLDI'12 profiler computing
the read memory size of every routine activation.  It wraps
:class:`repro.core.rms.RmsProfiler` — thread-local shadow memories and
shadow stacks only, no global write-timestamp map, which is why its
space footprint undercuts aprof-drms in Table 1.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.events import Event, EventBatch
from repro.core.rms import RmsProfiler
from repro.tools.base import AnalysisTool

__all__ = ["AprofTool"]


class AprofTool(AnalysisTool):
    name = "aprof"
    supports_superops = True
    partition_kind = "rms"

    def __init__(self) -> None:
        self.engine = RmsProfiler(keep_activations=False)

    def consume(self, event: Event) -> None:
        self.engine.consume(event)

    def consume_batch(self, batch: EventBatch) -> None:
        self.engine.consume_columnar(batch)

    def finish(self) -> Dict[str, Any]:
        profiles = self.engine.profiles
        return {
            "routines": len(profiles.by_routine()),
            "profiles": profiles,
        }

    def space_cells(self) -> int:
        return self.engine.space_cells()
