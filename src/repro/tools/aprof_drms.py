"""aprof-drms: the paper's tool, packaged for the comparison harness.

Wraps :class:`repro.core.timestamping.DrmsProfiler` (the full Figure 8/9
algorithm).  Relative to plain aprof it additionally maintains the
global write-timestamp shadow memory and the write-source map, so it
pays roughly the paper's reported ~29% extra time over aprof and a
larger space footprint — both visible in the Table 1 harness.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.events import Event, EventBatch
from repro.core.policy import FULL_POLICY, InputPolicy
from repro.core.timestamping import DrmsProfiler
from repro.tools.base import AnalysisTool

__all__ = ["AprofDrmsTool"]


class AprofDrmsTool(AnalysisTool):
    name = "aprof-drms"
    supports_superops = True
    partition_kind = "drms"

    def __init__(
        self,
        policy: InputPolicy = FULL_POLICY,
        counter_limit: Optional[int] = None,
    ) -> None:
        self.engine = DrmsProfiler(
            policy=policy, counter_limit=counter_limit, keep_activations=False
        )

    def consume(self, event: Event) -> None:
        self.engine.consume(event)

    def consume_batch(self, batch: EventBatch) -> None:
        self.engine.consume_columnar(batch)

    def finish(self) -> Dict[str, Any]:
        profiles = self.engine.profiles
        return {
            "routines": len(profiles.by_routine()),
            "profiles": profiles,
            "read_counters": self.engine.read_counters,
        }

    def space_cells(self) -> int:
        return self.engine.space_cells()
