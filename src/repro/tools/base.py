"""Analysis-tool interface.

Table 1 of the paper compares aprof-drms against four reference Valgrind
tools (nulgrind, memcheck, callgrind, helgrind) and against plain aprof.
"Although the considered tools solve different analysis problems, all of
them share the same instrumentation infrastructure provided by
Valgrind" — here, the same role is played by the VM's event stream: every
tool is an :class:`AnalysisTool` consuming the same events, attached to
the machine as its sink, so measured slowdowns compare per-event analysis
work over identical instrumentation, exactly the comparison the paper
makes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.events import Event, EventBatch

__all__ = ["AnalysisTool"]


class AnalysisTool:
    """Base class for event-stream analysis tools."""

    #: short tool name used in reports ("memcheck", "aprof-drms", ...)
    name = "tool"

    #: profiler kind for intra-trace partitioned replay (``"rms"`` or
    #: ``"drms"``; see :mod:`repro.tools.partition`).  ``None`` means the
    #: tool has no exact shard merge and always replays its trace whole.
    partition_kind: Optional[str] = None

    #: whether :meth:`consume_batch` understands the run superops of
    #: :func:`repro.core.events.fuse_batch`.  The columnar engine only
    #: hands *fused* batches to tools that set this; everything else
    #: keeps receiving plain opcode batches, so specialised
    #: ``consume_batch`` loops never meet an opcode they don't know.
    supports_superops = False

    def consume(self, event: Event) -> None:
        """Process one trace event (hot path)."""
        raise NotImplementedError

    def consume_batch(self, batch: EventBatch) -> None:
        """Process an opcode-encoded event batch.

        The default decodes each opcode back into a dataclass event and
        feeds :meth:`consume`, so any tool is batch-capable; the tools of
        the Table 1 harness override this with integer-opcode dispatch
        loops that never materialise event objects.  Overrides must be
        state-equivalent to the default (property-tested).  This is the
        tool's one fast entry point: fused batches reach it only when
        :attr:`supports_superops` is set (the generic decode loop would
        cope anyway — ``iter_events`` expands superops).
        """
        consume = self.consume
        for event in batch.iter_events():
            consume(event)

    def finish(self) -> Dict[str, Any]:
        """End-of-run hook; returns the tool's findings summary."""
        return {}

    def space_cells(self) -> int:
        """Cells of shadow state currently held (space-overhead metric)."""
        return 0
