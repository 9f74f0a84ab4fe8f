"""Host speed probe: how fast the host runs a fixed piece of work right now.

The reference host is a 2-vCPU VM on a shared machine.  Its speed
drifts in episodes that last minutes -- CPU time stolen by the
hypervisor, and neighbours contending for caches and memory -- and a
run that falls in one is 20-100% slower from start to end.  Whole runs
move together, so no run length or median inside a run removes it.

So the benchmark probes the host between its rounds.  For a fixed
window of wall time, ``width`` helper processes of its own (forked
before the program starts anything) each run a fixed unit of work as
many times as they can; the mean rate is how fast the host runs a
process of the benchmark right now, the way it runs a replay on
``width`` CPUs.  The helpers never run program code and the benchmark
process only waits while they probe.  ``slowdown(rates)`` is the
reference rate ``REF_UNITS_PER_S`` divided by the median of some probe
rates; the benchmark divides each round's timings by the slowdown of
the probes around it, so they read as seconds on the quiet reference
host.  The report line keeps the raw figures and the run's median
slowdown next to them.

One coupling is left: program work that goes on after an op returns
(page-cache writeback, say) can slow the probe and make the program
look faster.  The raw figures in the report line show it.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

#: units per second of one helper on the quiet 2-vCPU reference VM
#: (Intel Xeon, KVM, Python 3.11): the speed the normalised timings
#: are expressed at
REF_UNITS_PER_S = 25000.0
#: the window of one probe
WINDOW_S = 0.1
#: one probe per this much round wall
PROBE_EVERY_S = 1.0
_SPAN = 1 << 12


def _unit(n: int = 200) -> int:
    """Dict updates, list and integer work: the interpreter paths the
    replay kernels spend their time in."""
    table = {}
    acc = 0
    items = []
    for i in range(n):
        key = (i * 2654435761) & (_SPAN - 1)
        table[key] = table.get(key, 0) + i
        acc ^= key
        items.append(key)
    items.sort()
    return acc + len(table) + items[n // 2]


def _rate() -> float:
    start = now = time.perf_counter()
    units = 0
    while now - start < WINDOW_S:
        _unit()
        units += 1
        now = time.perf_counter()
    return units / (now - start)


def _serve(conn) -> None:
    while conn.recv():
        conn.send(_rate())


class SpeedProbe:
    def __init__(self, width: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conns, self._procs = [], []
        for _ in range(max(width, 1)):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self._conns.append(ours)
            self._procs.append(proc)
        self.samples = []
        self._debt = 0.0
        self.sample()  # first touch of the helpers and the loop

    def sample(self) -> float:
        """One probe: the helpers' mean rate, units per second."""
        for conn in self._conns:
            conn.send(1)
        rate = statistics.fmean(conn.recv() for conn in self._conns)
        self.samples.append(rate)
        return rate

    def after_round(self, wall: float) -> None:
        """Probe about once per ``PROBE_EVERY_S`` of round wall."""
        self._debt += wall
        while self._debt >= PROBE_EVERY_S:
            self._debt -= PROBE_EVERY_S
            self.sample()

    @staticmethod
    def slowdown(rates) -> float:
        return REF_UNITS_PER_S / statistics.median(rates)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(0)
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._conns, self._procs = [], []
