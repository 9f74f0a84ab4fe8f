"""Zero-dependency metrics registry: counters, gauges, log-scale histograms.

The registry is the single sink every layer reports through — the VM,
the profilers, and the measurement runner all publish into one
:class:`MetricsRegistry`, and the CLI renders it as a table, JSON, or
Prometheus text exposition.  Design constraints, in order:

1. **Near-zero overhead when disabled.**  The default everywhere is
   :data:`NULL_REGISTRY`, whose instruments are no-ops and whose
   ``enabled`` flag lets hot paths skip even the no-op call.  Layers
   with per-event hot loops (the columnar kernel) never call the registry
   per event at all — they keep plain-int state and *publish* coarse
   aggregates at snapshot time, so the enabled overhead is bounded too.
2. **No dependencies.**  Pure stdlib; importable from every layer
   without cycles (this package imports nothing from ``repro``).
3. **Label support without cardinality surprises.**  An instrument is
   keyed by ``(name, sorted(labels.items()))``; flattening uses the
   Prometheus-style ``name{k="v"}`` spelling.

Histograms use log2 bucketing: value ``v`` lands in bucket
``v.bit_length()`` (so 0 → bucket 0, 1 → bucket 1, 2..3 → bucket 2,
and ``2**63 - 1`` → bucket 63).  That gives fixed 65-slot storage over
the full non-negative int range with no configuration — the right shape
for latencies and size distributions whose interesting structure is
"which power of two".
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "HISTOGRAM_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "bucket_index",
    "bucket_bounds",
    "flatten_key",
    "histogram_summaries_from_flat",
    "quantile_from_buckets",
]

#: buckets 0..64: index = value.bit_length(), capped for safety
HISTOGRAM_BUCKETS = 65

LabelItems = Tuple[Tuple[str, str], ...]


def bucket_index(value: int) -> int:
    """Log2 bucket for a non-negative int: ``value.bit_length()``.

    0 → 0, 1 → 1, 2..3 → 2, 4..7 → 3, …, ``2**63 - 1`` → 63.  Values
    wider than 64 bits all land in the last bucket rather than growing
    the table.
    """
    if value < 0:
        raise ValueError(f"histogram values must be >= 0, got {value}")
    index = value.bit_length()
    return index if index < HISTOGRAM_BUCKETS else HISTOGRAM_BUCKETS - 1


def flatten_key(name: str, labels: LabelItems) -> str:
    """``name`` or ``name{k=v,...}`` — the stable flat-dict spelling."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-set value (can go up or down; ``set`` is idempotent, which
    is what lets publish-style snapshots run repeatedly without
    double-counting)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def max(self, value) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-width log2-bucket histogram over non-negative ints."""

    __slots__ = ("name", "labels", "buckets", "count", "sum")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.buckets = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.sum = 0

    def observe(self, value: int) -> None:
        self.buckets[bucket_index(value)] += 1
        self.count += 1
        self.sum += value

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """``[(bucket_index, count), ...]`` for populated buckets."""
        return [(i, n) for i, n in enumerate(self.buckets) if n]

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0..1) from the log2 buckets."""
        return quantile_from_buckets(self.nonzero_buckets(), self.count, q)

    def quantiles(self, qs=(0.5, 0.9, 0.99)) -> List[float]:
        buckets = self.nonzero_buckets()
        return [quantile_from_buckets(buckets, self.count, q) for q in qs]


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Inclusive ``[lo, hi]`` value range covered by a log2 bucket."""
    if index <= 0:
        return (0, 0)
    return (2 ** (index - 1), 2**index - 1)


def quantile_from_buckets(
    nonzero: List[Tuple[int, int]], count: int, q: float
) -> float:
    """q-quantile estimated from ``[(bucket_index, count), ...]``.

    Walks the cumulative distribution and interpolates linearly within
    the chosen bucket's value range — the standard Prometheus-style
    histogram_quantile estimate, specialised to the log2 layout where
    bucket ``i`` covers ``[2^(i-1), 2^i - 1]`` (bucket 0 is exactly 0).
    """
    if count <= 0 or not nonzero:
        return 0.0
    q = min(max(q, 0.0), 1.0)
    target = q * count
    cumulative = 0
    for index, n in nonzero:
        previous = cumulative
        cumulative += n
        if cumulative >= target:
            lo, hi = bucket_bounds(index)
            if n == 0 or hi == lo:
                return float(lo)
            fraction = (target - previous) / n
            return lo + fraction * (hi - lo)
    lo, hi = bucket_bounds(nonzero[-1][0])
    return float(hi)


def histogram_summaries_from_flat(
    metrics: Mapping[str, object], qs=(0.5, 0.9, 0.99)
) -> Dict[str, Dict[str, float]]:
    """Reconstruct per-histogram quantile summaries from ``as_dict()``.

    Given the flat ``{"name{k=v}": value}`` mapping (as served by
    ``/metrics.json`` or written by ``repro stats --json``), groups the
    ``name_bucket{...,le=2^i}`` keys back into histograms and returns
    ``{base_key: {"count": .., "sum": .., "p50": .., ...}}`` where
    ``base_key`` is the histogram's flat name with labels.
    """
    buckets: Dict[Tuple[str, LabelItems], List[Tuple[int, int]]] = {}
    counts: Dict[str, int] = {}
    sums: Dict[str, object] = {}
    for key, value in metrics.items():
        name, labels = _parse_flat_key(key)
        if name.endswith("_count"):
            counts[flatten_key(name[: -len("_count")], labels)] = int(value)
        elif name.endswith("_sum"):
            sums[flatten_key(name[: -len("_sum")], labels)] = value
        elif name.endswith("_bucket"):
            le = dict(labels).get("le", "")
            if not le.startswith("2^"):
                continue
            base_labels = tuple(kv for kv in labels if kv[0] != "le")
            buckets.setdefault(
                (name[: -len("_bucket")], base_labels), []
            ).append((int(le[2:]), int(value)))
    out: Dict[str, Dict[str, float]] = {}
    for (name, labels), pairs in buckets.items():
        base = flatten_key(name, labels)
        count = counts.get(base, sum(n for _, n in pairs))
        pairs.sort()
        summary: Dict[str, float] = {
            "count": count,
            "sum": sums.get(base, 0),
        }
        for q in qs:
            summary[f"p{int(q * 100)}"] = quantile_from_buckets(
                pairs, count, q
            )
        out[base] = summary
    return out


def _parse_flat_key(key: str) -> Tuple[str, LabelItems]:
    """Invert :func:`flatten_key`: ``name{k=v,...}`` → (name, labels)."""
    if not key.endswith("}") or "{" not in key:
        return key, ()
    name, _, inner = key[:-1].partition("{")
    labels = []
    for part in inner.split(","):
        k, _, v = part.partition("=")
        labels.append((k, v))
    return name, tuple(labels)


def _label_items(labels: Optional[Mapping[str, object]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Keyed store of instruments; get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the live instrument, so
    hot-ish call sites can hoist the lookup out of their loop and pay
    only an attribute call per update.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    # -- instrument access ------------------------------------------------

    def counter(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Counter:
        key = (name, _label_items(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(*key)
        return inst

    def gauge(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Gauge:
        key = (name, _label_items(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(*key)
        return inst

    def histogram(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Histogram:
        key = (name, _label_items(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(*key)
        return inst

    # -- iteration / export -----------------------------------------------

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def as_dict(self) -> Dict[str, object]:
        """Flatten to ``{"name{k=v}": value}``, sorted by key.

        Counters and gauges map to their value; a histogram ``h`` maps
        to ``h.count`` under ``name_count``, ``h.sum`` under
        ``name_sum``, and its populated buckets under
        ``name_bucket{le=2^i}`` keys.  Pure data — safe to compare with
        ``==`` across runs, which is what the equivalence tests do.
        """
        out: Dict[str, object] = {}
        for counter in self._counters.values():
            out[flatten_key(counter.name, counter.labels)] = counter.value
        for gauge in self._gauges.values():
            out[flatten_key(gauge.name, gauge.labels)] = gauge.value
        for hist in self._histograms.values():
            base = flatten_key(hist.name, hist.labels)
            out[base + "_count"] = hist.count
            out[base + "_sum"] = hist.sum
            for index, n in hist.nonzero_buckets():
                bucket_labels = hist.labels + (("le", f"2^{index}"),)
                out[flatten_key(hist.name + "_bucket", bucket_labels)] = n
        return dict(sorted(out.items()))

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Metric names are sanitised (``.`` and other illegal characters
        → ``_``); histogram buckets are emitted *cumulatively* with the
        conventional trailing ``le="+Inf"`` bucket, plus ``_sum`` and
        ``_count`` series.
        """
        lines: List[str] = []

        def prom_name(name: str) -> str:
            cleaned = "".join(
                ch if (ch.isalnum() or ch in "_:") else "_" for ch in name
            )
            if cleaned and cleaned[0].isdigit():
                cleaned = "_" + cleaned
            return cleaned or "_"

        def prom_labels(labels: LabelItems, extra: str = "") -> str:
            parts = [f'{prom_name(k)}="{_escape(v)}"' for k, v in labels]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        def _escape(value: str) -> str:
            return (
                value.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
            )

        def series(kind: str, items) -> None:
            by_name: Dict[str, List] = {}
            for inst in items:
                by_name.setdefault(inst.name, []).append(inst)
            for name in sorted(by_name):
                pname = prom_name(name)
                lines.append(f"# TYPE {pname} {kind}")
                for inst in by_name[name]:
                    value = inst.value
                    if isinstance(value, float):
                        rendered = repr(value)
                    else:
                        rendered = str(value)
                    lines.append(f"{pname}{prom_labels(inst.labels)} {rendered}")

        series("counter", self._counters.values())
        series("gauge", self._gauges.values())

        by_name: Dict[str, List[Histogram]] = {}
        for hist in self._histograms.values():
            by_name.setdefault(hist.name, []).append(hist)
        for name in sorted(by_name):
            pname = prom_name(name)
            lines.append(f"# TYPE {pname} histogram")
            for hist in by_name[name]:
                cumulative = 0
                for index, n in hist.nonzero_buckets():
                    cumulative += n
                    upper = float(2**index - 1) if index else 0.0
                    le = 'le="%s"' % upper
                    lines.append(
                        f"{pname}_bucket{prom_labels(hist.labels, le)}"
                        f" {cumulative}"
                    )
                le_inf = 'le="+Inf"'
                lines.append(
                    f"{pname}_bucket{prom_labels(hist.labels, le_inf)}"
                    f" {hist.count}"
                )
                lines.append(
                    f"{pname}_sum{prom_labels(hist.labels)} {hist.sum}"
                )
                lines.append(
                    f"{pname}_count{prom_labels(hist.labels)} {hist.count}"
                )
        return "\n".join(lines) + "\n"


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()
    name = ""
    labels: LabelItems = ()
    value = 0
    count = 0
    sum = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def max(self, value) -> None:
        pass

    def observe(self, value: int) -> None:
        pass

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled default: every instrument is the shared no-op.

    ``enabled`` is ``False`` so instrumented layers can skip whole
    blocks of bookkeeping (per-opcode counting, scheduler wrapping)
    rather than merely making each call cheap.
    """

    enabled = False

    def counter(self, name, labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name, labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name, labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def counters(self):
        return iter(())

    def gauges(self):
        return iter(())

    def histograms(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def as_dict(self) -> Dict[str, object]:
        return {}

    def to_prometheus(self) -> str:
        return "\n"


#: shared process-wide no-op registry; the default everywhere
NULL_REGISTRY = NullRegistry()
