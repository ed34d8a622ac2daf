"""Named metrics: counters, gauges, histograms with percentile export.

A :class:`MetricsRegistry` is the single handle the substrates share;
instruments are created on first use and live for the registry's
lifetime, so hot paths hold direct references instead of doing name
lookups per event::

    metrics = MetricsRegistry()
    hops = metrics.histogram("pastry.route.hops")
    ...
    hops.observe(route.hops)

Export formats:

* :meth:`MetricsRegistry.snapshot` — nested plain-dict (JSON-ready);
* :meth:`MetricsRegistry.to_json` — the same, serialised;
* :meth:`MetricsRegistry.rows` — tidy rows (one per instrument) for
  ``render_table`` / ``rows_to_csv`` in :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-observed level (population size, pending repairs, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Distribution of observed values with on-demand percentiles.

    Samples are kept verbatim up to ``max_samples`` and then decimated
    (every other retained sample, doubling the keep-stride) so memory
    stays bounded while count/sum/min/max remain exact.
    """

    __slots__ = ("name", "max_samples", "count", "total", "min", "max",
                 "_samples", "_stride", "_skip")

    def __init__(self, name: str, max_samples: int = 8192):
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []
        self._stride = 1
        self._skip = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._skip:
            self._skip -= 1
            return
        self._samples.append(value)
        self._skip = self._stride - 1
        if len(self._samples) >= self.max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    def observe_many(self, values) -> None:
        """Bulk observe, C-speed bookkeeping for the scale runners'
        array-prefix telemetry.

        Retained samples end up identical to per-value :meth:`observe`
        calls; the batched ``sum`` may differ from a chain of ``+=`` in
        the last ulp, which is fine because every execution path of a
        given run batches identically.  Falls back to the per-value
        loop once decimation is active (stride bookkeeping is per
        sample there).
        """
        values = [float(v) for v in values]
        if not values:
            return
        if (
            self._stride != 1
            or len(self._samples) + len(values) >= self.max_samples
        ):
            for v in values:
                self.observe(v)
            return
        self.count += len(values)
        self.total += sum(values)
        lo = min(values)
        hi = max(values)
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        self._samples.extend(values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float, ordered: list[float] | None = None) -> float:
        """The q-th percentile (0 <= q <= 100) of the retained samples.

        ``ordered`` may pass a presorted view of ``_samples`` so
        callers taking several percentiles (snapshot, exporters) sort
        once instead of once per quantile.
        """
        if ordered is None:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        rank = (len(ordered) - 1) * (q / 100.0)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        count/sum/min/max stay exact.  Each retained sample stands for
        ``stride`` observations, so sources with different decimation
        strides must not be concatenated as-is — the finer source's
        samples would outweigh their share of the stream.  Both sides
        are first brought to the coarser of the two strides (strides
        are powers of two, so re-decimation is exact), then
        concatenated in (self, other) order and re-decimated under the
        bound.  The merge is deterministic given the merge order (the
        parallel trial executor merges in trial order).
        """
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        target = max(self._stride, other._stride)
        if self._stride < target:
            self._samples = self._samples[:: target // self._stride]
            self._stride = target
        theirs = other._samples
        if other._stride < target:
            theirs = theirs[:: target // other._stride]
        self._samples.extend(theirs)
        while len(self._samples) >= self.max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    def snapshot(self) -> dict:
        if not self.count:
            return {"type": "histogram", "count": 0}
        ordered = sorted(self._samples)
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50, ordered),
            "p95": self.percentile(95, ordered),
            "p99": self.percentile(99, ordered),
        }


@dataclass
class MetricsRegistry:
    """Process-local instrument registry shared by all substrates."""

    histogram_max_samples: int = 8192
    _counters: dict[str, Counter] = field(default_factory=dict)
    _gauges: dict[str, Gauge] = field(default_factory=dict)
    _histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(
                name, self.histogram_max_samples
            )
        return inst

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All instruments as one nested, JSON-serialisable dict."""
        out: dict[str, dict] = {}
        for group in (self._counters, self._gauges, self._histograms):
            for name, inst in group.items():
                out[name] = inst.snapshot()
        return dict(sorted(out.items()))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    #: uniform column set so CSV export is rectangular
    ROW_COLUMNS = ("metric", "type", "count", "value", "mean",
                   "min", "max", "p50", "p95", "p99")

    def rows(self) -> list[dict]:
        """Tidy per-instrument rows (uniform columns) for table/CSV."""
        rows = []
        for name, snap in self.snapshot().items():
            row = dict.fromkeys(self.ROW_COLUMNS, "")
            row["metric"] = name
            for key, value in snap.items():
                if key in row:
                    row[key] = value
            rows.append(row)
        return rows

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        Counters and histograms accumulate; gauges adopt the incoming
        value (last-write-wins, matching their "last observed level"
        semantics when merging worker registries in trial order).
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).set(gauge.value)
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)
