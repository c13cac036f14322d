"""Metrics registry: counters, gauges, and histogram timers with labels.

The registry is the aggregate side of the telemetry subsystem: where the
tracer records *what happened*, the registry records *how much and how
long*.  Metrics are identified by ``(name, labels)``; ``registry.counter``
and friends get-or-create, so instrumentation sites never need setup code.

Exports:

* ``to_dict()`` — the JSON snapshot written next to campaign traces and
  read back by ``repro obs summary``,
* ``render_prometheus()`` — Prometheus-style text exposition (counters and
  gauges as samples, histograms as quantile/sum/count summaries).

Everything here is allocation-light pure Python; the registry itself is
always safe to use (it never touches simulation state or RNG streams),
and hot-seam callers additionally gate on the tracer's enabled flag.
"""

import json
import math
import os
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

LabelKey = Tuple[Tuple[str, str], ...]

#: The content type Prometheus scrapers expect for the text exposition
#: format rendered by :meth:`MetricsRegistry.render_prometheus`.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The percentiles :meth:`Histogram.snapshot` and the Prometheus
#: rendering report.
QUANTILES = (50, 95, 99)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


def _interpolate(ordered: List[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` of non-empty sorted samples."""
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


class Histogram:
    """Sample distribution with exact quantiles.

    Observations are retained (bounded by :attr:`MAX_SAMPLES` via
    reservoir-free downsampling of the *oldest* half) so p50/p95 are exact
    for the scales this repository produces — thousands of phases, not
    billions.
    """

    kind = "histogram"
    MAX_SAMPLES = 100_000

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []
        # Ingest stride: once the retained set fills, only every
        # ``_stride``-th observation is kept and the stride doubles on each
        # halving, so retention stays uniform over the whole run instead of
        # biased toward recent samples.  count/sum/min/max remain exact.
        self._stride = 1
        self._phase = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._samples.append(value)
            if len(self._samples) > self.MAX_SAMPLES:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile over retained samples (p in [0, 100])."""
        return self.percentiles((p,))[0]

    def percentiles(self, ps: Tuple[float, ...]) -> List[float]:
        """:meth:`percentile` of each of ``ps``, sorting the samples once."""
        if not all(0 <= p <= 100 for p in ps):
            raise ValueError("percentile must be in [0, 100]")
        if not self._samples:
            return [0.0] * len(ps)
        ordered = sorted(self._samples)
        return [_interpolate(ordered, p) for p in ps]

    def snapshot(self) -> Dict[str, Any]:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            **{
                f"p{q}": value
                for q, value in zip(QUANTILES, self.percentiles(QUANTILES))
            },
        }


class Timer:
    """Context manager that observes its elapsed wall time into a histogram.

    ::

        with registry.timer("pool_sweep_wall_seconds"):
            pool.run(configs)
    """

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start: Optional[float] = None
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._histogram.observe(self.elapsed)


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create store of labelled counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}

    def _get(self, cls, name: str, labels: Dict[str, Any]) -> Metric:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def timer(self, name: str, **labels: Any) -> Timer:
        return Timer(self.histogram(name, **labels))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Tuple[str, LabelKey, Metric]]:
        for (name, key), metric in sorted(self._metrics.items()):
            yield name, key, metric

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-stable snapshot of every metric (the on-disk format)."""
        out: Dict[str, List[Dict[str, Any]]] = {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        for name, key, metric in self:
            entry = {
                "name": name,
                "labels": dict(key),
                **metric.snapshot(),
            }
            out[metric.kind + "s"].append(entry)
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (histograms as quantile summaries)."""
        lines: List[str] = []
        seen_types = set()
        for name, key, metric in self:
            if name not in seen_types:
                ptype = "summary" if metric.kind == "histogram" else metric.kind
                lines.append(f"# TYPE {name} {ptype}")
                seen_types.add(name)
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{name}{_render_labels(key)} {metric.value:g}")
            else:
                for q, value in zip(QUANTILES, metric.percentiles(QUANTILES)):
                    labels = _render_labels(
                        key, (("quantile", f"{q / 100:g}"),)
                    )
                    lines.append(f"{name}{labels} {value:g}")
                lines.append(f"{name}_sum{_render_labels(key)} {metric.total:g}")
                lines.append(f"{name}_count{_render_labels(key)} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_snapshot(self, path: Union[str, os.PathLike]) -> str:
        """Write the :meth:`to_dict` snapshot as JSON; returns the path."""
        path = os.fspath(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path


def load_snapshot(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Read back a :meth:`MetricsRegistry.write_snapshot` JSON file."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        return json.load(fh)
