"""Run reports over emitted telemetry: ``repro obs summary PATH``.

Consumes the on-disk telemetry pair (``*.events.jsonl`` streams plus
``*.metrics.json`` snapshots, as written by
:meth:`repro.obs.telemetry.Telemetry.to_directory`) and renders the
operational picture of a run: what executed, where the wall time went,
what failed and whether it was attributed, and how the trace cache
behaved.  This is the simulator-side analogue of the paper's
"mine the logs" methodology — the report exists so a campaign's numbers
can be explained without re-running it under a debugger.
"""

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import load_snapshot
from repro.obs.spans import SPAN_END_CATEGORY, phase_stats
from repro.obs.telemetry import EVENTS_SUFFIX, METRICS_SUFFIX


def iter_event_dicts(path: Union[str, os.PathLike]) -> Iterator[Dict[str, Any]]:
    """Yield parsed event dicts from one JSONL stream.

    Raises ``ValueError`` (with the line number) on a malformed line —
    the stream-integrity tests lean on this being strict.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"{path}:{lineno}: malformed telemetry line: {err}"
                ) from err
            if "category" not in payload or "sim_time" not in payload:
                raise ValueError(
                    f"{path}:{lineno}: telemetry record missing "
                    "category/sim_time"
                )
            yield payload


def find_telemetry_files(
    path: Union[str, os.PathLike]
) -> List[Tuple[Path, Optional[Path]]]:
    """Resolve ``path`` to ``(events, metrics-or-None)`` pairs.

    ``path`` may be a telemetry directory or a single events file; the
    metrics snapshot is matched by the shared stem.
    """
    path = Path(path)
    if path.is_dir():
        streams = sorted(path.glob(f"*{EVENTS_SUFFIX}"))
    elif path.is_file():
        streams = [path]
    else:
        raise FileNotFoundError(f"no telemetry at {path}")
    if not streams:
        raise FileNotFoundError(f"no *{EVENTS_SUFFIX} streams under {path}")
    pairs: List[Tuple[Path, Optional[Path]]] = []
    for stream in streams:
        stem = stream.name
        if stem.endswith(EVENTS_SUFFIX):
            stem = stem[: -len(EVENTS_SUFFIX)]
        else:
            stem = stream.stem
        metrics = stream.parent / f"{stem}{METRICS_SUFFIX}"
        pairs.append((stream, metrics if metrics.is_file() else None))
    return pairs


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Minimal fixed-width table (obs stays import-light)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:.2f}s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f}ms"
    return f"{s * 1e6:.1f}us"


def _add(counts: Dict[str, int], key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


@dataclass
class ObsSummary:
    """Aggregated view over one or more telemetry streams.

    Every count comes from the metrics snapshots, each fact from the one
    metric that records it; the event streams contribute only their own
    volume (``n_events``, ``by_category``) and the ``span.end`` timings.
    """

    streams: List[str] = field(default_factory=list)
    n_events: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)
    #: label group -> (executions, total wall seconds), from the
    #: ``sim_event_duration_seconds{label}`` histograms.
    label_timings: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    failures_by_component: Dict[str, int] = field(default_factory=dict)
    failures_attributed: int = 0
    failures_unattributed: int = 0
    checks_fired: Dict[str, int] = field(default_factory=dict)
    lemon_flags: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    sched_attempts_by_state: Dict[str, int] = field(default_factory=dict)
    #: counter name -> value for ``resilience_*_total`` recovery
    #: counters (retries, respawns, quarantines, timeouts, ...), plus
    #: the tracer degradation signals (``tracer_self_disabled``,
    #: ``tracer_sink_errors_total``).
    resilience: Dict[str, int] = field(default_factory=dict)
    #: span name -> wall durations (seconds) from ``span.end`` events;
    #: feeds the p50/p95 phase table.
    span_durations: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def engine_events_executed(self) -> int:
        return sum(count for count, _ in self.label_timings.values())

    @property
    def engine_wall_seconds(self) -> float:
        return sum(total for _, total in self.label_timings.values())

    @property
    def cache_hit_ratio(self) -> Optional[float]:
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return None
        return self.cache_hits / total

    @property
    def events_per_sec(self) -> Optional[float]:
        if self.engine_wall_seconds <= 0:
            return None
        return self.engine_events_executed / self.engine_wall_seconds

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add_event(self, payload: Dict[str, Any]) -> None:
        category = payload["category"]
        self.n_events += 1
        _add(self.by_category, category, 1)
        if category == SPAN_END_CATEGORY:
            attrs = payload.get("attrs", {})
            name = attrs.get("name") or payload.get("label") or "span"
            self.span_durations.setdefault(str(name), []).append(
                float(attrs.get("dur_s", 0.0))
            )

    def add_metrics_snapshot(self, snapshot: Dict[str, Any]) -> None:
        for entry in snapshot.get("counters", []):
            name = entry.get("name") or ""
            labels = entry.get("labels", {})
            value = int(entry.get("value", 0))
            if name == "failures_injected_total":
                _add(
                    self.failures_by_component,
                    labels.get("component", "unknown"),
                    value,
                )
            elif name == "failures_attributed_total":
                self.failures_attributed += value
            elif name == "failures_unattributed_total":
                # A failure no check attributed is caught by the
                # heartbeat alone.
                self.failures_unattributed += value
                _add(self.checks_fired, "node_fail_heartbeat", value)
            elif name == "health_checks_fired_total":
                _add(self.checks_fired, labels.get("check", "unknown"), value)
            elif name == "lemon_nodes_flagged_total":
                self.lemon_flags += value
            elif name == "sched_attempts_total":
                _add(
                    self.sched_attempts_by_state,
                    labels.get("state", "unknown"),
                    value,
                )
            elif name == "trace_cache_hits_total":
                self.cache_hits += value
            elif name == "trace_cache_misses_total":
                self.cache_misses += value
            elif (
                name.startswith("resilience_")
                or name == "tracer_sink_errors_total"
            ):
                _add(self.resilience, name, value)
        for entry in snapshot.get("gauges", []):
            if entry.get("name") == "tracer_self_disabled":
                self.resilience["tracer_self_disabled"] = max(
                    self.resilience.get("tracer_self_disabled", 0),
                    int(float(entry.get("value", 0.0))),
                )
        for entry in snapshot.get("histograms", []):
            if entry.get("name") == "sim_event_duration_seconds":
                group = entry.get("labels", {}).get("label", "unlabeled")
                count, total = self.label_timings.get(group, (0, 0.0))
                self.label_timings[group] = (
                    count + int(entry.get("count", 0)),
                    total + float(entry.get("sum", 0.0)),
                )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self, top_labels: int = 10) -> str:
        parts: List[str] = []
        n_streams = len(self.streams)
        header = (
            f"Telemetry summary — {self.n_events:,} events from "
            f"{n_streams} stream{'s' if n_streams != 1 else ''}"
        )
        eps = self.events_per_sec
        if eps is not None:
            header += (
                f"; engine executed {self.engine_events_executed:,} events "
                f"in {_fmt_seconds(self.engine_wall_seconds)} "
                f"({eps:,.0f} events/s of callback time)"
            )
        parts.append(header)

        if self.by_category:
            rows = [
                (cat, f"{count:,}")
                for cat, count in sorted(
                    self.by_category.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
            parts.append("\nEvents by category\n" + _table(["category", "count"], rows))

        if self.label_timings:
            ordered = sorted(
                self.label_timings.items(), key=lambda kv: (-kv[1][1], kv[0])
            )[:top_labels]
            rows = [
                (
                    group,
                    f"{count:,}",
                    _fmt_seconds(total),
                    _fmt_seconds(total / count) if count else "-",
                )
                for group, (count, total) in ordered
            ]
            parts.append(
                f"\nTop event labels by wall time (top {len(rows)})\n"
                + _table(["label", "events", "total", "mean"], rows)
            )

        if self.failures_by_component:
            total_failures = self.failures_attributed + self.failures_unattributed
            rows = [
                (comp, f"{count:,}")
                for comp, count in sorted(
                    self.failures_by_component.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            ]
            attributed_pct = (
                100.0 * self.failures_attributed / total_failures
                if total_failures
                else 0.0
            )
            parts.append(
                f"\nFailure injections — {total_failures:,} total, "
                f"{self.failures_attributed:,} attributed "
                f"({attributed_pct:.1f}%), "
                f"{self.failures_unattributed:,} heartbeat-only\n"
                + _table(["component", "count"], rows)
            )

        if self.checks_fired:
            rows = [
                (check, f"{count:,}")
                for check, count in sorted(
                    self.checks_fired.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
            parts.append(
                "\nHealth checks fired\n" + _table(["check", "count"], rows)
            )

        if self.sched_attempts_by_state:
            rows = [
                (state, f"{count:,}")
                for state, count in sorted(
                    self.sched_attempts_by_state.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            ]
            parts.append(
                "\nScheduler attempts by final state\n"
                + _table(["state", "attempts"], rows)
            )

        if self.lemon_flags:
            parts.append(f"\nLemon nodes flagged: {self.lemon_flags}")

        ratio = self.cache_hit_ratio
        if ratio is not None:
            parts.append(
                f"\nTrace cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"(hit ratio {100.0 * ratio:.1f}%)"
            )

        if self.span_durations:
            rows = [
                (
                    stat.name,
                    f"{stat.count:,}",
                    _fmt_seconds(stat.total_s),
                    _fmt_seconds(stat.p50_s),
                    _fmt_seconds(stat.p95_s),
                )
                for stat in phase_stats(self.span_durations)
            ]
            parts.append(
                "\nSpan phases (wall time)\n"
                + _table(["span", "count", "total", "p50", "p95"], rows)
            )

        if any(self.resilience.values()):
            rows = [
                (name, f"{count:,}")
                for name, count in sorted(
                    self.resilience.items(), key=lambda kv: (-kv[1], kv[0])
                )
                if count
            ]
            parts.append(
                "\nResilience (recovery actions)\n"
                + _table(["counter", "count"], rows)
            )
        return "\n".join(parts)


def summarize(path: Union[str, os.PathLike]) -> ObsSummary:
    """Build an :class:`ObsSummary` from a telemetry directory or stream."""
    summary = ObsSummary()
    for stream, metrics in find_telemetry_files(path):
        summary.streams.append(str(stream))
        for payload in iter_event_dicts(stream):
            summary.add_event(payload)
        if metrics is not None:
            summary.add_metrics_snapshot(load_snapshot(metrics))
    return summary


def check_stream_well_formed(path: Union[str, os.PathLike]) -> int:
    """Validate one JSONL stream: parseable, monotone sim-time per category.

    Returns the number of records; raises ``ValueError`` on violations.
    """
    last_by_category: Dict[str, float] = {}
    n = 0
    for payload in iter_event_dicts(path):
        category = payload["category"]
        sim_time = float(payload["sim_time"])
        if not math.isfinite(sim_time):
            raise ValueError(f"{path}: non-finite sim_time in {category}")
        previous = last_by_category.get(category)
        if previous is not None and sim_time < previous:
            raise ValueError(
                f"{path}: sim-time regression in category {category}: "
                f"{sim_time} after {previous}"
            )
        last_by_category[category] = sim_time
        n += 1
    return n
