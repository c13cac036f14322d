import json
import math

import pytest

from repro.obs import MetricsRegistry, Timer, load_snapshot


def test_counter_get_or_create_and_inc():
    reg = MetricsRegistry()
    reg.counter("jobs_total").inc()
    reg.counter("jobs_total").inc(2)
    assert reg.counter("jobs_total").value == 3
    with pytest.raises(ValueError):
        reg.counter("jobs_total").inc(-1)


def test_labels_distinguish_series():
    reg = MetricsRegistry()
    reg.counter("fails_total", component="gpu").inc()
    reg.counter("fails_total", component="pcie").inc(5)
    assert reg.counter("fails_total", component="gpu").value == 1
    assert reg.counter("fails_total", component="pcie").value == 5
    assert len(reg) == 2


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_gauge_set_and_move():
    reg = MetricsRegistry()
    g = reg.gauge("workers")
    g.set(4)
    g.inc(-1)
    assert g.value == 3


def test_histogram_percentiles_and_summary():
    reg = MetricsRegistry()
    h = reg.histogram("wall_seconds")
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    assert h.count == 100
    assert h.min == 1.0 and h.max == 100.0
    assert h.percentile(50) == pytest.approx(50.5)
    assert h.percentile(95) == pytest.approx(95.05)
    snap = h.snapshot()
    assert snap["count"] == 100
    assert snap["p50"] == pytest.approx(50.5)


def test_empty_histogram_is_safe():
    reg = MetricsRegistry()
    h = reg.histogram("empty")
    assert h.percentile(50) == 0.0
    assert h.snapshot() == {"count": 0, "sum": 0.0}


def test_timer_observes_elapsed():
    reg = MetricsRegistry()
    with reg.timer("phase_seconds", phase="simulate") as t:
        pass
    assert isinstance(t, Timer)
    assert t.elapsed is not None and t.elapsed >= 0
    assert reg.histogram("phase_seconds", phase="simulate").count == 1


def test_to_dict_and_snapshot_round_trip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("hits_total").inc(7)
    reg.gauge("workers").set(2)
    reg.histogram("wall", kind="cold").observe(1.5)
    path = tmp_path / "metrics.json"
    reg.write_snapshot(path)
    snap = load_snapshot(path)
    assert snap == reg.to_dict()
    assert snap["counters"][0] == {
        "name": "hits_total",
        "labels": {},
        "value": 7.0,
    }
    [hist] = snap["histograms"]
    assert hist["labels"] == {"kind": "cold"}
    assert hist["sum"] == 1.5
    # the snapshot is plain JSON
    json.dumps(snap)


def test_render_prometheus_format():
    reg = MetricsRegistry()
    reg.counter("hits_total", cache="trace").inc(3)
    reg.histogram("wall_seconds").observe(2.0)
    text = reg.render_prometheus()
    assert '# TYPE hits_total counter' in text
    assert 'hits_total{cache="trace"} 3' in text
    assert '# TYPE wall_seconds summary' in text
    assert 'wall_seconds{quantile="0.5"} 2' in text
    assert 'wall_seconds_count 1' in text
    assert 'wall_seconds_sum 2' in text


def test_prometheus_content_type_constant():
    # The exposition rendered by render_prometheus() must be served with
    # the text-format content type Prometheus scrapers negotiate on.
    from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE

    assert PROMETHEUS_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


def test_histogram_downsamples_but_keeps_moments():
    reg = MetricsRegistry()
    h = reg.histogram("big")
    h.MAX_SAMPLES = 100
    for v in range(1000):
        h.observe(float(v))
    assert h.count == 1000
    assert h.total == sum(range(1000))
    assert len(h._samples) <= 200
    # quantiles stay in the right neighbourhood after downsampling
    assert 300 < h.percentile(50) < 700


def _sorting_percentile(hist, p):
    """The percentile as it was computed before: one sort per call."""
    if not hist._samples:
        return 0.0
    ordered = sorted(hist._samples)
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def _per_quantile_render(reg):
    """``render_prometheus`` as it was, with one sort per quantile."""
    lines = []
    seen = set()
    for name, key, metric in reg:
        if name not in seen:
            ptype = "summary" if metric.kind == "histogram" else metric.kind
            lines.append(f"# TYPE {name} {ptype}")
            seen.add(name)
        labels = ",".join(f'{k}="{v}"' for k, v in key)
        braced = "{" + labels + "}" if labels else ""
        if metric.kind != "histogram":
            lines.append(f"{name}{braced} {metric.value:g}")
            continue
        for q in (50, 95, 99):
            pairs = ",".join(filter(None, (labels, f'quantile="{q / 100:g}"')))
            value = _sorting_percentile(metric, q)
            lines.append(f"{name}{{{pairs}}} {value:g}")
        lines.append(f"{name}_sum{braced} {metric.total:g}")
        lines.append(f"{name}_count{braced} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 100, 1001, 5000])
def test_one_sort_render_equals_the_per_quantile_path(n):
    import random

    rng = random.Random(n)
    reg = MetricsRegistry()
    reg.counter("requests_total", endpoint="/v1/ping").inc(n)
    for series in ("a", "b"):
        hist = reg.histogram("latency_seconds", endpoint=series)
        for _ in range(n):
            hist.observe(rng.lognormvariate(-6, 1.5))
    reg.histogram("empty_seconds")
    assert reg.render_prometheus() == _per_quantile_render(reg)
    for entry in reg.to_dict()["histograms"]:
        hist = reg.histogram(entry["name"], **entry["labels"])
        if hist.count:
            assert [entry["p50"], entry["p95"], entry["p99"]] == [
                _sorting_percentile(hist, q) for q in (50, 95, 99)
            ]


@pytest.mark.parametrize("n", [1, 2, 5, 33, 64, 65, 200, 1000])
def test_percentiles_equal_percentile_after_downsampling(n):
    import random

    from repro.obs.metrics import Histogram

    rng = random.Random(n)
    hist = Histogram()
    hist.MAX_SAMPLES = 64
    for _ in range(n):
        hist.observe(rng.uniform(-1, 1))
    ps = (0, 1, 25, 50, 95, 99, 99.9, 100)
    expected = [_sorting_percentile(hist, p) for p in ps]
    assert hist.percentiles(ps) == expected
    assert [hist.percentile(p) for p in ps] == expected
    with pytest.raises(ValueError):
        hist.percentiles((50, 101))
