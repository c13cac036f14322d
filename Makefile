PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench bench-smoke obs-smoke live-smoke chaos-smoke health-smoke serve-smoke backend-smoke

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests -q

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q --benchmark-only

# Quick regression guard for the runtime subsystem: simulates one tiny
# campaign, asserts the second run is a cache hit and >=10x faster,
# prints events/sec + hit/miss counters, and appends the numbers to
# BENCH_runtime.json.  Finishes in a few seconds.
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q \
		-k "runtime_smoke" --benchmark-disable -s

# Observability smoke: runs one tiny instrumented campaign, checks that
# every telemetry line parses (monotone sim-time per category), that the
# metrics snapshot round-trips, and that wired-but-disabled telemetry
# stays inside the events/sec regression budget on the engine hot loop.
obs-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q \
		-k "obs_smoke" --benchmark-disable -s

# Streaming-analytics smoke: replays the shared benchmark trace through
# repro.live, checks the live ingest path against the batch Fig. 5 fold
# of the same estimator (timeline bit-exact, zero late events; the tier-1
# checks are tests/live/test_cross_validation.py), round-trips a
# mid-stream snapshot, and appends ingest events/sec to
# BENCH_runtime.json.
live-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q \
		-k "live_smoke" --benchmark-disable -s

# Resilience acceptance: one multi-seed sweep fault-free, then again
# under a seeded ChaosPolicy that SIGKILLs worker processes mid-seed and
# corrupts trace-cache entries on disk.  Asserts the surviving traces
# are bit-identical to the fault-free run and prints the recovery work
# (retries / respawns / quarantined entries).  Finishes in ~15s.
chaos-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q \
		-k "chaos_smoke" --benchmark-disable -s

# Observability tentpole acceptance: an instrumented chaos sweep must
# stay digest-identical to a dark baseline while producing a fleet
# health score in [0,100] with one attributed message per injected
# fault class, a Perfetto-loadable Chrome trace of the span hierarchy,
# and incident timelines whose stage latencies sum to each incident's
# downtime.  Appends spans/sec to BENCH_runtime.json.  ~20s.
health-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q \
		-k "health_smoke" --benchmark-disable -s

# Serving-layer acceptance: warm-start a reliability API server from a
# LiveAnalytics snapshot, drive concurrent clients across /v1/health,
# /v1/ettr, /v1/mttf, /metrics and repeated identical what-if queries
# (must cost exactly one simulation, counter-asserted), check the
# breaker-open 503 + Retry-After degradation path, and append
# requests/s + p50/p95 latency to BENCH_runtime.json.  ~30s.
serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q \
		-k "serve_smoke" --benchmark-disable -s

# Execution-backend acceptance: one small multi-seed sweep runs on all
# three backends (inline / local-pool / work-queue) and the traces must
# digest bit-identical — where the work ran is invisible in the bits.
# Per-backend dispatch throughput is appended to BENCH_runtime.json.
# Finishes in ~30s.
backend-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q \
		-k "backend_smoke" --benchmark-disable -s
