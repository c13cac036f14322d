PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests -q

# The timing ledger: BENCHMARK.json's command, once per declared workload.
bench:
	for w in sim-512n serve-mixed; do \
		python3 perfbench/run.py --workload $$w || exit 1; \
	done
