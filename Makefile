PYTHON ?= python
export PYTHONPATH := src

.PHONY: test verify verify-deep coverage coverage-approx lint examples \
	bench-trajectory bench-check

test:
	$(PYTHON) -m pytest -x -q

## The deterministic-simulation / differential-oracle battery.
verify:
	$(PYTHON) -m repro verify --seeds 20 --artifacts verify-artifacts

verify-deep:
	$(PYTHON) -m repro verify --seeds 200 --artifacts verify-artifacts

## Coverage gate (requires the coverage package — a CI-only
## dependency; the floor lives in src/repro/verify/runner.py).
coverage:
	$(PYTHON) -m repro verify --coverage

## Dependency-free approximation of the same number (slow: settrace).
coverage-approx:
	$(PYTHON) tools/approx_coverage.py -q

lint:
	ruff check src tests benchmarks examples tools

## Re-run every registered experiment and refresh this PR's
## BENCH_<n>.json (see tools/bench_trajectory.py for the trajectory story).
BENCH_LABEL ?= 15
bench-trajectory:
	$(PYTHON) tools/bench_trajectory.py --label $(BENCH_LABEL)

## Compare the registry's pinned metrics against the committed
## snapshot without rewriting it (the CI gate for every PR).
bench-check:
	$(PYTHON) tools/bench_trajectory.py --label $(BENCH_LABEL) --check

examples:
	for example in examples/*.py; do \
		echo "--- $$example"; \
		$(PYTHON) "$$example" > /dev/null || exit 1; \
	done
