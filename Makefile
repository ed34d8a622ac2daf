# Convenience targets for the TAP reproduction.

PYTHON ?= python

.PHONY: install lint test audit bench bench-quick perfbench-smoke digests reach bench-pytest bench-paper figures extensions examples all clean telemetry-gate report gate

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# Static checks: ruff when available, else a stdlib syntax sweep so
# offline containers still get a gate.  The RNG check enforces the
# determinism contract: no ambient randomness in library code.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to compileall syntax check"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi
	$(PYTHON) tools/check_rng.py src/repro

test:
	$(PYTHON) -m pytest tests/

# Tier-1 suite with repro.obs invariant auditing threaded through every
# membership event of every TapSystem fixture (TAP_AUDIT=1 is read by
# tests/conftest.py).
audit:
	TAP_AUDIT=1 $(PYTHON) -m pytest tests/

# Pinned micro/macro benchmark suite with regression gate: compares
# against the baseline stored in BENCH_core.json (exit 1 on regression
# past the threshold, exit 2 if no baseline exists yet — seed one with
# `python tools/bench_compare.py --write-baseline`).
bench:
	$(PYTHON) tools/bench_compare.py

bench-quick:
	$(PYTHON) tools/bench_compare.py --quick

# The end-to-end benchmark that judges every performance PR
# (BENCHMARK.json -> perfbench/run.py): its own self-tests plus one
# smoke pass of all five workloads, untraced then traced, so the
# harness cannot rot unnoticed.  Writes only perfbench/out/ (ignored).
perfbench-smoke:
	$(PYTHON) -m pytest perfbench -q
	$(PYTHON) perfbench/run.py --smoke

# The invariance evidence for a hot-path PR as one command: every fast
# rows digest plus the chaos smoke and durability artifact hashes, in
# the format committed as results/DIGESTS.txt (CI diffs the two).  Run
# it on the parent and on the change; the outputs must be identical.
digests:
	@$(PYTHON) tools/digest_sheet.py

# Which src/repro functions the product surface executes, which only
# benchmarks/ or tests/ reach, which nothing reaches: every CLI path,
# the examples, the perfbench smoke pass, then benchmarks/ and tier-1
# under a stdlib call tracer (~5 min, not a CI job).  Rewrites
# results/REACHABILITY.txt; a deletion PR starts from that sheet.
reach:
	$(PYTHON) tools/reach_sheet.py

# Relative overhead gate: the instrumented 100k churn round vs its
# bare twin, interleaved same-run timing (<=5%, exit 1 on breach).
telemetry-gate:
	$(PYTHON) tools/bench_compare.py --overhead-only

# Aggregate every manifest / metrics snapshot / chaos report / span
# trace under results/ into one consolidated report, then enforce the
# declarative SLOs in slo.toml (exit 2 on violation).
report:
	$(PYTHON) -m repro.cli report results/ --md results/report.md

gate:
	$(PYTHON) -m repro.cli gate results/ --slo slo.toml

# The pytest-benchmark suites (timing detail, per-test history).
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-paper:
	TAP_BENCH_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:
	$(PYTHON) -m repro.cli all --outdir results/

extensions:
	$(PYTHON) -m repro.cli extensions --outdir results/

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

all: lint test audit bench figures extensions

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
