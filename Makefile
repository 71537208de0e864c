# Make-style entry points for the test and benchmark suites.
#
#   make test         tier-1 suite (what CI gates on)
#   make check        the full gate: lint, tier-1 tests, bench smokes,
#                     golden suite, benchmarks/perf harness tests,
#                     determinism
#   make determinism  goldens, pinned search counters and the chase and
#                     backchase differential suites under PYTHONHASHSEED=0, 1, 2
#   make fuzz         the property suites (tests/test_prop_*.py) under fresh
#                     random draws; tier-1 itself runs them derandomized
#                     (tests/conftest.py), so it repeats run for run
#   make golden       regenerate tests/golden/* (review the diff!)
#   make lint         bytecode-compile src/tests/benchmarks + static
#                     analysis (parser round trip + codegen verifier over
#                     the query corpus, invariant rules over src/repro)
#   make loc          total and non-blank/non-comment line counts of
#                     src/repro (the design metric ROADMAP aim 2 tracks)
#   make bench-smoke  1-repetition benchmark smoke (emits BENCH_e12.json ..
#                     BENCH_e20.json)
#   make bench-report aggregate the BENCH_e*.json artifacts into one table
#   make bench-e12    the full E12 pruning benchmark
#   make bench-e13    the full E13 semantic-cache benchmark
#   make bench-e14    the full E14 hybrid view-join-base benchmark
#   make bench-e15    the full E15 prepared-query / plan-cache benchmark
#   make bench-e16    the full E16 physical-design-advisor benchmark
#   make bench-e17    the full E17 parameterized-template benchmark
#   make bench-e18    the full E18 observability-overhead benchmark
#   make bench-e19    the full E19 compiled-execution benchmark
#   make bench-e20    the full E20 plan-quality feedback benchmark
#   make bench        every benchmark file
#
# The python toolchain is assumed baked into the environment; everything
# runs against the in-tree sources via PYTHONPATH=src.

PYTEST := PYTHONPATH=src python -m pytest

GOLDEN_FILES := tests/test_golden_plans.py tests/test_advisor.py

# What must not depend on the hash seed: the chase keeps a set of
# satisfied triggers, sets of affected heads and a dict-of-lists class
# index; the backchase keeps an antichain of accepted variable sets.
DETERMINISM_TESTS := tests/test_golden_plans.py \
	tests/test_pruned_backchase.py::TestCountersPinnedAcrossTheMerge \
	tests/test_chase_differential.py \
	tests/test_backchase_differential.py

.PHONY: test check lint loc golden determinism fuzz bench bench-smoke bench-report \
	bench-e12 bench-e13 bench-e14 bench-e15 bench-e16 bench-e17 bench-e18 \
	bench-e19 bench-e20

test:
	$(PYTEST) -x -q

# The chained gate: unit/integration tests first (excluding the smoke and
# golden markers so failures localize), then the benchmark smokes, the
# cross-strategy golden suite, the benchmark harness's own tests, and the
# hash-seed sweep.
check: lint
	$(PYTEST) -x -q --durations=15 -m "not bench_smoke and not golden"
	$(PYTEST) -q --durations=15 -m bench_smoke tests/test_bench_smoke.py
	$(PYTEST) -q -m golden $(GOLDEN_FILES)
	$(PYTEST) -q benchmarks/perf
	$(MAKE) --no-print-directory determinism

determinism:
	for seed in 0 1 2; do \
		PYTHONHASHSEED=$$seed $(PYTEST) -q $(DETERMINISM_TESTS) || exit 1; \
	done

fuzz:
	$(PYTEST) -q --hypothesis-profile=explore tests/test_prop_*.py

lint:
	python -m compileall -q src tests benchmarks
	PYTHONPATH=src python -m repro.analysis
	python tests/check_golden_freshness.py

loc:
	@find src/repro -name '*.py' | xargs cat | wc -l \
		| xargs echo "src/repro total lines:"
	@find src/repro -name '*.py' | xargs cat | grep -cvE '^[[:space:]]*(#|$$)' \
		| xargs echo "src/repro non-blank/non-comment lines:"

golden:
	GOLDEN_REGEN=1 $(PYTEST) -q -m golden $(GOLDEN_FILES)
	@git --no-pager diff --stat tests/golden/ || true

bench-smoke:
	$(PYTEST) -q -m bench_smoke tests/test_bench_smoke.py

bench-report:
	PYTHONPATH=src python benchmarks/report.py

bench-e12:
	$(PYTEST) -q benchmarks/bench_e12_pruning.py

bench-e13:
	$(PYTEST) -q benchmarks/bench_e13_semcache.py

bench-e14:
	$(PYTEST) -q benchmarks/bench_e14_hybrid.py

bench-e15:
	$(PYTEST) -q benchmarks/bench_e15_prepared.py

bench-e16:
	$(PYTEST) -q benchmarks/bench_e16_advisor.py

bench-e17:
	$(PYTEST) -q benchmarks/bench_e17_templates.py

bench-e18:
	$(PYTEST) -q benchmarks/bench_e18_obs.py

bench-e19:
	$(PYTEST) -q benchmarks/bench_e19_compiled.py

bench-e20:
	$(PYTEST) -q benchmarks/bench_e20_feedback.py

bench:
	$(PYTEST) -q benchmarks/bench_*.py
