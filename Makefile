# Make-style entry points for the test and benchmark suites.
#
#   make test         tier-1 suite (what CI gates on), with the 25 slowest
#                     tests printed
#   make check        the full gate: lint, tier-1 tests, bench smokes,
#                     golden suite, benchmarks/perf harness tests,
#                     determinism, examples
#   make examples     run every examples/*.py script (fails on the first
#                     non-zero exit), leaving no file in the tree
#   make determinism  goldens, pinned search counters, the kernel, chase,
#                     backchase and early-stop differential suites
#                     (lookup-safety traps included), the Theorem 2
#                     cross-checks and the served-verdict property under
#                     PYTHONHASHSEED=0, 1, 2, each arm with its own
#                     address layout
#   make fuzz         the property suites (tests/test_prop_*.py) under fresh
#                     random draws; tier-1 itself runs them derandomized
#                     (tests/conftest.py), so it repeats run for run
#   make golden       regenerate tests/golden/* (review the diff!)
#   make lint         bytecode-compile src/tests/benchmarks + static
#                     analysis (parser round trip + codegen verifier over
#                     the query corpus, invariant rules over src/repro),
#                     leaving no bytecode in the tree
#   make mutants      the seeded-fault matrix (tests/mutants.py): each row
#                     breaks a throwaway copy of src/ on purpose and must
#                     fail its named tests within 60 s; a control pass runs
#                     them unmutated first (weekly CI, not make check)
#   make loc          total and non-blank/non-comment line counts of
#                     src/repro (the design metric ROADMAP aim 2 tracks)
#   make profile      one cold ProjDept optimize under cProfile, the top
#                     self-times (the closing profile ROADMAP item 5 quotes)
#   make bench-smoke  the E18-E20 smokes (one small run each; part of tier-1)
#   make bench-e18    the full E18 observability-overhead benchmark
#   make bench-e19    the full E19 compiled-execution benchmark
#   make bench-e20    the full E20 plan-quality feedback benchmark
#   make bench        every benchmarks/bench_e*.py (E1-E11, E18-E20;
#                     benchmarks/README.md is the index)
#   make chain        one cold pruned optimize each of E8's (2,2) and (3,2)
#                     chain shapes under the default node budget: wall
#                     time, nodes, constructed candidates, normal forms,
#                     best cost (the scaling-wall yardstick; not tier-1)
#
# The repo benchmark is `python3 benchmarks/perf/run.py` (BENCHMARK.json).
# The python toolchain is assumed baked into the environment; everything
# runs against the in-tree sources via PYTHONPATH=src.

PYTEST := PYTHONPATH=src python -m pytest

GOLDEN_FILES := tests/test_golden_plans.py tests/test_advisor.py

# What must not depend on the order a set iterates in: the chase keeps a
# set of satisfied triggers, sets of affected heads and a dict-of-lists
# class index, and stops where a goal first holds; the backchase keeps an
# antichain of accepted variable sets, the candidates it refuted, one
# closure per candidate (read through unordered class member sets) and,
# per lookup, antichains of proved scopes.  Interned paths hash by
# identity, so PYTHONHASHSEED reorders only the string-keyed sets; the
# path-keyed ones follow the address layout, and tests/conftest.py gives
# each arm its own (997 x seed throwaway variables interned up front).  The
# name-supply trap and the kept-closure checks are in the two differential
# files below; the interned fields' parity is TestTheFieldsAreTheLadders.
# Theorem 2 is cross-checked too: the search's normal forms against the
# bottom-up subset enumeration and against section 3's rule formulation
# (both in tests/backchase_oracle.py).
DETERMINISM_TESTS := tests/test_golden_plans.py \
	tests/test_paths.py::TestTheFieldsAreTheLadders \
	tests/test_pruned_backchase.py::TestCountersPinnedAcrossTheMerge \
	tests/test_pruned_backchase.py::TestLookupSafetyDecisions \
	tests/test_pruned_backchase.py::TestContainmentDecisions \
	tests/test_pruned_backchase.py::TestEachBindingSetOnce \
	tests/test_kernel_differential.py \
	tests/test_chase_differential.py \
	tests/test_backchase_differential.py \
	tests/test_early_stop_differential.py \
	tests/test_bottomup.py::TestCrossValidation \
	tests/test_prop_optimizer.py::test_served_lookup_safety_is_the_from_scratch_verdict \
	tests/test_prop_optimizer.py::test_rule_normal_forms_are_the_backchase_normal_forms

.PHONY: test check lint loc profile golden determinism fuzz examples bench \
	bench-smoke bench-e18 bench-e19 bench-e20 chain mutants

test:
	$(PYTEST) -x -q --durations=25

# The chained gate: unit/integration tests first (excluding the smoke and
# golden markers so failures localize), then the benchmark smokes, the
# cross-strategy golden suite, the benchmark harness's own tests, and the
# hash-seed sweep, then the example scripts.
check: lint
	$(PYTEST) -x -q --durations=15 -m "not bench_smoke and not golden"
	$(PYTEST) -q --durations=15 -m bench_smoke tests/test_bench_smoke.py
	$(PYTEST) -q -m golden $(GOLDEN_FILES)
	$(PYTEST) -q benchmarks/perf
	$(MAKE) --no-print-directory determinism
	$(MAKE) --no-print-directory examples

determinism:
	for seed in 0 1 2; do \
		PYTHONHASHSEED=$$seed $(PYTEST) -q $(DETERMINISM_TESTS) || exit 1; \
	done

fuzz:
	$(PYTEST) -q --hypothesis-profile=explore tests/test_prop_*.py

# Bytecode goes to a throwaway PYTHONPYCACHEPREFIX, removed afterwards, so
# linting leaves no __pycache__ in the tree (a tree with warm bytecode
# starts faster, which skews any setup-time comparison against one without).
lint:
	cache=$$(mktemp -d); export PYTHONPYCACHEPREFIX=$$cache; \
	python -m compileall -q src tests benchmarks && \
	PYTHONPATH=src python -m repro.analysis && \
	python tests/check_golden_freshness.py; \
	status=$$?; rm -rf "$$cache"; exit $$status

# Each script runs from a throwaway directory with its bytecode kept
# there too (observability.py writes its trace sample to the working
# directory), so the tree is left as it was.
examples:
	@root=$$(pwd); tmp=$$(mktemp -d); status=0; \
	export PYTHONPATH="$$root/src" PYTHONPYCACHEPREFIX="$$tmp/pycache"; \
	for script in examples/*.py; do \
		echo "examples: $$script"; \
		(cd "$$tmp" && python "$$root/$$script" > /dev/null) \
			|| { status=1; break; }; \
	done; \
	rm -rf "$$tmp"; exit $$status

mutants:
	python tests/mutants.py

loc:
	@find src/repro -name '*.py' | xargs cat | wc -l \
		| xargs echo "src/repro total lines:"
	@find src/repro -name '*.py' | xargs cat | grep -cvE '^[[:space:]]*(#|$$)' \
		| xargs echo "src/repro non-blank/non-comment lines:"

profile:
	PYTHONPATH=src python -m cProfile -s tottime -m repro optimize \
		--workload projdept | grep -A 25 'Ordered by'

golden:
	GOLDEN_REGEN=1 $(PYTEST) -q -m golden $(GOLDEN_FILES)
	@git --no-pager diff --stat tests/golden/ || true

bench-smoke:
	$(PYTEST) -q -m bench_smoke tests/test_bench_smoke.py

bench-e18:
	$(PYTEST) -q benchmarks/bench_e18_obs.py

bench-e19:
	$(PYTEST) -q benchmarks/bench_e19_compiled.py

bench-e20:
	$(PYTEST) -q benchmarks/bench_e20_feedback.py

chain:
	PYTHONPATH=src python benchmarks/chain.py

bench:
	$(PYTEST) -q benchmarks/bench_*.py
