# Convenience targets. Everything is plain pytest / python -m underneath.

.PHONY: install test lint check bench bench-kernel bench-supervisor bench-service bench-analysis bench-streaming bench-chaos bench-drat chaos-drill tables tables-large ablations export examples clean

install:
	pip install -e .

test:
	pytest tests/

lint:
	python tools/lint.py

# What CI runs: static analysis of the codebase, then the tier-1 suite.
check: lint test

bench:
	pytest benchmarks/ --benchmark-only

# Resolution kernel vs. frozenset oracle (decode, chain resolve, end-to-end
# per checker); writes results/BENCH_kernel.json and fails if the
# breadth-first end-to-end speedup drops below 2x. `--quick` for CI smoke.
bench-kernel:
	python benchmarks/bench_kernel.py

# Fault-free overhead of the checking supervisor (deadline polling +
# wrapper) vs a bare breadth-first check; writes
# results/BENCH_supervisor.json and fails if overhead exceeds 5%.
bench-supervisor:
	python benchmarks/bench_supervisor.py

# Checking service: cold vs warm verdict-cache check and queue throughput
# at 1/2/4 workers; writes results/BENCH_service.json and fails if the
# warm-cache speedup drops below 10x. `--quick` for CI smoke.
bench-service:
	python benchmarks/bench_service.py

# Graph analyzer cost + core-first pruning payoff on a dead-lemma-heavy
# trace; writes results/BENCH_analysis.json and fails if the pruned BF
# speedup drops below 1.3x or the analyzer pass costs >= 10% of the
# unpruned check. `--quick` for CI smoke.
bench-analysis:
	python benchmarks/bench_analysis.py

# Fault-free overhead of the fault-injection plane (unarmed probes on the
# journal + verdict-cache bookkeeping paths); writes
# results/BENCH_chaos.json and fails if attributed overhead exceeds 2%.
# `--quick` for CI smoke.
bench-chaos:
	python benchmarks/bench_chaos.py

# The full chaos drill: SIGKILL / torn-write / ENOSPC injected at every
# registered fault point of the checking service, asserting exactly-once
# verdicts and clean recovery.
chaos-drill:
	python -m pytest -x -q tests/service/test_faults.py tests/service/test_chaos.py

# Constant-memory gate for the streaming shifting-window checker: flat
# peak residency across 1x/3x/10x generated traces, time within 1.5x of
# BF, and the supervisor ladder landing on the streaming tier; writes
# results/BENCH_streaming.json. `--quick` for CI smoke.
bench-streaming:
	python benchmarks/bench_streaming.py

# DRAT forward vs backward (core-first) checking on a generated fixture;
# writes results/BENCH_drat.json and fails if backward skips < 30% of add
# steps or takes longer than forward. `--quick` for CI smoke.
bench-drat:
	python benchmarks/bench_drat.py

tables:
	python -m repro.experiments all --scale medium

tables-large:
	python -m repro.experiments all --scale large

ablations:
	python -m repro.experiments ablations --scale medium

export:
	python -m repro.experiments export --scale medium --out-dir suite-export

examples:
	@for ex in examples/*.py; do echo "== $$ex"; python $$ex || exit 1; done

clean:
	rm -rf .pytest_cache suite-export **/__pycache__
