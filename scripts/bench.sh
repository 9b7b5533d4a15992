#!/bin/sh
# bench.sh — capture the repository's benchmark baseline into BENCH_<date>.json.
#
# Runs the cycle-kernel microbenchmark plus the class-representative figure
# benchmarks (one workload per LL/LH/HH traffic class, see bench_test.go)
# with -benchmem, and appends a labelled capture to a JSON file via
# cmd/benchjson. Run it before and after a performance change with different
# labels to record the before/after pair in one file:
#
#	scripts/bench.sh before-refactor
#	... make changes ...
#	scripts/bench.sh after-refactor
#
# Usage: scripts/bench.sh [label] [outfile]
set -eu
cd "$(dirname "$0")/.."

LABEL="${1:-capture}"
OUT="${2:-BENCH_$(date +%F).json}"

{
	# Cycle-kernel microbenchmarks: fixed iteration count so allocs/op and
	# hops/cycle are comparable across captures. The sharded-kernel rows
	# (…-s1/-s2/-s4) additionally get a derived speedup_vs_s1 metric from
	# cmd/benchjson (suppressed on single-core hosts, where the ratio would
	# only measure coordination overhead).
	# The lane-batched kernel rows (…-l1/-l4) likewise get a derived
	# per-seed speedup_vs_l1 metric (valid on any host: lane batching is
	# work elision, not parallelism).
	go test -run '^$' -bench 'BenchmarkCycleKernel|BenchmarkShardedKernel|BenchmarkBackendKernel|BenchmarkLaneKernel' -benchmem -benchtime 2000x ./internal/noc/
	# GPU core model: one core cycle on a never-ending LL and HH kernel
	# against a fixed-latency memory (alloc-gated at 0 allocs/op in CI).
	go test -run '^$' -bench 'BenchmarkCoreTick' -benchmem -benchtime 200000x ./internal/gpu/
	# Sweep-planner microbenchmarks: a warm re-plan of an explorer-shaped
	# sweep (alloc-gated at 0 allocs/op in CI) plus the planned submission
	# path on a stub kernel.
	go test -run '^$' -bench 'BenchmarkSweepPlanner|BenchmarkSweepSubmission' -benchmem -benchtime 200x ./internal/runner/
	# Class-representative figure benchmarks (hm_speedup metrics et al) and
	# the idle-horizon fast-forward pairs, whose skip rows get a derived
	# speedup_vs_noskip metric from cmd/benchjson.
	go test -run '^$' -bench 'Fig|Table|Headline|IdleSkip' -benchmem -benchtime 1x .
	# Lane-batched end-to-end throughput (memory-bound manycore closed loop
	# at 1 and 4 seed lanes). Longer benchtime: the per-seed speedup_vs_l1
	# ratio is the headline number and single-iteration noise would swamp it.
	go test -run '^$' -bench 'BenchmarkLaneThroughput' -benchmem -benchtime 5x .
} 2>&1 | go run ./cmd/benchjson -label "$LABEL" -out "$OUT"
