#!/usr/bin/env sh
# CI gate for probnucleus.
#
# Runs the tier-1 verify (build + tests) plus the static and dynamic race
# checks that exercise the parallel decomposition engine: `go vet` over every
# package and the full test suite under the race detector. The differential
# tests in internal/core, internal/decomp, internal/graph, and internal/mc
# run the worker pools at 1/2/8 workers, so `go test -race` drives every
# concurrent path, including the g-NuDecomp lane scan, whose 64-world blocks
# merge per-worker counts; dedicated -race passes then re-run that scan's
# differentials, the weak seed and kernel differentials, the world-mask
# bank's pool and window differentials (internal/mc, the one world sampler),
# the level-synchronous local peel's batch differential and scratch tests
# (its sub-rounds kill cliques into per-part buffers and re-score triangles
# in parallel), the serving Engine's concurrent stress and cancellation tests
# for extra scheduling variation, and the fault-tolerance chaos suite
# (deterministic injected panics/delays/cancels, shard quarantine/rebuild,
# goroutine-leak gate).
#
# The test suite includes the shared-world steady-state allocation gates
# (internal/core/arena_test.go: validating one more candidate — closure
# growth, seeding from the per-call union tables, the per-window transpose,
# lane scan, verdict, weak seed cut from the root incidence + lane scoring —
# must allocate nothing) and the benchmark allocation gates (the root
# package's TestBenchmarkAllocs holds the BenchmarkFig4LocalDP,
# BenchmarkGlobal, BenchmarkWeak and BenchmarkEngineContended rows to 1.25×
# their recorded allocs/op; it skips under -race), so a single
# `go test ./...` run asserts them. The wall-clock gates live in the
# benchmarks themselves (2× the recorded ns/op in those four, and
# BenchmarkColdStart's flickr artifact load ≥ 10× faster than prepare) and
# fire only on multi-iteration runs, so CI does not run them; run them by
# hand with
#   go test -run '^$' -bench '^(BenchmarkFig4LocalDP|BenchmarkGlobal|BenchmarkWeak|BenchmarkEngineReuse|BenchmarkEngineContended|BenchmarkColdStart)$' -benchmem -benchtime 3x .
# `goldendump -check` then verifies the global/weak golden snapshot through
# the same command that regenerates it (drop -check after an intentional
# semantic change).
#
# Usage: scripts/ci.sh [package-pattern]   (default ./...)
set -eu

cd "$(dirname "$0")/.."

pkgs="${1:-./...}"

# race_pass PATTERN PKG... re-runs the tests PATTERN selects in the packages
# under the race detector, twice. `go test -run` with a pattern that names no
# test passes with "no tests to run", so a renamed test would leave its pass
# silently empty: first, every |-separated alternative of PATTERN must match
# a test that `go test -list` reports in the packages, as -run would match
# it (unanchored), or the gate fails.
race_pass() {
	pattern="$1"
	shift
	listed="$(go test -list "$pattern" "$@")"
	names="$(printf '%s\n' "$listed" | grep -E '^(Test|Fuzz|Example)' || true)"
	old_ifs="$IFS"
	IFS='|'
	set -f
	for alt in $pattern; do
		if ! printf '%s\n' "$names" | grep -Eq -- "$alt"; then
			echo "race pass: '$alt' of -run '$pattern' names no test in $*" >&2
			exit 1
		fi
	done
	set +f
	IFS="$old_ifs"
	go test -race -count=2 -run "$pattern" "$@"
}

# gofmt -l lists every Go file whose formatting differs from gofmt's (the
# nested perfbench module included; hidden directories such as the
# benchmark's .bench_build cache are skipped); any listed file fails the
# gate.
echo "==> gofmt -l"
unformatted="$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go build $pkgs"
go build "$pkgs"

echo "==> go vet $pkgs"
go vet "$pkgs"

echo "==> go test $pkgs"
go test "$pkgs"

echo "==> go test -race $pkgs"
go test -race "$pkgs"

# perfbench/ is a nested module (it builds the library from the sources next
# to it through a replace directive), so the root ./... above never builds,
# vets or tests it.
echo "==> go vet + go test (perfbench module)"
(cd perfbench && go vet ./... && go test ./...)

# The g-NuDecomp lane scan spreads a window's 64-world blocks over the pool
# and sums per-worker counts, so its lane-vs-reference differential (1, 2
# and 8 workers), the differential of the union tables cut from the root
# incidence against the view-and-lookup construction, and the worker-count
# and window differentials of the whole global kernel get a repeated -race
# pass of their own. The window differential's early-prune case drops
# closures before they are seeded on the first window and on later ones, so
# this pass also covers the multi-window path of the closure-first prune.
echo "==> go test -race global lane scan and union (lane and union differentials, worker and window differentials)"
race_pass 'TestScanLanesMatchesReference|TestWorldCheckUnionMatchesReference' ./internal/decomp
race_pass 'TestGlobalNucleiDifferential|TestGlobalNucleiWindowedDifferential' ./internal/core

# The w-NuDecomp kernel cuts each candidate's peel seed from the shared root
# incidence and scores 64-world blocks on per-worker scorers from shard-held
# scratch, so the seed's differential against the reference that restricts
# the root index to the candidate and resolves cliques by triangle-id lookup,
# and the weak kernel's worker-count and window differentials get the same
# repeated -race pass.
echo "==> go test -race weak seed and kernel (seed differential, worker and window differentials)"
race_pass 'TestWorldPeelSeedMatchesReference|TestKNucleiMatchesReference' ./internal/decomp
race_pass 'TestWeaklyGlobalNucleiDifferential|TestWeaklyGlobalNucleiWindowedDifferential' ./internal/core

# Every g- and w-NuDecomp world is drawn by mc.Bank.WorldMasksWindow, the
# one world sampler. Its pool workers reseed per-worker PRNGs in place, and
# its fill closure is hoisted onto the Bank and reads per-call fields, so
# the whole package — the 1/2/8-worker bank differential, every window cut
# against the full bank, the comparison with materialized SampleWorld
# worlds, and the reuse tests — gets a repeated -race pass.
echo "==> go test -race world-mask bank (pool and window differentials, bank reuse)"
go test -race -count=2 ./internal/mc

# The ℓ-NuDecomp peel is level-synchronous: each sub-round kills the
# cliques of a whole level in parallel, every batch triangle writing its own
# slots and its part's pair buffer, and then deconvolves and re-scores the
# affected triangles in parallel, each writing only its own state. So the
# differential against the sequential peel (1, 2 and 8 workers, DP and AP),
# the batch removal's differential against RemoveTriangle, and the tests
# that one shard's scratch — batch stamps, pair buffers, grouped slots —
# carries nothing from one peel into the next and allocates no more with
# more workers get a repeated -race pass of their own.
echo "==> go test -race level-synchronous local peel (batch differential, scratch reuse, allocation gates)"
race_pass 'TestBatchPeelMatchesSequential|TestLocalScratchReuse|TestLocalWarmPeelAllocatesLittle|TestLocalAllocsWorkerIndependent|TestShardDropsLocalScratch' ./internal/core
race_pass 'TestRemoveBatchMatchesRemoveTriangle' ./internal/decomp

# The serving engine's concurrency contract gets extra scheduling variation
# beyond the one -race pass above: repeated runs of the stress test (N
# goroutines each preparing a graph and querying all three semantics from
# the artifact on shared shards, byte-compared against the package-level
# functions), the cancellation tests that prove a
# cancelled shard is reusable, and the overload/shutdown tests — bounded
# admission rejecting with ErrOverloaded while saturated, idempotent Close
# racing in-flight traffic — that back the 503/graceful-drain behaviour of
# examples/engine-server (whose httptest suite re-runs under -race too).
echo "==> go test -race engine stress (concurrent serving + overload/shutdown)"
race_pass 'TestEngineConcurrentStress|TestEngineCancellation|TestEngineDeadline|TestEngineOverload|TestEngineCloseIdempotent|TestEngineConcurrentCloseStress' ./internal/core
go test -race -count=2 ./examples/engine-server

# The prepare/execute split and the multi-graph registry get their own -race
# passes. TestPreparedConcurrentShared and TestRegistryDifferential are the
# split's semantic gate: results computed against a shared prepared artifact
# — or served from the registry's cache — must be byte-identical to the
# package-level functions, which prepare their graph on every call, with
# zero triangle-index rebuilds after registration (or after Prepare). TestRegistrySingleflight pins one-compute-per-burst
# coalescing, and TestRegistryChurn is the eviction-churn chaos case:
# concurrent Put/Delete racing cached queries may only ever fail with
# ErrUnknownGraph, never serve a stale or torn result.
echo "==> go test -race registry suite (prepared differential, singleflight, churn)"
race_pass 'TestPreparedMatchesPerCall|TestPreparedConcurrentShared|TestPrepareBuildsIndexOnce' ./internal/core
go test -race -count=2 ./internal/registry

# The persistent-artifact subsystem re-runs under -race alongside the
# registry it warm-starts: the Save/Load round-trip differential (loaded
# Prepared byte-identical to the enumerated one across all three semantics,
# zero index rebuilds), the corruption/truncation matrix over every header,
# table, and section field, the structural-vs-cross-reference validation
# tiering, and the fuzz corpus for FuzzLoadArtifact (crafted files must fail
# typed, never panic or over-allocate).
echo "==> go test -race artifact suite (round-trip differential, corruption matrix, fuzz corpus)"
go test -race -count=2 ./internal/artifact

# The fault-tolerance layer's chaos suite gets its own -race pass: randomized
# injected panics/delays/forced-cancels across all three semantics must never
# crash the process, leak or double-release a shard, or surface an untyped
# error; quarantined shards must rebuild back to full capacity; and Close —
# plain, racing a rebuild, or mid-chaos — must leave no engine or pool
# goroutine behind. The par-level panic containment and the injector's
# determinism run alongside.
echo "==> go test -race chaos suite (fault injection, quarantine/rebuild, leak gate)"
race_pass 'TestEngineChaos|TestEngineQuarantineRebuild|TestEngineDoomedAdmission|TestEngineCloseLeaksNoGoroutines|TestPoolPanicPropagates|TestPoolAllWorkersPanic|TestPoolSingleWorkerPanicUnwrapped' ./internal/core ./internal/par
go test -race -count=2 ./internal/fault

echo "==> goldendump -check (global/weak snapshot)"
go run ./cmd/goldendump -check

echo "CI OK"
