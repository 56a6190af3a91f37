#!/usr/bin/env bash
# Full CI gate: gofmt, vet, build, race-enabled tests, a short fuzz smoke of
# every fuzz target, a single-iteration bench smoke and the paired bench
# gate against HEAD. Strictly a superset of the tier-1 check
# (go build ./... && go test ./...).
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-10s}

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test -race"
go test -race ./...

# Predictor validation probes: each probe asserts closed-form hit/miss
# counts for one BTB/RAS geometry property (capacity, associativity,
# index hashing, two-level promotion, RAS depth/corruption/repair), plus
# the quick-check equivalence of the parameterized structures to the
# legacy flat predictors. Covered by the -race run above; re-run -v so a
# probe regression is named in the CI log. See docs/MODEL.md,
# "Predictor fidelity".
echo "==> predictor probe suite"
go test -race -v -run '^(TestProbes|TestProbeSuiteCoverage|TestBTBLegacyEquivalence|TestRASLegacyEquivalence)$' ./internal/predictor

# Cache span fast path: random interleavings of span walks, single
# accesses, evicting misses and resets must leave every line, the tick and
# the hit/miss counts exactly as per-line Access does, and a span stamped
# by one cache must never take the fast path on another. Covered by the
# -race run above; re-run -v so a failure is named in the CI log. See
# docs/PERF.md, "Span I-fetch fast path".
echo "==> cache span equivalence"
go test -race -v -run '^(TestSpanWalkEquivalence|TestSpanStampBoundToCache)$' ./internal/cache

# Compiled-image memo: every memoized /v1/run and sweep-cell store key
# must equal RunRequest.key of a fresh compile, concurrent first
# submissions must compile once, failures must not be memoized, and both
# bounds must hold. Covered by the -race run above; re-run -v so a failure
# is named in the CI log. See docs/PERF.md, "Compiled-image memo".
echo "==> image memo"
go test -race -v -run '^(TestImageMemo.*|TestSweepImageMemoBounded|TestPrepareCellKeyMatchesRunKey|TestWeightedLRU)$' ./internal/service ./internal/store

# /v1/run request decoding: the one-pass scanner must decode exactly as
# the encoding/json reference does or decline, every serve-mix body must
# take the scanner, and the verbatim response write must equal
# json.Encoder's bytes. Covered by the -race run above; re-run -v so a
# failure is named in the CI log. See docs/PERF.md, "Request decoding".
echo "==> run request decoding"
go test -race -v -run '^(TestScanRun.*|FuzzDecodeRun|TestWriteRunMatchesEncoder|TestBodyCapAndTrailingData|TestBadRequests)$' ./internal/service

# Coordinator failover under the race detector, repeated: an adopted
# cluster sweep must replay every cell the dead coordinator journaled,
# including results still in the replication queue (read from the peer
# tier) and the final journal push after a drain. One run in tens used
# to lose a cell; see docs/CLUSTER.md, "Coordinator failover".
echo "==> adoption replay (race, x20)"
go test -race -count=20 -run 'TestClusterSweepAdoptedBySurvivor$' ./internal/service

# Both daemon drivers below run one sdtd built here and passed with -bin
# (make smoke / make chaos exercise their own go-build fallback).
sdtd_dir=$(mktemp -d)
trap 'rm -rf "$sdtd_dir"' EXIT
go build -o "$sdtd_dir/sdtd" ./cmd/sdtd

# End-to-end daemon smoke: starts sdtd on an ephemeral port,
# exercises cold/cached submissions against direct sdt.Run, deadline
# cancellation, SIGTERM drain, and a two-node cluster serving each
# other's result stores (docs/CLUSTER.md). See cmd/sdtdsmoke.
echo "==> sdtd smoke"
go run ./cmd/sdtdsmoke -bin "$sdtd_dir/sdtd"

# Hostile-conditions gate: the same daemon under a deterministic fault
# plan — injected disk errors, corruption, worker panics, a SIGKILLed
# checkpointed sweep, and a three-node cluster losing a member
# mid-sweep — must stay up and keep returning byte-identical results.
# Fixed seed so a failure reproduces. See docs/ROBUSTNESS.md and
# docs/CLUSTER.md.
echo "==> sdtd chaos"
go run ./cmd/sdtchaos -seed 42 -bin "$sdtd_dir/sdtd"

# Each fuzz target gets a short randomized smoke on top of its seed
# corpus. Go only allows one -fuzz pattern per package invocation, so
# list them explicitly. The fuzzer stops executing while it minimizes a
# new input (60 s by default), so minimization is bounded to 100 runs.
fuzz() {
    local pkg=$1 target=$2
    echo "==> fuzz $target ($pkg, $FUZZTIME)"
    go test "$pkg" -run='^$' -fuzz="^$target\$" -fuzztime="$FUZZTIME" -fuzzminimizetime=100x
}
fuzz ./internal/asm     FuzzAssemble
fuzz ./internal/minic   FuzzCompile
fuzz ./internal/oracle  FuzzDifferential
fuzz ./internal/oracle  FuzzMinimize
fuzz ./internal/service FuzzDecodeSweep
fuzz ./internal/service FuzzDecodeRun
fuzz ./internal/service FuzzDecodeMemberChange

echo "==> bench smoke"
go test -run='^$' -bench=. -benchtime=1x ./...

# Simulated results are the science: the full experiment suite must
# reproduce the committed eval_reference.txt byte for byte. A change that
# moves a simulated number regenerates the file, says why, and bumps
# hostarch.CostModelVersion (see EXPERIMENTS.md).
echo "==> eval_reference drift"
go run ./cmd/sdtbench | cmp - eval_reference.txt

# Regression gate: a paired A/B of the working tree against HEAD, the
# two sides' test binaries run alternately on this machine. A dispatch
# benchmark fails when its median change/base ns/op ratio exceeds 1.05
# (sweep: 1.10) and the change was slower in at least 9 of 10 rounds,
# and any benchmark fails when its median allocs/op grew. See
# docs/PERF.md, "The benchmark-regression gate".
echo "==> bench gate"
scripts/bench.sh

echo "CI OK"
