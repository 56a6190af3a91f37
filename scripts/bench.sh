#!/usr/bin/env bash
# Benchmark-regression gate: a paired A/B of the working tree against a
# base commit, timed on this machine in this run, so no verdict rests on
# a number recorded on another host or another day.
#
# Usage:
#   scripts/bench.sh [BASE]     BASE is any git revision (default HEAD)
#
# BASE is extracted with git archive into a temporary directory (local,
# no network). The internal/core, internal/machine and internal/sweep
# test binaries are built for both sides, and the two sides run
# alternately for ROUNDS rounds at BENCHTIME with -benchmem; the side
# that goes first switches every round, so drift in the host's speed
# lands on both sides alike. cmd/benchgate then pairs round i of each
# benchmark across the sides and fails a benchmark whose median
# change/base ns/op ratio exceeds 1+bound while the change was slower in
# at least 9 of 10 rounds, whose median allocs/op grew, or that is
# missing on the change side.
#
# Families and bounds:
#   dispatch  BenchmarkRun*, BenchmarkFlushStorm (internal/core) and
#             BenchmarkNativeRun (internal/machine): 5%
#   sweep     BenchmarkSweep*, BenchmarkMatrixExpand (internal/sweep): 10%;
#             it exercises worker scheduling and channel fan-in, which
#             are noisier
# See docs/PERF.md, "The benchmark-regression gate".
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${1:-HEAD}
ROUNDS=10
BENCHTIME=0.5s
DISPATCH='^(BenchmarkRun|BenchmarkFlushStorm|BenchmarkNativeRun)' DISPATCH_BOUND=0.05
SWEEP='^(BenchmarkSweep|BenchmarkMatrixExpand)' SWEEP_BOUND=0.10

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$BASE" | tar -x -C "$work/base"

for pkg in core machine sweep; do
    (cd "$work/base" && go test -c -o "$work/base-$pkg.test" "./internal/$pkg")
    go test -c -o "$work/change-$pkg.test" "./internal/$pkg"
done
go build -o "$work/benchgate" ./cmd/benchgate

# bench SIDE PKG PATTERN FAMILY appends one round of PKG's benchmarks on
# SIDE to the family's output, run from the package directory of that
# side's tree as go test would.
bench() {
    local side=$1 pkg=$2 pattern=$3 family=$4 tree=.
    if [ "$side" = base ]; then tree=$work/base; fi
    (cd "$tree/internal/$pkg" &&
        "$work/$side-$pkg.test" -test.run '^$' -test.bench "$pattern" \
            -test.benchtime "$BENCHTIME" -test.benchmem -test.timeout 10m) >>"$work/$family.$side"
}

for round in $(seq "$ROUNDS"); do
    if ((round % 2)); then order="base change"; else order="change base"; fi
    echo "bench: round $round/$ROUNDS ($order first)"
    for side in $order; do bench "$side" core "$DISPATCH" dispatch; done
    for side in $order; do bench "$side" machine "$DISPATCH" dispatch; done
    for side in $order; do bench "$side" sweep "$SWEEP" sweep; done
done

status=0
echo "bench: dispatch family against $BASE (bound $DISPATCH_BOUND)"
"$work/benchgate" -bound $DISPATCH_BOUND "$work/dispatch.base" "$work/dispatch.change" || status=1
echo "bench: sweep family against $BASE (bound $SWEEP_BOUND)"
"$work/benchgate" -bound $SWEEP_BOUND "$work/sweep.base" "$work/sweep.change" || status=1
exit $status
