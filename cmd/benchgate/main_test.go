package main

import (
	"fmt"
	"strings"
	"testing"
)

const benchmemOutput = `goos: linux
goarch: amd64
pkg: sdt/internal/core
BenchmarkRunDispatchIBTC-8   	     100	  15256894 ns/op	        42.28 guest-MIPS	 4347643 B/op	      59 allocs/op
BenchmarkRunDispatchIBTC-8   	     100	  15000000 ns/op	        43.00 guest-MIPS	 4347000 B/op	      61 allocs/op
BenchmarkRunDispatchIBTC-8   	     100	  16000000 ns/op	        41.00 guest-MIPS	 4348000 B/op	      57 allocs/op
PASS
`

// The same benchmark run WITHOUT -benchmem: no allocs/op or B/op samples.
const noBenchmemOutput = `goos: linux
BenchmarkRunDispatchIBTC-8   	     100	  15256894 ns/op	        42.28 guest-MIPS
PASS
`

// Each benchmark's samples are kept per unit in input order, so round i
// of one side pairs with round i of the other.
func TestParseBenchMedians(t *testing.T) {
	got, err := parseBench(strings.NewReader(benchmemOutput))
	if err != nil {
		t.Fatal(err)
	}
	units, ok := got["BenchmarkRunDispatchIBTC"]
	if !ok {
		t.Fatalf("benchmark not parsed; got %v", got)
	}
	want := map[string][]float64{
		"ns/op":      {15256894, 15000000, 16000000},
		"guest-MIPS": {42.28, 43.00, 41.00},
		"B/op":       {4347643, 4347000, 4348000},
		"allocs/op":  {59, 61, 57},
	}
	for unit, vs := range want {
		if fmt.Sprint(units[unit]) != fmt.Sprint(vs) {
			t.Errorf("%s = %v, want %v", unit, units[unit], vs)
		}
	}
	if m, _ := median(units["ns/op"]); m != 15256894 {
		t.Errorf("ns/op median = %v, want 15256894", m)
	}
	if m, _ := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", m)
	}
}

// A run without -benchmem must parse with the memory metrics ABSENT —
// not as a measured 0 (median(nil) used to return 0, letting the allocs
// rule pass vacuously).
func TestParseBenchWithoutBenchmemLeavesMetricsAbsent(t *testing.T) {
	got, err := parseBench(strings.NewReader(noBenchmemOutput))
	if err != nil {
		t.Fatal(err)
	}
	units, ok := got["BenchmarkRunDispatchIBTC"]
	if !ok {
		t.Fatalf("benchmark not parsed; got %v", got)
	}
	if _, ok := median(units["allocs/op"]); ok {
		t.Errorf("allocs/op = %v, want absent", units["allocs/op"])
	}
	if _, ok := units["B/op"]; ok {
		t.Errorf("B/op = %v, want absent", units["B/op"])
	}
	if m, _ := median(units["ns/op"]); m != 15256894 {
		t.Errorf("ns/op = %v, want 15256894", m)
	}
}

// Lines with an odd field count used to be dropped wholesale; the paired
// prefix must be kept and only the unpaired trailing field ignored.
func TestParseBenchOddFieldLine(t *testing.T) {
	odd := "BenchmarkOdd-8   	     100	  123 ns/op	      7 allocs/op	trailing\n"
	got, err := parseBench(strings.NewReader(odd))
	if err != nil {
		t.Fatal(err)
	}
	units, ok := got["BenchmarkOdd"]
	if !ok {
		t.Fatalf("odd-field line dropped; got %v", got)
	}
	if fmt.Sprint(units["ns/op"], units["allocs/op"]) != "[123] [7]" {
		t.Errorf("ns/op, allocs/op = %v, %v; want [123], [7]", units["ns/op"], units["allocs/op"])
	}
}

func TestParseBenchIgnoresProse(t *testing.T) {
	input := "BenchmarkResults were inconclusive today\nBenchmarkReal-4 10 50 ns/op\n"
	got, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["BenchmarkResults"]; ok {
		t.Error("prose line starting with Benchmark was parsed as a result")
	}
	if units, ok := got["BenchmarkReal"]; !ok || len(units["ns/op"]) != 1 || units["ns/op"][0] != 50 {
		t.Errorf("real line not parsed: %v", got)
	}
}

// Only a numeric -GOMAXPROCS suffix is stripped: with GOMAXPROCS=1 the
// testing package prints none, and a sub-benchmark name may hold a dash.
func TestParseBenchStripsOnlyProcsSuffix(t *testing.T) {
	input := "BenchmarkNativeRun/gcc/x86-2 10 50 ns/op\nBenchmarkRunHit/src=a-b 10 60 ns/op\n"
	got, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkNativeRun/gcc/x86", "BenchmarkRunHit/src=a-b"} {
		if _, ok := got[name]; !ok {
			t.Errorf("%s not parsed; got %v", name, got)
		}
	}
}

// rounds builds a benchmark's per-round samples: ns/op values and a
// constant allocs/op.
func rounds(ns []float64, allocs float64) map[string][]float64 {
	a := make([]float64, len(ns))
	for i := range a {
		a[i] = allocs
	}
	return map[string][]float64{"ns/op": ns, "allocs/op": a}
}

// aaRounds is ten rounds of one benchmark with a few percent of jitter.
var aaRounds = []float64{100, 103, 98, 101, 99, 104, 97, 100, 102, 99}

func scaled(ns []float64, f func(i int) float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v * f(i)
	}
	return out
}

func mustGate(t *testing.T, base, change samples, bound float64) report {
	t.Helper()
	r, err := gate(base, change, bound)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func failsOn(r report, name string) bool {
	for _, f := range r.failures {
		if strings.HasPrefix(f, name+":") {
			return true
		}
	}
	return false
}

// An A/A comparison — the same samples in another order on the change
// side — passes, and every benchmark gets a summary row.
func TestGateAAPasses(t *testing.T) {
	base := samples{"A": rounds(aaRounds, 3), "B": rounds(scaled(aaRounds, func(int) float64 { return 7 }), 0)}
	rev := make([]float64, len(aaRounds))
	for i, v := range aaRounds {
		rev[len(rev)-1-i] = v
	}
	change := samples{"A": rounds(rev, 3), "B": rounds(scaled(rev, func(int) float64 { return 7 }), 0)}
	r := mustGate(t, base, change, 0.05)
	if len(r.failures) != 0 || len(r.notes) != 0 {
		t.Fatalf("A/A: failures %v, notes %v", r.failures, r.notes)
	}
	if len(r.rows) != 2 {
		t.Fatalf("rows = %v, want one per benchmark", r.rows)
	}
}

// A uniform +10% fails a 5% bound and passes a 10% one (the sweep
// family's); a benchmark in the base but not in the change fails.
func TestGateNsRegressionAndMissingBenchmark(t *testing.T) {
	base := samples{"A": rounds(aaRounds, 0), "B": rounds(aaRounds, 0)}
	change := samples{
		"A": rounds(scaled(aaRounds, func(int) float64 { return 1.10 }), 0),
		"B": rounds(scaled(aaRounds, func(int) float64 { return 1.10 }), 0),
	}
	r := mustGate(t, base, change, 0.05)
	if !failsOn(r, "A") || !failsOn(r, "B") {
		t.Fatalf("uniform +10%% passed a 5%% bound: %v", r.failures)
	}
	if r := mustGate(t, base, change, 0.10); len(r.failures) != 0 {
		t.Fatalf("uniform +10%% failed a 10%% bound: %v", r.failures)
	}
	r = mustGate(t, base, samples{"A": rounds(aaRounds, 0)}, 0.05)
	if !failsOn(r, "B") || len(r.failures) != 1 {
		t.Fatalf("failures = %v, want B reported missing", r.failures)
	}
}

// One row slower by 20% in every round fails and is named; its neighbour
// at parity passes.
func TestGateOneSlowRowFails(t *testing.T) {
	base := samples{"Fast": rounds(aaRounds, 0), "Slow": rounds(aaRounds, 0)}
	change := samples{
		"Fast": rounds(aaRounds, 0),
		"Slow": rounds(scaled(aaRounds, func(int) float64 { return 1.20 }), 0),
	}
	r := mustGate(t, base, change, 0.05)
	if !failsOn(r, "Slow") || failsOn(r, "Fast") || len(r.failures) != 1 {
		t.Fatalf("failures = %v, want Slow alone", r.failures)
	}
}

// A median ratio past the bound is not enough: the change must also be
// slower in 9 of 10 rounds. 1.06 with 7 of 10 slower rounds passes; the
// same median with 9 of 10 fails.
func TestGateNeedsNineOfTenSlowerRounds(t *testing.T) {
	seven := []float64{1.06, 1.06, 1.06, 1.06, 1.06, 1.06, 1.06, 0.99, 0.99, 0.99}
	nine := []float64{1.06, 1.06, 1.06, 1.06, 1.06, 1.06, 1.06, 1.06, 1.06, 0.99}
	base := samples{"A": rounds(aaRounds, 0)}
	r := mustGate(t, base, samples{"A": rounds(scaled(aaRounds, func(i int) float64 { return seven[i] }), 0)}, 0.05)
	if len(r.failures) != 0 {
		t.Fatalf("median 1.06 slower in 7 of 10 failed: %v (rows %v)", r.failures, r.rows)
	}
	r = mustGate(t, base, samples{"A": rounds(scaled(aaRounds, func(i int) float64 { return nine[i] }), 0)}, 0.05)
	if !failsOn(r, "A") {
		t.Fatalf("median 1.06 slower in 9 of 10 passed (rows %v)", r.rows)
	}
}

func TestGateAllocsRegression(t *testing.T) {
	base := samples{"A": rounds(aaRounds, 17)}
	if r := mustGate(t, base, samples{"A": rounds(aaRounds, 17)}, 0.05); len(r.failures) != 0 {
		t.Fatalf("equal allocs failed: %v", r.failures)
	}
	r := mustGate(t, base, samples{"A": rounds(aaRounds, 18)}, 0.05)
	if !failsOn(r, "A") || !strings.Contains(r.failures[0], "allocs/op") {
		t.Fatalf("one extra allocation per op passed: %v", r.failures)
	}
	// Fewer allocations are not a failure.
	if r := mustGate(t, base, samples{"A": rounds(aaRounds, 16)}, 0.05); len(r.failures) != 0 {
		t.Fatalf("fewer allocs failed: %v", r.failures)
	}
}

// A GC that empties a sync.Pool mid-round adds allocations to that round
// alone (BenchmarkFlushStorm reads 41, 42 or 43 allocs/op from one
// binary), so rounds whose medians differ pass while the fewest agree.
func TestGateAllocationRefillNoisePasses(t *testing.T) {
	base := samples{"A": {"ns/op": aaRounds, "allocs/op": {41, 41, 43, 41, 42, 41, 41, 42, 41, 41}}}
	change := samples{"A": {"ns/op": aaRounds, "allocs/op": {42, 41, 43, 42, 41, 42, 42, 41, 43, 42}}}
	if r := mustGate(t, base, change, 0.05); len(r.failures) != 0 {
		t.Fatalf("pool-refill noise failed the gate: %v", r.failures)
	}
}

// A change measured without -benchmem must fail with a "missing" report,
// not pass by comparing against a fabricated zero.
func TestGateMissingAllocsMetricFails(t *testing.T) {
	base := samples{"A": rounds(aaRounds, 59)}
	change := samples{"A": {"ns/op": aaRounds}}
	r := mustGate(t, base, change, 0.05)
	if !failsOn(r, "A") || !strings.Contains(r.failures[0], "missing") {
		t.Fatalf("failures = %v, want the allocs metric reported missing", r.failures)
	}
}

func TestGateNewBenchmarkIsANote(t *testing.T) {
	base := samples{"A": rounds(aaRounds, 0)}
	change := samples{"A": rounds(aaRounds, 0), "New": rounds(aaRounds, 0)}
	r := mustGate(t, base, change, 0.05)
	if len(r.failures) != 0 {
		t.Fatalf("a benchmark only on the change failed the gate: %v", r.failures)
	}
	if len(r.notes) != 1 || !strings.Contains(r.notes[0], "New") {
		t.Fatalf("notes = %v, want one naming New", r.notes)
	}
}

func TestGateUnequalRoundsIsAnError(t *testing.T) {
	base := samples{"A": rounds(aaRounds, 0)}
	change := samples{"A": rounds(aaRounds[:9], 0)}
	if _, err := gate(base, change, 0.05); err == nil || !strings.Contains(err.Error(), "rounds") {
		t.Fatalf("10 base rounds against 9 change rounds: err = %v, want a round-count error", err)
	}
}
