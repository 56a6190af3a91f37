// benchgate is the paired A/B benchmark gate. It reads two files of
// `go test -bench -benchmem` output, one from the base commit and one from
// the change, each holding the same number of rounds of every benchmark,
// and pairs the i-th sample of each benchmark across the two sides.
// scripts/bench.sh produces the files by running the two sides' test
// binaries alternately on one machine, so no number is ever compared with
// one measured on another host or another day.
//
// Usage:
//
//	benchgate -bound 0.05 base.out change.out
//
// A benchmark fails the gate when
//
//   - time: the median of its per-round change/base ns/op ratios exceeds
//     1+bound and the change was slower in at least 9 of every 10 rounds;
//   - allocations: its fewest allocs/op in any round on the change side
//     exceeds the base's, or the change lacks the metric the base has (a
//     run without -benchmem must not pass vacuously). The fewest, not the
//     median: a GC that empties a sync.Pool mid-round makes the next runs
//     allocate afresh, which only ever adds allocations, so the round
//     with the fewest is the steady-state count, and one more allocation
//     per op raises every round;
//   - missing: it is in the base output but not in the change's.
//
// A benchmark only in the change's output is a note. Unequal round counts
// for one benchmark are an input error, not a verdict. See docs/PERF.md,
// "The benchmark-regression gate".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// samples holds each benchmark's per-round values by unit, in input
// order: name -> unit -> values. A unit a line did not carry is absent,
// never zero.
type samples map[string]map[string][]float64

// report is the gate's finding: one summary line per benchmark measured
// on both sides, notes, and the failures that make the gate exit nonzero.
type report struct {
	rows, notes, failures []string
}

func main() {
	bound := flag.Float64("bound", 0.05, "time bound: fail when the median change/base ns/op ratio exceeds 1+bound (and the change is slower in 9 of 10 rounds)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -bound N base.out change.out")
		os.Exit(2)
	}
	base, err := parseFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	change, err := parseFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	r, err := gate(base, change, *bound)
	if err != nil {
		fatal(err)
	}
	for _, l := range r.rows {
		fmt.Println(l)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "benchgate: note:", n)
	}
	if len(r.failures) > 0 {
		fatal(fmt.Errorf("regression against the base at bound %g:\n  %s", *bound, strings.Join(r.failures, "\n  ")))
	}
	fmt.Printf("benchgate: %d benchmarks within bound %g of the base\n", len(r.rows), *bound)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

func parseFile(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return s, nil
}

// parseBench reads standard testing benchmark output. A benchmark line
// contributes whatever value/unit pairs it carries; a trailing unpaired
// field (tool chatter appended to a line) is ignored rather than
// discarding the whole line, and prose starting with "Benchmark" is
// skipped.
func parseBench(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 256<<10), 256<<10)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Name, iteration count, then value/unit pairs.
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -GOMAXPROCS suffix
			}
		}
		if out[name] == nil {
			out[name] = map[string][]float64{}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			out[name][fields[i+1]] = append(out[name][fields[i+1]], v)
		}
	}
	return out, sc.Err()
}

// median reduces samples; ok is false when there are none (the caller
// must treat that as "metric absent", never as zero).
func median(vs []float64) (v float64, ok bool) {
	if len(vs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// fewest returns the smallest sample; ok is false when there are none.
func fewest(vs []float64) (v float64, ok bool) {
	if len(vs) == 0 {
		return 0, false
	}
	return slices.Min(vs), true
}

// gate applies the time, allocation and missing-row rules to every
// benchmark in base, pairing round i of each side.
func gate(base, change samples, bound float64) (report, error) {
	var r report
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, c := base[name]["ns/op"], change[name]["ns/op"]
		if len(b) == 0 {
			continue // no timing samples: not a measurement
		}
		if len(c) == 0 {
			r.failures = append(r.failures, fmt.Sprintf("%s: in the base but not measured on the change", name))
			continue
		}
		if len(b) != len(c) {
			return report{}, fmt.Errorf("%s: %d base rounds but %d change rounds", name, len(b), len(c))
		}
		ratios := make([]float64, len(b))
		slower := 0
		for i := range b {
			ratios[i] = c[i] / b[i]
			if c[i] > b[i] {
				slower++
			}
		}
		ratio, _ := median(ratios)
		baseNs, _ := median(b)
		row := fmt.Sprintf("%-44s %12.0f ns/op  ratio %.3f  slower %d/%d", name, baseNs, ratio, slower, len(b))
		if ratio > 1+bound && slower*10 >= 9*len(b) {
			r.failures = append(r.failures, fmt.Sprintf("%s: median ratio %.3f > %.3f, slower in %d of %d rounds",
				name, ratio, 1+bound, slower, len(b)))
		}
		if ba, ok := fewest(base[name]["allocs/op"]); ok {
			if ca, ok := fewest(change[name]["allocs/op"]); !ok {
				r.failures = append(r.failures, fmt.Sprintf("%s: allocs/op missing on the change (base has %g; run with -benchmem)", name, ba))
			} else {
				row += fmt.Sprintf("  allocs %g -> %g", ba, ca)
				if ca > ba {
					r.failures = append(r.failures, fmt.Sprintf("%s: allocs/op %g > base %g (fewest in any round)", name, ca, ba))
				}
			}
		}
		r.rows = append(r.rows, row)
	}
	extra := make([]string, 0)
	for name := range change {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		r.notes = append(r.notes, name+" measured on the change only")
	}
	return r, nil
}
