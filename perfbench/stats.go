package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail returns the highest percentile on tailLadder that has at least
// minBeyond samples beyond it, and its nearest-rank value. ok is false when
// no percentile qualifies, which is always the case below 20 samples.
func tail(xs []float64) (value, pct float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		// The epsilon keeps binary rounding of p (99.9 is inexact) from
		// pushing an exact rank up by one.
		r := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if r >= 1 && n-r >= minBeyond {
			return s[r-1], p, true
		}
	}
	return 0, 0, false
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// bestOfK reduces repeated timings of deterministic operations to the
// fastest repeat of each, at reference speed. reps[i][j] is operation i's
// raw time in pass j, and kts[j][i] the calibration-kernel time right after
// it. The minimum is taken over raw times, and only the chosen repeat is
// scaled, by the median of the cellSpan kernel times around it: a minimum
// over per-repeat ratios would favour repeats whose own kernel run happened
// to be slowed, so kernel noise would read as a faster program. k is the
// repeat count every operation reached, so a partial final round does not
// give some operations one more chance than others.
func bestOfK(reps, kts [][]time.Duration) (best []time.Duration, k int) {
	k = len(kts)
	for _, r := range reps {
		k = min(k, len(r))
	}
	if len(reps) == 0 || k == 0 {
		return nil, 0
	}
	best = make([]time.Duration, len(reps))
	for i, r := range reps {
		bj := 0
		for j := 1; j < k; j++ {
			if r[j] < r[bj] {
				bj = j
			}
		}
		best[i] = atRefSpeed(r[bj], spanMedian(kts[bj], i, cellSpan))
	}
	return best, k
}

// cellSpan is how many kernel runs, centred on a sim cell, give its scale:
// about 3 s of the matrix. Over eight recorded sim runs on a 2-vCPU VM,
// this span left a fifth less run-to-run spread in throughput than one
// median per pass, and a third less in the p90 tail.
const cellSpan = 61

// spanMedian returns the median of the span kernel times centred on
// position c of kts, the span clamped to the ends of kts.
func spanMedian(kts []time.Duration, c, span int) time.Duration {
	lo := max(0, c-span/2)
	hi := min(len(kts), lo+span)
	lo = max(0, hi-span)
	xs := make([]float64, 0, hi-lo)
	for _, kt := range kts[lo:hi] {
		xs = append(xs, float64(kt))
	}
	return time.Duration(median(xs))
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported figure. Samples and Pct document how it was
// reduced: Samples is the count it summarizes (0 for a single reading) and
// Pct the percentile a tail was taken at.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	Pct     float64
	Note    string
}

// report collects metrics in order and rejects malformed or duplicate names.
type report struct {
	list []metric
	seen map[string]bool
}

func (r *report) add(m metric) error {
	if !metricName.MatchString(m.Name) {
		return fmt.Errorf("invalid metric name %q", m.Name)
	}
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	if r.seen[m.Name] {
		return fmt.Errorf("duplicate metric %q", m.Name)
	}
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return fmt.Errorf("metric %q is not a finite number", m.Name)
	}
	r.seen[m.Name] = true
	r.list = append(r.list, m)
	return nil
}

func (r *report) print() {
	fmt.Printf("  %-40s %16s  %-8s %8s  %s\n", "metric", "value", "unit", "samples", "reduction")
	for _, m := range r.list {
		red := m.Note
		if m.Pct > 0 {
			red = strings.TrimSpace(fmt.Sprintf("p%s %s", strconv.FormatFloat(m.Pct, 'f', -1, 64), m.Note))
		}
		fmt.Printf("  %-40s %16.6g  %-8s %8d  %s\n", m.Name, m.Value, m.Unit, m.Samples, red)
	}
}

// peakRSSMiB reads the process's peak resident set size from procfs.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// splitmix64 is a bijective 64-bit mixer; fresh keys derived from it never
// repeat within a run and differ between seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// windows groups a closed loop's operations into consecutive windows of n
// operations. Request workloads draw their mix in fixed-composition
// cycles, so every window holds the same work, and a run's figures are
// taken over its full windows only. The calibration kernel (calib.go) runs
// at every window boundary. Other goroutines (the servers' background
// work) can interrupt a single kernel run, so a window is scaled to
// reference speed by the median of the kernel times at the kernelSpan
// boundaries around it: that follows swings lasting seconds and ignores
// one interrupted run.
type windows struct {
	n, ops int
	units  float64 // work units (requests or cells) in the current window
	lat    []float64
	start  time.Time
	done   []window
	kts    []time.Duration // kernel time at each window boundary
}

type window struct {
	units float64
	dur   time.Duration
	lat   []float64 // latencies (ms) of the operations that report one
}

func newWindows(n int) *windows {
	w := &windows{n: n}
	w.boundary()
	return w
}

// boundary times the calibration kernel, then starts a window.
func (w *windows) boundary() {
	w.kts = append(w.kts, calibrate())
	w.start = time.Now()
}

// add records one finished operation: its work units and, when hasLat, its
// latency in ms.
func (w *windows) add(units float64, latMs float64, hasLat bool) {
	w.ops++
	w.units += units
	if hasLat {
		w.lat = append(w.lat, latMs)
	}
	if w.ops < w.n {
		return
	}
	w.done = append(w.done, window{units: w.units, dur: time.Since(w.start), lat: w.lat})
	w.ops, w.units, w.lat = 0, 0, nil
	w.boundary()
}

// kernelSpan is how many boundaries, centred on a window, give its scale.
const kernelSpan = 8

// atRefSpeed returns the throughput (units per second) over every finished
// window at reference speed, and the windows' pooled latencies (ms) at
// reference speed. Every window counts: keeping only the fastest windows
// at reference speed would favour windows whose kernel runs happened to be
// slowed, as a minimum over per-repeat ratios would for sim cells.
func (w *windows) atRefSpeed() (rate float64, lat []float64, err error) {
	if len(w.done) == 0 {
		return 0, nil, fmt.Errorf("no full window of %d operations; run longer", w.n)
	}
	var units float64
	var dur time.Duration
	for i, x := range w.done {
		k := spanMedian(w.kts, i+1, kernelSpan)
		units += x.units
		dur += atRefSpeed(x.dur, k)
		scale := float64(calibRef) / float64(k)
		for _, l := range x.lat {
			lat = append(lat, l*scale)
		}
	}
	return units / dur.Seconds(), lat, nil
}
