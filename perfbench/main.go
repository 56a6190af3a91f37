// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one of three workloads in-process against the library's public
// packages and prints every metric with its unit, sample count and tail
// percentile, then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sim|serve|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With --trace 1 the process runs the traced phase of every
// workload and reports the per-layer metrics (METRICS.md lists them with
// the end-to-end metric each should move), so one traced run covers every
// layer. All load comes from this process: one client, GOMAXPROCS pinned
// to 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 5

// setupMany runs a set-up setupRepeats times, keeps the last environment
// and returns the set-up times in seconds at reference speed.
func setupMany[E interface{ close() }](mk func(i int) (E, error)) (E, []float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each set-up starts from a collected heap, as in a fresh process
		kt := calibrate()
		t := time.Now()
		e, err := mk(i)
		if err != nil {
			return env, nil, err
		}
		times = append(times, atRefSpeed(time.Since(t), kt).Seconds())
		if i < setupRepeats-1 {
			e.close()
		} else {
			env = e
		}
	}
	return env, times, nil
}

// gomaxprocs is pinned for every workload: one client goroutine drives the
// load, and wake-ups across vCPUs cost more than they save on small VMs.
const gomaxprocs = 1

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch directory inside the checkout
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	metrics           report   // the metrics the JSON line carries
	info              []metric // printed only
}

// common adds the end-to-end metrics a request workload reports, all over
// its full windows.
func (o *outcome) common(setups []float64, win *windows, what string) error {
	rate, lat, err := win.atRefSpeed()
	if err != nil {
		return err
	}
	note := fmt.Sprintf("%s, %d windows, at reference speed", what, len(win.done))
	kts := make([]float64, len(win.kts))
	for i, kt := range win.kts {
		kts[i] = msOf(kt)
	}
	o.info = append(o.info, metric{Name: "calibration_ms", Value: median(kts), Unit: "ms", Samples: len(kts), Note: "median kernel time"})
	return o.addCommon(setups, rate, median(lat), lat, note)
}

// addCommon adds the five end-to-end metrics from their reduced values.
func (o *outcome) addCommon(setups []float64, throughput, med float64, lat []float64, note string) error {
	tv, pct, ok := tail(lat)
	if !ok {
		return fmt.Errorf("only %d latency samples: too few for a tail", len(lat))
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	return o.addAll(
		metric{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups), Note: fmt.Sprintf("median, at reference speed (all: %.4g)", setups)},
		metric{Name: "throughput_per_s", Value: throughput, Unit: "1/s", Samples: len(lat), Note: note},
		metric{Name: "latency_ms", Value: med, Unit: "ms", Samples: len(lat), Note: "median, " + note},
		metric{Name: "latency_tail_ms", Value: tv, Unit: "ms", Samples: len(lat), Pct: pct, Note: note},
		metric{Name: "peak_rss_mb", Value: rss, Unit: "MiB", Note: "VmHWM"},
	)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "sim, serve or fleet")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement time per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer phase")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	runners := map[string]func(config) (*outcome, error){"sim": simRun, "serve": serveRun, "fleet": fleetRun}
	runWorkload, ok := runners[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want sim, serve or fleet)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(gomaxprocs)
	for i := 0; i < 5; i++ {
		calibrate() // fault the kernel's table in before any timed interval
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if cfg.dir, err = filepath.Abs(dir); err != nil {
		return err
	}

	mode := "untraced end-to-end"
	if cfg.trace {
		mode = "traced per-layer (all workloads)"
		runWorkload = tracedRun
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g mode=%s gomaxprocs=%d clients=1\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, gomaxprocs)
	o, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	o.metrics.print()
	for _, m := range o.info {
		fmt.Printf("  %-40s %16.6g  %-8s %8d  %s (printed only)\n", m.Name, m.Value, m.Unit, m.Samples, m.Note)
	}
	fmt.Printf("  operations attempted=%d failed=%d\n", o.attempted, o.failed)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, map[string]val{}}
	for _, m := range o.metrics.list {
		out.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
