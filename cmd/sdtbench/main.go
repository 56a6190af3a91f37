// Sdtbench regenerates the paper's evaluation: every table and figure
// (E1–E12) plus the extension experiments (E13, E15–E18), indexed in
// EXPERIMENTS.md, over the synthetic SPEC CPU2000 suite on the x86, SPARC
// and ARM host cost models.
//
// Usage:
//
//	sdtbench                 run everything
//	sdtbench -e E3,E8        run selected experiments
//	sdtbench -scale 2000     override every workload's scale
//	sdtbench -w gcc,perlbmk  restrict the suite
//	sdtbench -list           list experiments
//	sdtbench -csv out.csv    also dump every measurement as CSV
//	sdtbench -v              log each run as it happens (stderr)
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"sdt/internal/bench"
	"sdt/internal/sweep"
)

func main() {
	exps := flag.String("e", "", "comma-separated experiment IDs (default: all)")
	scale := flag.Int("scale", 0, "override workload scale (0 = workload defaults)")
	wls := flag.String("w", "", "comma-separated workload subset (default: SPEC suite)")
	list := flag.Bool("list", false, "list experiments")
	verbose := flag.Bool("v", false, "log each run to stderr")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "experiments to run concurrently (output stays ordered)")
	csvPath := flag.String("csv", "", "also dump every measurement as CSV to this file")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-4s %-40s paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	r := bench.NewRunner()
	r.Scale = *scale
	r.Parallel = *par
	r.Verbose = *verbose
	r.Log = os.Stderr
	if *wls != "" {
		r.Workloads = strings.Split(*wls, ",")
	}

	selected := bench.Experiments
	if *exps != "" {
		selected = nil
		for _, id := range strings.Split(*exps, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}
	if err := runOrdered(r, selected, *par); err != nil {
		fatal(err)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := r.ExportCSV(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}

// runOrdered executes experiments up to par at a time on the sweep engine
// (they share the runner's memoized measurements) while printing results
// in experiment order — the parallel output is byte-identical to a
// sequential run. On an experiment error its partial output still prints
// (ordered before the error surfaces); later experiments finish but stay
// unprinted, matching the sequential contract.
func runOrdered(r *bench.Runner, selected []bench.Experiment, par int) error {
	eng := &sweep.Engine[bench.Experiment, []byte]{
		Workers: par,
		Exec: func(_ context.Context, e bench.Experiment) ([]byte, error) {
			var buf bytes.Buffer
			err := bench.RunOne(r, &buf, e)
			return buf.Bytes(), err
		},
	}
	var firstErr error
	if err := eng.Ordered(context.Background(), selected, func(o sweep.Outcome[bench.Experiment, []byte]) {
		if firstErr != nil {
			return
		}
		os.Stdout.Write(o.Result)
		firstErr = o.Err
	}); err != nil {
		return err
	}
	return firstErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdtbench:", err)
	os.Exit(1)
}
