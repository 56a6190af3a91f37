// cycledump prints the exact simulated cost accounting for a matrix of
// workloads x mechanism specs x cache-pressure variants. Its output is a
// golden: host-side optimizations of the simulator must leave every line
// bit-identical, because simulated cycles are a model property, not a
// performance property.
package main

import (
	"flag"
	"fmt"
	"os"

	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/machine"
	"sdt/internal/workload"
)

func main() {
	div := flag.Int("div", 8, "workload scale divisor (smaller runs, same code paths)")
	flag.Parse()

	specs := ib.SweepSpecs()
	type variant struct {
		name   string
		mutate func(o *core.Options)
	}
	variants := []variant{
		{"dflt", func(o *core.Options) {}},
		{"tiny", func(o *core.Options) { o.CacheBytes = 2048 }}, // force flush churn
	}

	for _, wl := range workload.SPECNames() {
		spec, err := workload.Get(wl)
		if err != nil {
			fatal(err)
		}
		img, err := spec.Image(spec.ScaledDown(*div))
		if err != nil {
			fatal(err)
		}
		for _, arch := range []string{"x86", "sparc"} {
			model, err := hostarch.ByName(arch)
			if err != nil {
				fatal(err)
			}
			m, err := machine.New(img, model)
			if err != nil {
				fatal(err)
			}
			if err := m.Run(0); err != nil {
				fatal(fmt.Errorf("native %s: %w", wl, err))
			}
			nr := m.Result()
			fmt.Printf("%s|%s|native|cyc=%d inst=%d sum=%x\n", wl, arch, nr.Cycles, nr.Instret, nr.Checksum)
			for _, ms := range specs {
				for _, v := range variants {
					cfg, err := ib.Parse(ms) // fresh handler per run
					if err != nil {
						fatal(err)
					}
					opts := cfg.Options(model)
					v.mutate(&opts)
					vm, err := core.New(img, opts)
					if err != nil {
						fatal(err)
					}
					if err := vm.Run(0); err != nil {
						fatal(fmt.Errorf("%s under %s (%s): %w", wl, ms, v.name, err))
					}
					r := vm.Result()
					p := vm.Prof
					fmt.Printf("%s|%s|%s|%s|cyc=%d inst=%d sum=%x fl=%d tr=%d te=%d mh=%d mm=%d ib=%v ibm=%v cctx=%d ctr=%d cib=%d tf=%d tgh=%d tgm=%d tx=%d\n",
						wl, arch, ms, v.name, r.Cycles, r.Instret, r.Checksum,
						p.Flushes, p.Translations, p.TranslatorEntries,
						p.MechHits, p.MechMisses, p.IBExec, p.IBMiss,
						p.CyclesCtx, p.CyclesTrans, p.CyclesIB,
						p.TracesFormed, p.TraceGuardHits, p.TraceGuardMisses, p.TraceExits)
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cycledump:", err)
	os.Exit(1)
}
