package randprog_test

import (
	"fmt"
	"testing"

	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/machine"
)

// TestOptionCombinations sweeps the VM's translation-policy options in
// every combination over random programs: traces, fast returns, disabled
// linking, tiny blocks and a small cache all at once must still be
// observationally equivalent to native execution.
func TestOptionCombinations(t *testing.T) {
	type combo struct {
		name   string
		mutate func(*core.Options)
	}
	combos := []combo{
		{"traces", func(o *core.Options) { o.Traces = true; o.TraceThreshold = 3 }},
		{"traces+tinyblocks", func(o *core.Options) {
			o.Traces = true
			o.TraceThreshold = 2
			o.MaxBlockInsts = 3
		}},
		{"nolink+traces", func(o *core.Options) {
			o.DisableLinking = true
			o.Traces = true
			o.TraceThreshold = 2
		}},
		{"everything", func(o *core.Options) {
			o.Traces = true
			o.TraceThreshold = 2
			o.MaxTraceFrags = 4
			o.MaxBlockInsts = 5
			o.CacheBytes = 4096
		}},
	}
	specs := []string{"ibtc:128", "fastret+sieve:64"}
	for seed := int64(200); seed < 208; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			img := build(t, seed)
			native, err := machine.RunImage(img, hostarch.X86(), 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range combos {
				for _, spec := range specs {
					cfg, err := ib.Parse(spec)
					if err != nil {
						t.Fatal(err)
					}
					opts := cfg.Options(hostarch.X86())
					c.mutate(&opts)
					vm, err := core.New(img, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := vm.Run(50_000_000); err != nil {
						t.Fatalf("%s/%s: %v", c.name, spec, err)
					}
					got := vm.Result()
					want := native.Result()
					if got.Checksum != want.Checksum || got.Instret != want.Instret {
						t.Errorf("%s/%s: diverged", c.name, spec)
					}
				}
			}
		})
	}
}
