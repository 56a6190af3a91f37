// Package bench is the experiment harness: it re-runs every table and
// figure of the paper's evaluation (E1–E12) plus five extension
// experiments (E13 and E15–E18; indexed in DESIGN.md and EXPERIMENTS.md)
// against the synthetic SPEC CPU2000 suite, on the x86, SPARC and ARM host
// cost models, and renders them as text tables and charts. Runner methods
// are safe for concurrent use.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/machine"
	"sdt/internal/profile"
	"sdt/internal/program"
	"sdt/internal/store"
	"sdt/internal/workload"
)

// runLimit bounds any single simulated run.
const runLimit = 2_000_000_000

// Canonical mechanism configurations used by the comparison experiments.
// The sweep experiments (E3/E5/E6) locate the knees these sit on.
const (
	SpecNaive    = "translator"
	SpecIBTC     = "ibtc:16384"
	SpecInline   = "inline:2+ibtc:16384"
	SpecSieve    = "sieve:16384"
	SpecFastRet  = "fastret+ibtc:16384"
	SpecRetCache = "retcache:16384+ibtc:16384"
	SpecAdaptive = "adaptive:16384"
)

// BestSpecs are the per-mechanism configurations compared head-to-head in
// E8/E9, in display order.
var BestSpecs = []string{SpecNaive, SpecIBTC, SpecInline, SpecSieve, SpecFastRet, SpecRetCache}

// Result is one (workload, arch, mechanism) measurement.
type Result struct {
	Workload string
	Arch     string
	Spec     string // "" for native

	Native machine.Result
	SDT    machine.Result
	Prof   profile.Profile
	Counts machine.Counts // native dynamic counts

	// BTBMissRate and RASMissRate are the SDT run's predictor miss
	// fractions (E12 reports them).
	BTBMissRate float64
	RASMissRate float64
}

// Slowdown is SDT cycles over native cycles.
func (r *Result) Slowdown() float64 {
	if r.Native.Cycles == 0 {
		return 0
	}
	return float64(r.SDT.Cycles) / float64(r.Native.Cycles)
}

// Runner executes and memoizes measurements.
type Runner struct {
	// Scale overrides every workload's default scale when nonzero.
	Scale int
	// ScaleDivisor divides each workload's default scale when Scale is
	// zero — proportional shrinking for quick runs (benchmarks use it).
	ScaleDivisor int
	// Workloads lists the suite used by the whole-suite experiments;
	// empty selects the twelve SPEC-shaped workloads.
	Workloads []string
	// Parallel bounds how many measurements a whole-suite experiment
	// computes concurrently through the sweep engine (0 = GOMAXPROCS,
	// 1 = fully sequential). Measurements are deterministic, so the
	// setting changes wall-clock time, never output.
	Parallel int
	// Verbose, when set, logs each run to Log as it happens.
	Verbose bool
	Log     io.Writer

	// Memoization groups; each deduplicates concurrent requests for the
	// same measurement (the second caller waits for the first) on top of
	// the shared single-flight store the sdtd service also uses. Runner
	// methods are safe for concurrent use.
	logMu   sync.Mutex
	images  *store.Group[*program.Image]
	natives *store.Group[*Result] // keyed by workload|arch
	runs    *store.Group[*Result] // keyed by workload|arch|spec
}

// NewRunner returns a Runner with empty caches.
func NewRunner() *Runner {
	return &Runner{
		images:  store.NewGroup[*program.Image](nil),
		natives: store.NewGroup[*Result](nil),
		runs:    store.NewGroup[*Result](nil),
	}
}

func (r *Runner) suite() []string {
	if len(r.Workloads) > 0 {
		return r.Workloads
	}
	return workload.SPECNames()
}

func (r *Runner) logf(format string, args ...any) {
	if r.Verbose && r.Log != nil {
		r.logMu.Lock()
		fmt.Fprintf(r.Log, format, args...)
		r.logMu.Unlock()
	}
}

func (r *Runner) image(name string) (*program.Image, error) {
	img, _, err := r.images.Do(context.Background(), name, func() (*program.Image, error) {
		spec, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		scale := r.Scale
		if scale == 0 && r.ScaleDivisor > 1 {
			// ScaledDown clamps away from 0: an unclamped floor would make
			// Image silently select the full DefaultScale.
			scale = spec.ScaledDown(r.ScaleDivisor)
		}
		return spec.Image(scale)
	})
	return img, err
}

// Native measures (and memoizes) the native baseline for a workload on an
// architecture.
func (r *Runner) Native(wl, arch string) (*Result, error) {
	res, _, err := r.natives.Do(context.Background(), wl+"|"+arch, func() (*Result, error) {
		model, err := hostarch.ByName(arch)
		if err != nil {
			return nil, err
		}
		return r.native(wl, arch, model)
	})
	return res, err
}

// native runs wl on the reference machine under model, labelled arch.
func (r *Runner) native(wl, arch string, model *hostarch.Model) (*Result, error) {
	img, err := r.image(wl)
	if err != nil {
		return nil, err
	}
	r.logf("native   %-10s %-6s ...\n", wl, arch)
	m, err := machine.RunImage(img, model, runLimit)
	if err != nil {
		return nil, fmt.Errorf("bench: native %s on %s: %w", wl, arch, err)
	}
	res := &Result{Workload: wl, Arch: arch, Native: m.Result(), Counts: m.Counts}
	m.Recycle()
	return res, nil
}

// Run measures (and memoizes) one workload under one mechanism spec on one
// architecture, verifying output equivalence against the native run.
func (r *Runner) Run(wl, arch, spec string) (*Result, error) {
	res, _, err := r.runs.Do(context.Background(), wl+"|"+arch+"|"+spec, func() (*Result, error) {
		return r.RunWithOptions(wl, arch, spec, nil)
	})
	return res, err
}

// RunWithOptions measures one workload under spec with caller-mutated VM
// options (fragment cache size, linking, block length); a nil mutate
// leaves spec's options as they are. Results are not memoized.
func (r *Runner) RunWithOptions(wl, arch, spec string, mutate func(*core.Options)) (*Result, error) {
	native, model, err := r.baseline(wl, arch)
	if err != nil {
		return nil, err
	}
	cfg, err := ib.Parse(spec)
	if err != nil {
		return nil, err
	}
	opts := cfg.Options(model)
	if mutate != nil {
		mutate(&opts)
	}
	return r.measure(native, spec, opts)
}

// RunWithHandler measures one workload under a caller-constructed handler
// (for mechanism combinations the spec grammar cannot express). mk must
// build a fresh handler per call. Results are memoized under name.
func (r *Runner) RunWithHandler(wl, arch, name string, mk func() core.IBHandler) (*Result, error) {
	res, _, err := r.runs.Do(context.Background(), wl+"|"+arch+"|handler:"+name, func() (*Result, error) {
		native, model, err := r.baseline(wl, arch)
		if err != nil {
			return nil, err
		}
		return r.measure(native, name, core.Options{Model: model, Handler: mk()})
	})
	return res, err
}

// RunWithModel measures one workload under a caller-supplied (possibly
// ablated) cost model, native baseline included. Results are not
// memoized.
func (r *Runner) RunWithModel(wl, spec string, model *hostarch.Model) (*Result, error) {
	native, err := r.native(wl, model.Name, model)
	if err != nil {
		return nil, err
	}
	cfg, err := ib.Parse(spec)
	if err != nil {
		return nil, err
	}
	return r.measure(native, spec, cfg.Options(model))
}

// baseline returns the memoized native run of wl on arch and arch's model.
func (r *Runner) baseline(wl, arch string) (*Result, *hostarch.Model, error) {
	native, err := r.Native(wl, arch)
	if err != nil {
		return nil, nil, err
	}
	model, err := hostarch.ByName(arch)
	return native, model, err
}

// measure is the harness's one SDT measurement: it runs native's workload
// under opts, labels the result spec, records the predictor miss rates and
// rejects a run whose output or instruction count differs from native.
func (r *Runner) measure(native *Result, spec string, opts core.Options) (*Result, error) {
	img, err := r.image(native.Workload)
	if err != nil {
		return nil, err
	}
	vm, err := core.New(img, opts)
	if err != nil {
		return nil, err
	}
	if err := vm.Run(runLimit); err != nil {
		return nil, fmt.Errorf("bench: %s under %s on %s: %w", native.Workload, spec, native.Arch, err)
	}
	res := *native
	res.Spec, res.SDT, res.Prof = spec, vm.Result(), vm.Prof
	if h, m := vm.Env.BTB.Stats(); h+m > 0 {
		res.BTBMissRate = float64(m) / float64(h+m)
	}
	if h, m := vm.Env.RAS.Stats(); h+m > 0 {
		res.RASMissRate = float64(m) / float64(h+m)
	}
	vm.Recycle()
	if res.SDT.Checksum != res.Native.Checksum || res.SDT.Instret != res.Native.Instret {
		return nil, fmt.Errorf("bench: %s under %s on %s diverged from native execution", native.Workload, spec, native.Arch)
	}
	r.logf("sdt      %-10s %-6s %-28s %.2fx\n", native.Workload, native.Arch, spec, res.Slowdown())
	return &res, nil
}

// Geomean returns the geometric mean of vs (0 for empty input).
func Geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
