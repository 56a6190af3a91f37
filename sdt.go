// Package sdt is the public API of the SDT indirect-branch laboratory: a
// software-dynamic-translation system with pluggable indirect-branch
// handling mechanisms, a guest ISA with assembler and reference machine,
// parametric host cost models, SPEC CPU2000-shaped workloads, and the
// experiment harness that reproduces the evaluation of
//
//	Hiser, Williams, Hu, Davidson, Mars, Childers.
//	"Evaluating Indirect Branch Handling Mechanisms in Software Dynamic
//	Translation Systems", CGO 2007.
//
// # Quick start
//
//	img, err := sdt.Assemble("hello.s", src)
//	native, err := sdt.RunNative(img, "x86", 0)
//	vm, err := sdt.Run(img, "x86", "ibtc:16384", 0)
//	fmt.Printf("slowdown: %.2fx\n",
//	    float64(vm.Result().Cycles)/float64(native.Result().Cycles))
//
// Mechanism specs compose with "+": "translator", "ibtc:4096",
// "ibtc:4096:private", "sieve:1024", "inline:2+ibtc:16384",
// "retcache:4096+ibtc:4096", "fastret+ibtc:16384". See sdt/internal/ib for
// the grammar and the mechanism implementations; custom mechanisms plug in
// by implementing Handler and constructing Options directly.
package sdt

import (
	"context"
	"fmt"
	"io"

	"sdt/internal/asm"
	"sdt/internal/bench"
	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/minic"
	"sdt/internal/profile"
	"sdt/internal/program"
	"sdt/internal/workload"
)

// Re-exported core types. The aliased packages remain internal; these
// aliases are the supported surface.
type (
	// Image is a loadable guest program.
	Image = program.Image
	// Machine is the native reference machine (the baseline and oracle).
	Machine = machine.Machine
	// VM is the software dynamic translator.
	VM = core.VM
	// Options configures a VM; Handler and Model are required.
	Options = core.Options
	// Handler is an indirect-branch handling mechanism.
	Handler = core.IBHandler
	// Site is the per-indirect-branch-site state handlers attach to.
	Site = core.IBSite
	// Fragment is one translated basic block in the fragment cache.
	Fragment = core.Fragment
	// Model prices host-level operations; see Arch for the built-ins.
	Model = hostarch.Model
	// Result summarizes a finished run.
	Result = machine.Result
	// Profile holds SDT execution statistics.
	Profile = profile.Profile
	// WorkloadSpec describes one built-in workload generator.
	WorkloadSpec = workload.Spec
	// ExperimentRunner executes and memoizes paper experiments.
	ExperimentRunner = bench.Runner
	// IBKind classifies indirect branches: return, indirect jump,
	// indirect call.
	IBKind = isa.IBKind
)

// Indirect-branch kinds, re-exported for handlers that specialize by kind.
const (
	IBReturn = isa.IBReturn
	IBJump   = isa.IBJump
	IBCall   = isa.IBCall
)

// Assemble translates SimRISC-32 assembly into a program image. name is
// used in error messages.
func Assemble(name, src string) (*Image, error) { return asm.Assemble(name, src) }

// CompileMiniC compiles MiniC source (see sdt/internal/minic for the
// language) into a program image, for writing guest programs above raw
// assembly.
func CompileMiniC(name, src string) (*Image, error) { return minic.CompileToImage(name, src) }

// Arch returns a fresh copy of a built-in host cost model: "x86", "sparc"
// or "arm", each also accepted under its "-like" alias (e.g. "arm-like").
func Arch(name string) (*Model, error) { return hostarch.ByName(name) }

// Configure builds complete VM options from an arch name and a mechanism
// spec, including the translation policies ("fastret", "trace") a spec can
// carry.
func Configure(arch, mech string) (Options, error) {
	model, err := hostarch.ByName(arch)
	if err != nil {
		return Options{}, err
	}
	cfg, err := ib.Parse(mech)
	if err != nil {
		return Options{}, err
	}
	return cfg.Options(model), nil
}

// Mechanism parses a mechanism spec and returns the handler plus whether
// the spec enables fast returns. Specs carrying the "trace" policy need
// Configure (or Options.Traces) instead.
func Mechanism(spec string) (Handler, bool, error) {
	cfg, err := ib.Parse(spec)
	if err != nil {
		return nil, false, err
	}
	return cfg.Handler, cfg.FastReturns, nil
}

// RunNative executes img on the reference machine with the named cost
// model until it halts (limit 0 = default budget).
func RunNative(img *Image, arch string, limit uint64) (*Machine, error) {
	return RunNativeContext(context.Background(), img, arch, limit)
}

// RunNativeContext is RunNative with cancellation: the run also stops when
// ctx is cancelled or its deadline passes, returning an error that wraps
// ctx's cause (errors.Is against context.DeadlineExceeded / Canceled
// works). Cancellation is polled every few thousand retired instructions,
// so it cannot perturb the cycle accounting of completed runs.
func RunNativeContext(ctx context.Context, img *Image, arch string, limit uint64) (*Machine, error) {
	model, err := hostarch.ByName(arch)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(img, model)
	if err != nil {
		return nil, err
	}
	if err := m.RunContext(ctx, limit); err != nil {
		return nil, err
	}
	return m, nil
}

// Run executes img under the SDT with the named cost model and mechanism
// spec until it halts (limit 0 = default budget).
func Run(img *Image, arch, mech string, limit uint64) (*VM, error) {
	return RunContext(context.Background(), img, arch, mech, limit)
}

// RunContext is Run with cancellation: the run also stops when ctx is
// cancelled or its deadline passes, returning an error that wraps ctx's
// cause. Cancellation is polled every few thousand fragment exits — a
// runaway guest stops promptly without the dispatch loop paying a
// per-instruction check.
func RunContext(ctx context.Context, img *Image, arch, mech string, limit uint64) (*VM, error) {
	model, err := hostarch.ByName(arch)
	if err != nil {
		return nil, err
	}
	cfg, err := ib.Parse(mech)
	if err != nil {
		return nil, err
	}
	vm, err := core.New(img, cfg.Options(model))
	if err != nil {
		return nil, err
	}
	if err := vm.RunContext(ctx, limit); err != nil {
		return nil, err
	}
	return vm, nil
}

// NewVM builds a VM with explicit options, for callers composing custom
// mechanisms or ablated cost models.
func NewVM(img *Image, opts Options) (*VM, error) { return core.New(img, opts) }

// NewMachine builds a native reference machine with an explicit (possibly
// custom) cost model; call its Run method to execute.
func NewMachine(img *Image, model *Model) (*Machine, error) { return machine.New(img, model) }

// Workload returns a built-in workload generator by name; Workloads lists
// the available names (the twelve SPEC CPU2000-shaped programs first).
func Workload(name string) (*WorkloadSpec, error) { return workload.Get(name) }

// Workloads lists all built-in workload names.
func Workloads() []string { return workload.Names() }

// Slowdown runs img both natively and under the SDT on the same cost model
// and returns SDT cycles / native cycles, the metric every experiment
// reports. It verifies the two executions computed identical results.
func Slowdown(img *Image, arch, mech string, limit uint64) (float64, error) {
	native, err := RunNative(img, arch, limit)
	if err != nil {
		return 0, err
	}
	vm, err := Run(img, arch, mech, limit)
	if err != nil {
		return 0, err
	}
	nr, sr := native.Result(), vm.Result()
	if nr.Checksum != sr.Checksum || nr.Instret != sr.Instret {
		return 0, fmt.Errorf("sdt: translated execution diverged from native")
	}
	return float64(sr.Cycles) / float64(nr.Cycles), nil
}

// NewExperimentRunner returns a Runner for the paper's experiments
// (E1–E18 without E14; see ExperimentIDs). Use RunExperiment or the
// sdtbench command to execute them.
func NewExperimentRunner() *ExperimentRunner { return bench.NewRunner() }

// RunExperiment executes one paper experiment by ID ("E1".."E18", no
// "E14"), writing its tables and figures to w.
func RunExperiment(r *ExperimentRunner, id string, w io.Writer) error {
	e, err := bench.ByID(id)
	if err != nil {
		return err
	}
	return bench.RunOne(r, w, e)
}

// ExperimentIDs lists the experiment identifiers in presentation order.
func ExperimentIDs() []string {
	ids := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		ids[i] = e.ID
	}
	return ids
}
