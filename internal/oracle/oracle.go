// Package oracle is the differential-testing and invariant-checking
// subsystem: it runs one guest program through the native reference
// machine (internal/machine) and through the SDT under a configured
// indirect-branch mechanism, and checks a hierarchy of oracles:
//
//  0. Block-vs-step equivalence — the native reference is the machine's
//     single-step Step loop, kept independent of the block executor that
//     Machine.Run uses. Both native runs must agree: completed runs on the
//     whole Result (cycles included) and Counts, runs stopped by the limit
//     or a fault on architectural state, Instret, Counts and the error.
//  1. Architectural-state equivalence — registers, full memory image,
//     output stream (checksum, count and retained values), retired
//     instruction count, exit code and final pc must match the native
//     run exactly. Cycle counts are the experiment's subject and are
//     never compared.
//  2. Metamorphic invariants — the simulation is a pure function of
//     image × configuration (repeated runs are bit-identical, including
//     cycle counts); fragment-cache flush pressure and trace formation
//     may only change cycle counts, never guest-visible state; and the
//     profile's mechanism hit/miss counts must account exactly for every
//     executed indirect branch.
//  3. Transparency hazards — fast returns sacrifice transparency by
//     construction: a guest that reads its own return address observes a
//     fragment-cache address. The oracle knows the documented shape of
//     that divergence and asserts it is exactly the expected one (see
//     CheckRetAddrTransparency); any other deviation is still an error.
//
// The mechanism axis comes from the ib registry (ib.SweepSpecs), so a
// newly registered mechanism is swept with no oracle changes. The package
// also provides the corpus minimizer behind `sdtfuzz -minimize`
// (Minimize, MinimizeRandprog).
package oracle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"sdt/internal/asm"
	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/program"
)

// DefaultLimit bounds one oracle run; differential corpora are small, so
// hitting it usually means a translated execution ran away.
const DefaultLimit = 5_000_000

// Config selects one differential comparison.
type Config struct {
	// Arch names the host cost model ("x86", "sparc", "arm", or a
	// "-like" alias of any of them).
	Arch string
	// Spec is the IB mechanism spec, ib.Parse grammar.
	Spec string
	// Limit is the instruction budget per run (0 = DefaultLimit).
	Limit uint64
	// Options, when set, mutates the VM options after spec parsing —
	// the metamorphic variants (flush pressure, traces)
	// plug in here.
	Options func(*core.Options)
	// Handler, when set, is applied to the parsed handler before the VM
	// is built; fault-injection hooks (ib.InjectIBTCTagAlias) plug in
	// here.
	Handler func(core.IBHandler)
	// Lax relaxes the oracle for arbitrary (fuzzer-generated) guests
	// under fast-return specs: such guests may legally observe or
	// manufacture hostized return addresses, which changes control flow
	// in documented but unpredictable ways, so only crash-freedom is
	// checked. Structured corpora (randprog, the workloads) are
	// ra-disciplined and must leave this false.
	Lax bool
}

// Divergence is one failed oracle check.
type Divergence struct {
	Check  string // which oracle failed: "checksum", "reg", "mem", ...
	Detail string
}

func (d Divergence) String() string { return d.Check + ": " + d.Detail }

// Report is the outcome of one differential comparison.
type Report struct {
	Native      *machine.Machine // the Step-loop reference run
	Block       *machine.Machine // the block executor (Machine.Run)
	VM          *core.VM
	NativeErr   error
	BlockErr    error
	VMErr       error
	FastReturns bool
	Divergences []Divergence
}

// Clean reports whether every oracle check passed.
func (r *Report) Clean() bool { return len(r.Divergences) == 0 }

func (r *Report) failf(check, format string, args ...any) {
	r.Divergences = append(r.Divergences, Divergence{check, fmt.Sprintf(format, args...)})
}

// Diff runs img natively and under the SDT per cfg and applies the
// equivalence and accounting oracles. The returned error covers harness
// misconfiguration (unknown arch, bad spec) only; guest-level trouble is
// reported as divergences.
func Diff(img *program.Image, cfg Config) (*Report, error) {
	model, err := hostarch.ByName(cfg.Arch)
	if err != nil {
		return nil, err
	}
	return diff(img, cfg, model, nil)
}

// diff is Diff under a resolved model. nat, when non-nil, carries the
// native runs of img under model and cfg's limit (Native, Block and their
// errors), which every cell of a sweep shares; nil runs them here.
func diff(img *program.Image, cfg Config, model *hostarch.Model, nat *Report) (*Report, error) {
	mech, err := ib.Parse(cfg.Spec)
	if err != nil {
		return nil, err
	}
	limit := cfg.limit()
	if nat == nil {
		nat = nativeRuns(img, model, limit)
	}
	rep := &Report{Native: nat.Native, NativeErr: nat.NativeErr, Block: nat.Block, BlockErr: nat.BlockErr}

	opts := mech.Options(model)
	if cfg.Options != nil {
		cfg.Options(&opts)
	}
	if cfg.Handler != nil {
		cfg.Handler(opts.Handler)
	}
	rep.FastReturns = opts.FastReturns
	rep.VM, rep.VMErr = runVM(img, opts, limit)

	rep.compare(img, cfg.Lax)
	return rep, nil
}

func (cfg *Config) limit() uint64 {
	if cfg.Limit == 0 {
		return DefaultLimit
	}
	return cfg.Limit
}

// nativeRuns runs img natively twice: on the Step-loop reference and on
// the block executor.
func nativeRuns(img *program.Image, model *hostarch.Model, limit uint64) *Report {
	var r Report
	r.Native, r.NativeErr = runNative(img, model, limit)
	r.Block, r.BlockErr = runBlock(img, model, limit)
	return &r
}

// runNative runs img on the single-step reference: a Machine.Step loop
// under Machine.Run's limit rule (the budget is checked before every
// instruction), independent of the block executor Run uses.
func runNative(img *program.Image, model *hostarch.Model, limit uint64) (*machine.Machine, error) {
	m, err := machine.New(img, model)
	if err != nil {
		return nil, err
	}
	for !m.State.Halted {
		if m.State.Instret >= limit {
			return m, fmt.Errorf("%w (%d instructions)", machine.ErrLimit, limit)
		}
		if err := m.Step(); err != nil {
			return m, err
		}
	}
	return m, nil
}

// runBlock runs img on the native block executor.
func runBlock(img *program.Image, model *hostarch.Model, limit uint64) (*machine.Machine, error) {
	m, err := machine.New(img, model)
	if err != nil {
		return nil, err
	}
	return m, m.Run(limit)
}

func runVM(img *program.Image, opts core.Options, limit uint64) (*core.VM, error) {
	vm, err := core.New(img, opts)
	if err != nil {
		return nil, err
	}
	return vm, vm.Run(limit)
}

// compare applies the oracle hierarchy to the finished runs.
func (r *Report) compare(img *program.Image, lax bool) {
	r.compareBlock()
	if r.Native == nil || r.VM == nil {
		// Construction failed on one side: both must reject the image.
		if (r.Native == nil) != (r.VM == nil) {
			r.failf("construct", "native err=%v, sdt err=%v", r.NativeErr, r.VMErr)
		}
		return
	}
	if r.FastReturns && lax {
		// Arbitrary guests may observe hostized return addresses; every
		// downstream comparison is unsound. Reaching this point at all
		// (no panic) is the property under test.
		return
	}
	if r.NativeErr != nil || r.VMErr != nil {
		r.compareErrors(img)
		return
	}
	r.compareState(img)
	r.checkAccounting()
}

// compareErrors checks fault symmetry: a guest that faults (or exhausts
// its budget) natively must do the same under translation, at the same
// retired-instruction count — translation must not create, hide or move
// guest-visible errors. A run that both sides stop at the instruction
// limit ends on an exact instruction boundary, so its full architectural
// state is compared as well.
func (r *Report) compareErrors(img *program.Image) {
	if (r.NativeErr == nil) != (r.VMErr == nil) {
		r.failf("error", "native err=%v, sdt err=%v", r.NativeErr, r.VMErr)
		return
	}
	if errors.Is(r.NativeErr, machine.ErrLimit) && errors.Is(r.VMErr, core.ErrLimit) {
		r.compareState(img)
		return
	}
	ni, si := r.Native.State.Instret, r.VM.State.Instret
	if ni != si {
		r.failf("error.instret", "fault after %d native instructions vs %d under SDT (native err=%v, sdt err=%v)",
			ni, si, r.NativeErr, r.VMErr)
	}
}

// compareBlock is oracle level 0: the block executor against the Step
// loop. Both are native, so nothing is exempt — not even under fast
// returns or Lax.
func (r *Report) compareBlock() {
	s, b := r.Native, r.Block
	if s == nil || b == nil {
		if (s == nil) != (b == nil) {
			r.failf("block.construct", "step err=%v, block err=%v", r.NativeErr, r.BlockErr)
		}
		return
	}
	if fmt.Sprint(r.NativeErr) != fmt.Sprint(r.BlockErr) {
		r.failf("block.error", "step err=%v, block err=%v", r.NativeErr, r.BlockErr)
	}
	if r.NativeErr == nil && r.BlockErr == nil {
		if sr, br := s.Result(), b.Result(); sr != br {
			r.failf("block.result", "step %+v, block %+v", sr, br)
		}
	}
	if s.Counts != b.Counts {
		r.failf("block.counts", "step %+v, block %+v", s.Counts, b.Counts)
	}
	if d := stateDiff(s.State, b.State); d != "" {
		r.failf("block.state", "%s", d)
	}
}

// stateDiff describes the first difference between two architectural
// states, or returns "" when they are identical.
func stateDiff(a, b *machine.State) string {
	switch {
	case a.Instret != b.Instret:
		return fmt.Sprintf("instret: step %d, block %d", a.Instret, b.Instret)
	case a.PC != b.PC:
		return fmt.Sprintf("pc: step %#x, block %#x", a.PC, b.PC)
	case a.Halted != b.Halted || a.ExitCode != b.ExitCode:
		return fmt.Sprintf("halt: step %v/%d, block %v/%d", a.Halted, a.ExitCode, b.Halted, b.ExitCode)
	case a.Regs != b.Regs:
		return fmt.Sprintf("regs: step %#x, block %#x", a.Regs, b.Regs)
	case a.Out.Checksum != b.Out.Checksum || a.Out.Count != b.Out.Count || !slices.Equal(a.Out.Values, b.Out.Values):
		return fmt.Sprintf("out: step %#x/%d, block %#x/%d", a.Out.Checksum, a.Out.Count, b.Out.Checksum, b.Out.Count)
	case !bytes.Equal(a.Mem, b.Mem):
		return "memory images differ"
	}
	return ""
}

// compareState is oracle level 1: architectural equivalence, with the two
// documented fast-return exemptions (ra and spilled copies of ra hold
// fragment-cache addresses).
func (r *Report) compareState(img *program.Image) {
	ns, ss := r.Native.State, r.VM.State
	nr, sr := r.Native.Result(), r.VM.Result()

	if nr.ExitCode != sr.ExitCode {
		r.failf("exitcode", "native %d, sdt %d", nr.ExitCode, sr.ExitCode)
	}
	if nr.Instret != sr.Instret {
		r.failf("instret", "native %d, sdt %d", nr.Instret, sr.Instret)
	}
	if nr.OutCount != sr.OutCount {
		r.failf("out.count", "native %d, sdt %d", nr.OutCount, sr.OutCount)
	}
	if nr.Checksum != sr.Checksum {
		r.failf("out.checksum", "native %#x, sdt %#x", nr.Checksum, sr.Checksum)
	}
	for i := range min(len(ns.Out.Values), len(ss.Out.Values)) {
		if ns.Out.Values[i] != ss.Out.Values[i] {
			r.failf("out.values", "output %d: native %#x, sdt %#x", i, ns.Out.Values[i], ss.Out.Values[i])
			break
		}
	}
	if ns.PC != ss.PC {
		r.failf("pc", "native %#x, sdt %#x", ns.PC, ss.PC)
	}

	for reg := 0; reg < isa.NumRegs; reg++ {
		nv, sv := ns.Regs[reg], ss.Regs[reg]
		if nv == sv {
			continue
		}
		if r.FastReturns && reg == int(isa.RegRA) && sv >= core.FragBase {
			continue // documented hazard: ra holds a hostized return address
		}
		r.failf("reg", "%s: native %#x, sdt %#x", isa.RegName(isa.Reg(reg)), nv, sv)
	}

	r.compareMemory(img, ns.Mem, ss.Mem)
}

// compareMemory diffs the full memory images word by word. Under fast
// returns a differing word is legal only when it is a spilled return
// address: the translated side holds a fragment-cache address and the
// native side a code-section address.
func (r *Report) compareMemory(img *program.Image, nm, sm []byte) {
	if len(nm) != len(sm) {
		r.failf("mem", "memory sizes differ: native %d, sdt %d", len(nm), len(sm))
		return
	}
	if bytes.Equal(nm, sm) {
		return
	}
	reported := 0
	for off := 0; off+4 <= len(nm); off += 4 {
		nw := binary.LittleEndian.Uint32(nm[off:])
		sw := binary.LittleEndian.Uint32(sm[off:])
		if nw == sw {
			continue
		}
		if r.FastReturns && sw >= core.FragBase &&
			nw >= program.CodeBase && nw < img.CodeEnd() {
			continue // spilled hostized return address
		}
		r.failf("mem", "word at %#x: native %#x, sdt %#x", off, nw, sw)
		if reported++; reported >= 8 {
			r.failf("mem", "... further memory differences suppressed")
			return
		}
	}
	for off := len(nm) &^ 3; off < len(nm); off++ {
		if nm[off] != sm[off] {
			r.failf("mem", "byte at %#x: native %#x, sdt %#x", off, nm[off], sm[off])
		}
	}
}

// checkAccounting is the profile half of oracle level 2: the SDT must
// have seen exactly the indirect branches the native machine counted, and
// the mechanism hit/miss/guard tallies must account for every one of
// them.
func (r *Report) checkAccounting() {
	p := &r.VM.Prof
	for k := isa.IBKind(0); k < isa.NumIBKinds; k++ {
		if p.IBExec[k] != r.Native.Counts.IB[k] {
			r.failf("prof.ibexec", "%v: sdt executed %d, native counted %d",
				k, p.IBExec[k], r.Native.Counts.IB[k])
		}
	}

	var misses uint64
	for _, n := range p.IBMiss {
		misses += n
	}
	if misses != p.MechMisses {
		r.failf("prof.miss", "per-kind IB misses sum to %d, MechMisses = %d", misses, p.MechMisses)
	}

	// Every executed IB is resolved exactly once: by a trace guard hit or
	// by exactly one terminal hit/miss in the handler chain. Fast returns
	// add re-resolutions for transparency escapes (a guest-address return
	// target falls back into the handler after being counted as a miss),
	// so the tally may only exceed the execution count there — and
	// ra-disciplined corpora never escape, keeping equality in practice.
	resolved := p.MechHits + p.MechMisses + p.TraceGuardHits
	if !r.FastReturns && resolved != p.IBTotal() {
		r.failf("prof.resolved", "hits(%d)+misses(%d)+guardhits(%d) = %d, want IB total %d",
			p.MechHits, p.MechMisses, p.TraceGuardHits, resolved, p.IBTotal())
	}
	if r.FastReturns && resolved < p.IBTotal() {
		r.failf("prof.resolved", "hits(%d)+misses(%d)+guardhits(%d) = %d < IB total %d",
			p.MechHits, p.MechMisses, p.TraceGuardHits, resolved, p.IBTotal())
	}

	// Superblock counters must be internally consistent: a superblock
	// execution requires a materialized trace, a retired super-op requires
	// a superblock execution, and each execution departs the trace at most
	// once, so side exits can never outnumber entries.
	if p.SuperblockExecs > 0 && p.TracesFormed == 0 {
		r.failf("prof.superblock", "%d superblock execs with no traces formed", p.SuperblockExecs)
	}
	if p.SuperOpsRetired > 0 && p.SuperblockExecs == 0 {
		r.failf("prof.superblock", "%d super-ops retired with no superblock execs", p.SuperOpsRetired)
	}
	if p.TraceExits > p.SuperblockExecs {
		r.failf("prof.superblock", "%d trace exits exceed %d superblock execs", p.TraceExits, p.SuperblockExecs)
	}
	if p.TraceGuardHits+p.TraceGuardMisses > 0 && p.SuperblockExecs == 0 {
		r.failf("prof.superblock", "trace guards fired (%d hits, %d misses) with no superblock execs",
			p.TraceGuardHits, p.TraceGuardMisses)
	}

	// Adaptive dispatch: every re-translation was triggered by a tier
	// change (a change on an ownerless shadow site re-translates nothing,
	// so the inequality is <=).
	if p.AdaptRetrans > p.AdaptPromotions+p.AdaptDemotions {
		r.failf("prof.adaptive", "%d re-translations exceed %d promotions + %d demotions",
			p.AdaptRetrans, p.AdaptPromotions, p.AdaptDemotions)
	}

	// Cycle attribution must never exceed the run's own total: every
	// attributed cycle was also charged to the cost environment the total
	// comes from, so over-attribution means double counting somewhere.
	if b := p.Overhead(r.VM.Result().Cycles); b.OverAttributed {
		r.failf("prof.overattributed", "ib(%d)+ctx(%d)+trans(%d) cycles exceed run total %d",
			b.IB, b.Ctx, b.Trans, b.Total)
	}
}

// CheckDeterminism is the repeatability half of oracle level 2: two SDT
// runs of the same image under the same configuration must be
// bit-identical — results, cycle counts and the whole profile. Handler
// state, cache simulators and trace formation may hold no hidden
// nondeterminism (map-iteration order, time, pointer identity).
func CheckDeterminism(img *program.Image, cfg Config) ([]Divergence, error) {
	model, err := hostarch.ByName(cfg.Arch)
	if err != nil {
		return nil, err
	}
	limit := cfg.limit()
	run := func() (*core.VM, error) {
		mech, err := ib.Parse(cfg.Spec) // fresh handler per run: no shared state
		if err != nil {
			return nil, err
		}
		opts := mech.Options(model)
		if cfg.Options != nil {
			cfg.Options(&opts)
		}
		return runVM(img, opts, limit)
	}
	a, errA := run()
	b, errB := run()
	if a == nil || b == nil {
		return nil, fmt.Errorf("oracle: determinism run failed to construct: %v / %v", errA, errB)
	}

	var divs []Divergence
	fail := func(check, format string, args ...any) {
		divs = append(divs, Divergence{check, fmt.Sprintf(format, args...)})
	}
	if (errA == nil) != (errB == nil) {
		fail("det.error", "run 1 err=%v, run 2 err=%v", errA, errB)
	}
	ra, rb := a.Result(), b.Result()
	if ra != rb {
		fail("det.result", "run 1 %+v, run 2 %+v", ra, rb)
	}
	if a.Prof != b.Prof {
		fail("det.profile", "profiles differ:\nrun 1: %+v\nrun 2: %+v", a.Prof, b.Prof)
	}
	return divs, nil
}

// Variant is one metamorphic run configuration: an option mutation that
// must not change guest-visible results.
type Variant struct {
	Name   string
	Mutate func(*core.Options)
}

// Variants returns the metamorphic axis of the sweep: baseline options
// plus the translation-policy and cache-pressure mutations that are
// required to be invisible to the guest.
func Variants() []Variant {
	return []Variant{
		{"baseline", func(*core.Options) {}},
		// 512 bytes holds only a handful of fragments (an x86 fragment is
		// ~6 bytes/inst plus a 16-byte stub), so even corpus-scale
		// programs flush the cache repeatedly.
		{"flushpressure", func(o *core.Options) { o.CacheBytes = 512 }},
		// Eager trace formation: threshold 3 makes corpus-scale programs
		// form superblocks within their short budgets.
		{"traces", func(o *core.Options) { o.Traces = true; o.TraceThreshold = 3 }},
		// Super-op fusion ablation: same superblocks, unfused bodies. The
		// rewrite may only change cycle counts, never guest-visible state.
		{"traces:nosuper", func(o *core.Options) {
			o.Traces = true
			o.TraceThreshold = 3
			o.NoSuperOps = true
		}},
		// Minimum-length traces: MaxTraceFrags at its floor of 2 stresses
		// the degenerate two-part superblock and its single side exit.
		{"traces:minfrags", func(o *core.Options) {
			o.Traces = true
			o.TraceThreshold = 3
			o.MaxTraceFrags = 2
		}},
		// Superblocks under flush pressure: materialized traces are torn
		// down by epoch flushes mid-run and must re-form cleanly.
		{"traces+flushpressure", func(o *core.Options) {
			o.Traces = true
			o.TraceThreshold = 3
			o.CacheBytes = 512
		}},
		{"tinyblocks+flush", func(o *core.Options) {
			o.MaxBlockInsts = 4
			o.CacheBytes = 1024
		}},
	}
}

// Finding is one non-clean sweep cell.
type Finding struct {
	Arch, Spec, Variant string
	Divergences         []Divergence
}

func (f Finding) String() string {
	return fmt.Sprintf("%s/%s/%s: %d divergence(s), first: %s",
		f.Arch, f.Spec, f.Variant, len(f.Divergences), f.Divergences[0])
}

// SweepImage runs img through every arch × spec × metamorphic variant and
// returns the cells whose oracle checks failed. Empty archs or specs
// select the paper's two architectures and the full registry sweep.
func SweepImage(img *program.Image, archs, specs []string, limit uint64) ([]Finding, error) {
	if len(archs) == 0 {
		archs = []string{"x86", "sparc"}
	}
	if len(specs) == 0 {
		specs = ib.SweepSpecs()
	}
	var findings []Finding
	for _, arch := range archs {
		model, err := hostarch.ByName(arch)
		if err != nil {
			return findings, fmt.Errorf("oracle: %s: %w", arch, err)
		}
		cfg := Config{Arch: arch, Limit: limit}
		nat := nativeRuns(img, model, cfg.limit())
		for _, spec := range specs {
			for _, v := range Variants() {
				cfg.Spec, cfg.Options = spec, v.Mutate
				rep, err := diff(img, cfg, model, nat)
				if err != nil {
					return findings, fmt.Errorf("oracle: %s/%s/%s: %w", arch, spec, v.Name, err)
				}
				if !rep.Clean() {
					findings = append(findings, Finding{arch, spec, v.Name, rep.Divergences})
				}
			}
		}
	}
	return findings, nil
}

// Diverges assembles src and reports whether the SDT run under cfg
// deviates from native execution while the native run itself is clean.
// It is the Keep predicate `sdtfuzz -minimize` shrinks against: sources
// that stop assembling, fault natively or stop diverging are rejected.
func Diverges(src string, cfg Config) bool {
	img, err := asm.Assemble("minimize.s", src)
	if err != nil {
		return false
	}
	rep, err := Diff(img, cfg)
	if err != nil || rep.NativeErr != nil {
		return false
	}
	return !rep.Clean()
}

// InstCount assembles src and returns its static instruction count.
func InstCount(src string) (int, error) {
	img, err := asm.Assemble("count.s", src)
	if err != nil {
		return 0, err
	}
	return len(img.Code), nil
}
