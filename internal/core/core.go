// Package core implements the software dynamic translator itself — the
// Strata-shaped virtual machine the paper's experiments run on.
//
// The SDT executes a guest program out of a fragment cache. A fragment is
// one translated guest basic block living at a simulated host address.
// Direct control transfers are linked fragment-to-fragment after their
// first execution and cost what the equivalent host branch costs. Indirect
// control transfers cannot be linked: their guest target is a run-time
// value, and mapping it to a fragment-cache address is the job of the
// pluggable IBHandler — the subject of the paper.
//
// Cost accounting: the VM executes guest instructions for their
// architectural effect (via machine.Exec, the same semantic core the native
// baseline uses) and charges a machine.CostEnv for the host-level work the
// emitted code would perform: instruction fetches at fragment-cache
// addresses, data references, branch-predictor and cache behaviour, context
// switches into the translator and translation work itself.
package core

import (
	"errors"
	"fmt"

	"sdt/internal/cache"
	"sdt/internal/hostarch"
	"sdt/internal/isa"
)

// Simulated host address-space layout. Guest addresses stay below
// program.MaxGuestAddr; the fragment cache and the SDT's data tables live
// above it, sharing the I- and D-cache simulators with the guest exactly
// the way a real SDT shares the host caches with its guest.
const (
	// FragBase is the base address of the fragment cache (code side).
	FragBase = 0x4000_0000
	// TableBase is the base address of SDT-owned data (IBTC tables, the
	// translator's lookup structures).
	TableBase = 0x8000_0000
	// translatorMapAddr stands in for the translator's internal hash map
	// storage; probe addresses are derived from it.
	translatorMapAddr = 0xC000_0000
)

// ErrLimit is returned by Run when the instruction budget is exhausted.
var ErrLimit = errors.New("core: instruction limit exceeded")

// Options configure a VM.
type Options struct {
	// Model prices host operations. Required.
	Model *hostarch.Model
	// Handler resolves indirect branches. Required.
	Handler IBHandler
	// DisableLinking makes every direct fragment exit re-enter the
	// translator instead of being patched to its successor (ablation).
	DisableLinking bool
	// FastReturns rewrites calls so the guest's return-address register
	// holds the fragment-cache address of the return point; returns then
	// execute as host returns. Sacrifices transparency (the guest can
	// observe host addresses in ra).
	FastReturns bool
	// Traces enables NET-style trace formation: fragments that execute
	// TraceThreshold times seed a recording of the next executed path,
	// which is materialized as a contiguous trace. Indirect branches
	// inside a trace are guarded by an inline compare against the
	// recorded continuation — a speculative inline cache that skips the
	// full lookup while the IB stays monomorphic along the trace.
	Traces bool
	// NoSuperOps disables super-op fusion during superblock compilation
	// while keeping trace formation itself on: trace bodies are priced
	// instruction-by-instruction instead of through the model's SuperOps
	// table (ablation; see hostarch.SuperOp and machine.PlanFusedBody).
	NoSuperOps bool
	// TraceThreshold is the fragment hotness bar for seeding a trace.
	// 0 means 64.
	TraceThreshold int
	// MaxTraceFrags bounds trace length in fragments. 0 means 8.
	MaxTraceFrags int
	// MaxBlockInsts bounds fragment length. 0 means 128.
	MaxBlockInsts int
	// CacheBytes is the fragment cache capacity before a full flush.
	// 0 means 8 MiB.
	CacheBytes uint32
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Model == nil {
		return opts, errors.New("core: Options.Model is required")
	}
	if opts.Handler == nil {
		return opts, errors.New("core: Options.Handler is required")
	}
	if opts.MaxBlockInsts == 0 {
		opts.MaxBlockInsts = 128
	}
	if opts.TraceThreshold == 0 {
		opts.TraceThreshold = 64
	}
	if opts.TraceThreshold < 0 {
		return opts, fmt.Errorf("core: TraceThreshold = %d out of range", opts.TraceThreshold)
	}
	if opts.MaxTraceFrags == 0 {
		opts.MaxTraceFrags = 8
	}
	if opts.MaxTraceFrags < 2 {
		return opts, fmt.Errorf("core: MaxTraceFrags = %d out of range (need >= 2)", opts.MaxTraceFrags)
	}
	if opts.MaxBlockInsts < 1 {
		return opts, fmt.Errorf("core: MaxBlockInsts = %d out of range", opts.MaxBlockInsts)
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 8 << 20
	}
	return opts, nil
}

// Fragment is one translated guest basic block in the fragment cache.
// Fragments are allocated from per-VM arenas (see alloc.go); a fragment is
// live while its epoch matches the VM's, and its storage may be reused after
// the next flush, so handlers must not retain a *Fragment across more than
// one Flush callback.
type Fragment struct {
	GuestPC  uint32     // guest address of the first instruction
	Insts    []isa.Inst // body; the last instruction is the terminator
	HostAddr uint32     // fragment cache address
	Bytes    uint32     // emitted code size

	// Direct-exit links, patched on first use. TakenLink serves branch
	// taken targets and direct jump/call targets; FallLink serves branch
	// fall-through and block-split fall-through.
	TakenLink fragLink
	FallLink  fragLink

	// Site is the indirect-branch site state when the terminator is an
	// indirect transfer, else nil.
	Site *IBSite

	// RetFrag caches the return-point fragment for call terminators under
	// fast returns.
	RetFrag fragLink

	// Synth is true when the terminator is a synthesized fall-through
	// (the block hit MaxBlockInsts without a control instruction).
	Synth bool

	// Hits counts executions (trace-formation hotness); Trace points to
	// the trace seeded at this fragment once one is materialized.
	Hits  uint64
	Trace *Trace

	// epoch is the flush generation the fragment was translated in; the
	// fragment is live while it equals the VM's current epoch.
	epoch uint64

	// staticCycles is the data-independent body cost (see
	// machine.StaticBodyCost), precomputed at translation time and charged
	// in one batch per execution.
	staticCycles uint64

	// fetch is the body's emitted code as line-aligned I-fetch addresses
	// (see machine.RunBody).
	fetch cache.Span
}

// fragLink is a patchable direct-exit slot: the target fragment plus the
// epoch the patch was made in. A link is only followed when its patch epoch
// matches the VM's current epoch; anything older refers to a flushed target
// whose storage may since have been reused.
type fragLink struct {
	f     *Fragment
	epoch uint64
}

// Terminator returns the fragment's final (control) instruction.
func (f *Fragment) Terminator() isa.Inst { return f.Insts[len(f.Insts)-1] }

// IBSite is the per-site state of one indirect branch in translated code.
// Handlers hang mechanism-specific state off Data at Attach time.
type IBSite struct {
	GuestPC  uint32     // guest address of the indirect branch
	Kind     isa.IBKind // return / indirect jump / indirect call
	HostAddr uint32     // address of the emitted handling code for this site
	Data     any        // mechanism-specific per-site state

	// frag is the fragment whose terminator this site belongs to; set by
	// the translator for real sites, nil for handler-built shadow sites.
	frag *Fragment
}

// Owner returns the fragment whose terminator this site handles, or nil
// for shadow sites a handler constructed itself (inline-cache fallbacks).
// Handlers use it to target a single-fragment invalidation (VM.Invalidate)
// at the code that emitted their lookup sequence.
func (s *IBSite) Owner() *Fragment { return s.frag }

// IBHandler is an indirect-branch handling mechanism. Implementations
// charge the VM's cost environment for every host-level operation their
// emitted lookup code performs and return the fragment to execute next,
// entering the translator (vm.EnterTranslator) on their miss path.
type IBHandler interface {
	// Name identifies the mechanism and its configuration, e.g.
	// "ibtc(shared,4096)".
	Name() string
	// Init is called once before execution begins, after the VM is fully
	// constructed; handlers allocate shared tables and stubs here.
	Init(vm *VM)
	// Attach is called when a fragment ending in an indirect branch is
	// translated; handlers allocate per-site state here.
	Attach(vm *VM, site *IBSite)
	// Resolve maps the guest target of the indirect branch at site to its
	// fragment, charging all costs of the emitted lookup sequence and of
	// the final dispatch transfer.
	Resolve(vm *VM, site *IBSite, target uint32) (*Fragment, error)
	// Flush is called when the fragment cache is flushed; handlers must
	// drop every Fragment pointer and every code-cache stub they hold.
	Flush(vm *VM)
}

// CallObserver is implemented by handlers that want to see direct and
// indirect calls as they execute (the return cache pre-fills its table at
// call time). guestRet is the guest return address the call produced.
type CallObserver interface {
	OnCall(vm *VM, guestRet uint32)
}
