package core

import (
	"context"
	"fmt"

	"sdt/internal/cache"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/profile"
	"sdt/internal/program"
)

// VM is the software dynamic translator executing one guest image.
//
// Lookup structures are allocation-free on the dispatch path: the
// translation table is a dense slice indexed by guest code word, the
// host-address index is a flat open-addressed table, and fragments live in
// pooled arena chunks (alloc.go). Liveness across flushes is tracked by
// epoch tags instead of map membership, so a flush is an epoch bump plus a
// constant amount of list surgery rather than a rebuild.
type VM struct {
	State *machine.State
	Env   *machine.CostEnv
	Prof  profile.Profile

	opts Options
	img  *program.Image
	code []isa.Inst // predecoded guest code section (shared, read-only)

	frags   []*Fragment // dense: (guestPC-CodeBase)/WordSize -> fragment
	hostTab hostTable   // fragment cache addr -> fragment / guest return pc

	fchunks  []*fragChunk // arena chunks holding this epoch's fragments
	fused    int          // slots used in the last fragment chunk
	schunks  []*siteChunk // likewise for IB sites
	sused    int
	freeFrag []*fragChunk // chunks past limbo, available for reuse
	freeSite []*siteChunk
	// Flushed chunks age through limboGens generations before reuse so
	// that in-flight pointers into just-flushed fragments stay intact —
	// see limboGens. Unused (always empty) in trace mode.
	fragLimbo [limboGens][]*fragChunk
	siteLimbo [limboGens][]*siteChunk

	codeTop   uint32 // next fragment cache address
	dataTop   uint32 // next SDT table address
	cacheUsed uint32 // fragment cache bytes live since last flush
	epoch     uint64 // bumped on every flush

	limit   uint64
	callObs CallObserver // opts.Handler, if it observes calls
	rec     *traceRec    // active trace recording, if any
}

// New builds a VM for img. The handler's Init hook runs before New returns.
func New(img *program.Image, opts Options) (*VM, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	st, err := machine.NewState(img)
	if err != nil {
		return nil, err
	}
	env, err := machine.NewCostEnv(o.Model)
	if err != nil {
		return nil, err
	}
	vm := &VM{
		State:   st,
		Env:     env,
		opts:    o,
		img:     img,
		code:    img.Decoded(),
		codeTop: FragBase,
		dataTop: TableBase,
	}
	vm.frags = grabFragTable(len(vm.code))
	vm.hostTab.init(grabHostTab())
	vm.callObs, _ = o.Handler.(CallObserver)
	o.Handler.Init(vm)
	return vm, nil
}

// Options returns the effective (defaulted) options.
func (vm *VM) Options() Options { return vm.opts }

// Image returns the guest image.
func (vm *VM) Image() *program.Image { return vm.img }

// Handler returns the configured IB handler.
func (vm *VM) Handler() IBHandler { return vm.opts.Handler }

// Epoch returns the current fragment cache generation; it increments on
// every flush. Handlers can use it to detect stale cached state.
func (vm *VM) Epoch() uint64 { return vm.epoch }

// Live reports whether f was translated in the current fragment cache
// epoch, i.e. whether a cached *Fragment may still be dispatched to.
// Handlers must revalidate pointers they held when their Flush callback
// runs, and must not retain a pointer across more than one flush: after a
// second flush the fragment's storage may have been reused.
func (vm *VM) Live(f *Fragment) bool { return f != nil && f.epoch == vm.epoch }

// deadEpoch marks a fragment invalidated mid-epoch (see Invalidate). The
// VM's epoch counts up from zero, so this value is never a live epoch.
const deadEpoch = ^uint64(0)

// Invalidate retires a single fragment without flushing the cache: the
// fragment's epoch is poisoned so every lookup path (translation table,
// host-address index, patched links, handler-cached pointers revalidated
// through Live) misses it, and the next execution of its guest block
// retranslates. The fragment's cache bytes are not reclaimed — like a real
// SDT's in-place retranslation, the dead code stays resident until the
// next full flush. Reports whether f was live.
//
// This is the re-translation primitive adaptive dispatch uses to swap a
// site's emitted lookup sequence: invalidate the owning fragment, and the
// organic retranslation re-attaches the site under the new configuration.
func (vm *VM) Invalidate(f *Fragment) bool {
	if !vm.Live(f) {
		return false
	}
	idx := (f.GuestPC - program.CodeBase) / isa.WordSize
	if int(idx) < len(vm.frags) && vm.frags[idx] == f {
		vm.frags[idx] = nil
	}
	f.epoch = deadEpoch
	return true
}

// AllocCode reserves bytes in the fragment cache (for mechanism stubs such
// as sieve chain entries) and returns their address.
func (vm *VM) AllocCode(bytes uint32) uint32 {
	addr := vm.codeTop
	vm.codeTop += bytes
	vm.cacheUsed += bytes
	return addr
}

// AllocData reserves bytes in the SDT's data space (for lookup tables) and
// returns their address.
func (vm *VM) AllocData(bytes uint32) uint32 {
	addr := vm.dataTop
	vm.dataTop += bytes
	return addr
}

// Lookup returns the live fragment for a guest pc without charging any cost
// (handlers use it for bookkeeping, not on simulated lookup paths).
func (vm *VM) Lookup(guest uint32) *Fragment { return vm.lookupLive(guest) }

// lookupLive is the host-side translation-table probe: one indexed load
// plus an epoch check. The GuestPC comparison rejects a slot whose arena
// storage was reused for a different block after a flush.
func (vm *VM) lookupLive(guest uint32) *Fragment {
	idx := (guest - program.CodeBase) / isa.WordSize
	if guest%isa.WordSize != 0 || int(idx) >= len(vm.frags) {
		return nil
	}
	if f := vm.frags[idx]; f != nil && f.epoch == vm.epoch && f.GuestPC == guest {
		return f
	}
	return nil
}

// FragmentByHost returns the fragment whose code starts at the given
// fragment cache address, if it is live in the current epoch.
func (vm *VM) FragmentByHost(host uint32) *Fragment {
	if e := vm.hostTab.get(host); e != nil {
		if f := e.frag; f != nil && f.epoch == vm.epoch && f.HostAddr == host {
			return f
		}
	}
	return nil
}

// GuestOfHostRet translates a hostized return address back to its guest
// return pc. It reports false for addresses the VM never issued.
func (vm *VM) GuestOfHostRet(host uint32) (uint32, bool) {
	if e := vm.hostTab.get(host); e != nil && e.hasRet {
		return e.guestRet, true
	}
	return 0, false
}

// EnterTranslator models the full slow path of an indirect branch or
// unlinked exit: a context switch out of translated code, a probe of the
// translator's guest-pc-to-fragment map, translation if the target has
// never been seen, and the context switch back. It returns the target
// fragment. Cycles are attributed to the Ctx and Trans profile categories.
func (vm *VM) EnterTranslator(guest uint32) (*Fragment, error) {
	m := vm.Env.Model
	vm.Prof.TranslatorEntries++
	start := vm.Env.Cycles
	trans0 := vm.Prof.CyclesTrans

	vm.Env.Charge(m.CtxSave)
	vm.Env.Charge(m.MapProbe)
	// Two dependent probes of the translator's map, in SDT data space.
	h := (guest >> 2) * 2654435761 // Fibonacci hashing
	vm.Env.DTouch(translatorMapAddr + h%(1<<20)&^3)
	vm.Env.DTouch(translatorMapAddr + (1 << 20) + h/(1<<20)&^3)

	f := vm.lookupLive(guest)
	if f == nil {
		var err error
		f, err = vm.translate(guest)
		if err != nil {
			return nil, err
		}
	}
	vm.Env.Charge(m.CtxRestore)
	vm.Prof.CyclesCtx += (vm.Env.Cycles - start) - (vm.Prof.CyclesTrans - trans0)
	return f, nil
}

// fetchGuest bounds-checks pc against the static code section.
func (vm *VM) fetchGuest(pc uint32) (isa.Inst, error) {
	idx := (pc - program.CodeBase) / isa.WordSize
	if pc < program.CodeBase || pc%isa.WordSize != 0 || int(idx) >= len(vm.code) {
		return isa.Inst{}, &machine.Fault{PC: pc, Addr: pc, Msg: "translation target outside code section"}
	}
	return vm.code[idx], nil
}

// translate builds the fragment for the basic block at guest, charging
// translation costs and flushing the fragment cache if it is full.
func (vm *VM) translate(guest uint32) (*Fragment, error) {
	start := vm.Env.Cycles
	m := vm.Env.Model

	// Decode the block: up to MaxBlockInsts instructions, through the
	// first control transfer. The block is a subslice of the predecoded
	// code section (no copy).
	count := 0
	for count < vm.opts.MaxBlockInsts {
		in, err := vm.fetchGuest(guest + uint32(count)*isa.WordSize)
		if err != nil {
			if count == 0 {
				return nil, err
			}
			// The block ran off the end of the code section. Native
			// execution retires the valid prefix before the overrun
			// fetch faults, so translation must not fault early: end
			// the fragment here and let its fall-through re-enter the
			// translator at the bad pc, which faults at the
			// architecturally correct instruction count.
			break
		}
		count++
		if in.Op.IsControl() {
			break
		}
	}
	startIdx := (guest - program.CodeBase) / isa.WordSize
	end := startIdx + uint32(count)
	insts := vm.code[startIdx:end:end]
	term := insts[count-1]
	termPC := guest + uint32(count-1)*isa.WordSize
	cb := uint32(m.CodeBytesPerInst)
	bodyBytes := uint32(count) * cb
	size := bodyBytes + uint32(m.StubBytes)

	if vm.cacheUsed+size > vm.opts.CacheBytes {
		vm.flush()
	}

	host := vm.AllocCode(size)
	line := uint32(m.ICache.LineBytes)
	f := vm.newFragment()
	*f = Fragment{
		GuestPC:      guest,
		Insts:        insts,
		HostAddr:     host,
		Bytes:        size,
		Synth:        !term.Op.IsControl(),
		epoch:        vm.epoch,
		staticCycles: machine.StaticBodyCost(m, insts),
		fetch: cache.Span{
			From: host &^ (line - 1),
			End:  (host+bodyBytes-cb)&^(line-1) + line,
		},
	}
	if term.Op.IsIndirect() {
		s := vm.newSite()
		*s = IBSite{
			GuestPC:  termPC,
			Kind:     isa.KindOf(term.Op),
			HostAddr: f.HostAddr + bodyBytes,
			frag:     f,
		}
		f.Site = s
		vm.opts.Handler.Attach(vm, f.Site)
	}
	vm.frags[startIdx] = f
	vm.hostTab.put(f.HostAddr).frag = f

	vm.Env.Charge(m.TransBase + m.TransPerInst*count)
	vm.Prof.Translations++
	vm.Prof.TransInsts += uint64(count)
	vm.Prof.CyclesTrans += vm.Env.Cycles - start
	return f, nil
}

// flush empties the fragment cache: the epoch bump invalidates every
// fragment and every patched link at once, and all handler state is
// dropped. The dense translation table and the host-address index keep
// their (now stale) entries — liveness is the epoch tag, so no per-entry
// work happens. Hostized return addresses stay resolvable through the host
// table, so fast returns into flushed code fall back to the translator
// instead of misbehaving.
//
// Arena chunks move to a free list for reuse by the next epoch's
// translations — except in trace mode, where a trace that is mid-execution
// may legitimately keep reading the bodies of just-flushed fragments, so
// the chunks are handed to the garbage collector instead.
func (vm *VM) flush() {
	vm.epoch++
	vm.Prof.Flushes++
	vm.rec = nil // any in-progress trace recording holds doomed fragments
	vm.cacheUsed = 0
	if vm.opts.Traces {
		for i := range vm.fchunks {
			vm.fchunks[i] = nil
		}
		for i := range vm.schunks {
			vm.schunks[i] = nil
		}
		vm.fchunks = vm.fchunks[:0]
		vm.schunks = vm.schunks[:0]
	} else {
		// Age the limbo generations: the oldest becomes reusable, this
		// epoch's chunks enter limbo. The vacated slice header backs the
		// next epoch's chunk list, so rotation allocates nothing.
		last := limboGens - 1
		vm.freeFrag = append(vm.freeFrag, vm.fragLimbo[last]...)
		ff := vm.fragLimbo[last][:0]
		copy(vm.fragLimbo[1:], vm.fragLimbo[:last])
		vm.fragLimbo[0] = vm.fchunks
		vm.fchunks = ff
		vm.freeSite = append(vm.freeSite, vm.siteLimbo[last]...)
		fs := vm.siteLimbo[last][:0]
		copy(vm.siteLimbo[1:], vm.siteLimbo[:last])
		vm.siteLimbo[0] = vm.schunks
		vm.schunks = fs
	}
	if !vm.opts.FastReturns && vm.codeTop >= TableBase-vm.opts.CacheBytes {
		// Reuse the address space; with fast returns it must stay unique
		// because guest registers may hold old fragment addresses.
		vm.codeTop = FragBase
	}
	vm.opts.Handler.Flush(vm)
}

// link resolves a direct fragment exit through *slot, patching it on first
// use. With linking disabled, every exit pays a translator entry.
//
// e0 is the epoch observed when f was last known live (at exit entry). In
// the normal (non-trace) mode the slot is only trusted and only patched
// while vm.epoch == e0: once a translator entry inside this exit flushes
// the cache, f's own storage may already have been reused for a different
// fragment, so both reading and writing its link slots would touch the
// wrong fragment's state. In trace mode fragment storage is never reused
// (see flush), so slots stay trustworthy even on stale trace parts and are
// patched unconditionally — stale parts can recur within one trace
// execution and the patch legitimately serves the later occurrence.
func (vm *VM) link(f *Fragment, slot *fragLink, guest uint32, e0 uint64) (*Fragment, error) {
	if vm.opts.DisableLinking {
		return vm.EnterTranslator(guest)
	}
	trust := vm.opts.Traces || vm.epoch == e0
	// next.epoch must match too: a patch made this epoch may point at a
	// fragment since retired by a targeted Invalidate (never by a flush,
	// which would fail the slot.epoch check first).
	if next := slot.f; trust && next != nil && slot.epoch == vm.epoch && next.epoch == vm.epoch && next.GuestPC == guest {
		return next, nil
	}
	next, err := vm.EnterTranslator(guest)
	if err != nil {
		return nil, err
	}
	if vm.opts.Traces || vm.epoch == e0 {
		*slot = fragLink{f: next, epoch: vm.epoch}
	}
	return next, nil
}

// Run executes the guest under translation until it halts or limit
// instructions retire (0 selects machine.DefaultLimit).
func (vm *VM) Run(limit uint64) error {
	return vm.RunContext(context.Background(), limit)
}

// ctxCheckExits is how many fragment exits pass between cancellation
// checks in RunContext. Checking per fragment would put a channel poll on
// the hottest loop in the system; a fragment averages a handful of guest
// instructions, so this granularity bounds cancellation latency to a few
// thousand simulated instructions while keeping the check off the profile.
const ctxCheckExits = 1024

// RunContext executes like Run but additionally stops when ctx is
// cancelled or its deadline passes, returning an error wrapping ctx's
// cause (so errors.Is(err, context.DeadlineExceeded) and
// context.Canceled work). Cancellation is checked every ctxCheckExits
// fragment exits, not every instruction; a context that is never
// cancellable (context.Background) costs nothing.
func (vm *VM) RunContext(ctx context.Context, limit uint64) error {
	if limit == 0 {
		limit = machine.DefaultLimit
	}
	vm.limit = limit
	f, err := vm.EnterTranslator(vm.img.Entry)
	if err != nil {
		return err
	}
	done := ctx.Done()
	sinceCheck := 0
	for !vm.State.Halted {
		if vm.opts.Traces {
			f, err = vm.traceStep(f)
		} else {
			f, err = vm.execFragment(f)
		}
		if err != nil {
			return err
		}
		if done != nil {
			if sinceCheck++; sinceCheck >= ctxCheckExits {
				sinceCheck = 0
				select {
				case <-done:
					return fmt.Errorf("core: run stopped after %d instructions: %w",
						vm.State.Instret, context.Cause(ctx))
				default:
				}
			}
		}
	}
	return nil
}

// bodyErr rewraps a machine.RunBody error for the body starting at head.
// The SDT runs every fragment body and superblock part through
// machine.RunBody, the body runner the native machine shares: near the end
// of the instruction budget only the prefix that fits runs, leaving the
// same architectural state as the native machine's.
func (vm *VM) bodyErr(err error, head uint32) error {
	if err == machine.ErrLimit {
		return fmt.Errorf("%w (%d instructions)", ErrLimit, vm.limit)
	}
	return fmt.Errorf("core: in fragment %#x: %w", head, err)
}

// execFragment runs one fragment body and resolves its exit, returning the
// next fragment (nil after HALT).
func (vm *VM) execFragment(f *Fragment) (*Fragment, error) {
	vm.Env.Cycles += f.staticCycles
	out, err := machine.RunBody(vm.State, vm.Env, f.Insts, f.GuestPC, &f.fetch, vm.limit)
	if err != nil {
		return nil, vm.bodyErr(err, f.GuestPC)
	}
	return vm.exit(f, out)
}

// exit charges and resolves a fragment's terminating control transfer.
// The epoch at entry is captured and threaded to the link/return-point
// logic so that a flush triggered mid-exit (by a translator entry) stops
// any further use of f's patchable slots — see link.
func (vm *VM) exit(f *Fragment, out machine.Outcome) (*Fragment, error) {
	e0 := vm.epoch
	env := vm.Env
	m := env.Model
	switch out.Kind {
	case OutHalt:
		env.Charge(m.ALU)
		return nil, nil
	case OutNext:
		// Synthesized fall-through for an over-long block.
		env.Charge(m.DirectJump)
		return vm.link(f, &f.FallLink, out.Target, e0)
	case OutBranch:
		if out.Taken {
			env.Charge(m.BranchTaken)
			return vm.link(f, &f.TakenLink, out.Target, e0)
		}
		env.Charge(m.BranchNotTaken)
		return vm.link(f, &f.FallLink, out.Target, e0)
	case OutJump:
		env.Charge(m.DirectJump)
		return vm.link(f, &f.TakenLink, out.Target, e0)
	case OutCall:
		// Direct call (JAL). Exec already set ra to the guest return
		// address; under fast returns the emitted code loads the
		// fragment-cache return address instead and executes a host call.
		guestRet := vm.State.Regs[isa.RegRA] // set by Exec before the transfer
		if vm.callObs != nil {
			vm.callObs.OnCall(vm, guestRet)
		}
		if vm.opts.FastReturns {
			if err := vm.fastCall(f, guestRet, e0); err != nil {
				return nil, err
			}
		} else {
			env.Charge(m.DirectJump)
		}
		return vm.link(f, &f.TakenLink, out.Target, e0)
	case OutIndirect:
		return vm.indirect(f, out, e0)
	}
	panic("core: unhandled outcome kind")
}

// outcome kind aliases to keep the switch readable.
const (
	OutNext     = machine.OutNext
	OutBranch   = machine.OutBranch
	OutJump     = machine.OutJump
	OutCall     = machine.OutCall
	OutIndirect = machine.OutIndirect
	OutHalt     = machine.OutHalt
)

// retPoint resolves the return-point fragment for a call with guest return
// address guestRet, through f's RetFrag slot (same trust/patch discipline
// as link). It records the hostized return address so a later fast return
// into flushed code can recover the guest pc.
func (vm *VM) retPoint(f *Fragment, guestRet uint32, e0 uint64) (*Fragment, error) {
	trust := vm.opts.Traces || vm.epoch == e0
	rl := f.RetFrag
	if rf := rl.f; trust && rf != nil && rl.epoch == vm.epoch && rf.epoch == vm.epoch && rf.GuestPC == guestRet {
		return rf, nil
	}
	// First execution (or flushed): materialize the return-point fragment
	// the way the translator does when it rewrites the call.
	rf, err := vm.EnterTranslator(guestRet)
	if err != nil {
		return nil, err
	}
	if vm.opts.Traces || vm.epoch == e0 {
		f.RetFrag = fragLink{f: rf, epoch: vm.epoch}
	}
	e := vm.hostTab.put(rf.HostAddr)
	e.hasRet = true
	e.guestRet = guestRet
	return rf, nil
}

// fastCall rewrites the guest's return-address register to the
// fragment-cache address of the return point and performs a host call
// (pushing the return-address stack), realizing the paper's "fast returns".
func (vm *VM) fastCall(f *Fragment, guestRet uint32, e0 uint64) error {
	rf, err := vm.retPoint(f, guestRet, e0)
	if err != nil {
		return err
	}
	vm.State.SetReg(isa.RegRA, rf.HostAddr)
	vm.Env.HostCall(rf.HostAddr)
	return nil
}

// indirect dispatches an indirect-branch exit through the configured
// handler (or the fast-return path), attributing cycles to the IB category.
func (vm *VM) indirect(f *Fragment, out machine.Outcome, e0 uint64) (*Fragment, error) {
	vm.Prof.IBExec[out.IB]++
	site := f.Site
	if site == nil {
		panic(fmt.Sprintf("core: indirect exit without site at %#x", f.GuestPC))
	}

	start := vm.Env.Cycles
	ctx0, tr0 := vm.Prof.CyclesCtx, vm.Prof.CyclesTrans
	defer func() {
		vm.Prof.CyclesIB += (vm.Env.Cycles - start) -
			(vm.Prof.CyclesCtx - ctx0) - (vm.Prof.CyclesTrans - tr0)
	}()

	if out.IB == isa.IBReturn && vm.opts.FastReturns {
		return vm.fastReturn(site, out.Target)
	}

	guestRet := vm.State.Regs[isa.RegRA] // valid for IBCall (just set by Exec)
	next, err := vm.opts.Handler.Resolve(vm, site, out.Target)
	if err != nil {
		return nil, err
	}
	if out.IB == isa.IBCall {
		if vm.callObs != nil {
			vm.callObs.OnCall(vm, guestRet)
		}
		if vm.opts.FastReturns {
			// The emitted indirect call is a host call: hostize ra and
			// push the RAS (the transfer itself was charged by Resolve).
			rf, err := vm.retPoint(f, guestRet, e0)
			if err != nil {
				return nil, err
			}
			vm.State.SetReg(isa.RegRA, rf.HostAddr)
			vm.Env.RAS.Push(rf.HostAddr)
		}
	}
	return next, nil
}

// fastReturn executes a return whose target may be a hostized fragment
// address: a host return instruction predicted by the RAS. Guest addresses
// (the program manufactured a return target) and flushed fragments fall
// back to the handler / translator.
func (vm *VM) fastReturn(site *IBSite, target uint32) (*Fragment, error) {
	if target < FragBase {
		// Transparency escape: the guest put a guest address in ra.
		vm.Prof.MechMisses++
		vm.Prof.IBMiss[isa.IBReturn]++
		return vm.opts.Handler.Resolve(vm, site, target)
	}
	vm.Env.HostReturn(target)
	if e := vm.hostTab.get(target); e != nil {
		if f := e.frag; f != nil && f.epoch == vm.epoch && f.HostAddr == target {
			vm.Prof.MechHits++
			return f, nil
		}
		if e.hasRet {
			// The fragment was flushed; recover its guest pc and
			// retranslate.
			vm.Prof.MechMisses++
			vm.Prof.IBMiss[isa.IBReturn]++
			return vm.EnterTranslator(e.guestRet)
		}
	}
	return nil, &machine.Fault{PC: site.GuestPC, Addr: target, Msg: "return to unknown fragment-cache address"}
}

// Result summarizes the run in the same shape as the native machine's.
func (vm *VM) Result() machine.Result {
	return machine.Result{
		Cycles:   vm.Env.Cycles,
		Instret:  vm.State.Instret,
		Checksum: vm.State.Out.Checksum,
		OutCount: vm.State.Out.Count,
		ExitCode: vm.State.ExitCode,
	}
}
