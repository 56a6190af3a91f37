package core

import (
	"sdt/internal/cache"
	"sdt/internal/isa"
	"sdt/internal/machine"
)

// Trace is a materialized hot path compiled as a superblock: the recorded
// fragment sequence fused into one contiguous single-entry body in the
// fragment cache (NET-style, after Dynamo and Strata's trace mode).
//
// Superblock compilation changes how the path executes, not what it
// computes:
//
//   - The parts' predecoded instructions are referenced zero-copy and the
//     whole body's data-independent cost is precomputed as one batch
//     charge, with the unexecuted tail refunded on a side exit.
//   - Direct transfers along the recorded path are elided from the emitted
//     code: the successor is laid out fall-through, so an on-trace
//     conditional branch costs a not-taken branch, and an on-trace jump or
//     fall-through costs nothing.
//   - Indirect branches whose recorded continuation is the next part are
//     lowered to inline side-exit guards — one compare (plus the flags
//     spill x86 makes expensive) against the recorded target, with the
//     configured mechanism as the miss path. A guard that keeps missing is
//     patched out (guardStat).
//   - The body is peephole-rewritten through the model's super-op table
//     (hostarch.SuperOp, mined from the corpus by sdtfuzz -mine): matched
//     sequences retire as single host operations with fused cost and a
//     compacted I-cache footprint.
//
// Side exits resolve through the same epoch-tagged fragLink slots and
// handler paths as ordinary fragment exits, so flush and limbo semantics
// are unchanged.
type Trace struct {
	HostAddr uint32 // contiguous superblock layout in the fragment cache
	Bytes    uint32 // emitted size after fusion and elision (incl. stub)

	staticCycles uint64 // whole-body batch charge (sum of part statics)
	parts        []superPart
	// head is the fragment the trace is installed at. A spin-bounded loop
	// closure hands back to it; the first part's terminator may belong to
	// a later fragment when the head's own exit was merged away.
	head *Fragment
}

// superPart is one recorded fragment inside a superblock, with everything
// execution needs precomputed at materialization time.
type superPart struct {
	// A part is a maximal straight run of recorded fragments: fragments
	// joined by transfers that always stay on trace (an elided direct
	// jump, or a synthesized fall-through) are concatenated into one body
	// at materialization time, so a part boundary is exactly a point where
	// execution can leave the trace — a conditional branch, a call, an
	// indirect transfer or a halt.
	frag   *Fragment  // fragment owning the terminator (sites, links)
	insts  []isa.Inst // concatenated body; zero-copy for single fragments
	headPC uint32     // guest pc of the part's first instruction

	// fetch is the part's emitted code as line-aligned fetch addresses,
	// precomputed so execution walks exactly the I-cache lines this part
	// introduces. Fetch inside a superblock is strictly sequential, so a
	// line already touched by the previous part (a boundary shared
	// mid-line) would re-hit as the cache's most recently used entry —
	// LRU-neutral — and is excluded from the span.
	fetch      cache.Span
	tailStatic uint64 // static cost of all later parts (side-exit refund)
	fused      uint64 // super-ops retired per execution of this body
	nextPC     uint32 // recorded continuation (head for the last part)

	// guard holds the side-exit guard statistics for an indirect
	// terminator. A guard that keeps missing is patched out (off) —
	// speculating on a polymorphic indirect branch only adds a wasted
	// compare to every execution.
	guard guardStat
}

type guardStat struct {
	hits   uint32
	misses uint32
	off    bool
}

// guardSample records one guard outcome and disables the guard once it has
// proven unprofitable: at least guardProbation samples with under 50% hits.
const guardProbation = 32

func (g *guardStat) sample(hit bool) {
	if hit {
		g.hits++
	} else {
		g.misses++
	}
	if g.hits+g.misses >= guardProbation && g.misses >= g.hits {
		g.off = true
	}
}

// traceRec is an in-progress recording.
type traceRec struct {
	head  *Fragment
	parts []*Fragment
}

// traceStep is one iteration of the Run loop under Options.Traces: execute
// a superblock if one starts here, otherwise count hotness, possibly start
// or extend a recording, and execute the fragment normally.
func (vm *VM) traceStep(f *Fragment) (*Fragment, error) {
	if tr := f.Trace; tr != nil {
		vm.rec = nil // never record across a trace execution
		return vm.execTrace(tr)
	}
	f.Hits++
	if vm.rec == nil && f.Hits == uint64(vm.opts.TraceThreshold) {
		vm.rec = &traceRec{head: f}
	}
	next, err := vm.execFragment(f)
	if err != nil {
		return nil, err
	}
	if vm.rec != nil {
		vm.recordStep(f, next)
	}
	return next, nil
}

// recordStep appends the just-executed fragment to the active recording
// and decides whether the trace is complete.
func (vm *VM) recordStep(f *Fragment, next *Fragment) {
	rec := vm.rec
	if len(rec.parts) == 0 && f != rec.head {
		// Recording armed but execution never came back through the
		// head (e.g. the head exited the program); abandon.
		vm.rec = nil
		return
	}
	rec.parts = append(rec.parts, f)
	switch {
	case next == nil:
		vm.rec = nil
	case next == rec.head, len(rec.parts) >= vm.opts.MaxTraceFrags, next.Trace != nil:
		vm.materializeTrace(rec)
		vm.rec = nil
	}
}

// materializeTrace compiles the recorded path into a superblock and
// installs it at the head. Recordings of fewer than two parts are not
// worth a trace; a full fragment cache stops trace formation rather than
// forcing flush churn. Both abandonment causes are counted — cache-full
// abandonment in particular silently disables trace formation for the rest
// of an epoch, which the profile must make visible.
func (vm *VM) materializeTrace(rec *traceRec) {
	if len(rec.parts) < 2 {
		vm.Prof.TraceAbandonedShort++
		return
	}
	m := vm.Env.Model
	table := m.SuperOps
	if vm.opts.NoSuperOps {
		table = nil
	}

	// Group the recorded fragments into maximal straight runs: a fragment
	// whose terminator always continues to the recorded successor — a
	// direct jump (elided from the emitted code) or a synthesized
	// fall-through — is concatenated with that successor, so the compiled
	// body crosses the dead transfer without a part boundary. The last
	// fragment always ends its group: its exit is the trace's closure.
	var parts []superPart
	emit := []uint32(nil) // per-part emitted bytes, parallel to parts
	totalInsts := 0
	var off uint32
	for i := 0; i < len(rec.parts); {
		j := i // group is rec.parts[i..j]
		for j < len(rec.parts)-1 {
			term := rec.parts[j].Terminator()
			if term.Op != isa.JMP && term.Op.IsControl() {
				break
			}
			j++
		}
		insts := rec.parts[i].Insts
		if j > i {
			merged := make([]isa.Inst, 0, (j-i+1)*len(insts))
			for _, f := range rec.parts[i : j+1] {
				merged = append(merged, f.Insts...)
			}
			insts = merged
		}
		totalInsts += len(insts)
		plan := machine.PlanFusedBody(m, insts, table)
		nextPC := rec.head.GuestPC // tail speculates loop closure (NET shape)
		if j+1 < len(rec.parts) {
			nextPC = rec.parts[j+1].GuestPC
		}
		parts = append(parts, superPart{
			frag:       rec.parts[j],
			insts:      insts,
			headPC:     rec.parts[i].GuestPC,
			fused:      plan.Fused,
			nextPC:     nextPC,
			tailStatic: plan.Static, // reused below for suffix sums
		})
		emit = append(emit, plan.EmitBytes)
		off += plan.EmitBytes
		i = j + 1
	}
	// tailStatic currently holds each part's own static cost; fold into
	// the whole-body charge and the per-part suffix refunds.
	var static uint64
	for i := len(parts) - 1; i >= 0; i-- {
		own := parts[i].tailStatic
		parts[i].tailStatic = static
		static += own
	}

	bytes := off + uint32(m.StubBytes)
	if vm.cacheUsed+bytes > vm.opts.CacheBytes {
		vm.Prof.TraceAbandonedCacheFull++
		return
	}
	start := vm.Env.Cycles
	vm.Env.Charge(m.TransBase/2 + m.TransPerInst*totalInsts/2) // code copying
	vm.Prof.CyclesTrans += vm.Env.Cycles - start
	host := vm.AllocCode(bytes)

	// Lay out the per-part I-fetch spans over the contiguous body.
	line := uint32(m.ICache.LineBytes)
	addr := host
	noLine := ^uint32(0)
	prevLast := noLine
	for i := range parts {
		if emit[i] == 0 {
			continue // fully elided part introduces no code
		}
		first := addr &^ (line - 1)
		if first == prevLast {
			first += line
		}
		lastLine := (addr + emit[i] - 1) &^ (line - 1)
		parts[i].fetch = cache.Span{From: first, End: lastLine + line}
		prevLast = lastLine
		addr += emit[i]
	}

	rec.head.Trace = &Trace{
		head:         rec.head,
		HostAddr:     host,
		Bytes:        bytes,
		staticCycles: static,
		parts:        parts,
	}
	vm.Prof.TracesFormed++
}

// traceSpins bounds how many loop closures execTrace runs internally
// before returning to the Run loop, keeping cancellation latency in the
// same ballpark as fragment-by-fragment dispatch (RunContext checks its
// context every ctxCheckExits fragment exits anyway).
const traceSpins = 64

// execTrace runs a superblock from its head. The whole body's static cost
// is charged up front and the unexecuted tail refunded on a side exit, so
// a run that leaves at part i pays exactly the parts it executed — a
// megamorphic trace whose guards have patched out costs no more than the
// fragments it replaced. It returns the next fragment to execute (nil
// after HALT). Loop closures re-enter the superblock directly — a flush
// cannot have happened on any path that closes the loop (a mid-trace
// flush via a fast call fails its epoch check and side-exits first), so
// the trace is still live — up to traceSpins times before handing back.
func (vm *VM) execTrace(tr *Trace) (*Fragment, error) {
	env := vm.Env
	m := env.Model
	st := vm.State
	lastIdx := len(tr.parts) - 1
run:
	for spin := 0; ; spin++ {
		vm.Prof.SuperblockExecs++
		env.Cycles += tr.staticCycles
		e0 := vm.epoch
		for idx := range tr.parts {
			p := &tr.parts[idx]
			out, err := machine.RunBody(st, env, p.insts, p.headPC, &p.fetch, vm.limit)
			if err != nil {
				return nil, vm.bodyErr(err, p.headPC)
			}
			vm.Prof.SuperOpsRetired += p.fused
			last := idx == lastIdx

			switch out.Kind {
			case machine.OutIndirect:
				// Speculative side-exit guard against the recorded
				// continuation. Fast returns make the comparison useless
				// for returns (the live value is a fragment-cache address)
				// and unsound to shortcut for calls (the emitted host call
				// must still run), so those combinations go straight to
				// the normal path — as do guards that proved polymorphic
				// and were patched out.
				g := &p.guard
				if (!vm.opts.FastReturns || out.IB == isa.IBJump) && !g.off {
					env.Charge(m.FlagsSave + m.CompareBranch + m.FlagsRestore)
					hit := out.Target == p.nextPC
					g.sample(hit)
					if hit {
						vm.Prof.IBExec[out.IB]++
						vm.Prof.TraceGuardHits++
						if out.IB == isa.IBCall && vm.callObs != nil {
							vm.callObs.OnCall(vm, st.Regs[isa.RegRA])
						}
						if !last {
							continue
						}
						// Loop closure: a predicted branch to the top.
						env.Charge(m.BranchTaken)
						if spin < traceSpins {
							continue run
						}
						return tr.head, nil
					}
					vm.Prof.TraceGuardMisses++
				}
				vm.Prof.TraceExits++
				env.Cycles -= p.tailStatic
				return vm.indirect(p.frag, out, vm.epoch)

			case machine.OutBranch:
				if out.Target == p.nextPC {
					if !last {
						// The recorded direction is laid out fall-through.
						env.Charge(m.BranchNotTaken)
						continue
					}
					env.Charge(m.BranchTaken) // backedge to the head
					if spin < traceSpins {
						continue run
					}
					return tr.head, nil
				}
				// Side exit: the flipped branch fires off the recorded
				// path.
				env.Charge(m.BranchTaken)
				if !last {
					vm.Prof.TraceExits++
					env.Cycles -= p.tailStatic
				}
				slot := &p.frag.TakenLink
				if !out.Taken {
					slot = &p.frag.FallLink
				}
				return vm.link(p.frag, slot, out.Target, e0)

			case machine.OutJump, machine.OutNext:
				if out.Target == p.nextPC {
					if !last {
						continue // elided: the successor is laid out next
					}
					env.Charge(m.DirectJump) // backedge to the head
					if spin < traceSpins {
						continue run
					}
					return tr.head, nil
				}
				// Unreachable for these deterministic transfers while the
				// layout matches the recording; resolve defensively.
				env.Charge(m.DirectJump)
				if !last {
					vm.Prof.TraceExits++
					env.Cycles -= p.tailStatic
				}
				slot := &p.frag.TakenLink
				if out.Kind == machine.OutNext {
					slot = &p.frag.FallLink
				}
				return vm.link(p.frag, slot, out.Target, e0)

			case machine.OutCall:
				// Exec already set ra to the guest return address; the
				// emitted code must still materialize it (one ALU op)
				// unless fast returns rewrite it to a host call entirely.
				guestRet := st.Regs[isa.RegRA]
				if vm.callObs != nil {
					vm.callObs.OnCall(vm, guestRet)
				}
				if vm.opts.FastReturns {
					if err := vm.fastCall(p.frag, guestRet, e0); err != nil {
						return nil, err
					}
				} else {
					env.Charge(m.ALU)
				}
				// fastCall can enter the translator for the return point
				// and flush the cache; past that the recorded parts are
				// stale, so the trace must not continue even though the
				// target matches.
				if out.Target == p.nextPC && vm.epoch == e0 {
					if !last {
						continue // callee laid out inline: transfer elided
					}
					if !vm.opts.FastReturns {
						env.Charge(m.DirectJump) // backedge to the head
					}
					if spin < traceSpins {
						continue run
					}
					return tr.head, nil
				}
				if !vm.opts.FastReturns {
					env.Charge(m.DirectJump)
				}
				if !last {
					vm.Prof.TraceExits++
					env.Cycles -= p.tailStatic
				}
				return vm.link(p.frag, &p.frag.TakenLink, out.Target, e0)

			case machine.OutHalt:
				env.Charge(m.ALU)
				if !last {
					vm.Prof.TraceExits++
					env.Cycles -= p.tailStatic
				}
				return nil, nil
			}
			panic("core: unhandled outcome kind in trace")
		}
		panic("core: trace fell off its tail")
	}
}
