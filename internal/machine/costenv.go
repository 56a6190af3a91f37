package machine

import (
	"sdt/internal/cache"
	"sdt/internal/hostarch"
	"sdt/internal/isa"
	"sdt/internal/predictor"
)

// CostEnv bundles a host cost model with the simulated microarchitectural
// state (L1 caches, BTB, RAS) and a cycle accumulator. The native machine
// and the SDT each own one; comparing their Cycles for the same guest
// program yields the slowdown the experiments report.
type CostEnv struct {
	Model  *hostarch.Model
	ICache *cache.Cache
	DCache *cache.Cache
	BTB    *predictor.BTB
	RAS    *predictor.RAS
	Cycles uint64
}

// NewCostEnv builds the microarchitectural state for a model.
func NewCostEnv(m *hostarch.Model) (*CostEnv, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &CostEnv{
		Model:  m,
		ICache: cache.New(m.ICache),
		DCache: cache.New(m.DCache),
		BTB:    predictor.NewBTB(m.BTB),
		RAS:    predictor.NewRAS(m.RAS),
	}, nil
}

// Charge adds n cycles.
func (e *CostEnv) Charge(n int) { e.Cycles += uint64(n) }

// IFetch models fetching code at addr: free on an I-cache hit, the model's
// miss penalty otherwise.
func (e *CostEnv) IFetch(addr uint32) {
	if !e.ICache.Access(addr) {
		e.Cycles += uint64(e.Model.IMissPenalty)
	}
}

// FetchSpan models fetching the code lines of span in order: IFetch on
// each line, with the I-cache's span fast path for spans that still hit.
func (e *CostEnv) FetchSpan(span *cache.Span) {
	e.Cycles += uint64(e.ICache.Walk(span)) * uint64(e.Model.IMissPenalty)
}

// DTouch models a data reference to addr through the D-cache.
func (e *CostEnv) DTouch(addr uint32) {
	if !e.DCache.Access(addr) {
		e.Cycles += uint64(e.Model.DMissPenalty)
	}
}

// IndirectTransfer models a host indirect jump at site to target through
// the BTB and reports whether it predicted. A second-level hit pays the
// model's promotion penalty on top of the hit cost.
func (e *CostEnv) IndirectTransfer(site, target uint32) bool {
	switch e.BTB.Lookup(site, target) {
	case predictor.HitL1:
		e.Cycles += uint64(e.Model.IndirectHit)
		return true
	case predictor.HitL2:
		e.Cycles += uint64(e.Model.IndirectHit + e.Model.BTBL2HitPenalty)
		return true
	default:
		e.Cycles += uint64(e.Model.IndirectMiss)
		return false
	}
}

// HostCall models a host call instruction: charges the call cost and pushes
// the return address on the RAS.
func (e *CostEnv) HostCall(retAddr uint32) {
	e.Cycles += uint64(e.Model.CallDirect)
	e.RAS.Push(retAddr)
}

// HostReturn models a host return to target through the RAS and reports
// whether it predicted.
func (e *CostEnv) HostReturn(target uint32) bool {
	hit := e.RAS.Pop(target)
	if hit {
		e.Cycles += uint64(e.Model.ReturnHit)
	} else {
		e.Cycles += uint64(e.Model.ReturnMiss)
	}
	return hit
}

// ChargeBody charges the straight-line cost of in executing against s:
// ALU/multiply/divide pipeline costs, and load/store costs including the
// D-cache access to the effective address. Control-flow costs are charged
// separately because they differ between native and SDT execution.
// ChargeBody must be called before Exec so effective addresses are computed
// from pre-execution register values.
func (e *CostEnv) ChargeBody(s *State, in isa.Inst) {
	m := e.Model
	switch {
	case in.Op == isa.MUL:
		e.Cycles += uint64(m.Mul)
	case in.Op == isa.DIV || in.Op == isa.DIVU || in.Op == isa.REM || in.Op == isa.REMU:
		e.Cycles += uint64(m.Div)
	case in.Op.IsLoad():
		e.Cycles += uint64(m.Load)
		e.DTouch(s.Regs[in.Rs1] + uint32(in.Imm))
	case in.Op.IsStore():
		e.Cycles += uint64(m.Store)
		e.DTouch(s.Regs[in.Rs1] + uint32(in.Imm))
	case in.Op == isa.OUT:
		e.Cycles += uint64(m.Out)
	case in.Op.IsControl():
		// Charged by the control-flow accounting in the caller.
	default:
		e.Cycles += uint64(m.ALU)
	}
}

// StaticBodyCost returns the data-independent part of ChargeBody summed
// over insts: everything except the D-cache accesses of loads and stores
// (whose addresses are run-time values) and control-flow costs (charged at
// the exit). The SDT precomputes this per fragment at translation time and
// charges it in one batch per execution; because simulated cycles are a pure
// sum, batching the static terms leaves completed-run totals bit-identical
// to per-instruction charging.
func StaticBodyCost(m *hostarch.Model, insts []isa.Inst) uint64 {
	var n uint64
	for _, in := range insts {
		n += uint64(m.StaticOpCycles(in.Op))
	}
	return n
}

// FusePlan summarizes one superblock part body after super-op rewriting:
// the fused data-independent cost (the superblock's batch charge), the
// emitted code size after compaction (which sets the trace's I-cache
// footprint), and how many super-ops the rewritten body retires per
// execution (profile accounting).
type FusePlan struct {
	Static    uint64 // fused static body cost in cycles
	EmitBytes uint32 // emitted code bytes after fusion and elision
	Fused     uint64 // super-ops matched in the body
}

// PlanFusedBody peephole-rewrites one superblock part body through the
// model's super-op table and prices the result. Matching is greedy and
// longest-first: at each position the longest table sequence that matches
// the upcoming opcodes is fused (charged SuperOp.Cycles and SuperOp.Bytes),
// and unmatched instructions keep their StaticOpCycles cost and
// CodeBytesPerInst footprint. table is normally m.SuperOps; nil disables
// fusion (the NoSuperOps ablation), leaving Static == StaticBodyCost.
//
// Direct jumps contribute no bytes: every JMP on a recorded superblock
// path transfers to the recorded successor, which the compiled body lays
// out fall-through, so the jump is elided from the emitted code (its
// static cost is already zero). Control transfers never participate in
// fusion: no table sequence can contain one, and an elided jump still
// splits the match window — the retired jump keeps its slot in the
// instruction stream even though it emits no code.
func PlanFusedBody(m *hostarch.Model, insts []isa.Inst, table []hostarch.SuperOp) FusePlan {
	var p FusePlan
	cb := uint32(m.CodeBytesPerInst)
	n := len(insts)
	for i := 0; i < n; {
		best := -1
		for t := range table {
			ops := table[t].Ops
			if best >= 0 && len(ops) <= len(table[best].Ops) {
				continue
			}
			if i+len(ops) > n {
				continue
			}
			match := true
			for j, op := range ops {
				if insts[i+j].Op != op {
					match = false
					break
				}
			}
			if match {
				best = t
			}
		}
		if best >= 0 {
			so := &table[best]
			p.Static += uint64(so.Cycles)
			p.EmitBytes += uint32(so.Bytes)
			p.Fused++
			i += len(so.Ops)
			continue
		}
		p.Static += uint64(m.StaticOpCycles(insts[i].Op))
		if insts[i].Op != isa.JMP {
			p.EmitBytes += cb
		}
		i++
	}
	return p
}

// ChargeControl charges the native cost of a control outcome at pc and
// updates the predictors the way a directly executing host would.
func (e *CostEnv) ChargeControl(pc uint32, out Outcome) {
	m := e.Model
	switch out.Kind {
	case OutNext:
		// straight-line; nothing beyond body cost
	case OutBranch:
		if out.Taken {
			e.Cycles += uint64(m.BranchTaken)
		} else {
			e.Cycles += uint64(m.BranchNotTaken)
		}
	case OutJump:
		e.Cycles += uint64(m.DirectJump)
	case OutCall:
		e.HostCall(pc + isa.WordSize)
	case OutIndirect:
		switch out.IB {
		case isa.IBReturn:
			e.HostReturn(out.Target)
		case isa.IBJump:
			e.IndirectTransfer(pc, out.Target)
		case isa.IBCall:
			e.IndirectTransfer(pc, out.Target)
			e.RAS.Push(pc + isa.WordSize)
		}
	case OutHalt:
		e.Cycles += uint64(m.ALU)
	}
}
