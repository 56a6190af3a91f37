package machine

import (
	"sync"

	"sdt/internal/cache"
	"sdt/internal/isa"
	"sdt/internal/program"
)

// This file holds the native block executor: Run and RunContext execute
// the guest a basic block at a time through RunBody, the same body runner
// the SDT executes its fragments with, instead of one Step at a time.

// maxBlockInsts bounds a native block's length. It only limits decode work
// for guests that enter a long straight-line run at many points (every
// entry decodes its own block); a capped block ends in a non-control
// instruction that falls through to the next block, which changes no cycle
// or count.
const maxBlockInsts = 128

// block is one basic block of the native executor, decoded on first entry:
// from its entry through the first control transfer (or illegal
// instruction, which must fault through Exec exactly as Step faults), the
// end of the code section, or maxBlockInsts instructions.
type block struct {
	n      uint32 // instructions, terminator included; 0 = not yet decoded
	loads  uint32
	stores uint32
	static uint64     // StaticBodyCost of the whole block
	fetch  cache.Span // the block's code as line-aligned I-fetch addresses
}

// blockTabPool recycles block tables between machines (see Recycle); a
// table is cleared before it is put back. Tables are not cached per image:
// a service compiles a fresh image for every request it executes.
var blockTabPool sync.Pool // *[]block

// grabBlockTable returns a zeroed block table with one slot per code word,
// reusing a pooled table when it is big enough. The table travels as a
// pointer so that returning it to the pool allocates nothing.
func grabBlockTable(n int) *[]block {
	if p, _ := blockTabPool.Get().(*[]block); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	t := make([]block, n)
	return &t
}

// recycleBlocks clears the machine's block table and returns it to the pool.
func (m *Machine) recycleBlocks() {
	if m.blocks == nil {
		return
	}
	t := m.blocks
	m.blocks = nil
	*t = (*t)[:cap(*t)]
	clear(*t)
	blockTabPool.Put(t)
}

// decodeBlock fills the block table slot for the block entered at code
// index idx.
func (m *Machine) decodeBlock(idx uint32) *block {
	end := idx
	for end < uint32(len(m.code)) && end-idx < maxBlockInsts {
		op := m.code[end].Op
		end++
		if op.IsControl() || op == isa.BAD {
			break
		}
	}
	insts := m.code[idx:end]
	b := &(*m.blocks)[idx]
	*b = block{n: end - idx, static: StaticBodyCost(m.Env.Model, insts)}
	for _, in := range insts {
		switch {
		case in.Op.IsLoad():
			b.loads++
		case in.Op.IsStore():
			b.stores++
		}
	}
	line := uint32(m.Env.Model.ICache.LineBytes)
	pc := program.CodeBase + idx*isa.WordSize
	b.fetch = cache.Span{
		From: pc &^ (line - 1),
		End:  (pc+(b.n-1)*isa.WordSize)&^(line-1) + line,
	}
	return b
}

// RunBody executes one straight-line body — a native block, an SDT
// fragment or one part of a superblock — starting at guest pc, and returns
// the terminator's outcome; resolving and charging the control transfer is
// the caller's job, as is the body's data-independent cost (its batch
// charge). fetch is the body's code as line-aligned fetch addresses, held
// by the caller's fragment, superblock part or block slot so the I-cache
// can take its span fast path (cache.Cache.Walk): fetch within a body is
// strictly sequential, so re-accessing the current line is an LRU-neutral
// hit, and one access per line yields the same distinct-line sequence —
// every miss, every replacement decision — as per-instruction fetching.
//
// The work here is the I-fetch walk, the batched ExecStraight up to the
// terminator (which charges the D-cache touch of each load and store), and
// the terminator through Exec. When the body would retire past limit, only
// the prefix that fits runs and the bare ErrLimit is returned: ExecStraight
// keeps Instret and PC exact, so the run stops in the same architectural
// state as Step would. A fault is returned unwrapped, with Instret counting
// the instructions before it. Simulated cycles are a pure sum over an
// unchanged cache/predictor access sequence, so completed runs total
// bit-identically to per-instruction charging; only runs cut short by a
// fault or the limit (whose cycle totals nothing compares) can differ.
//
// The body must hold no control transfer before its last instruction other
// than the elided on-trace jumps ExecStraight permits.
func RunBody(s *State, env *CostEnv, insts []isa.Inst, pc uint32, fetch *cache.Span, limit uint64) (Outcome, error) {
	env.FetchSpan(fetch)
	last := len(insts) - 1
	n, stop := last, s.Instret+uint64(len(insts)) > limit
	if stop {
		n = int(limit - s.Instret)
	}
	pc, err := ExecStraight(s, env, insts[:n], pc)
	if err != nil {
		return Outcome{}, err
	}
	if stop {
		return Outcome{}, ErrLimit
	}
	term := insts[last]
	if term.Op.IsMem() {
		env.DTouch(s.Regs[term.Rs1] + uint32(term.Imm))
	}
	return Exec(s, term, pc)
}
