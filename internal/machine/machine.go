package machine

import (
	"context"
	"errors"
	"fmt"

	"sdt/internal/hostarch"
	"sdt/internal/isa"
	"sdt/internal/program"
)

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the guest halts.
var ErrLimit = errors.New("machine: instruction limit exceeded")

// DefaultLimit is the Run instruction budget when none is given.
const DefaultLimit = 2_000_000_000

// Counts are dynamic execution statistics gathered by the native machine;
// experiment E1 (the paper's workload characterization table) reports them.
type Counts struct {
	Total    uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
	Taken    uint64
	Calls    uint64 // direct calls (JAL)
	IB       [isa.NumIBKinds]uint64
}

// IBTotal is the dynamic count of all indirect branches.
func (c *Counts) IBTotal() uint64 {
	var t uint64
	for _, n := range c.IB {
		t += n
	}
	return t
}

// IBPer1K is indirect branches per thousand retired instructions.
func (c *Counts) IBPer1K() float64 {
	if c.Total == 0 {
		return 0
	}
	return 1000 * float64(c.IBTotal()) / float64(c.Total)
}

// IBTrace observes every executed indirect branch: its site (guest pc),
// resolved guest target and kind. The profiler attaches one to measure
// target-set sizes and locality.
type IBTrace func(site, target uint32, kind isa.IBKind)

// Machine executes a guest image directly ("natively") against a cost
// model. It is both the performance baseline and the semantic oracle the
// SDT is tested against. Run executes a basic block at a time (block.go);
// Step is the single-instruction reference it must match.
type Machine struct {
	State  *State
	Env    *CostEnv
	Counts Counts
	Trace  IBTrace // optional

	img    *program.Image
	code   []isa.Inst // predecoded code section
	blocks *[]block   // by code index; taken from a pool on the first Run
}

// New builds a machine for img with the given host model.
func New(img *program.Image, model *hostarch.Model) (*Machine, error) {
	st, err := NewState(img)
	if err != nil {
		return nil, err
	}
	env, err := NewCostEnv(model)
	if err != nil {
		return nil, err
	}
	return &Machine{State: st, Env: env, img: img, code: img.Decoded()}, nil
}

// Recycle returns the machine's reusable buffers (guest memory and the
// block table) to their pools. The machine must not be used afterwards.
func (m *Machine) Recycle() {
	m.recycleBlocks()
	m.State.Recycle()
}

// FetchDecoded returns the predecoded instruction at pc, faulting on
// addresses outside the code section. Execution never leaves the static
// code section (SimRISC has no self-modifying code).
func (m *Machine) FetchDecoded(pc uint32) (isa.Inst, error) {
	idx, err := m.codeIndex(pc)
	if err != nil {
		return isa.Inst{}, err
	}
	return m.code[idx], nil
}

// codeIndex maps pc to its index in the code section, faulting on
// addresses outside it.
func (m *Machine) codeIndex(pc uint32) (uint32, error) {
	idx := (pc - program.CodeBase) / isa.WordSize
	if pc < program.CodeBase || pc%isa.WordSize != 0 || int(idx) >= len(m.code) {
		return 0, &Fault{PC: pc, Addr: pc, Msg: "pc outside code section"}
	}
	return idx, nil
}

// Image returns the image the machine was built from.
func (m *Machine) Image() *program.Image { return m.img }

// Step executes one instruction with full native cost accounting. It is
// the single-step reference Run's block executor must match bit for bit.
func (m *Machine) Step() error {
	pc := m.State.PC
	in, err := m.FetchDecoded(pc)
	if err != nil {
		return err
	}
	m.Env.IFetch(pc)
	m.Env.ChargeBody(m.State, in)
	out, err := Exec(m.State, in, pc)
	if err != nil {
		return err
	}
	m.Env.ChargeControl(pc, out)
	m.countBody(in)
	m.countControl(pc, out)
	return nil
}

// countBody counts one retired instruction's type.
func (m *Machine) countBody(in isa.Inst) {
	c := &m.Counts
	c.Total++
	switch {
	case in.Op.IsLoad():
		c.Loads++
	case in.Op.IsStore():
		c.Stores++
	}
}

// countControl counts the control outcome of the instruction at pc and
// reports indirect branches to the Trace callback.
func (m *Machine) countControl(pc uint32, out Outcome) {
	c := &m.Counts
	switch out.Kind {
	case OutBranch:
		c.Branches++
		if out.Taken {
			c.Taken++
		}
	case OutCall:
		c.Calls++
	case OutIndirect:
		c.IB[out.IB]++
		if m.Trace != nil {
			m.Trace(pc, out.Target, out.IB)
		}
	}
}

// Run executes until the guest halts or limit instructions retire.
// limit <= 0 selects DefaultLimit.
func (m *Machine) Run(limit uint64) error {
	return m.RunContext(context.Background(), limit)
}

// ctxCheckInsts is how many retired instructions pass between cancellation
// checks in RunContext. The check sits between blocks, so a cancelled run
// stops within ctxCheckInsts plus one block of the cancellation.
const ctxCheckInsts = 4096

// RunContext executes like Run but additionally stops when ctx is
// cancelled or its deadline passes, returning an error wrapping ctx's
// cause. A context that is never cancellable (context.Background) costs
// nothing.
//
// Execution proceeds a basic block at a time: each block's static cost is
// charged in one batch, its body runs through RunBody, and its control
// transfer is charged and counted once. Completed runs match a Step loop
// bit for bit — cycles, counts and the Trace callback sequence. A run
// stopped by the limit stops after exactly limit instructions, and a
// faulting run at the faulting instruction, with the same architectural
// state and Counts as Step; only their cycle totals can differ.
func (m *Machine) RunContext(ctx context.Context, limit uint64) error {
	if limit == 0 {
		limit = DefaultLimit
	}
	if m.blocks == nil {
		m.blocks = grabBlockTable(len(m.code))
	}
	st, env, blocks := m.State, m.Env, *m.blocks
	c := &m.Counts
	done := ctx.Done()
	nextCheck := st.Instret + ctxCheckInsts
	for !st.Halted {
		if st.Instret >= limit {
			return limitErr(limit)
		}
		if done != nil && st.Instret >= nextCheck {
			nextCheck = st.Instret + ctxCheckInsts
			select {
			case <-done:
				return fmt.Errorf("machine: run stopped after %d instructions: %w",
					st.Instret, context.Cause(ctx))
			default:
			}
		}
		pc := st.PC
		idx, err := m.codeIndex(pc)
		if err != nil {
			return err
		}
		b := &blocks[idx]
		if b.n == 0 {
			b = m.decodeBlock(idx)
		}
		insts := m.code[idx : idx+b.n]
		env.Cycles += b.static
		i0 := st.Instret
		out, err := RunBody(st, env, insts, pc, &b.fetch, limit)
		if err != nil {
			for _, in := range insts[:st.Instret-i0] {
				m.countBody(in)
			}
			if err == ErrLimit {
				return limitErr(limit)
			}
			return err
		}
		c.Total += uint64(b.n)
		c.Loads += uint64(b.loads)
		c.Stores += uint64(b.stores)
		term := pc + (b.n-1)*isa.WordSize
		env.ChargeControl(term, out)
		m.countControl(term, out)
	}
	return nil
}

func limitErr(limit uint64) error {
	return fmt.Errorf("%w (%d instructions)", ErrLimit, limit)
}

// Result summarizes a finished run.
type Result struct {
	Cycles   uint64
	Instret  uint64
	Checksum uint64
	OutCount uint64
	ExitCode uint32
}

// Result captures the current run summary.
func (m *Machine) Result() Result {
	return Result{
		Cycles:   m.Env.Cycles,
		Instret:  m.State.Instret,
		Checksum: m.State.Out.Checksum,
		OutCount: m.State.Out.Count,
		ExitCode: m.State.ExitCode,
	}
}

// RunImage is a convenience wrapper: build a machine, run to completion and
// return the machine for inspection.
func RunImage(img *program.Image, model *hostarch.Model, limit uint64) (*Machine, error) {
	m, err := New(img, model)
	if err != nil {
		return nil, err
	}
	if err := m.Run(limit); err != nil {
		return nil, err
	}
	return m, nil
}
