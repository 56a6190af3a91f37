package machine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"sdt/internal/hostarch"
	"sdt/internal/isa"
	"sdt/internal/program"
	"sdt/internal/workload"
)

// Tests of the block executor (Run) against the single-step reference
// (Step): every run must end in the same state with the same Counts, and
// a completed run must also match on cycles.

// stepRun runs m one Step at a time under Run's limit rule.
func stepRun(m *Machine, limit uint64) error {
	if limit == 0 {
		limit = DefaultLimit
	}
	for !m.State.Halted {
		if m.State.Instret >= limit {
			return limitErr(limit)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

type pairRun struct {
	block, step       *Machine
	blockErr, stepErr error
}

// runPair runs img under model on the block executor and on a Step loop.
// setup, if non-nil, prepares each machine before it runs.
func runPair(t *testing.T, img *program.Image, model *hostarch.Model, limit uint64, setup func(*Machine)) pairRun {
	t.Helper()
	var p pairRun
	for _, m := range []**Machine{&p.block, &p.step} {
		var err error
		if *m, err = New(img, model); err != nil {
			t.Fatal(err)
		}
		if setup != nil {
			setup(*m)
		}
	}
	p.blockErr = p.block.Run(limit)
	p.stepErr = stepRun(p.step, limit)
	return p
}

// requireSame fails t unless the block run matches the step run: the same
// error, Counts and architectural state, and for completed runs the same
// Result, cycles included.
func (p pairRun) requireSame(t *testing.T, what string) {
	t.Helper()
	if fmt.Sprint(p.blockErr) != fmt.Sprint(p.stepErr) {
		t.Fatalf("%s: block err=%v, step err=%v", what, p.blockErr, p.stepErr)
	}
	if p.block.Counts != p.step.Counts {
		t.Fatalf("%s: counts: block %+v, step %+v", what, p.block.Counts, p.step.Counts)
	}
	if p.blockErr == nil {
		if b, s := p.block.Result(), p.step.Result(); b != s {
			t.Fatalf("%s: result: block %+v, step %+v", what, b, s)
		}
	}
	b, s := p.block.State, p.step.State
	switch {
	case b.Instret != s.Instret || b.PC != s.PC:
		t.Fatalf("%s: block stopped at pc %#x after %d instructions, step at pc %#x after %d",
			what, b.PC, b.Instret, s.PC, s.Instret)
	case b.Regs != s.Regs:
		t.Fatalf("%s: regs: block %#x, step %#x", what, b.Regs, s.Regs)
	case b.Halted != s.Halted || b.ExitCode != s.ExitCode:
		t.Fatalf("%s: halt: block %v/%d, step %v/%d", what, b.Halted, b.ExitCode, s.Halted, s.ExitCode)
	case b.Out.Checksum != s.Out.Checksum || b.Out.Count != s.Out.Count || !slices.Equal(b.Out.Values, s.Out.Values):
		t.Fatalf("%s: output streams differ", what)
	case !bytes.Equal(b.Mem, s.Mem):
		t.Fatalf("%s: memory images differ", what)
	}
}

// callLoopSrc is a short call/return/loop program: direct calls, returns,
// taken and not-taken branches, a load and a store.
const callLoopSrc = `
	main:
		li r10, 0
		li r11, 5
		la r13, buf
	loop:
		call fn
		sw r12, (r13)
		addi r10, r10, 1
		blt r10, r11, loop
		out r12
		halt
	fn:
		lw r14, (r13)
		addi r12, r14, 3
		ret
	.data
	buf: .word 0
`

func TestInstructionLimit(t *testing.T) {
	img := assemble(t, "main: jmp main\n")
	_, err := RunImage(img, hostarch.X86(), 1000)
	if !errors.Is(err, ErrLimit) {
		t.Errorf("err = %v, want ErrLimit", err)
	}

	// Every budget of a short program stops the block executor after
	// exactly that many instructions, in Step's state.
	img = assemble(t, callLoopSrc)
	full, err := RunImage(img, hostarch.X86(), 0)
	if err != nil {
		t.Fatal(err)
	}
	total := full.State.Instret
	for limit := uint64(1); limit <= total; limit++ {
		p := runPair(t, img, hostarch.X86(), limit, nil)
		p.requireSame(t, fmt.Sprintf("limit %d", limit))
		if limit < total && (!errors.Is(p.blockErr, ErrLimit) || p.block.State.Instret != limit) {
			t.Fatalf("limit %d: err=%v after %d instructions, want ErrLimit after %d",
				limit, p.blockErr, p.block.State.Instret, limit)
		}
	}
	if p := runPair(t, img, hostarch.X86(), total, nil); p.blockErr != nil {
		t.Errorf("budget equal to the run length: %v", p.blockErr)
	}
}

// A block that runs off the end of the code section retires its valid
// prefix and faults on the overrun fetch, at the same Instret as Step.
func TestBlockRunsOffCodeEnd(t *testing.T) {
	for name, src := range map[string]string{
		"entry":  "main: li r1, 5\n addi r1, r1, 1\n out r1\n",
		"jumped": "main: jmp tail\n halt\n tail: addi r1, r1, 1\n sw r1, 4(gp)\n",
	} {
		t.Run(name, func(t *testing.T) {
			img := assemble(t, src+".data\n.space 16\n")
			p := runPair(t, img, hostarch.X86(), 0, nil)
			p.requireSame(t, name)
			var f *Fault
			if !errors.As(p.blockErr, &f) || f.PC != img.CodeEnd() {
				t.Fatalf("err = %v, want a fault at the code end %#x", p.blockErr, img.CodeEnd())
			}
		})
	}
}

// Straight-line code longer than maxBlockInsts splits into blocks whose
// last instruction is a load, not a control transfer; the run still
// matches Step on cycles. Every load touches a new D-cache line, so a
// skipped or doubled touch shows as a cycle difference.
func TestBlockLongStraightLine(t *testing.T) {
	var src strings.Builder
	src.WriteString("main:\n la r2, buf\n")
	for i := 0; i < 3*maxBlockInsts; i++ {
		src.WriteString(" addi r2, r2, 64\n lw r3, (r2)\n")
	}
	src.WriteString(" out r3\n halt\n.data\nbuf: .space 32768\n")
	p := runPair(t, assemble(t, src.String()), hostarch.X86(), 0, nil)
	p.requireSame(t, "straight line")
	if p.blockErr != nil {
		t.Fatal(p.blockErr)
	}
}

// A fault inside a block retires the instructions before it and counts
// neither the faulting instruction nor anything after it.
func TestBlockMidFault(t *testing.T) {
	for name, src := range map[string]string{
		"load":  "main: li r1, 1\n lw r2, 4(gp)\n addi r3, r1, 2\n lw r4, (zero)\n addi r5, r1, 1\n halt\n",
		"store": "main: li r1, 1\n sw r1, 4(gp)\n li r2, 0x2002\n sw r1, (r2)\n addi r5, r1, 1\n halt\n",
	} {
		t.Run(name, func(t *testing.T) {
			p := runPair(t, assemble(t, src+".data\n.space 16\n"), hostarch.X86(), 0, nil)
			p.requireSame(t, name)
			var f *Fault
			if !errors.As(p.blockErr, &f) {
				t.Fatalf("err = %v, want a fault", p.blockErr)
			}
			if p.block.Counts.Loads+p.block.Counts.Stores != 1 {
				t.Errorf("counts = %+v, want the one memory access before the fault", p.block.Counts)
			}
		})
	}

	// An illegal instruction ends a block and faults through Exec, with
	// Step's message.
	img := assemble(t, "main: li r1, 1\n addi r1, r1, 1\n addi r1, r1, 2\n halt\n")
	img.Code[2] = 0 // BAD
	p := runPair(t, img, hostarch.X86(), 0, nil)
	p.requireSame(t, "illegal")
	if p.block.State.Instret != 2 {
		t.Errorf("illegal instruction retired %d instructions first, want 2", p.block.State.Instret)
	}
}

// The Trace callback sees the same indirect branches in the same order.
func TestBlockIBTraceSequence(t *testing.T) {
	img := assemble(t, `
		main:
			li r10, 0
			li r11, 12
		loop:
			andi r2, r10, 3
			la r1, table
			slli r2, r2, 2
			add r1, r1, r2
			lw r3, (r1)
			callr r3
			addi r10, r10, 1
			blt r10, r11, loop
			halt
		f0: ret
		f1: addi r12, r12, 1
			ret
		f2: la r4, f3
			jr r4
		f3: push ra
			call f1
			pop ra
			jmp f0
		.data
		table: .word f0, f1, f2, f3
	`)
	type ib struct {
		site, target uint32
		kind         isa.IBKind
	}
	traces := map[*Machine]*[]ib{}
	p := runPair(t, img, hostarch.X86(), 10_000, func(m *Machine) {
		seq := new([]ib)
		traces[m] = seq
		m.Trace = func(site, target uint32, kind isa.IBKind) { *seq = append(*seq, ib{site, target, kind}) }
	})
	p.requireSame(t, "ibtrace")
	if p.blockErr != nil {
		t.Fatal(p.blockErr)
	}
	b, s := *traces[p.block], *traces[p.step]
	if !slices.Equal(b, s) {
		t.Fatalf("trace sequences differ:\nblock %v\nstep  %v", b, s)
	}
	for k := isa.IBKind(0); k < isa.NumIBKinds; k++ {
		if p.block.Counts.IB[k] == 0 {
			t.Errorf("program executed no %v; the sequence check is partial", k)
		}
	}
}

// Every SPEC and micro workload, scaled down, completes bit-identically to
// Step — cycles, counts and state — on every host model.
func TestBlockMatchesStepOnWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		spec, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		img, err := spec.Image(spec.ScaledDown(50))
		if err != nil {
			t.Fatal(err)
		}
		for arch, model := range hostarch.Models() {
			p := runPair(t, img, model, 0, nil)
			p.requireSame(t, name+"/"+arch)
			if p.blockErr != nil {
				t.Fatalf("%s/%s: %v", name, arch, p.blockErr)
			}
		}
	}
}

// loopSrc never halts: an indirect jump back to the top of a short loop.
const loopSrc = `
	main:
		la r1, main
		addi r2, r2, 1
		jr r1
`

func TestRunContextCancellation(t *testing.T) {
	img := assemble(t, loopSrc)

	// Cancelled before the run: the first check stops it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := New(img, hostarch.X86())
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := m.State.Instret; n < ctxCheckInsts || n >= ctxCheckInsts+maxBlockInsts {
		t.Errorf("stopped after %d instructions, want within one block past %d", n, ctxCheckInsts)
	}

	// Cancelled mid-run, with a cause: the run stops within ctxCheckInsts
	// plus one block of the cancellation, reporting the cause.
	cause := errors.New("test cancel")
	for _, at := range []uint64{1, 3000, 10_000, 50_000} {
		ctx, cancel := context.WithCancelCause(context.Background())
		m, err := New(img, hostarch.X86())
		if err != nil {
			t.Fatal(err)
		}
		var cancelledAt uint64
		m.Trace = func(uint32, uint32, isa.IBKind) {
			if cancelledAt == 0 && m.State.Instret >= at {
				cancelledAt = m.State.Instret
				cancel(cause)
			}
		}
		err = m.RunContext(ctx, 0)
		if !errors.Is(err, cause) {
			t.Fatalf("cancel at %d: err = %v, want the cause", at, err)
		}
		if late := m.State.Instret - cancelledAt; late >= ctxCheckInsts+maxBlockInsts {
			t.Errorf("cancel at %d: stopped %d instructions later, want < %d",
				cancelledAt, late, ctxCheckInsts+maxBlockInsts)
		}
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	m, err := New(assemble(t, loopSrc), hostarch.X86())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunContext(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// A run that finishes before its deadline is unaffected by it.
	ctx, cancel = context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	img := assemble(t, callLoopSrc)
	want, err := RunImage(img, hostarch.X86(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err = New(img, hostarch.X86())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunContext(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if m.Result() != want.Result() || m.Counts != want.Counts {
		t.Errorf("deadline run %+v, want %+v", m.Result(), want.Result())
	}
}

// A recycled native run allocates the same amount however large the
// guest's code is: the block table comes from a pool.
func TestNativeRunAllocsFlatInCodeSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are not meaningful")
	}
	// sync.Pool empties on GC; keep the collector out of the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := map[string]float64{}
	codeLen := map[string]int{}
	for _, name := range []string{"gcc", "perlbmk", "gzip"} {
		spec, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		img, err := spec.Image(spec.ScaledDown(50))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			m, err := RunImage(img, hostarch.X86(), 0)
			if err != nil {
				t.Fatal(err)
			}
			m.Recycle()
		}
		run() // warm the memory and block-table pools
		allocs[name] = testing.AllocsPerRun(5, run)
		codeLen[name] = len(img.Code)
	}
	t.Logf("allocs per run %v, code words %v", allocs, codeLen)
	if allocs["gcc"] != allocs["gzip"] || allocs["perlbmk"] != allocs["gzip"] {
		t.Errorf("allocs per run differ with code size %v: %v", codeLen, allocs)
	}
}

// BenchmarkNativeRun measures the block executor end to end (construct,
// run, recycle) and reports host nanoseconds per guest instruction.
func BenchmarkNativeRun(b *testing.B) {
	for _, name := range []string{"gcc", "gzip"} {
		spec, err := workload.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		img, err := spec.Image(spec.ScaledDown(10))
		if err != nil {
			b.Fatal(err)
		}
		for _, arch := range []string{"x86", "arm"} {
			model, err := hostarch.ByName(arch)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+arch, func(b *testing.B) {
				var insts uint64
				for i := 0; i < b.N; i++ {
					m, err := RunImage(img, model, 0)
					if err != nil {
						b.Fatal(err)
					}
					insts += m.State.Instret
					m.Recycle()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
			})
		}
	}
}
