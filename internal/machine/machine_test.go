package machine

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"sdt/internal/asm"
	"sdt/internal/hostarch"
	"sdt/internal/isa"
	"sdt/internal/program"
)

func assemble(t *testing.T, src string) *program.Image {
	t.Helper()
	img, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func run(t *testing.T, src string) *Machine {
	t.Helper()
	m, err := RunImage(assemble(t, src), hostarch.X86(), 10_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestALUOps(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want uint32
	}{
		{"add", "li r1, 5\n li r2, 7\n add r3, r1, r2\n out r3\n halt", 12},
		{"sub", "li r1, 5\n li r2, 7\n sub r3, r1, r2\n out r3\n halt", 0xfffffffe},
		{"mul", "li r1, 6\n li r2, 7\n mul r3, r1, r2\n out r3\n halt", 42},
		{"div", "li r1, -20\n li r2, 3\n div r3, r1, r2\n out r3\n halt", uint32(0xfffffffa)}, // -6
		{"divu", "li r1, 20\n li r2, 3\n divu r3, r1, r2\n out r3\n halt", 6},
		{"div by zero", "li r1, 20\n div r3, r1, zero\n out r3\n halt", 0xffffffff},
		{"divu by zero", "li r1, 20\n divu r3, r1, zero\n out r3\n halt", 0xffffffff},
		{"div overflow", "li r1, 0x80000000\n li r2, -1\n div r3, r1, r2\n out r3\n halt", 0x80000000},
		{"rem", "li r1, -20\n li r2, 3\n rem r3, r1, r2\n out r3\n halt", uint32(0xfffffffe)}, // -2
		{"rem by zero", "li r1, 20\n rem r3, r1, zero\n out r3\n halt", 20},
		{"rem overflow", "li r1, 0x80000000\n li r2, -1\n rem r3, r1, r2\n out r3\n halt", 0},
		{"remu", "li r1, 20\n li r2, 3\n remu r3, r1, r2\n out r3\n halt", 2},
		{"remu by zero", "li r1, 20\n remu r3, r1, zero\n out r3\n halt", 20},
		{"and", "li r1, 0xff0f\n li r2, 0x0fff\n and r3, r1, r2\n out r3\n halt", 0x0f0f},
		{"or", "li r1, 0xf000\n li r2, 0x000f\n or r3, r1, r2\n out r3\n halt", 0xf00f},
		{"xor", "li r1, 0xffff\n li r2, 0x0ff0\n xor r3, r1, r2\n out r3\n halt", 0xf00f},
		{"sll", "li r1, 1\n li r2, 31\n sll r3, r1, r2\n out r3\n halt", 0x80000000},
		{"sll wraps", "li r1, 1\n li r2, 33\n sll r3, r1, r2\n out r3\n halt", 2},
		{"srl", "li r1, 0x80000000\n li r2, 31\n srl r3, r1, r2\n out r3\n halt", 1},
		{"sra", "li r1, 0x80000000\n li r2, 31\n sra r3, r1, r2\n out r3\n halt", 0xffffffff},
		{"slt true", "li r1, -1\n li r2, 1\n slt r3, r1, r2\n out r3\n halt", 1},
		{"slt false", "li r1, 1\n li r2, -1\n slt r3, r1, r2\n out r3\n halt", 0},
		{"sltu", "li r1, -1\n li r2, 1\n sltu r3, r1, r2\n out r3\n halt", 0}, // 0xffffffff not < 1
		{"addi", "li r1, 5\n addi r3, r1, -10\n out r3\n halt", 0xfffffffb},
		{"andi", "li r1, 0xff\n andi r3, r1, 0x0f\n out r3\n halt", 0x0f},
		{"ori", "li r1, 0xf0\n ori r3, r1, 0x0f\n out r3\n halt", 0xff},
		{"xori", "li r1, 0xff\n xori r3, r1, -1\n out r3\n halt", 0xffffff00},
		{"slli", "li r1, 3\n slli r3, r1, 4\n out r3\n halt", 48},
		{"srli", "li r1, 0x80000000\n srli r3, r1, 4\n out r3\n halt", 0x08000000},
		{"srai", "li r1, 0x80000000\n srai r3, r1, 4\n out r3\n halt", 0xf8000000},
		{"slti", "li r1, -5\n slti r3, r1, -4\n out r3\n halt", 1},
		{"sltiu", "li r1, 4\n sltiu r3, r1, 5\n out r3\n halt", 1},
		{"lui", "lui r3, 0x1234\n out r3\n halt", 0x12340000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := run(t, "main:\n"+tt.src+"\n")
			if len(m.State.Out.Values) != 1 || m.State.Out.Values[0] != tt.want {
				t.Errorf("out = %#x, want %#x", m.State.Out.Values, tt.want)
			}
		})
	}
}

func TestMemoryOps(t *testing.T) {
	m := run(t, `
		main:
			la r1, buf
			li r2, 0xdeadbeef
			sw r2, (r1)
			lw r3, (r1)
			out r3          ; 0xdeadbeef
			lb r4, (r1)
			out r4          ; sign-extended 0xef
			lbu r5, 1(r1)
			out r5          ; 0xbe
			lh r6, 2(r1)
			out r6          ; sign-extended 0xdead
			lhu r7, 2(r1)
			out r7          ; 0xdead
			sb r2, 4(r1)
			lbu r8, 4(r1)
			out r8          ; 0xef
			sh r2, 6(r1)
			lhu r9, 6(r1)
			out r9          ; 0xbeef
			halt
		.data
		buf: .space 16
	`)
	want := []uint32{0xdeadbeef, 0xffffffef, 0xbe, 0xffffdead, 0xdead, 0xef, 0xbeef}
	got := m.State.Out.Values
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d: %#x", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestFaults(t *testing.T) {
	tests := []struct {
		name, src, wantSub string
	}{
		{"null load", "main: lw r1, (zero)\n halt", "guard page"},
		{"null store", "main: sw r1, 4(zero)\n halt", "guard page"},
		{"oob load", "main: li r1, 0x100000\n lw r2, (r1)\n halt", "past end"},
		{"misaligned word", "main: li r1, 0x2002\n lw r2, (r1)\n halt", "misaligned"},
		{"misaligned half", "main: li r1, 0x2001\n lh r2, (r1)\n halt", "misaligned"},
		{"wild jump", "main: li r1, 0x2000\n jr r1\n halt", "outside code"},
		{"misaligned jump", "main: li r1, 0x1001\n jr r1\n halt", "outside code"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			img := assemble(t, tt.src+"\n.mem 0x100000\n")
			_, err := RunImage(img, hostarch.X86(), 1000)
			if err == nil {
				t.Fatal("expected fault")
			}
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("error %T is not a Fault: %v", err, err)
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("fault %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// Sum 1..10 with a loop.
	m := run(t, `
		main:
			li r1, 0      ; sum
			li r2, 1      ; i
			li r3, 10
		loop:
			add r1, r1, r2
			addi r2, r2, 1
			ble r2, r3, loop
			out r1
			halt
	`)
	if m.State.Out.Values[0] != 55 {
		t.Errorf("sum = %d, want 55", m.State.Out.Values[0])
	}
	if m.Counts.Branches != 10 || m.Counts.Taken != 9 {
		t.Errorf("branches = %d taken = %d, want 10/9", m.Counts.Branches, m.Counts.Taken)
	}
}

func TestCallsAndReturns(t *testing.T) {
	// Recursive factorial exercises JAL/RET and the stack.
	m := run(t, `
		main:
			li a0, 6
			call fact
			out rv
			halt
		fact:               ; rv = a0!
			li rv, 1
			li r9, 2
			blt a0, r9, base
			push ra
			push a0
			subi a0, a0, 1
			call fact
			pop a0
			pop ra
			mul rv, rv, a0
		base:
			ret
	`)
	if m.State.Out.Values[0] != 720 {
		t.Errorf("6! = %d, want 720", m.State.Out.Values[0])
	}
	if m.Counts.IB[isa.IBReturn] != 6 {
		t.Errorf("returns = %d, want 6", m.Counts.IB[isa.IBReturn])
	}
	if m.Counts.Calls != 6 {
		t.Errorf("direct calls = %d, want 6", m.Counts.Calls)
	}
}

func TestIndirectJumpTable(t *testing.T) {
	// A switch over a jump table exercises JR.
	m := run(t, `
		main:
			li r10, 0         ; case index loops 0,1,2
			li r11, 0         ; sum
			li r12, 3         ; iterations
		loop:
			la r1, table
			slli r2, r10, 2
			add r1, r1, r2
			lw r3, (r1)
			jr r3
		case0:
			addi r11, r11, 100
			jmp next
		case1:
			addi r11, r11, 200
			jmp next
		case2:
			addi r11, r11, 300
		next:
			addi r10, r10, 1
			blt r10, r12, loop
			out r11
			halt
		.data
		table: .word case0, case1, case2
	`)
	if m.State.Out.Values[0] != 600 {
		t.Errorf("switch sum = %d, want 600", m.State.Out.Values[0])
	}
	if m.Counts.IB[isa.IBJump] != 3 {
		t.Errorf("indirect jumps = %d, want 3", m.Counts.IB[isa.IBJump])
	}
}

func TestIndirectCall(t *testing.T) {
	m := run(t, `
		main:
			la r1, double
			li a0, 21
			callr r1
			out rv
			halt
		double:
			add rv, a0, a0
			ret
	`)
	if m.State.Out.Values[0] != 42 {
		t.Errorf("out = %d, want 42", m.State.Out.Values[0])
	}
	if m.Counts.IB[isa.IBCall] != 1 || m.Counts.IB[isa.IBReturn] != 1 {
		t.Errorf("icalls/returns = %d/%d, want 1/1", m.Counts.IB[isa.IBCall], m.Counts.IB[isa.IBReturn])
	}
}

func TestR0StaysZero(t *testing.T) {
	m := run(t, `
		main:
			li r1, 7
			add zero, r1, r1
			out zero
			halt
	`)
	if m.State.Out.Values[0] != 0 {
		t.Error("write to r0 was not discarded")
	}
}

func TestCallrThroughRA(t *testing.T) {
	// callr where rs1 == ra: the target must be read before ra is
	// clobbered with the return address.
	m := run(t, `
		main:
			la ra, fn
			callr ra
			out rv
			halt
		fn:
			li rv, 9
			ret
	`)
	if m.State.Out.Values[0] != 9 {
		t.Errorf("out = %d, want 9", m.State.Out.Values[0])
	}
}

func TestHaltExitCode(t *testing.T) {
	m := run(t, "main:\n li r4, 3\n halt r4\n")
	if m.State.ExitCode != 3 {
		t.Errorf("exit code = %d, want 3", m.State.ExitCode)
	}
}

func TestOutputChecksumDeterministic(t *testing.T) {
	src := `
		main:
			li r1, 0
			li r2, 100
		loop:
			out r1
			addi r1, r1, 1
			blt r1, r2, loop
			halt
	`
	a := run(t, src).State.Out
	b := run(t, src).State.Out
	if a.Checksum != b.Checksum || a.Count != b.Count {
		t.Error("output checksum not deterministic")
	}
	if a.Count != 100 {
		t.Errorf("count = %d, want 100", a.Count)
	}
	// Different streams must (practically) differ.
	c := run(t, strings.Replace(src, "li r1, 0", "li r1, 1", 1)).State.Out
	if c.Checksum == a.Checksum {
		t.Error("different streams share a checksum")
	}
}

func TestCycleAccountingSanity(t *testing.T) {
	m := run(t, `
		main:
			li r1, 0
			li r2, 1000
		loop:
			addi r1, r1, 1
			blt r1, r2, loop
			out r1
			halt
	`)
	r := m.Result()
	if r.Cycles == 0 {
		t.Fatal("no cycles charged")
	}
	if r.Cycles < r.Instret {
		t.Errorf("cycles (%d) < instructions (%d): every instruction costs at least 1", r.Cycles, r.Instret)
	}
	// Loop code is tiny: the I-cache should make CPI modest.
	cpi := float64(r.Cycles) / float64(r.Instret)
	if cpi > 5 {
		t.Errorf("native CPI = %.2f, suspiciously high for a hot loop", cpi)
	}
}

func TestReturnsCheaperThanIndirectJumpsNatively(t *testing.T) {
	// The RAS should make call/return-heavy code cheaper per transfer
	// than BTB-hostile indirect jumps with many targets.
	retProg := `
		main:
			li r10, 0
			li r11, 2000
		loop:
			call fn
			addi r10, r10, 1
			blt r10, r11, loop
			halt
		fn: ret
	`
	// Indirect jumps alternating between targets defeat the BTB.
	jmpProg := `
		main:
			li r10, 0
			li r11, 2000
			la r1, t0
			la r2, t1
		loop:
			andi r3, r10, 1
			beqz r3, even
			mov r4, r2
			jmp dojr
		even:
			mov r4, r1
		dojr:
			jr r4          ; one site, alternating targets
		t0:
			jmp next
		t1:
			nop
		next:
			addi r10, r10, 1
			blt r10, r11, loop
			halt
	`
	rm := run(t, retProg)
	jm := run(t, jmpProg)
	retHits, retMisses := rm.Env.RAS.Stats()
	if retMisses > retHits/10 {
		t.Errorf("RAS on balanced code: %d hits %d misses", retHits, retMisses)
	}
	btbHits, btbMisses := jm.Env.BTB.Stats()
	if btbHits > btbMisses {
		t.Errorf("alternating-target JR should thrash the BTB: %d hits %d misses", btbHits, btbMisses)
	}
}

func TestExecRandomNeverPanics(t *testing.T) {
	// Property: Exec handles any decodable instruction against a small
	// state without panicking (faults are fine).
	img := assemble(t, "main: halt\n.mem 0x10000\n")
	st, err := NewState(img)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		in := isa.Decode(rng.Uint32())
		for r := range st.Regs {
			st.Regs[r] = rng.Uint32() % 0x20000
		}
		st.Regs[0] = 0
		st.Halted = false
		_, _ = Exec(st, in, program.CodeBase)
		if st.Regs[0] != 0 {
			t.Fatalf("instruction %v wrote r0", in)
		}
	}
}

func TestCountsConservation(t *testing.T) {
	m := run(t, `
		main:
			li r1, 0
			li r2, 50
		loop:
			call fn
			addi r1, r1, 1
			blt r1, r2, loop
			halt
		fn: ret
	`)
	c := m.Counts
	if c.Total != m.State.Instret {
		t.Errorf("Counts.Total %d != Instret %d", c.Total, m.State.Instret)
	}
	if c.Calls != 50 || c.IB[isa.IBReturn] != 50 {
		t.Errorf("calls/returns = %d/%d, want 50/50", c.Calls, c.IB[isa.IBReturn])
	}
	if got := c.IBPer1K(); got <= 0 {
		t.Errorf("IBPer1K = %v, want positive", got)
	}
}

func TestIBTraceCallback(t *testing.T) {
	img := assemble(t, `
		main:
			call fn
			halt
		fn: ret
	`)
	m, err := New(img, hostarch.X86())
	if err != nil {
		t.Fatal(err)
	}
	var sites []uint32
	m.Trace = func(site, target uint32, kind isa.IBKind) {
		if kind == isa.IBReturn {
			sites = append(sites, site)
		}
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || sites[0] != img.Symbols["fn"] {
		t.Errorf("trace sites = %#x, want [%#x]", sites, img.Symbols["fn"])
	}
}
