package asm

import (
	"strings"
	"testing"
	"unsafe"

	"sdt/internal/isa"
	"sdt/internal/program"
)

func mustAssemble(t *testing.T, src string) *program.Image {
	t.Helper()
	img, err := Assemble("test.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return img
}

func decodeAll(img *program.Image) []isa.Inst {
	out := make([]isa.Inst, len(img.Code))
	for i, w := range img.Code {
		out[i] = isa.Decode(w)
	}
	return out
}

// An image can outlive its source (sdtd memoizes images by source
// digest), so none of its strings may point into the source text.
func TestImageDoesNotPinSource(t *testing.T) {
	src := strings.Repeat("; padding\n", 64) + ".name \"pinned\"\nmain:\n\tjmp done\n.data\ntbl:\n.word 1\n.text\ndone:\n\thalt\n"
	img := mustAssemble(t, src)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	inSource := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < lo+uintptr(len(src))
	}
	if img.Name != "pinned" || inSource(img.Name) {
		t.Errorf("image name %q points into the source", img.Name)
	}
	if len(img.Symbols) != 3 {
		t.Fatalf("symbols %v, want main, tbl and done", img.Symbols)
	}
	for name := range img.Symbols {
		if inSource(name) {
			t.Errorf("symbol %q points into the source", name)
		}
	}
}

func TestBasicProgram(t *testing.T) {
	img := mustAssemble(t, `
		; a trivial program
		main:
			addi r1, zero, 42   # meaning of life
			out r1
			halt
	`)
	ins := decodeAll(img)
	want := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Imm: 42},
		{Op: isa.OUT, Rs1: 1},
		{Op: isa.HALT},
	}
	if len(ins) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(ins), len(want))
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Errorf("inst %d = %v, want %v", i, ins[i], want[i])
		}
	}
	if img.Entry != program.CodeBase {
		t.Errorf("entry = %#x, want %#x", img.Entry, program.CodeBase)
	}
}

func TestAllFormats(t *testing.T) {
	img := mustAssemble(t, `
		main:
			add r1, r2, r3
			slli r4, r5, 3
			lw r6, 8(sp)
			sw r6, -4(fp)
			lb r7, (r8)
			lui r9, 65535
			beq r1, r2, main
			jmp main
			jal main
			jr r10
			callr r11
			ret
			out r1
			halt r4
			nop
	`)
	ins := decodeAll(img)
	checks := []isa.Inst{
		{Op: isa.ADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: isa.SLLI, Rd: 4, Rs1: 5, Imm: 3},
		{Op: isa.LW, Rd: 6, Rs1: isa.RegSP, Imm: 8},
		{Op: isa.SW, Rd: 6, Rs1: isa.RegFP, Imm: -4},
		{Op: isa.LB, Rd: 7, Rs1: 8, Imm: 0},
		{Op: isa.LUI, Rd: 9, Imm: -1}, // 0xffff sign-extends on decode
		{Op: isa.BEQ, Rs1: 1, Rs2: 2, Imm: -6},
		{Op: isa.JMP, Imm: program.CodeBase / 4},
		{Op: isa.JAL, Imm: program.CodeBase / 4},
		{Op: isa.JR, Rs1: 10},
		{Op: isa.CALLR, Rs1: 11},
		{Op: isa.RET},
		{Op: isa.OUT, Rs1: 1},
		{Op: isa.HALT, Rs1: 4},
		{Op: isa.NOP},
	}
	for i, want := range checks {
		if ins[i] != want {
			t.Errorf("inst %d = %+v, want %+v", i, ins[i], want)
		}
	}
}

func TestBranchOffsets(t *testing.T) {
	img := mustAssemble(t, `
		main:
			beq r1, r2, fwd
			nop
			nop
		fwd:
			bne r1, r2, main
	`)
	ins := decodeAll(img)
	if ins[0].Imm != 3 {
		t.Errorf("forward branch imm = %d, want 3", ins[0].Imm)
	}
	if ins[3].Imm != -3 {
		t.Errorf("backward branch imm = %d, want -3", ins[3].Imm)
	}
}

func TestLiExpansion(t *testing.T) {
	tests := []struct {
		val  string
		want uint32
	}{
		{"42", 42},
		{"0x12345678", 0x12345678},
		{"0xdeadbeef", 0xdeadbeef}, // low half has sign bit set
		{"-1", 0xffffffff},
		{"0x8000", 0x8000},
		{"0xffff", 0xffff},
		{"0x7fff", 0x7fff},
		{"0x10000", 0x10000},
		{"-32768", 0xffff8000},
	}
	for _, tt := range tests {
		img := mustAssemble(t, "main:\n li r1, "+tt.val+"\n halt\n")
		ins := decodeAll(img)
		if len(ins) != 3 {
			t.Fatalf("li %s: got %d instructions, want 3", tt.val, len(ins))
		}
		// Simulate the two-instruction sequence.
		var r1 uint32
		for _, in := range ins[:2] {
			switch in.Op {
			case isa.LUI:
				r1 = uint32(in.Imm) << 16
			case isa.ORI:
				r1 |= uint32(in.Imm)
			case isa.XORI:
				r1 ^= uint32(in.Imm)
			default:
				t.Fatalf("li %s: unexpected op %v", tt.val, in.Op)
			}
		}
		if r1 != tt.want {
			t.Errorf("li %s = %#x, want %#x", tt.val, r1, tt.want)
		}
	}
}

func TestLaResolvesDataLabels(t *testing.T) {
	img := mustAssemble(t, `
		main:
			la r1, table
			lw r2, (r1)
			halt
		.data
		table:
			.word 7, 8, 9
	`)
	want := img.Symbols["table"]
	if want != img.DataBase() {
		t.Fatalf("table symbol = %#x, want DataBase %#x", want, img.DataBase())
	}
	ins := decodeAll(img)
	var r1 uint32
	for _, in := range ins[:2] {
		switch in.Op {
		case isa.LUI:
			r1 = uint32(in.Imm) << 16
		case isa.XORI:
			r1 ^= uint32(in.Imm)
		}
	}
	if r1 != want {
		t.Errorf("la produced %#x, want %#x", r1, want)
	}
}

func TestDataDirectives(t *testing.T) {
	img := mustAssemble(t, `
		main: halt
		.data
		a: .word 1, 0x10, -1
		b: .byte 1, 2, 255
		   .align 4
		c: .space 8
		d: .ascii "hi\n"
	`)
	d := img.Data
	if len(d) != 12+3+1+8+3 {
		t.Fatalf("data length = %d", len(d))
	}
	if d[0] != 1 || d[4] != 0x10 || d[8] != 0xff || d[11] != 0xff {
		t.Errorf("words wrong: % x", d[:12])
	}
	if d[12] != 1 || d[14] != 255 {
		t.Errorf("bytes wrong: % x", d[12:15])
	}
	if img.Symbols["c"]-img.DataBase() != 16 {
		t.Errorf("c offset = %d, want 16 (aligned)", img.Symbols["c"]-img.DataBase())
	}
	if string(d[24:27]) != "hi\n" {
		t.Errorf("ascii wrong: %q", d[24:27])
	}
}

func TestWordLabelRefs(t *testing.T) {
	img := mustAssemble(t, `
		main:
			halt
		.data
		tbl: .word main, tbl, tbl+4
	`)
	d := img.Data
	get := func(i int) uint32 {
		return uint32(d[i]) | uint32(d[i+1])<<8 | uint32(d[i+2])<<16 | uint32(d[i+3])<<24
	}
	if get(0) != img.Entry {
		t.Errorf("tbl[0] = %#x, want entry %#x", get(0), img.Entry)
	}
	if get(4) != img.Symbols["tbl"] {
		t.Errorf("tbl[1] = %#x, want %#x", get(4), img.Symbols["tbl"])
	}
	if get(8) != img.Symbols["tbl"]+4 {
		t.Errorf("tbl[2] = %#x, want %#x", get(8), img.Symbols["tbl"]+4)
	}
}

func TestPseudoInstructions(t *testing.T) {
	img := mustAssemble(t, `
		main:
			mov r1, r2
			neg r3, r4
			not r5, r6
			subi r7, r8, 10
			push r1
			pop r2
			call main
			b main
	`)
	ins := decodeAll(img)
	want := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Rs1: 2},
		{Op: isa.SUB, Rd: 3, Rs2: 4},
		{Op: isa.XORI, Rd: 5, Rs1: 6, Imm: -1},
		{Op: isa.ADDI, Rd: 7, Rs1: 8, Imm: -10},
		{Op: isa.ADDI, Rd: isa.RegSP, Rs1: isa.RegSP, Imm: -4},
		{Op: isa.SW, Rd: 1, Rs1: isa.RegSP},
		{Op: isa.LW, Rd: 2, Rs1: isa.RegSP},
		{Op: isa.ADDI, Rd: isa.RegSP, Rs1: isa.RegSP, Imm: 4},
		{Op: isa.JAL, Imm: program.CodeBase / 4},
		{Op: isa.JMP, Imm: program.CodeBase / 4},
	}
	for i, w := range want {
		if ins[i] != w {
			t.Errorf("inst %d = %+v, want %+v", i, ins[i], w)
		}
	}
}

func TestBranchPseudos(t *testing.T) {
	img := mustAssemble(t, `
		main:
			beqz r1, main
			bnez r2, main
			bgt r3, r4, main
			ble r3, r4, main
			bgtu r3, r4, main
			bleu r3, r4, main
	`)
	ins := decodeAll(img)
	want := []isa.Inst{
		{Op: isa.BEQ, Rs1: 1, Imm: 0},
		{Op: isa.BNE, Rs1: 2, Imm: -1},
		{Op: isa.BLT, Rs1: 4, Rs2: 3, Imm: -2},
		{Op: isa.BGE, Rs1: 4, Rs2: 3, Imm: -3},
		{Op: isa.BLTU, Rs1: 4, Rs2: 3, Imm: -4},
		{Op: isa.BGEU, Rs1: 4, Rs2: 3, Imm: -5},
	}
	for i, w := range want {
		if ins[i] != w {
			t.Errorf("inst %d = %+v, want %+v", i, ins[i], w)
		}
	}
}

func TestEntryDirective(t *testing.T) {
	img := mustAssemble(t, `
		.entry start
		helper:
			ret
		start:
			halt
	`)
	if img.Entry != program.CodeBase+4 {
		t.Errorf("entry = %#x, want %#x", img.Entry, program.CodeBase+4)
	}
}

func TestNameAndMemDirectives(t *testing.T) {
	img := mustAssemble(t, `
		.name "myprog"
		.mem 65536
		main: halt
	`)
	if img.Name != "myprog" {
		t.Errorf("name = %q", img.Name)
	}
	if img.MemSize != 65536 {
		t.Errorf("mem = %d", img.MemSize)
	}
}

func TestErrors(t *testing.T) {
	tests := []struct {
		name, src, wantSub string
	}{
		{"unknown op", "main: frobnicate r1\n", "unknown instruction"},
		{"bad register", "main: add r1, r2, r99\n", "bad register"},
		{"wrong operand count", "main: add r1, r2\n", "wants 3 operands"},
		{"undefined label", "main: jmp nowhere\n", "undefined label"},
		{"duplicate label", "main: halt\nmain: halt\n", "already defined"},
		{"imm out of range", "main: addi r1, r2, 40000\n", "out of range"},
		{"shift out of range", "main: slli r1, r2, 32\n", "out of range"},
		{"bad mem operand", "main: lw r1, r2\n", "memory operand"},
		{"word outside data", "main: halt\n.word 1\n", "only allowed in .data"},
		{"instruction in data", ".data\nadd r1, r2, r3\nmain:\n", "outside .text"},
		{"bad directive", ".bogus 1\nmain: halt\n", "unknown directive"},
		{"no entry", ".entry start\nhelper: ret\n", `entry label "start" not defined`},
		{"bad label", "9lives: halt\n", "invalid label"},
		{"ret operands", "main: ret r1\n", "takes no operands"},
		{"bad lui", "main: lui r1, 65536\n", "out of range"},
		{"branch target", "main: beq r1, r2, 12q\n", "bad branch target"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble("t.s", tt.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

func TestErrorListReportsAll(t *testing.T) {
	_, err := Assemble("t.s", "main: frob r1\n glorp r2\n halt\n")
	if err == nil {
		t.Fatal("expected errors")
	}
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("error type %T, want ErrorList", err)
	}
	if len(el) != 2 {
		t.Errorf("got %d errors, want 2: %v", len(el), err)
	}
	if el[0].Line != 1 || el[1].Line != 2 {
		t.Errorf("error lines = %d,%d, want 1,2", el[0].Line, el[1].Line)
	}
}

func TestCommentsInsideStrings(t *testing.T) {
	img := mustAssemble(t, `
		main: halt
		.data
		s: .ascii "a;b#c//d"
	`)
	if string(img.Data) != "a;b#c//d" {
		t.Errorf("string data = %q", img.Data)
	}
}

func TestMultipleLabelsSameLine(t *testing.T) {
	img := mustAssemble(t, "main: start: halt\n")
	if img.Symbols["main"] != img.Symbols["start"] {
		t.Error("stacked labels should share an address")
	}
}

func TestCharLiterals(t *testing.T) {
	img := mustAssemble(t, "main: addi r1, zero, 'A'\n halt\n")
	if in := isa.Decode(img.Code[0]); in.Imm != 65 {
		t.Errorf("char literal imm = %d, want 65", in.Imm)
	}
}
