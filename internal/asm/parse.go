package asm

import (
	"strings"

	"sdt/internal/isa"
	"sdt/internal/program"
)

// instruction parses one instruction or pseudo-instruction statement into
// zero or more items. Pseudo expansion happens here, in pass 1, so every
// statement has a fixed size before labels are resolved.
func (a *assembler) instruction(n int, s string) {
	if a.sec != secText {
		a.errorf(n, "instruction outside .text")
		return
	}
	mn, rest, _ := strings.Cut(s, " ")
	mn = strings.ToLower(mn)
	ops := splitOperands(rest)

	if a.pseudo(n, mn, ops) {
		return
	}

	op, ok := isa.OpByName[mn]
	if !ok {
		a.errorf(n, "unknown instruction %q", mn)
		return
	}
	it := item{line: n, inst: isa.Inst{Op: op}}
	switch op.Format() {
	case isa.FormatR:
		if !a.wantOps(n, mn, ops, 3) {
			return
		}
		it.inst.Rd = a.reg(n, ops[0])
		it.inst.Rs1 = a.reg(n, ops[1])
		it.inst.Rs2 = a.reg(n, ops[2])
	case isa.FormatI:
		switch {
		case op.IsLoad() || op.IsStore():
			if !a.wantOps(n, mn, ops, 2) {
				return
			}
			it.inst.Rd = a.reg(n, ops[0])
			base, off, ok := a.memOperand(n, ops[1])
			if !ok {
				return
			}
			it.inst.Rs1, it.inst.Imm = base, off
		case op == isa.LUI:
			if !a.wantOps(n, mn, ops, 2) {
				return
			}
			it.inst.Rd = a.reg(n, ops[0])
			v, ok := a.parseInt(n, ops[1])
			if !ok {
				return
			}
			if v < 0 || v > 0xffff {
				a.errorf(n, "lui immediate %d out of range [0,65535]", v)
				return
			}
			it.inst.Imm = int32(v)
		default:
			if !a.wantOps(n, mn, ops, 3) {
				return
			}
			it.inst.Rd = a.reg(n, ops[0])
			it.inst.Rs1 = a.reg(n, ops[1])
			imm, ok := a.imm16(n, ops[2], op)
			if !ok {
				return
			}
			it.inst.Imm = imm
		}
	case isa.FormatB:
		if !a.wantOps(n, mn, ops, 3) {
			return
		}
		it.inst.Rs1 = a.reg(n, ops[0])
		it.inst.Rs2 = a.reg(n, ops[1])
		if v, ok := a.tryParseInt(ops[2]); ok {
			it.inst.Imm = int32(v)
		} else if isIdent(ops[2]) {
			it.ref = ops[2]
		} else {
			a.errorf(n, "bad branch target %q", ops[2])
			return
		}
	case isa.FormatJ:
		if !a.wantOps(n, mn, ops, 1) {
			return
		}
		if v, ok := a.tryParseInt(ops[0]); ok {
			if v%isa.WordSize != 0 {
				a.errorf(n, "jump target %#x not word aligned", v)
				return
			}
			it.inst.Imm = int32(v / isa.WordSize)
		} else if isIdent(ops[0]) {
			it.ref = ops[0]
		} else {
			a.errorf(n, "bad jump target %q", ops[0])
			return
		}
	case isa.FormatS:
		if op == isa.HALT && len(ops) == 0 {
			// bare "halt": exit code register defaults to zero
		} else {
			if !a.wantOps(n, mn, ops, 1) {
				return
			}
			it.inst.Rs1 = a.reg(n, ops[0])
		}
	case isa.FormatN:
		if len(ops) != 0 {
			a.errorf(n, "%s takes no operands", mn)
			return
		}
	}
	a.items = append(a.items, it)
}

// pseudo expands pseudo-instructions; it reports whether mn was one.
func (a *assembler) pseudo(n int, mn string, ops []string) bool {
	emit := func(in isa.Inst) { a.items = append(a.items, item{line: n, inst: in}) }
	switch mn {
	case "li", "la":
		if !a.wantOps(n, mn, ops, 2) {
			return true
		}
		rd := a.reg(n, ops[0])
		if v, ok := a.tryParseInt(ops[1]); ok {
			if v < -(1<<31) || v > (1<<32)-1 {
				a.errorf(n, "li value %d does not fit in 32 bits", v)
				return true
			}
			hi, lo := v>>16&0xffff, v&0xffff
			if lo&0x8000 != 0 {
				// XORI sign-extends its imm16; pre-complement the high
				// half so the extension cancels out.
				emit(isa.Inst{Op: isa.LUI, Rd: rd, Imm: int32(hi ^ 0xffff)})
				emit(isa.Inst{Op: isa.XORI, Rd: rd, Rs1: rd, Imm: int32(int16(lo))})
			} else {
				emit(isa.Inst{Op: isa.LUI, Rd: rd, Imm: int32(hi)})
				emit(isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rd, Imm: int32(lo)})
			}
		} else if base, _, ok := parseLabelExpr(ops[1]); ok && base != "" {
			a.items = append(a.items,
				item{line: n, inst: isa.Inst{Op: isa.LUI, Rd: rd}, ref: ops[1], refHi: true},
				item{line: n, inst: isa.Inst{Op: isa.XORI, Rd: rd, Rs1: rd}, ref: ops[1], refLo: true})
		} else {
			a.errorf(n, "bad %s operand %q", mn, ops[1])
		}
		return true
	case "mov":
		if a.wantOps(n, mn, ops, 2) {
			emit(isa.Inst{Op: isa.ADDI, Rd: a.reg(n, ops[0]), Rs1: a.reg(n, ops[1])})
		}
		return true
	case "neg":
		if a.wantOps(n, mn, ops, 2) {
			emit(isa.Inst{Op: isa.SUB, Rd: a.reg(n, ops[0]), Rs2: a.reg(n, ops[1])})
		}
		return true
	case "not":
		if a.wantOps(n, mn, ops, 2) {
			emit(isa.Inst{Op: isa.XORI, Rd: a.reg(n, ops[0]), Rs1: a.reg(n, ops[1]), Imm: -1})
		}
		return true
	case "subi":
		if a.wantOps(n, mn, ops, 3) {
			imm, ok := a.imm16(n, ops[2], isa.ADDI)
			if ok {
				emit(isa.Inst{Op: isa.ADDI, Rd: a.reg(n, ops[0]), Rs1: a.reg(n, ops[1]), Imm: -imm})
			}
		}
		return true
	case "beqz", "bnez":
		if a.wantOps(n, mn, ops, 2) {
			op := isa.BEQ
			if mn == "bnez" {
				op = isa.BNE
			}
			a.items = append(a.items, item{line: n,
				inst: isa.Inst{Op: op, Rs1: a.reg(n, ops[0])}, ref: ops[1]})
		}
		return true
	case "bgt", "ble", "bgtu", "bleu":
		if a.wantOps(n, mn, ops, 3) {
			var op isa.Op
			switch mn {
			case "bgt":
				op = isa.BLT
			case "ble":
				op = isa.BGE
			case "bgtu":
				op = isa.BLTU
			case "bleu":
				op = isa.BGEU
			}
			a.items = append(a.items, item{line: n,
				inst: isa.Inst{Op: op, Rs1: a.reg(n, ops[1]), Rs2: a.reg(n, ops[0])}, ref: ops[2]})
		}
		return true
	case "push":
		if a.wantOps(n, mn, ops, 1) {
			emit(isa.Inst{Op: isa.ADDI, Rd: isa.RegSP, Rs1: isa.RegSP, Imm: -4})
			emit(isa.Inst{Op: isa.SW, Rd: a.reg(n, ops[0]), Rs1: isa.RegSP})
		}
		return true
	case "pop":
		if a.wantOps(n, mn, ops, 1) {
			emit(isa.Inst{Op: isa.LW, Rd: a.reg(n, ops[0]), Rs1: isa.RegSP})
			emit(isa.Inst{Op: isa.ADDI, Rd: isa.RegSP, Rs1: isa.RegSP, Imm: 4})
		}
		return true
	case "call":
		if a.wantOps(n, mn, ops, 1) {
			a.items = append(a.items, item{line: n, inst: isa.Inst{Op: isa.JAL}, ref: ops[0]})
		}
		return true
	case "b":
		if a.wantOps(n, mn, ops, 1) {
			a.items = append(a.items, item{line: n, inst: isa.Inst{Op: isa.JMP}, ref: ops[0]})
		}
		return true
	}
	return false
}

func (a *assembler) wantOps(n int, mn string, ops []string, want int) bool {
	if len(ops) != want {
		a.errorf(n, "%s wants %d operands, got %d", mn, want, len(ops))
		return false
	}
	return true
}

func (a *assembler) reg(n int, s string) isa.Reg {
	r, ok := isa.RegByName(strings.ToLower(strings.TrimSpace(s)))
	if !ok {
		a.errorf(n, "bad register %q", s)
		return 0
	}
	return r
}

func (a *assembler) imm16(n int, s string, op isa.Op) (int32, bool) {
	v, ok := a.tryParseInt(s)
	if !ok {
		a.errorf(n, "bad immediate %q", s)
		return 0, false
	}
	switch op {
	case isa.SLLI, isa.SRLI, isa.SRAI:
		if v < 0 || v > 31 {
			a.errorf(n, "shift amount %d out of range [0,31]", v)
			return 0, false
		}
	case isa.ANDI, isa.ORI, isa.XORI:
		if v < -32768 || v > 65535 {
			a.errorf(n, "immediate %d out of range", v)
			return 0, false
		}
		// Values in [32768,65535] are expressed as their sign-extended
		// 16-bit pattern; the machine sign-extends, so only the low 16
		// bits matter for bitwise ops... but sign extension changes the
		// result. Restrict to the representable signed range instead.
		if v > 32767 {
			a.errorf(n, "immediate %d not representable (imm16 is sign-extended)", v)
			return 0, false
		}
	default:
		if v < -32768 || v > 32767 {
			a.errorf(n, "immediate %d out of range [-32768,32767]", v)
			return 0, false
		}
	}
	return int32(v), true
}

// memOperand parses "off(reg)" or "(reg)".
func (a *assembler) memOperand(n int, s string) (isa.Reg, int32, bool) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		a.errorf(n, "bad memory operand %q, want off(reg)", s)
		return 0, 0, false
	}
	var off int64
	if offStr := strings.TrimSpace(s[:open]); offStr != "" {
		var ok bool
		off, ok = a.tryParseInt(offStr)
		if !ok || off < -32768 || off > 32767 {
			a.errorf(n, "bad memory offset %q", offStr)
			return 0, 0, false
		}
	}
	r := a.reg(n, s[open+1:len(s)-1])
	return r, int32(off), true
}

// finish is pass 2: resolve labels, emit code words, fix data refs and
// assemble the final image.
func (a *assembler) finish() {
	dataBase := uint32(program.CodeBase + len(a.items)*isa.WordSize)
	addrOf := func(name string) (uint32, bool) {
		l, ok := a.labels[name]
		if !ok {
			return 0, false
		}
		if l.sec == secText {
			return program.CodeBase + l.off*isa.WordSize, true
		}
		return dataBase + l.off, true
	}

	for i := range a.items {
		it := &a.items[i]
		if it.ref == "" {
			continue
		}
		base, add, _ := parseLabelExpr(it.ref)
		addr, ok := addrOf(base)
		if !ok {
			a.errorf(it.line, "undefined label %q", base)
			continue
		}
		addr += uint32(add)
		switch {
		case it.refHi:
			hi := addr >> 16
			if addr&0x8000 != 0 {
				// The paired XORI sign-extends; see the li expansion.
				hi ^= 0xffff
			}
			it.inst.Imm = int32(hi)
		case it.refLo:
			it.inst.Imm = int32(int16(addr & 0xffff))
		case it.inst.Op.IsBranch():
			here := uint32(program.CodeBase + i*isa.WordSize)
			delta := (int64(addr) - int64(here)) / isa.WordSize
			if delta < -32768 || delta > 32767 {
				a.errorf(it.line, "branch to %q out of range (%d words)", it.ref, delta)
				continue
			}
			it.inst.Imm = int32(delta)
		default: // JMP/JAL
			it.inst.Imm = int32(addr / isa.WordSize)
		}
	}

	for _, ref := range a.dataRefs {
		addr, ok := addrOf(ref.name)
		if !ok {
			a.errorf(ref.line, "undefined label %q", ref.name)
			continue
		}
		addr += uint32(ref.add)
		a.data[ref.off] = byte(addr)
		a.data[ref.off+1] = byte(addr >> 8)
		a.data[ref.off+2] = byte(addr >> 16)
		a.data[ref.off+3] = byte(addr >> 24)
	}

	entryName := a.entry
	if entryName == "" {
		entryName = "main"
	}
	if addr, ok := addrOf(entryName); ok {
		a.img.Entry = addr
	} else if a.entry == "" && len(a.items) > 0 {
		a.img.Entry = program.CodeBase
	} else {
		a.errorf(0, "entry label %q not defined", entryName)
	}

	if len(a.errs) > 0 {
		return
	}
	a.img.Code = make([]uint32, len(a.items))
	for i, it := range a.items {
		a.img.Code[i] = isa.Encode(it.inst)
	}
	a.img.Data = a.data
	for name, l := range a.labels {
		// Label names are substrings of the source; copy them so the
		// image, which can outlive the source (sdtd memoizes images),
		// does not keep the whole text alive.
		name = strings.Clone(name)
		if l.sec == secText {
			a.img.Symbols[name] = program.CodeBase + l.off*isa.WordSize
		} else {
			a.img.Symbols[name] = dataBase + l.off
		}
	}
	if err := a.img.Validate(); err != nil {
		a.errorf(0, "invalid image: %v", err)
	}
}
