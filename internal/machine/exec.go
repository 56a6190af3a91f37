package machine

import (
	"sdt/internal/isa"
)

// OutcomeKind classifies how an instruction transferred control.
type OutcomeKind uint8

// Outcome kinds.
const (
	OutNext     OutcomeKind = iota // fall through to pc+4
	OutBranch                      // conditional branch, taken or not
	OutJump                        // direct jump (JMP)
	OutCall                        // direct call (JAL)
	OutIndirect                    // JR / CALLR / RET; see IBKind
	OutHalt
)

// Outcome describes an instruction's control-flow effect. Target is the
// next pc. For OutBranch, Taken distinguishes the two successors. For
// OutIndirect, Kind2 is the indirect-branch kind and the new pc came from
// architectural state.
type Outcome struct {
	Kind   OutcomeKind
	Target uint32
	Taken  bool
	IB     isa.IBKind // valid when Kind == OutIndirect
}

// Exec applies one instruction to s. The instruction must have been fetched
// from address pc (used for pc-relative semantics and fault reporting).
// On success, s.PC is advanced to the outcome target and s.Instret is
// incremented. Exec performs no cost accounting: it is the shared semantic
// core of the native machine and the SDT's fragment execution.
func Exec(s *State, in isa.Inst, pc uint32) (Outcome, error) {
	s.PC = pc // for fault reporting
	next := pc + isa.WordSize
	out := Outcome{Kind: OutNext, Target: next}
	r := &s.Regs

	switch in.Op {
	case isa.ADD:
		s.SetReg(in.Rd, r[in.Rs1]+r[in.Rs2])
	case isa.SUB:
		s.SetReg(in.Rd, r[in.Rs1]-r[in.Rs2])
	case isa.MUL:
		s.SetReg(in.Rd, r[in.Rs1]*r[in.Rs2])
	case isa.DIV:
		a, b := int32(r[in.Rs1]), int32(r[in.Rs2])
		switch {
		case b == 0:
			s.SetReg(in.Rd, 0xffffffff)
		case a == -1<<31 && b == -1: // overflow: result is the dividend
			s.SetReg(in.Rd, uint32(a))
		default:
			s.SetReg(in.Rd, uint32(a/b))
		}
	case isa.DIVU:
		if r[in.Rs2] == 0 {
			s.SetReg(in.Rd, 0xffffffff)
		} else {
			s.SetReg(in.Rd, r[in.Rs1]/r[in.Rs2])
		}
	case isa.REM:
		a, b := int32(r[in.Rs1]), int32(r[in.Rs2])
		switch {
		case b == 0:
			s.SetReg(in.Rd, uint32(a))
		case a == -1<<31 && b == -1:
			s.SetReg(in.Rd, 0)
		default:
			s.SetReg(in.Rd, uint32(a%b))
		}
	case isa.REMU:
		if r[in.Rs2] == 0 {
			s.SetReg(in.Rd, r[in.Rs1])
		} else {
			s.SetReg(in.Rd, r[in.Rs1]%r[in.Rs2])
		}
	case isa.AND:
		s.SetReg(in.Rd, r[in.Rs1]&r[in.Rs2])
	case isa.OR:
		s.SetReg(in.Rd, r[in.Rs1]|r[in.Rs2])
	case isa.XOR:
		s.SetReg(in.Rd, r[in.Rs1]^r[in.Rs2])
	case isa.SLL:
		s.SetReg(in.Rd, r[in.Rs1]<<(r[in.Rs2]&31))
	case isa.SRL:
		s.SetReg(in.Rd, r[in.Rs1]>>(r[in.Rs2]&31))
	case isa.SRA:
		s.SetReg(in.Rd, uint32(int32(r[in.Rs1])>>(r[in.Rs2]&31)))
	case isa.SLT:
		s.SetReg(in.Rd, b2u(int32(r[in.Rs1]) < int32(r[in.Rs2])))
	case isa.SLTU:
		s.SetReg(in.Rd, b2u(r[in.Rs1] < r[in.Rs2]))

	case isa.ADDI:
		s.SetReg(in.Rd, r[in.Rs1]+uint32(in.Imm))
	case isa.ANDI:
		s.SetReg(in.Rd, r[in.Rs1]&uint32(in.Imm))
	case isa.ORI:
		s.SetReg(in.Rd, r[in.Rs1]|uint32(in.Imm))
	case isa.XORI:
		s.SetReg(in.Rd, r[in.Rs1]^uint32(in.Imm))
	case isa.SLLI:
		s.SetReg(in.Rd, r[in.Rs1]<<(uint32(in.Imm)&31))
	case isa.SRLI:
		s.SetReg(in.Rd, r[in.Rs1]>>(uint32(in.Imm)&31))
	case isa.SRAI:
		s.SetReg(in.Rd, uint32(int32(r[in.Rs1])>>(uint32(in.Imm)&31)))
	case isa.SLTI:
		s.SetReg(in.Rd, b2u(int32(r[in.Rs1]) < in.Imm))
	case isa.SLTIU:
		s.SetReg(in.Rd, b2u(r[in.Rs1] < uint32(in.Imm)))
	case isa.LUI:
		s.SetReg(in.Rd, uint32(in.Imm)<<16)

	case isa.LW:
		v, err := s.LoadWord(r[in.Rs1] + uint32(in.Imm))
		if err != nil {
			return out, err
		}
		s.SetReg(in.Rd, v)
	case isa.LH:
		v, err := s.LoadHalf(r[in.Rs1] + uint32(in.Imm))
		if err != nil {
			return out, err
		}
		s.SetReg(in.Rd, uint32(int32(int16(v))))
	case isa.LHU:
		v, err := s.LoadHalf(r[in.Rs1] + uint32(in.Imm))
		if err != nil {
			return out, err
		}
		s.SetReg(in.Rd, uint32(v))
	case isa.LB:
		v, err := s.LoadByte(r[in.Rs1] + uint32(in.Imm))
		if err != nil {
			return out, err
		}
		s.SetReg(in.Rd, uint32(int32(int8(v))))
	case isa.LBU:
		v, err := s.LoadByte(r[in.Rs1] + uint32(in.Imm))
		if err != nil {
			return out, err
		}
		s.SetReg(in.Rd, uint32(v))
	case isa.SW:
		if err := s.StoreWord(r[in.Rs1]+uint32(in.Imm), r[in.Rd]); err != nil {
			return out, err
		}
	case isa.SH:
		if err := s.StoreHalf(r[in.Rs1]+uint32(in.Imm), uint16(r[in.Rd])); err != nil {
			return out, err
		}
	case isa.SB:
		if err := s.StoreByte(r[in.Rs1]+uint32(in.Imm), byte(r[in.Rd])); err != nil {
			return out, err
		}

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		taken := false
		a, b := r[in.Rs1], r[in.Rs2]
		switch in.Op {
		case isa.BEQ:
			taken = a == b
		case isa.BNE:
			taken = a != b
		case isa.BLT:
			taken = int32(a) < int32(b)
		case isa.BGE:
			taken = int32(a) >= int32(b)
		case isa.BLTU:
			taken = a < b
		case isa.BGEU:
			taken = a >= b
		}
		out.Kind, out.Taken = OutBranch, taken
		if taken {
			out.Target = pc + uint32(in.Imm)*isa.WordSize
		}

	case isa.JMP:
		out.Kind = OutJump
		out.Target = uint32(in.Imm) * isa.WordSize
	case isa.JAL:
		s.SetReg(isa.RegRA, next)
		out.Kind = OutCall
		out.Target = uint32(in.Imm) * isa.WordSize
	case isa.JR:
		out.Kind, out.IB = OutIndirect, isa.IBJump
		out.Target = r[in.Rs1]
	case isa.CALLR:
		target := r[in.Rs1] // read before the ra write in case rs1 == ra
		s.SetReg(isa.RegRA, next)
		out.Kind, out.IB = OutIndirect, isa.IBCall
		out.Target = target
	case isa.RET:
		out.Kind, out.IB = OutIndirect, isa.IBReturn
		out.Target = r[isa.RegRA]

	case isa.OUT:
		s.Out.Emit(r[in.Rs1])
	case isa.HALT:
		s.Halted = true
		s.ExitCode = r[in.Rs1]
		out.Kind, out.Target = OutHalt, pc
	case isa.NOP:
		// nothing
	default:
		return out, s.fault(pc, "illegal instruction")
	}

	s.Instret++
	s.PC = out.Target
	return out, nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// ExecStraight applies a straight-line run of instructions — a superblock
// part body up to, not including, its control terminator — to s, starting
// at pc, and returns the pc after the run. It is the batched twin of Exec:
// semantics are identical instruction-for-instruction (the two switches are
// kept adjacent in this file and exercised against each other by the
// differential fuzzer, whose native side runs Exec), but the per-
// instruction Outcome construction, instret update and pc store are
// hoisted out of the loop. s.PC is only maintained across instructions
// that can fault (memory accesses and illegal opcodes) — ALU work cannot
// observe it mid-run.
//
// Loads and stores charge their D-cache reference through env.DTouch
// before the access, exactly as ChargeBody orders it; their static
// pipeline cost is assumed pre-charged (StaticBodyCost or a fused
// superblock batch).
//
// One control transfer is permitted: a direct jump (JMP), whose target is
// static — the caller guarantees the instruction following it in insts is
// the instruction at that target, which is exactly the contract of a
// superblock body whose elided jumps splice the recorded successor in
// fall-through position. Any other control transfer (or HALT) faults,
// because silently falling through one would corrupt the caller's notion
// of where execution is.
func ExecStraight(s *State, env *CostEnv, insts []isa.Inst, pc uint32) (uint32, error) {
	r := &s.Regs
	for i := range insts {
		in := insts[i]
		switch in.Op {
		case isa.ADD:
			s.SetReg(in.Rd, r[in.Rs1]+r[in.Rs2])
		case isa.SUB:
			s.SetReg(in.Rd, r[in.Rs1]-r[in.Rs2])
		case isa.MUL:
			s.SetReg(in.Rd, r[in.Rs1]*r[in.Rs2])
		case isa.DIV:
			a, b := int32(r[in.Rs1]), int32(r[in.Rs2])
			switch {
			case b == 0:
				s.SetReg(in.Rd, 0xffffffff)
			case a == -1<<31 && b == -1:
				s.SetReg(in.Rd, uint32(a))
			default:
				s.SetReg(in.Rd, uint32(a/b))
			}
		case isa.DIVU:
			if r[in.Rs2] == 0 {
				s.SetReg(in.Rd, 0xffffffff)
			} else {
				s.SetReg(in.Rd, r[in.Rs1]/r[in.Rs2])
			}
		case isa.REM:
			a, b := int32(r[in.Rs1]), int32(r[in.Rs2])
			switch {
			case b == 0:
				s.SetReg(in.Rd, uint32(a))
			case a == -1<<31 && b == -1:
				s.SetReg(in.Rd, 0)
			default:
				s.SetReg(in.Rd, uint32(a%b))
			}
		case isa.REMU:
			if r[in.Rs2] == 0 {
				s.SetReg(in.Rd, r[in.Rs1])
			} else {
				s.SetReg(in.Rd, r[in.Rs1]%r[in.Rs2])
			}
		case isa.AND:
			s.SetReg(in.Rd, r[in.Rs1]&r[in.Rs2])
		case isa.OR:
			s.SetReg(in.Rd, r[in.Rs1]|r[in.Rs2])
		case isa.XOR:
			s.SetReg(in.Rd, r[in.Rs1]^r[in.Rs2])
		case isa.SLL:
			s.SetReg(in.Rd, r[in.Rs1]<<(r[in.Rs2]&31))
		case isa.SRL:
			s.SetReg(in.Rd, r[in.Rs1]>>(r[in.Rs2]&31))
		case isa.SRA:
			s.SetReg(in.Rd, uint32(int32(r[in.Rs1])>>(r[in.Rs2]&31)))
		case isa.SLT:
			s.SetReg(in.Rd, b2u(int32(r[in.Rs1]) < int32(r[in.Rs2])))
		case isa.SLTU:
			s.SetReg(in.Rd, b2u(r[in.Rs1] < r[in.Rs2]))

		case isa.ADDI:
			s.SetReg(in.Rd, r[in.Rs1]+uint32(in.Imm))
		case isa.ANDI:
			s.SetReg(in.Rd, r[in.Rs1]&uint32(in.Imm))
		case isa.ORI:
			s.SetReg(in.Rd, r[in.Rs1]|uint32(in.Imm))
		case isa.XORI:
			s.SetReg(in.Rd, r[in.Rs1]^uint32(in.Imm))
		case isa.SLLI:
			s.SetReg(in.Rd, r[in.Rs1]<<(uint32(in.Imm)&31))
		case isa.SRLI:
			s.SetReg(in.Rd, r[in.Rs1]>>(uint32(in.Imm)&31))
		case isa.SRAI:
			s.SetReg(in.Rd, uint32(int32(r[in.Rs1])>>(uint32(in.Imm)&31)))
		case isa.SLTI:
			s.SetReg(in.Rd, b2u(int32(r[in.Rs1]) < in.Imm))
		case isa.SLTIU:
			s.SetReg(in.Rd, b2u(r[in.Rs1] < uint32(in.Imm)))
		case isa.LUI:
			s.SetReg(in.Rd, uint32(in.Imm)<<16)

		case isa.LW:
			addr := r[in.Rs1] + uint32(in.Imm)
			s.PC = pc
			env.DTouch(addr)
			v, err := s.LoadWord(addr)
			if err != nil {
				s.Instret += uint64(i)
				return pc, err
			}
			s.SetReg(in.Rd, v)
		case isa.LH:
			addr := r[in.Rs1] + uint32(in.Imm)
			s.PC = pc
			env.DTouch(addr)
			v, err := s.LoadHalf(addr)
			if err != nil {
				s.Instret += uint64(i)
				return pc, err
			}
			s.SetReg(in.Rd, uint32(int32(int16(v))))
		case isa.LHU:
			addr := r[in.Rs1] + uint32(in.Imm)
			s.PC = pc
			env.DTouch(addr)
			v, err := s.LoadHalf(addr)
			if err != nil {
				s.Instret += uint64(i)
				return pc, err
			}
			s.SetReg(in.Rd, uint32(v))
		case isa.LB:
			addr := r[in.Rs1] + uint32(in.Imm)
			s.PC = pc
			env.DTouch(addr)
			v, err := s.LoadByte(addr)
			if err != nil {
				s.Instret += uint64(i)
				return pc, err
			}
			s.SetReg(in.Rd, uint32(int32(int8(v))))
		case isa.LBU:
			addr := r[in.Rs1] + uint32(in.Imm)
			s.PC = pc
			env.DTouch(addr)
			v, err := s.LoadByte(addr)
			if err != nil {
				s.Instret += uint64(i)
				return pc, err
			}
			s.SetReg(in.Rd, uint32(v))
		case isa.SW:
			addr := r[in.Rs1] + uint32(in.Imm)
			s.PC = pc
			env.DTouch(addr)
			if err := s.StoreWord(addr, r[in.Rd]); err != nil {
				s.Instret += uint64(i)
				return pc, err
			}
		case isa.SH:
			addr := r[in.Rs1] + uint32(in.Imm)
			s.PC = pc
			env.DTouch(addr)
			if err := s.StoreHalf(addr, uint16(r[in.Rd])); err != nil {
				s.Instret += uint64(i)
				return pc, err
			}
		case isa.SB:
			addr := r[in.Rs1] + uint32(in.Imm)
			s.PC = pc
			env.DTouch(addr)
			if err := s.StoreByte(addr, byte(r[in.Rd])); err != nil {
				s.Instret += uint64(i)
				return pc, err
			}

		case isa.OUT:
			s.Out.Emit(r[in.Rs1])
		case isa.NOP:
			// nothing
		case isa.JMP:
			// Elided on-trace jump: retire it and continue at its static
			// target, where the caller has placed the next instruction.
			pc = uint32(in.Imm)*isa.WordSize - isa.WordSize
		default:
			s.PC = pc
			s.Instret += uint64(i)
			return pc, s.fault(pc, "control transfer or illegal instruction in straight-line body")
		}
		pc += isa.WordSize
	}
	s.Instret += uint64(len(insts))
	s.PC = pc
	return pc, nil
}
