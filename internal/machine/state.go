// Package machine implements SimRISC-32 execution. It provides three
// layers, used by both the "native" baseline and the SDT:
//
//   - State: architectural state (registers, pc, memory, output stream) and
//     fault-checked memory accessors;
//   - Exec: pure single-instruction semantics — the SDT's fragments execute
//     guest instructions through exactly this function, which is what makes
//     "translated code computes the same answers" testable;
//   - Machine: the native runner, which couples Exec with a CostEnv to
//     model the program running directly on the host. Its cycle count is
//     the denominator of every slowdown the experiments report. Run
//     executes a basic block at a time through RunBody, the body runner
//     the SDT shares; Step executes one instruction and is the reference
//     the block executor must match.
package machine

import (
	"encoding/binary"
	"fmt"
	"sync"

	"sdt/internal/isa"
	"sdt/internal/program"
)

// Fault is a guest run-time error (bad memory access, wild jump, illegal
// instruction).
type Fault struct {
	PC   uint32
	Addr uint32
	Msg  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("machine: fault at pc=%#x: %s (addr=%#x)", f.PC, f.Msg, f.Addr)
}

// Output accumulates the guest's OUT stream. Workloads self-check by
// emitting checksums; equivalence tests compare whole streams.
type Output struct {
	Checksum uint64   // FNV-1a over the little-endian value stream
	Count    uint64   // values emitted
	Values   []uint32 // first KeepValues values, for debugging and tests
}

// KeepValues bounds how many raw output values are retained.
const KeepValues = 4096

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Emit appends v to the output stream.
func (o *Output) Emit(v uint32) {
	h := o.Checksum
	if h == 0 && o.Count == 0 {
		h = fnvOffset
	}
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	o.Checksum = h
	o.Count++
	if len(o.Values) < KeepValues {
		o.Values = append(o.Values, v)
	}
}

// State is the complete architectural state of a SimRISC-32 guest.
type State struct {
	Regs     [isa.NumRegs]uint32
	PC       uint32
	Mem      []byte
	Out      Output
	Halted   bool
	ExitCode uint32
	Instret  uint64 // retired guest instructions
}

// memPool recycles guest memory buffers between runs. Buffers are zeroed
// before reuse, so a pooled buffer is indistinguishable from a fresh one;
// Get falls back to allocation when the pooled buffer is too small.
var memPool sync.Pool // stores *[]byte

func grabMem(size uint32) []byte {
	if p, _ := memPool.Get().(*[]byte); p != nil && uint32(cap(*p)) >= size {
		mem := (*p)[:size]
		clear(mem)
		return mem
	}
	return make([]byte, size)
}

// NewState builds the initial state for an image: memory laid out, pc at
// the entry point, sp at the top of memory and gp at the data base.
// Guest memory comes from a recycled buffer when one is available (see
// Recycle), so repeated runs of similar-sized images do not reallocate it.
func NewState(img *program.Image) (*State, error) {
	mem := grabMem(img.MemBytes())
	if err := img.LayoutMemory(mem); err != nil {
		return nil, err
	}
	s := &State{PC: img.Entry, Mem: mem}
	s.Regs[isa.RegSP] = uint32(len(mem))
	s.Regs[isa.RegGP] = img.DataBase()
	return s, nil
}

// Recycle returns the state's memory buffer to the shared pool. The state
// (and any slice of its memory) must not be used afterwards.
func (s *State) Recycle() {
	if s.Mem == nil {
		return
	}
	mem := s.Mem
	s.Mem = nil
	memPool.Put(&mem)
}

// fault builds a Fault at the current pc.
func (s *State) fault(addr uint32, msg string) error {
	return &Fault{PC: s.PC, Addr: addr, Msg: msg}
}

func (s *State) checkData(addr, size uint32) error {
	if addr < program.GuardSize {
		return s.fault(addr, "access in guard page (null pointer?)")
	}
	if uint64(addr)+uint64(size) > uint64(len(s.Mem)) {
		return s.fault(addr, "access past end of memory")
	}
	if addr%size != 0 {
		return s.fault(addr, fmt.Sprintf("misaligned %d-byte access", size))
	}
	return nil
}

// LoadWord reads a 32-bit little-endian word.
func (s *State) LoadWord(addr uint32) (uint32, error) {
	if err := s.checkData(addr, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s.Mem[addr:]), nil
}

// StoreWord writes a 32-bit little-endian word.
func (s *State) StoreWord(addr, v uint32) error {
	if err := s.checkData(addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(s.Mem[addr:], v)
	return nil
}

// LoadHalf reads a 16-bit little-endian halfword.
func (s *State) LoadHalf(addr uint32) (uint16, error) {
	if err := s.checkData(addr, 2); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(s.Mem[addr:]), nil
}

// StoreHalf writes a 16-bit little-endian halfword.
func (s *State) StoreHalf(addr uint32, v uint16) error {
	if err := s.checkData(addr, 2); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(s.Mem[addr:], v)
	return nil
}

// LoadByte reads one byte.
func (s *State) LoadByte(addr uint32) (byte, error) {
	if err := s.checkData(addr, 1); err != nil {
		return 0, err
	}
	return s.Mem[addr], nil
}

// StoreByte writes one byte.
func (s *State) StoreByte(addr uint32, v byte) error {
	if err := s.checkData(addr, 1); err != nil {
		return err
	}
	s.Mem[addr] = v
	return nil
}

// SetReg writes a register, enforcing that r0 stays zero.
func (s *State) SetReg(r isa.Reg, v uint32) {
	if r != isa.RegZero {
		s.Regs[r] = v
	}
}
