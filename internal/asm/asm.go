// Package asm implements a two-pass assembler for SimRISC-32.
//
// Syntax overview (full grammar in the package tests and README):
//
//	; comment        # comment        // comment
//	.name "prog"     image name
//	.mem  1048576    guest memory size in bytes
//	.entry main      entry symbol (default: "main", else first instruction)
//	.text / .data    section switch (default .text)
//	label:           define a symbol at the current location
//	add rd, rs1, rs2
//	addi rd, rs1, -4
//	lw rd, 8(rs1)    sw rd, off(rs1)
//	beq rs1, rs2, label
//	jmp label        jal label        jr rs1      ret
//	.word e, e, ...  32-bit data words (labels allowed)
//	.byte b, b, ...  .space N         .ascii "s"     .align N
//
// Pseudo-instructions (expanded in pass 1 with fixed sizes):
//
//	li rd, imm32     -> lui+ori (always two instructions)
//	la rd, label     -> lui+ori
//	mov rd, rs       -> addi rd, rs, 0
//	neg rd, rs       -> sub rd, zero, rs
//	not rd, rs       -> xori rd, rs, -1
//	subi rd, rs, imm -> addi rd, rs, -imm
//	beqz/bnez rs, l  -> beq/bne rs, zero, l
//	bgt/ble a, b, l  -> blt/bge b, a, l
//	bgtu/bleu a,b,l  -> bltu/bgeu b, a, l
//	push rs          -> subi sp,sp,4 ; sw rs,0(sp)
//	pop rd           -> lw rd,0(sp) ; addi sp,sp,4
//	call l           -> jal l
package asm

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"sdt/internal/isa"
	"sdt/internal/program"
)

// Error describes an assembly failure at a specific source line.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

// ErrorList is the non-empty set of errors from one assembly.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 1 {
		return l[0].Error()
	}
	var b strings.Builder
	for i, e := range l {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

// Assemble translates SimRISC-32 assembly source into a program image.
// name is used for error messages and as the default image name.
func Assemble(name, src string) (*program.Image, error) {
	a := &assembler{file: name, img: &program.Image{Name: name, Symbols: map[string]uint32{}}}
	a.run(src)
	if len(a.errs) > 0 {
		return nil, a.errs
	}
	return a.img, nil
}

type section int

const (
	secText section = iota
	secData
)

// item is one parsed statement awaiting pass 2.
type item struct {
	line  int
	inst  isa.Inst // instruction template (ops with label refs carry ref)
	ref   string   // unresolved label operand, "" if none
	refHi bool     // ref resolves to high half (lui of la/li expansion)
	refLo bool     // ref resolves to low half
}

type assembler struct {
	file  string
	img   *program.Image
	errs  ErrorList
	entry string

	sec      section
	items    []item           // code statements
	data     []byte           // data bytes
	dataRefs []dataRef        // label references inside .word data
	labels   map[string]label // name -> location
	seen     map[string]int   // label name -> defining line
}

type label struct {
	sec section
	off uint32 // instruction index (text) or byte offset (data)
}

type dataRef struct {
	line int
	off  uint32 // byte offset in data
	name string
	add  int32
}

func (a *assembler) errorf(line int, format string, args ...any) {
	a.errs = append(a.errs, &Error{File: a.file, Line: line, Msg: fmt.Sprintf(format, args...)})
}

func (a *assembler) run(src string) {
	a.labels = make(map[string]label)
	a.seen = make(map[string]int)
	for i, raw := range strings.Split(src, "\n") {
		a.line(i+1, raw)
	}
	if len(a.errs) > 0 {
		return
	}
	a.finish()
}

// stripComment removes ;, # and // comments, respecting string literals.
func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inStr = !inStr
		case inStr && c == '\\':
			i++
		case !inStr && (c == ';' || c == '#'):
			return s[:i]
		case !inStr && c == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

func (a *assembler) line(n int, raw string) {
	s := strings.TrimSpace(stripComment(raw))
	for {
		colon := strings.Index(s, ":")
		if colon < 0 {
			break
		}
		name := strings.TrimSpace(s[:colon])
		if !isIdent(name) {
			a.errorf(n, "invalid label name %q", name)
			return
		}
		a.defineLabel(n, name)
		s = strings.TrimSpace(s[colon+1:])
	}
	if s == "" {
		return
	}
	if strings.HasPrefix(s, ".") {
		a.directive(n, s)
		return
	}
	a.instruction(n, s)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.', c == '$':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) defineLabel(n int, name string) {
	if prev, dup := a.seen[name]; dup {
		a.errorf(n, "label %q already defined at line %d", name, prev)
		return
	}
	a.seen[name] = n
	if a.sec == secText {
		a.labels[name] = label{secText, uint32(len(a.items))}
	} else {
		a.labels[name] = label{secData, uint32(len(a.data))}
	}
}

func (a *assembler) directive(n int, s string) {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData
	case ".name":
		v, err := strconv.Unquote(rest)
		if err != nil {
			a.errorf(n, ".name wants a quoted string: %v", err)
			return
		}
		a.img.Name = strings.Clone(v) // Unquote may return a substring of the source
	case ".entry":
		if !isIdent(rest) {
			a.errorf(n, ".entry wants a label name, got %q", rest)
			return
		}
		a.entry = rest
	case ".mem":
		v, ok := a.parseInt(n, rest)
		if !ok {
			return
		}
		if v <= 0 || uint64(v) > program.MaxGuestAddr {
			a.errorf(n, ".mem size %d out of range", v)
			return
		}
		a.img.MemSize = uint32(v)
	case ".word":
		if a.sec != secData {
			a.errorf(n, ".word only allowed in .data")
			return
		}
		for _, f := range splitOperands(rest) {
			if v, ok := a.tryParseInt(f); ok {
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], uint32(v))
				a.data = append(a.data, b[:]...)
			} else if base, add, ok := parseLabelExpr(f); ok {
				a.dataRefs = append(a.dataRefs, dataRef{n, uint32(len(a.data)), base, add})
				a.data = append(a.data, 0, 0, 0, 0)
			} else {
				a.errorf(n, "bad .word operand %q", f)
			}
		}
	case ".byte":
		if a.sec != secData {
			a.errorf(n, ".byte only allowed in .data")
			return
		}
		for _, f := range splitOperands(rest) {
			v, ok := a.parseInt(n, f)
			if !ok {
				return
			}
			if v < -128 || v > 255 {
				a.errorf(n, ".byte value %d out of range", v)
				return
			}
			a.data = append(a.data, byte(v))
		}
	case ".space":
		if a.sec != secData {
			a.errorf(n, ".space only allowed in .data")
			return
		}
		v, ok := a.parseInt(n, rest)
		if !ok {
			return
		}
		if v < 0 || v > 64<<20 {
			a.errorf(n, ".space size %d out of range", v)
			return
		}
		// Bound the running total, not just each directive: unchecked
		// growth makes repeated .space lines quadratic in allocation.
		if int64(len(a.data))+v > 64<<20 {
			a.errorf(n, ".space grows data section past 64 MiB (already %d bytes)", len(a.data))
			return
		}
		a.data = append(a.data, make([]byte, v)...)
	case ".ascii":
		if a.sec != secData {
			a.errorf(n, ".ascii only allowed in .data")
			return
		}
		v, err := strconv.Unquote(rest)
		if err != nil {
			a.errorf(n, ".ascii wants a quoted string: %v", err)
			return
		}
		a.data = append(a.data, v...)
	case ".align":
		if a.sec != secData {
			a.errorf(n, ".align only allowed in .data")
			return
		}
		v, ok := a.parseInt(n, rest)
		if !ok {
			return
		}
		if v <= 0 || v > 4096 || v&(v-1) != 0 {
			a.errorf(n, ".align wants a power of two in (0,4096], got %d", v)
			return
		}
		for uint32(len(a.data))%uint32(v) != 0 {
			a.data = append(a.data, 0)
		}
	default:
		a.errorf(n, "unknown directive %s", name)
	}
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseLabelExpr parses "label" or "label+N" / "label-N".
func parseLabelExpr(s string) (base string, add int32, ok bool) {
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			v, err := strconv.ParseInt(s[i:], 0, 32)
			if err != nil {
				return "", 0, false
			}
			base = strings.TrimSpace(s[:i])
			if !isIdent(base) {
				return "", 0, false
			}
			return base, int32(v), true
		}
	}
	if !isIdent(s) {
		return "", 0, false
	}
	return s, 0, true
}

func (a *assembler) parseInt(n int, s string) (int64, bool) {
	v, ok := a.tryParseInt(s)
	if !ok {
		a.errorf(n, "bad integer %q", s)
	}
	return v, ok
}

func (a *assembler) tryParseInt(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		r, _, _, err := strconv.UnquoteChar(s[1:len(s)-1], '\'')
		if err != nil {
			return 0, false
		}
		return int64(r), true
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
