// Sdtdbg single-steps a guest program on the reference machine, printing a
// disassembled trace with register effects — the debugging companion to
// sdtrun. Traces can start at a symbol, follow only control flow, and stop
// after a step budget.
//
// Usage:
//
//	sdtdbg [-w workload | prog.s|prog.img] [flags]
//
//	-from sym    start tracing when pc first reaches the symbol
//	-steps n     trace at most n instructions (default 200)
//	-cf          trace only control-flow instructions
//	-regs        dump all registers at every traced step
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sdt/internal/hostarch"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/program"
	"sdt/internal/workload"
)

func main() {
	wl := flag.String("w", "", "built-in workload name")
	scale := flag.Int("scale", 0, "workload scale (0 = default)")
	from := flag.String("from", "", "start tracing at this symbol")
	steps := flag.Uint64("steps", 200, "maximum traced instructions")
	cfOnly := flag.Bool("cf", false, "trace only control-flow instructions")
	dumpRegs := flag.Bool("regs", false, "dump registers at each traced step")
	limit := flag.Uint64("limit", 100_000_000, "hard instruction budget")
	flag.Parse()

	img, err := workload.Load(*wl, *scale, flag.Args())
	if err != nil {
		fatal(err)
	}
	m, err := machine.New(img, hostarch.X86())
	if err != nil {
		fatal(err)
	}

	startAt := uint32(0)
	if *from != "" {
		addr, ok := img.Symbols[*from]
		if !ok {
			fatal(fmt.Errorf("symbol %q not found", *from))
		}
		startAt = addr
	}

	syms := symbolIndex(img)
	tracing := *from == ""
	traced := uint64(0)
	var prev [isa.NumRegs]uint32

	for !m.State.Halted && m.State.Instret < *limit && traced < *steps {
		pc := m.State.PC
		if !tracing && pc == startAt {
			tracing = true
			fmt.Printf("--- reached %s (%#x) after %d instructions ---\n", *from, pc, m.State.Instret)
		}
		in, err := m.FetchDecoded(pc)
		if err != nil {
			fatal(err)
		}
		copy(prev[:], m.State.Regs[:])
		if err := m.Step(); err != nil {
			fatal(err)
		}
		if !tracing || (*cfOnly && !in.Op.IsControl()) {
			continue
		}
		traced++
		loc := syms.locate(pc)
		fmt.Printf("%8d  %08x %-18s %-28s", m.State.Instret, pc, loc, in.String())
		// Report changed registers.
		var changes []string
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if m.State.Regs[r] != prev[r] {
				changes = append(changes, fmt.Sprintf("%s=%#x", isa.RegName(r), m.State.Regs[r]))
			}
		}
		if in.Op.IsControl() && m.State.PC != pc+isa.WordSize {
			changes = append(changes, fmt.Sprintf("-> %s", syms.locate(m.State.PC)))
		}
		if len(changes) > 0 {
			fmt.Printf("  ; %s", strings.Join(changes, " "))
		}
		fmt.Println()
		if *dumpRegs {
			dump(m.State)
		}
	}

	r := m.Result()
	fmt.Printf("\nstopped: halted=%v instret=%d cycles=%d outputs=%d checksum=%#x\n",
		m.State.Halted, r.Instret, r.Cycles, r.OutCount, r.Checksum)
}

type symIndex struct {
	addrs []uint32
	names []string
}

func symbolIndex(img *program.Image) *symIndex {
	idx := &symIndex{}
	type pair struct {
		a uint32
		n string
	}
	var ps []pair
	for n, a := range img.Symbols {
		if a >= program.CodeBase && a < img.CodeEnd() {
			ps = append(ps, pair{a, n})
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].a < ps[j].a })
	for _, p := range ps {
		idx.addrs = append(idx.addrs, p.a)
		idx.names = append(idx.names, p.n)
	}
	return idx
}

// locate names an address as sym+off.
func (s *symIndex) locate(addr uint32) string {
	i := sort.Search(len(s.addrs), func(i int) bool { return s.addrs[i] > addr })
	if i == 0 {
		return fmt.Sprintf("%#x", addr)
	}
	base, name := s.addrs[i-1], s.names[i-1]
	if base == addr {
		return name
	}
	return fmt.Sprintf("%s+%d", name, addr-base)
}

func dump(st *machine.State) {
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		fmt.Printf("  %5s=%08x", isa.RegName(r), st.Regs[r])
		if (r+1)%8 == 0 {
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdtdbg:", err)
	os.Exit(1)
}
