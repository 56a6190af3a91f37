// Package workload generates the guest programs the experiments run: one
// deterministic stand-in per SPEC CPU2000 integer benchmark, shaped to
// match the published indirect-branch character of its namesake, plus
// microbenchmarks for targeted sweeps.
//
// SPEC CPU2000 itself is proprietary and its binaries target real ISAs, so
// the reproduction substitutes synthetic programs (see DESIGN.md). What the
// paper's experiments actually depend on is each benchmark's dynamic
// control-flow mix — how often it executes returns, indirect jumps and
// indirect calls, how many distinct targets each site sees, and how much
// code it touches. Each generator here reproduces that mix:
//
//	name      modeled after            IB character
//	----      -------------            ------------
//	gzip      compression              few IBs; tight loops, leaf calls
//	vpr       place & route            moderate returns, small switches
//	gcc       optimizing compiler      ijump-heavy (big switches) + calls
//	mcf       network simplex          IB-sparse, D-cache-hostile walks
//	crafty    chess search             recursion + switches, mixed IBs
//	parser    link grammar parser      returns-heavy deep recursion
//	eon       C++ ray tracer           icall-heavy (virtual dispatch)
//	perlbmk   perl interpreter         ijump-dominant dispatch loop
//	gap       group theory system      interpreter + function table icalls
//	vortex    OO database              returns-dominant, call-dense
//	bzip2     block-sort compression   recursion bursts, few ijumps
//	twolf     simulated annealing      branchy loops, leaf calls
//
// Every workload self-checks: it accumulates a checksum in r27 and OUTs it
// before halting, so any semantic divergence between native and translated
// execution changes the output stream.
package workload

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"sdt/internal/asm"
	"sdt/internal/program"
)

// Spec describes one workload generator.
type Spec struct {
	// Name is the short identifier used by CLIs and benchmarks.
	Name string
	// Model names the SPEC CPU2000 benchmark this workload is shaped
	// after.
	Model string
	// IBClass summarizes the indirect-branch character.
	IBClass string
	// DefaultScale is the iteration parameter giving a run long enough to
	// amortize translation (roughly 1-5M guest instructions).
	DefaultScale int
	// Gen produces the assembly source at a given scale.
	Gen func(scale int) string
}

// ScaledDown returns DefaultScale reduced by div for quick runs, clamped
// so the result can never reach 0. The clamp matters: Generate and Image
// interpret scale 0 as "use the full DefaultScale", so an unclamped
// DefaultScale/div with a large divisor would silently select the
// *largest* run — the opposite of what the divisor asks for. The floor is
// 2 rather than 1 because several generators degenerate at scale 1 (empty
// dispatch tables, zero-iteration loops).
func (s *Spec) ScaledDown(div int) int {
	if div <= 1 {
		return s.DefaultScale
	}
	scale := s.DefaultScale / div
	if scale < 2 {
		scale = 2
	}
	return scale
}

// Generate returns the workload's assembly source at scale (0 selects
// DefaultScale).
func (s *Spec) Generate(scale int) string {
	if scale <= 0 {
		scale = s.DefaultScale
	}
	return s.Gen(scale)
}

// Image assembles the workload at scale (0 selects DefaultScale).
func (s *Spec) Image(scale int) (*program.Image, error) {
	img, err := asm.Assemble(s.Name+".s", s.Generate(scale))
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	img.Name = s.Name
	return img, nil
}

// Load returns the guest image a command line names: the built-in
// workload name at scale when name is set, otherwise the one program file
// in args, assembled when it ends in ".s" and read as a serialized image
// otherwise.
func Load(name string, scale int, args []string) (*program.Image, error) {
	switch {
	case name != "":
		s, err := Get(name)
		if err != nil {
			return nil, err
		}
		return s.Image(scale)
	case len(args) == 1 && strings.HasSuffix(args[0], ".s"):
		src, err := os.ReadFile(args[0])
		if err != nil {
			return nil, err
		}
		return asm.Assemble(args[0], string(src))
	case len(args) == 1:
		f, err := os.Open(args[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return program.Read(f)
	}
	return nil, fmt.Errorf("no program: give -w workload or one prog.s|prog.img argument")
}

var registry = map[string]*Spec{}

func register(s *Spec) *Spec {
	if _, dup := registry[s.Name]; dup {
		panic("workload: duplicate " + s.Name)
	}
	registry[s.Name] = s
	return s
}

// Names returns all workload names, SPEC suite first (in conventional
// order), then microbenchmarks, each group alphabetical.
func Names() []string {
	var spec, micro []string
	for name := range registry {
		if len(name) > 6 && name[:6] == "micro." {
			micro = append(micro, name)
		} else {
			spec = append(spec, name)
		}
	}
	sort.Strings(spec)
	sort.Strings(micro)
	return append(spec, micro...)
}

// SPECNames returns the names of the twelve SPECint-shaped workloads in
// conventional suite order.
func SPECNames() []string {
	return []string{"gzip", "vpr", "gcc", "mcf", "crafty", "parser",
		"eon", "perlbmk", "gap", "vortex", "bzip2", "twolf"}
}

// Get looks a workload up by name.
func Get(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	return s, nil
}

// gen is a small assembly-emitting helper shared by the generators.
type gen struct {
	b   []byte
	lbl int
}

func (g *gen) f(format string, args ...any) {
	g.b = append(g.b, fmt.Sprintf(format, args...)...)
	g.b = append(g.b, '\n')
}

func (g *gen) raw(s string) { g.b = append(g.b, s...); g.b = append(g.b, '\n') }

func (g *gen) String() string { return string(g.b) }

// label returns a fresh unique label with the given stem.
func (g *gen) label(stem string) string {
	g.lbl++
	return fmt.Sprintf("%s_%d", stem, g.lbl)
}

// lcg emits the shared pseudo-random step: seed register r25 advances by a
// 32-bit LCG; the caller reads bits out of r25. Clobbers r1.
func (g *gen) lcg() {
	g.raw("\tli r1, 1103515245")
	g.raw("\tmul r25, r25, r1")
	g.raw("\taddi r25, r25, 12345")
}

// mix folds a register into the checksum register r27. Clobbers r1.
func (g *gen) mix(reg string) {
	g.f("\tslli r1, r27, 5")
	g.f("\tadd r27, r27, r1")
	g.f("\txor r27, r27, %s", reg)
}

// epilogue emits the checksum OUT and halt.
func (g *gen) epilogue() {
	g.raw("\tout r27")
	g.raw("\thalt")
}
