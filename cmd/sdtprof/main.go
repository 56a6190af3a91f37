// Sdtprof characterizes a guest program's indirect-branch behaviour: the
// per-kind dynamic counts the paper's first table reports, plus per-site
// target-set statistics that explain how each mechanism will behave (an
// IBTC cares about total live targets; inline caches care about targets per
// site; fast returns care about call-depth discipline).
//
// Usage:
//
//	sdtprof [-scale n] [-top n] -w gcc
//	sdtprof [-top n] prog.s|prog.img
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"sdt/internal/hostarch"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/program"
	"sdt/internal/textplot"
	"sdt/internal/workload"
)

func main() {
	wl := flag.String("w", "", "built-in workload name")
	scale := flag.Int("scale", 0, "workload scale (0 = default)")
	top := flag.Int("top", 10, "number of hottest IB sites to list")
	limit := flag.Uint64("limit", 0, "instruction budget (0 = default)")
	flag.Parse()

	img, err := workload.Load(*wl, *scale, flag.Args())
	if err != nil {
		fatal(err)
	}
	m, err := machine.New(img, hostarch.X86())
	if err != nil {
		fatal(err)
	}

	sites := map[uint32]*siteStat{}
	m.Trace = func(site, target uint32, kind isa.IBKind) {
		s := sites[site]
		if s == nil {
			s = &siteStat{site: site, kind: kind, targets: map[uint32]uint64{}}
			sites[site] = s
		}
		s.execs++
		s.targets[target]++
	}
	if err := m.Run(*limit); err != nil {
		fatal(err)
	}

	c := m.Counts
	fmt.Printf("%s: %d instructions\n\n", img.Name, c.Total)
	textplot.Table(os.Stdout,
		[]string{"kind", "dynamic count", "per 1k inst", "static sites"},
		[][]string{
			ibRow(c, sites, isa.IBReturn),
			ibRow(c, sites, isa.IBJump),
			ibRow(c, sites, isa.IBCall),
		})

	ordered := make([]*siteStat, 0, len(sites))
	for _, s := range sites {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].execs > ordered[j].execs })
	if len(ordered) > *top {
		ordered = ordered[:*top]
	}
	fmt.Printf("\nhottest indirect-branch sites:\n")
	var rows [][]string
	for _, s := range ordered {
		name := fmt.Sprintf("%#x", s.site)
		if sym, ok := nearestSymbol(img, s.site); ok {
			name += " (" + sym + ")"
		}
		rows = append(rows, []string{
			name, s.kind.String(),
			fmt.Sprintf("%d", s.execs),
			fmt.Sprintf("%d", len(s.targets)),
			fmt.Sprintf("%.1f%%", 100*topShare(s.targets, s.execs)),
		})
	}
	textplot.Table(os.Stdout, []string{"site", "kind", "execs", "targets", "top-target share"}, rows)
}

type siteStat struct {
	site    uint32
	kind    isa.IBKind
	execs   uint64
	targets map[uint32]uint64
}

func ibRow(c machine.Counts, sites map[uint32]*siteStat, kind isa.IBKind) []string {
	static := 0
	for _, s := range sites {
		if s.kind == kind {
			static++
		}
	}
	per1k := 0.0
	if c.Total > 0 {
		per1k = 1000 * float64(c.IB[kind]) / float64(c.Total)
	}
	return []string{kind.String(),
		fmt.Sprintf("%d", c.IB[kind]),
		fmt.Sprintf("%.2f", per1k),
		fmt.Sprintf("%d", static)}
}

func nearestSymbol(img *program.Image, addr uint32) (string, bool) {
	bestName, bestAddr := "", uint32(0)
	for name, a := range img.Symbols {
		if a <= addr && a >= bestAddr && a >= program.CodeBase {
			bestName, bestAddr = name, a
		}
	}
	if bestName == "" {
		return "", false
	}
	if bestAddr == addr {
		return bestName, true
	}
	return fmt.Sprintf("%s+%d", bestName, addr-bestAddr), true
}

func topShare(targets map[uint32]uint64, total uint64) float64 {
	var top uint64
	for _, n := range targets {
		if n > top {
			top = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdtprof:", err)
	os.Exit(1)
}
