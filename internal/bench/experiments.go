package bench

import (
	"fmt"
	"io"
	"sort"

	"sdt/internal/hostarch"
	"sdt/internal/isa"
	"sdt/internal/textplot"
	"sdt/internal/workload"
)

// Experiment is one regenerable table or figure from the paper's
// evaluation.
type Experiment struct {
	ID    string
	Title string
	// What the experiment corresponds to in the paper's narrative.
	Paper string
	Run   func(r *Runner, w io.Writer) error
}

// Experiments lists every experiment in presentation order.
var Experiments = []Experiment{
	{"E1", "Workload characterization", "IB frequency/kind table", runE1},
	{"E2", "Naive SDT overhead", "context-switch-per-IB overhead figure", runE2},
	{"E3", "IBTC size sweep", "IBTC sizing figure", runE3},
	{"E4", "Shared vs private IBTC", "IBTC sharing figure", runE4},
	{"E5", "Inline cache depth sweep", "inline-cache sizing figure", runE5},
	{"E6", "Sieve size sweep", "sieve sizing figure", runE6},
	{"E7", "Return handling", "fast returns / return cache figure", runE7},
	{"E8", "Best-of-each comparison (x86)", "headline x86 comparison figure", runE8},
	{"E9", "Best-of-each comparison (SPARC)", "cross-architecture comparison figure", runE9},
	{"E10", "Cycle breakdown", "where-the-time-goes table", runE10},
	{"E11", "Ablation: flags save/restore cost", "why inline compares hurt on x86", runE11},
	{"E12", "Ablation: dispatch-jump BTB locality", "shared vs per-site final jump", runE12},
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// RunAll executes every experiment in order.
func RunAll(r *Runner, w io.Writer) error {
	for _, e := range Experiments {
		if err := RunOne(r, w, e); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes one experiment with its banner.
func RunOne(r *Runner, w io.Writer, e Experiment) error {
	fmt.Fprintf(w, "\n=== %s: %s (paper: %s) ===\n\n", e.ID, e.Title, e.Paper)
	return e.Run(r, w)
}

// ibHeavy is the sweep subset: the workloads whose IB density makes the
// parameter choice visible.
var ibHeavy = []string{"gcc", "crafty", "eon", "perlbmk", "gap", "vortex"}

func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// slowdowns prefetches the grid wls × {arch} × specs and returns one
// series per workload, in wls order, of its slowdown under each spec,
// followed by the per-spec geomeans named label.
func (r *Runner) slowdowns(wls []string, arch string, specs []string, label string) ([]textplot.NamedSeries, error) {
	if err := r.grid(wls, []string{arch}, specs); err != nil {
		return nil, err
	}
	series := make([]textplot.NamedSeries, len(wls)+1)
	cols := make([][]float64, len(specs))
	for i, wl := range wls {
		series[i].Name = wl
		for j, spec := range specs {
			res, err := r.Run(wl, arch, spec)
			if err != nil {
				return nil, err
			}
			series[i].Values = append(series[i].Values, res.Slowdown())
			cols[j] = append(cols[j], res.Slowdown())
		}
	}
	gm := &series[len(wls)]
	gm.Name = label
	for _, col := range cols {
		gm.Values = append(gm.Values, Geomean(col))
	}
	return series, nil
}

// slowdownTable renders slowdowns as table rows, each a name followed by
// slowdowns ("1.23x"). It also returns the geomeans.
func (r *Runner) slowdownTable(wls []string, arch string, specs []string, label string) ([][]string, []float64, error) {
	series, err := r.slowdowns(wls, arch, specs, label)
	if err != nil {
		return nil, nil, err
	}
	rows := make([][]string, len(series))
	for i, s := range series {
		rows[i] = []string{s.Name}
		for _, v := range s.Values {
			rows[i] = append(rows[i], fmtF(v)+"x")
		}
	}
	return rows, series[len(wls)].Values, nil
}

// sweepFigure plots the x86 slowdown of each IB-heavy workload, and their
// geomean, against a mechanism parameter: the spec at each of params is
// format applied to it.
func (r *Runner) sweepFigure(w io.Writer, title, xlabel string, params []int, format string) error {
	xs := make([]string, len(params))
	specs := make([]string, len(params))
	for i, p := range params {
		xs[i] = fmt.Sprintf("%d", p)
		specs[i] = fmt.Sprintf(format, p)
	}
	series, err := r.slowdowns(ibHeavy, "x86", specs, "geomean")
	if err != nil {
		return err
	}
	textplot.Series(w, title, xlabel, xs, series, "x")
	return nil
}

// ---- E1: characterization -------------------------------------------------

func runE1(r *Runner, w io.Writer) error {
	if err := r.grid(r.suite(), []string{"x86"}, []string{gridNative}); err != nil {
		return err
	}
	headers := []string{"workload", "class", "inst(M)", "returns", "ijumps", "icalls", "IB/1k", "%ret"}
	var rows [][]string
	for _, wl := range r.suite() {
		res, err := r.Native(wl, "x86")
		if err != nil {
			return err
		}
		c := res.Counts
		total := c.IBTotal()
		pctRet := 0.0
		if total > 0 {
			pctRet = 100 * float64(c.IB[isa.IBReturn]) / float64(total)
		}
		spec, _ := r.workloadSpec(wl)
		rows = append(rows, []string{
			wl, spec,
			fmt.Sprintf("%.2f", float64(res.Native.Instret)/1e6),
			fmt.Sprintf("%d", c.IB[isa.IBReturn]),
			fmt.Sprintf("%d", c.IB[isa.IBJump]),
			fmt.Sprintf("%d", c.IB[isa.IBCall]),
			fmt.Sprintf("%.1f", c.IBPer1K()),
			fmt.Sprintf("%.0f%%", pctRet),
		})
	}
	textplot.Table(w, headers, rows)
	return nil
}

func (r *Runner) workloadSpec(wl string) (string, error) {
	s, err := workload.Get(wl)
	if err != nil {
		return "?", err
	}
	return s.IBClass, nil
}

// ---- E2: naive overhead ---------------------------------------------------

func runE2(r *Runner, w io.Writer) error {
	for _, arch := range []string{"x86", "sparc"} {
		series, err := r.slowdowns(r.suite(), arch, []string{SpecNaive}, "geomean")
		if err != nil {
			return err
		}
		labels := make([]string, len(series))
		vals := make([]float64, len(series))
		for i, s := range series {
			labels[i], vals[i] = s.Name, s.Values[0]
		}
		textplot.Bar(w, fmt.Sprintf("slowdown vs native, naive translator re-entry on every IB (%s)", arch), labels, vals, "x")
		fmt.Fprintln(w)
	}
	return nil
}

// ---- E3/E5/E6: parameter sweeps ------------------------------------------------

var (
	ibtcSizes    = []int{16, 64, 256, 1024, 4096, 16384, 65536}
	inlineDepths = []int{1, 2, 3, 4, 6, 8}
	sieveSizes   = []int{1, 4, 16, 64, 256, 1024, 16384}
)

func runE3(r *Runner, w io.Writer) error {
	return r.sweepFigure(w, "slowdown vs shared IBTC entries (x86)", "entries", ibtcSizes, "ibtc:%d")
}

func runE5(r *Runner, w io.Writer) error {
	return r.sweepFigure(w, "slowdown vs inline-cache depth, IBTC fallback (x86)", "depth", inlineDepths, "inline:%d+ibtc:16384")
}

func runE6(r *Runner, w io.Writer) error {
	return r.sweepFigure(w, "slowdown vs sieve buckets (x86)", "buckets", sieveSizes, "sieve:%d")
}

// ---- E4: shared vs private IBTC --------------------------------------------

func runE4(r *Runner, w io.Writer) error {
	specs := []string{"ibtc:16384", "ibtc:1024:private", "ibtc:64:private"}
	rows, _, err := r.slowdownTable(r.suite(), "x86", specs, "geomean")
	if err != nil {
		return err
	}
	textplot.Table(w, append([]string{"workload"}, specs...), rows)
	fmt.Fprintln(w, "\n(private tables trade capacity for isolation; the shared table wins once it is large enough)")
	return nil
}

// ---- E7: return handling ------------------------------------------------------

func runE7(r *Runner, w io.Writer) error {
	specs := []string{SpecIBTC, SpecRetCache, SpecFastRet}
	names := []string{"ibtc-returns", "return-cache", "fast-returns"}
	for _, arch := range []string{"x86", "sparc"} {
		rows, _, err := r.slowdownTable(r.suite(), arch, specs, "geomean")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "return-handling slowdowns (%s):\n", arch)
		textplot.Table(w, append([]string{"workload"}, names...), rows)
		fmt.Fprintln(w)
	}
	return nil
}

// ---- E8/E9: best-of-each comparison ---------------------------------------------

func bestOfEach(r *Runner, w io.Writer, arch string) error {
	rows, gms, err := r.slowdownTable(r.suite(), arch, BestSpecs, "geomean")
	if err != nil {
		return err
	}
	names := []string{"naive", "ibtc", "inline+ibtc", "sieve", "fastret+ibtc", "retcache+ibtc"}
	fmt.Fprintf(w, "slowdown vs native, best configuration of each mechanism (%s):\n", arch)
	textplot.Table(w, append([]string{"workload"}, names...), rows)

	// Ranking summary: the cross-architecture claim in one line.
	type rank struct {
		name string
		gm   float64
	}
	ranks := make([]rank, 0, len(names)-1)
	for i := 1; i < len(names); i++ { // skip naive
		ranks = append(ranks, rank{names[i], gms[i]})
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i].gm < ranks[j].gm })
	fmt.Fprintf(w, "\nranking on %s:", arch)
	for i, rk := range ranks {
		if i > 0 {
			fmt.Fprint(w, " <")
		}
		fmt.Fprintf(w, " %s(%.2fx)", rk.name, rk.gm)
	}
	fmt.Fprintln(w)
	return nil
}

func runE8(r *Runner, w io.Writer) error { return bestOfEach(r, w, "x86") }
func runE9(r *Runner, w io.Writer) error { return bestOfEach(r, w, "sparc") }

// ---- E10: cycle breakdown ----------------------------------------------------

func runE10(r *Runner, w io.Writer) error {
	if err := r.grid(r.suite(), []string{"x86"}, []string{SpecNaive, SpecIBTC}); err != nil {
		return err
	}
	for _, spec := range []string{SpecNaive, SpecIBTC} {
		headers := []string{"workload", "slowdown", "body%", "IB%", "ctx%", "trans%", "mech hit%"}
		var rows [][]string
		for _, wl := range r.suite() {
			res, err := r.Run(wl, "x86", spec)
			if err != nil {
				return err
			}
			b := res.Prof.Overhead(res.SDT.Cycles)
			rows = append(rows, []string{
				wl,
				fmtF(res.Slowdown()) + "x",
				fmt.Sprintf("%.1f", 100*b.Frac(b.Body)),
				fmt.Sprintf("%.1f", 100*b.Frac(b.IB)),
				fmt.Sprintf("%.1f", 100*b.Frac(b.Ctx)),
				fmt.Sprintf("%.1f", 100*b.Frac(b.Trans)),
				fmt.Sprintf("%.1f", 100*res.Prof.HitRate()),
			})
		}
		fmt.Fprintf(w, "cycle breakdown under %s (x86):\n", spec)
		textplot.Table(w, headers, rows)
		fmt.Fprintln(w)
	}
	return nil
}

// ---- E11: flags cost ablation ---------------------------------------------------

var flagsCosts = []int{0, 4, 8, 12, 16, 20}

func runE11(r *Runner, w io.Writer) error {
	xs := make([]string, len(flagsCosts))
	for i, c := range flagsCosts {
		xs[i] = fmt.Sprintf("%d", c)
	}
	var series []textplot.NamedSeries
	for _, mech := range []string{SpecIBTC, SpecSieve, SpecInline} {
		vals := make([]float64, len(flagsCosts))
		for i, c := range flagsCosts {
			var all []float64
			for _, wl := range ibHeavy {
				m := hostarch.X86()
				m.Name = fmt.Sprintf("x86-flags%d", c)
				m.FlagsSave, m.FlagsRestore = c, c
				res, err := r.RunWithModel(wl, mech, m)
				if err != nil {
					return err
				}
				all = append(all, res.Slowdown())
			}
			vals[i] = Geomean(all)
		}
		series = append(series, textplot.NamedSeries{Name: mech, Values: vals})
	}
	textplot.Series(w, "geomean slowdown vs flags save/restore cost (x86 base model, IB-heavy subset)",
		"flags cycles", xs, series, "x")
	fmt.Fprintln(w, "\n(x86 charges ~9/7 cycles; SPARC charges 0 — this sweep isolates why the ranking shifts)")
	return nil
}

// ---- E12: dispatch-jump locality ablation ------------------------------------------

func runE12(r *Runner, w io.Writer) error {
	specs := []string{"ibtc:16384", "ibtc:16384:sharedjump", SpecNaive}
	// The flat direct-mapped x86 BTB is the paper's setting; the arm
	// model's two-level set-associative BTB (with a repairing RAS) is the
	// predictor-fidelity cross-check: if the shared-jump penalty survives
	// a faithful multi-level organization, the conclusion is not an
	// artifact of the flat model.
	archs := []string{"x86", "arm"}
	if err := r.grid(r.suite(), archs, specs); err != nil {
		return err
	}
	headers := []string{"workload",
		"per-site jump", "BTB miss%",
		"shared jump", "BTB miss%",
		"naive (shared exit)", "BTB miss%"}
	for _, arch := range archs {
		var rows [][]string
		for _, wl := range r.suite() {
			row := []string{wl}
			for _, spec := range specs {
				res, err := r.Run(wl, arch, spec)
				if err != nil {
					return err
				}
				row = append(row, fmtF(res.Slowdown())+"x",
					fmt.Sprintf("%.1f", 100*res.BTBMissRate))
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(w, "[%s]\n", arch)
		textplot.Table(w, headers, rows)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(funneling all dispatches through one jump forfeits per-site BTB locality;")
	fmt.Fprintln(w, " the effect persists under arm's two-level set-associative BTB)")
	return nil
}
