package bench

import (
	"fmt"
	"io"
	"math"
	"slices"

	"sdt/internal/core"
	"sdt/internal/ib"
	"sdt/internal/textplot"
)

// Extension experiments beyond the paper's figures: the configuration
// dimensions the abstract's "appropriate choice and configuration" framing
// opens, exercised on the same apparatus. Registered after E12.

func init() {
	Experiments = append(Experiments,
		Experiment{"E13", "Fragment cache pressure", "flush-policy discussion (extension)", runE13},
		Experiment{"E15", "IBTC organization: associativity & hash", "IBTC configuration discussion (extension)", runE15},
		Experiment{"E16", "Trace formation with IB guards", "Dynamo/Strata trace mode (extension)", runE16},
		Experiment{"E17", "Per-kind cost attribution", "which IB kind buys what (extension)", runE17},
		Experiment{"E18", "Adaptive per-site mechanism selection", "online mechanism choice vs every static pick (extension)", runE18},
	)
}

// ---- E18: adaptive per-site selection ----------------------------------------

// runE18 races the adaptive mechanism (per-site inline -> IBTC -> sieve
// promotion with online re-translation) against the best static
// configuration of every mechanism family, on every host model. Two claims
// are under test: on the IB-heavy workloads the adaptive pick should match
// or beat the best static choice without knowing it in advance, and on the
// monomorphic workloads the exploration cost (the per-promotion
// re-translation charge) should stay in the noise.
func runE18(r *Runner, w io.Writer) error {
	specs := append([]string{SpecAdaptive}, BestSpecs...)
	names := []string{"adaptive", "naive", "ibtc", "inline+ibtc", "sieve", "fastret+ibtc", "retcache+ibtc"}
	var heavy []string
	for _, wl := range r.suite() {
		if slices.Contains(ibHeavy, wl) {
			heavy = append(heavy, wl)
		}
	}
	for _, arch := range []string{"x86", "sparc", "arm"} {
		rows, _, err := r.slowdownTable(r.suite(), arch, specs, "geomean")
		if err != nil {
			return err
		}
		heavyRows, heavyGeo, err := r.slowdownTable(heavy, arch, specs, "geomean(ib-heavy)")
		if err != nil {
			return err
		}
		for i, wl := range r.suite() {
			res, err := r.Run(wl, arch, SpecAdaptive)
			if err != nil {
				return err
			}
			rows[i] = append(rows[i],
				fmt.Sprintf("%d", res.Prof.AdaptPromotions),
				fmt.Sprintf("%d", res.Prof.AdaptDemotions))
		}
		rows = append(rows, heavyRows[len(heavy)])
		for i := len(r.suite()); i < len(rows); i++ {
			rows[i] = append(rows[i], "-", "-")
		}
		fmt.Fprintf(w, "adaptive vs best static configuration of each mechanism (%s):\n", arch)
		textplot.Table(w, append(append([]string{"workload"}, names...), "promo", "demo"), rows)

		// The one-line verdict: adaptive against the best static LOOKUP
		// mechanism, judged on the IB-heavy subset where the choice
		// matters. fastret+ibtc is reported separately — fast returns are
		// a translation policy that sacrifices return-address
		// transparency, so it is not a pick the per-site selector could
		// have made.
		fastRet := slices.Index(specs, SpecFastRet)
		bestName, best := "", math.Inf(1)
		for i := 1; i < len(specs); i++ {
			if i != fastRet && heavyGeo[i] < best {
				bestName, best = names[i], heavyGeo[i]
			}
		}
		ad := heavyGeo[0]
		verdict := "matches"
		switch {
		case ad < best-0.005:
			verdict = "beats"
		case ad > best+0.005:
			verdict = "trails"
		}
		fmt.Fprintf(w, "\n%s, ib-heavy: adaptive %.2fx %s best static lookup %s (%.2fx); fastret+ibtc %.2fx (transparency-sacrificing)\n\n",
			arch, ad, verdict, bestName, best, heavyGeo[fastRet])
	}
	fmt.Fprintln(w, "(promo/demo columns are the adaptive run's tier changes on that\n workload; each one re-translates a single owning fragment in place)")
	return nil
}

// ---- E17: per-kind attribution ----------------------------------------------

// runE17 fixes the naive translator on all indirect-branch kinds except
// one, which gets the full IBTC: the slowdown recovered by each column
// attributes the naive overhead to that kind. The rightmost columns are
// the all-naive and all-IBTC anchors.
func runE17(r *Runner, w io.Writer) error {
	type column struct {
		name string
		mk   func() core.IBHandler
	}
	fast := func() core.IBHandler { return ib.NewIBTC(ib.IBTCConfig{Entries: 16384}) }
	slow := func() core.IBHandler { return ib.NewTranslator() }
	cols := []column{
		{"returns-only", func() core.IBHandler { return ib.NewPerKind(fast(), slow(), slow()) }},
		{"ijumps-only", func() core.IBHandler { return ib.NewPerKind(slow(), fast(), slow()) }},
		{"icalls-only", func() core.IBHandler { return ib.NewPerKind(slow(), slow(), fast()) }},
	}
	if err := r.grid(r.suite(), []string{"x86"}, []string{SpecNaive, SpecIBTC}); err != nil {
		return err
	}
	headers := []string{"workload", "naive"}
	for _, c := range cols {
		headers = append(headers, c.name)
	}
	headers = append(headers, "all-ibtc")
	var rows [][]string
	geos := make([][]float64, len(cols)+2)
	for _, wl := range r.suite() {
		naive, err := r.Run(wl, "x86", SpecNaive)
		if err != nil {
			return err
		}
		row := []string{wl, fmtF(naive.Slowdown()) + "x"}
		geos[0] = append(geos[0], naive.Slowdown())
		for i, c := range cols {
			res, err := r.RunWithHandler(wl, "x86", c.name, c.mk)
			if err != nil {
				return err
			}
			row = append(row, fmtF(res.Slowdown())+"x")
			geos[i+1] = append(geos[i+1], res.Slowdown())
		}
		all, err := r.Run(wl, "x86", SpecIBTC)
		if err != nil {
			return err
		}
		row = append(row, fmtF(all.Slowdown())+"x")
		geos[len(cols)+1] = append(geos[len(cols)+1], all.Slowdown())
		rows = append(rows, row)
	}
	grow := []string{"geomean"}
	for _, g := range geos {
		grow = append(grow, fmtF(Geomean(g))+"x")
	}
	rows = append(rows, grow)
	fmt.Fprintln(w, "slowdown when only ONE IB kind gets the IBTC (others stay naive), x86:")
	textplot.Table(w, headers, rows)
	fmt.Fprintln(w, "\n(the kind whose column recovers most of the naive gap is the kind that\n was costing the program — returns, for most of the suite)")
	return nil
}

// ---- E16: traces ---------------------------------------------------------------

func runE16(r *Runner, w io.Writer) error {
	traced := "trace+" + SpecIBTC
	rows, _, err := r.slowdownTable(r.suite(), "x86", []string{SpecIBTC, traced, SpecFastRet}, "geomean")
	if err != nil {
		return err
	}
	for i, wl := range r.suite() {
		tr, err := r.Run(wl, "x86", traced)
		if err != nil {
			return err
		}
		guardRate := 0.0
		if tot := tr.Prof.TraceGuardHits + tr.Prof.TraceGuardMisses; tot > 0 {
			guardRate = 100 * float64(tr.Prof.TraceGuardHits) / float64(tot)
		}
		rows[i] = append(rows[i], fmt.Sprintf("%.1f", guardRate), fmt.Sprintf("%d", tr.Prof.TracesFormed))
	}
	rows[len(rows)-1] = append(rows[len(rows)-1], "-", "-")
	fmt.Fprintln(w, "NET-style traces with speculative IB guards (x86):")
	textplot.Table(w, []string{"workload", "ibtc", "trace+ibtc", "fastret+ibtc", "guard hit%", "traces"}, rows)
	fmt.Fprintln(w, "\n(a trace guard turns an on-trace monomorphic IB into one compare,\n buying part of fast returns' win without sacrificing transparency)")
	return nil
}

// ---- E13: fragment cache size sweep -----------------------------------------

var cacheSizes = []uint32{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 1 << 20}

func runE13(r *Runner, w io.Writer) error {
	// micro.bigcode's ~40 KiB translated footprint does not fit small
	// caches, forcing repeated flushes that also discard all mechanism
	// state; the SPEC-shaped workloads fit comfortably (their static
	// code is small), which is itself a finding worth a row.
	wls := []string{"micro.bigcode", "gcc"}
	xs := make([]string, len(cacheSizes))
	for i, n := range cacheSizes {
		xs[i] = fmt.Sprintf("%dK", n>>10)
	}
	var series []textplot.NamedSeries
	for _, wl := range wls {
		vals := make([]float64, len(cacheSizes))
		flushes := make([]uint64, len(cacheSizes))
		for i, n := range cacheSizes {
			n := n
			res, err := r.RunWithOptions(wl, "x86", SpecIBTC, func(o *core.Options) {
				o.CacheBytes = n
			})
			if err != nil {
				return err
			}
			vals[i] = res.Slowdown()
			flushes[i] = res.Prof.Flushes
		}
		series = append(series, textplot.NamedSeries{Name: wl, Values: vals})
		fmt.Fprintf(w, "%s flushes per run: %v\n", wl, flushes)
	}
	fmt.Fprintln(w)
	textplot.Series(w, "slowdown vs fragment cache capacity (ibtc:16384, x86)", "capacity", xs, series, "x")
	fmt.Fprintln(w, "\n(each flush discards fragments, links and all mechanism state)")
	return nil
}

// ---- E15: IBTC organization ----------------------------------------------------

func runE15(r *Runner, w io.Writer) error {
	specs := []string{"ibtc:16", "ibtc:16:4way", "ibtc:16:fib", "ibtc:256", "ibtc:256:4way", "ibtc:16384"}
	rows, _, err := r.slowdownTable(ibHeavy, "x86", specs, "geomean")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "IBTC organization at fixed capacity (x86, IB-heavy subset):")
	textplot.Table(w, append([]string{"workload"}, specs...), rows)
	fmt.Fprintln(w, "\n(associativity and hash quality matter only near the capacity knee;\n a big direct-mapped table dominates both, which is why SDTs ship one)")
	return nil
}
