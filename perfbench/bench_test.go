package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/machine"
	"sdt/internal/service"
	"sdt/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 10, 11, 19} {
		if v, p, ok := tail(seq(n)); ok {
			t.Errorf("n=%d: got tail p%g=%g, want none", n, p, v)
		}
	}
	for _, c := range []struct {
		n       int
		pct, at float64
	}{
		{20, 50, 10},
		{99, 50, 50},
		{100, 90, 90},
		{999, 90, 900},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		v, p, ok := tail(seq(c.n))
		if !ok || p != c.pct || v != c.at {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g", c.n, p, v, ok, c.pct, c.at)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func TestBestOfK(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		var ds []time.Duration
		for _, x := range xs {
			ds = append(ds, time.Duration(x)*time.Millisecond)
		}
		return ds
	}
	// Pass 1 ran at half speed. The third repeat of the first operation is
	// a partial round: it must not give that operation an extra chance.
	pass := func(kt time.Duration) []time.Duration { return []time.Duration{kt, kt, kt} }
	kernel := [][]time.Duration{pass(calibRef), pass(2 * calibRef), pass(calibRef)}
	best, k := bestOfK([][]time.Duration{ms(3, 2, 1), ms(5, 4), ms(7, 9)}, kernel)
	// The minimum is over raw times; only the chosen repeat is scaled. The
	// third operation keeps its 7 ms although 9 ms in the slow pass would
	// scale to 4.5 ms.
	if k != 2 || !reflect.DeepEqual(best, ms(1, 2, 7)) {
		t.Fatalf("got %v k=%d, want [1ms 2ms 7ms] k=2", best, k)
	}
	if best, k := bestOfK(nil, kernel); best != nil || k != 0 {
		t.Fatalf("empty input: got %v k=%d", best, k)
	}
}

func TestMetricNameValidation(t *testing.T) {
	var r report
	for _, ok := range []string{"latency_ms", "core.ns_per_inst.x86", "a-b", "9lives", strings.Repeat("a", 64)} {
		if err := r.add(metric{Name: ok, Value: 1}); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "bad name", "x/y", "_lead", ".lead", "tab\t", strings.Repeat("a", 65), "latency_ms"} {
		if err := r.add(metric{Name: bad, Value: 1}); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestSeedFixesSequences(t *testing.T) {
	if !reflect.DeepEqual(simCells(7), simCells(7)) {
		t.Error("sim: same seed, different cell order")
	}
	if reflect.DeepEqual(simCells(7), simCells(8)) {
		t.Error("sim: different seeds, same cell order")
	}
	serveSeq := func(seed uint64) []serveReq {
		g := newServeGen(seed, 13)
		var rs []serveReq
		for i := 0; i < 500; i++ {
			rs = append(rs, g.next())
		}
		return rs
	}
	a, b, c := serveSeq(7), serveSeq(7), serveSeq(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("serve: same seed, different request sequence")
	}
	fresh := map[uint64]bool{}
	misses := 0
	for _, r := range a {
		if r.miss {
			misses++
			if fresh[r.seed] {
				t.Errorf("serve: fresh key %d repeats within a run", r.seed)
			}
			fresh[r.seed] = true
		}
	}
	if want := 500 / serveMissEvery; misses < want || misses > want+1 {
		t.Errorf("serve: %d misses in 500 requests, want %d or %d", misses, want, want+1)
	}
	for _, r := range c {
		if r.miss && fresh[r.seed] {
			t.Errorf("serve: seeds 7 and 8 share fresh key %d", r.seed)
		}
		if !r.miss && r.seed == a[0].seed {
			t.Error("serve: seeds 7 and 8 share the hit-set keys")
		}
	}

	fleetSeq := func(seed uint64) (ops []int, sweeps []service.SweepRequest) {
		g := newFleetGen(seed)
		for i := 0; i < 80; i++ {
			op, req := g.next(seed)
			ops = append(ops, op)
			sweeps = append(sweeps, req)
		}
		return ops, sweeps
	}
	o1, s1 := fleetSeq(7)
	o2, s2 := fleetSeq(7)
	o3, s3 := fleetSeq(8)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(s1, s2) {
		t.Error("fleet: same seed, different request sequence")
	}
	if reflect.DeepEqual(o1, o3) {
		t.Error("fleet: different seeds, same request order")
	}
	keys := map[string]bool{}
	for i, op := range o1 {
		if op == opFresh {
			keys[fmt.Sprint(s1[i].Seed, s1[i].ID)] = true
		}
	}
	for i, op := range o3 {
		if op == opFresh && keys[fmt.Sprint(s3[i].Seed, s3[i].ID)] {
			t.Error("fleet: seeds 7 and 8 share a fresh sweep")
		}
	}
}

// The decorator must answer core's CallObserver assertion exactly as the
// handler it wraps does, or core would skip or invent OnCall callbacks.
func TestTimedHandlerKeepsCallObserver(t *testing.T) {
	for _, spec := range append(simMechs, "retcache:16384+ibtc:16384") {
		cfg, err := ib.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, want := cfg.Handler.(core.CallObserver)
		_, got := (&timedHandler{IBHandler: cfg.Handler}).wrap().(core.CallObserver)
		if got != want {
			t.Errorf("%s: wrapped CallObserver=%v, handler's=%v", spec, got, want)
		}
	}
}

// Tracing must leave every simulated count unchanged.
func TestTracedCellMatchesUntraced(t *testing.T) {
	spec, err := workload.Get("gap")
	if err != nil {
		t.Fatal(err)
	}
	img, err := spec.Image(spec.ScaledDown(20))
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range simMechs {
		plain, err := runSDT(img, hostarch.ARM(), mech, nil)
		if err != nil {
			t.Fatal(err)
		}
		hk := &sdtHooks{}
		traced, err := runSDT(img, hostarch.ARM(), mech, hk)
		if err != nil {
			t.Fatal(err)
		}
		if plain != traced {
			t.Errorf("%s: traced %+v, untraced %+v", mech, traced, plain)
		}
		if hk.handler.calls == 0 || hk.runT <= 0 {
			t.Errorf("%s: traced run recorded nothing", mech)
		}
	}
}

func TestSimCheckCountsCorruptCells(t *testing.T) {
	cells := []simCell{{"gzip", "x86", ""}, {"gzip", "x86", "ibtc:16384"}, {"gcc", "arm", ""}, {"gcc", "arm", "sieve:16384"}}
	good := func() [][]simCounts {
		n := machine.Result{Checksum: 0xabc, Instret: 100, Cycles: 300}
		s := machine.Result{Checksum: 0xabc, Instret: 100, Cycles: 900}
		n2 := machine.Result{Checksum: 0xdef, Instret: 50, Cycles: 70}
		s2 := machine.Result{Checksum: 0xdef, Instret: 50, Cycles: 170}
		return [][]simCounts{
			{{Result: n}, {Result: n}},
			{{Result: s, Translations: 5}, {Result: s, Translations: 5}},
			{{Result: n2}, {Result: n2}},
			{{Result: s2}, {Result: s2}},
		}
	}
	if failed, msgs := checkSimCells(cells, good()); failed != 0 {
		t.Fatalf("clean runs failed: %v", msgs)
	}
	corrupt := []func(r [][]simCounts){
		func(r [][]simCounts) { r[1][0].Result.Checksum++ },     // SDT checksum != native
		func(r [][]simCounts) { r[3][1].Result.Instret++ },      // a repeat disagrees on instret
		func(r [][]simCounts) { r[1][1].Result.Cycles++ },       // sim_cycles does not repeat
		func(r [][]simCounts) { r[3][1].TranslatorEntries = 9 }, // a count does not repeat
	}
	for i, c := range corrupt {
		r := good()
		c(r)
		if failed, _ := checkSimCells(cells, r); failed != 1 {
			t.Errorf("corruption %d: %d failed cells, want 1", i, failed)
		}
	}
}

func TestServeCheckCountsCorruptReplies(t *testing.T) {
	p := &serveProg{name: "p", checksum: 0x1234, instret: 77}
	sum := service.ExecSummary{Checksum: fmt.Sprintf("0x%016x", p.checksum), Instret: p.instret}
	body := func(cached bool, s service.ExecSummary) []byte {
		b, err := json.Marshal(map[string]any{"cached": cached, "result": map[string]any{"native": sum, "sdt": s}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := checkRun(http.StatusOK, body(true, sum), true, p); err != nil {
		t.Fatalf("clean reply rejected: %v", err)
	}
	bad := sum
	bad.Checksum = "0x0"
	for name, c := range map[string]struct {
		status int
		body   []byte
		cached bool
		prog   *serveProg
	}{
		"status":   {http.StatusServiceUnavailable, body(true, sum), true, p},
		"body":     {http.StatusOK, []byte("{not json"), true, p},
		"cached":   {http.StatusOK, body(true, sum), false, p},
		"checksum": {http.StatusOK, body(true, bad), true, p},
		"expected": {http.StatusOK, body(true, sum), true, &serveProg{checksum: p.checksum + 1, instret: p.instret}},
	} {
		if _, err := checkRun(c.status, c.body, c.cached, c.prog); err == nil {
			t.Errorf("%s: corrupt reply accepted", name)
		}
	}
}

// End to end: a serve loop whose expected checksums are corrupted counts
// every request as failed.
func TestServeLoopCountsFailures(t *testing.T) {
	progs, err := servePrograms()
	if err != nil {
		t.Fatal(err)
	}
	env, err := serveSetup(config{seed: 3, dir: t.TempDir()}, progs, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	samples, failed, _ := env.serveLoop(300 * time.Millisecond)
	if failed != 0 || len(samples) == 0 {
		t.Fatalf("clean loop: %d ok, %d failed", len(samples), failed)
	}
	for i := range env.progs {
		env.progs[i].checksum ^= 1
	}
	samples, failed, _ = env.serveLoop(300 * time.Millisecond)
	if len(samples) != 0 || failed == 0 {
		t.Fatalf("corrupted expectations: %d ok, %d failed", len(samples), failed)
	}
}

func TestFleetCheckCountsCorruptStreams(t *testing.T) {
	cell := func(i int, wl string, result string) sweepRec {
		return sweepRec{Type: "cell", Index: i, Workload: wl, Arch: "x86", Mech: "ibtc:16384", Result: json.RawMessage(result)}
	}
	res := `{"key":"k1","seed":1,"native":{"checksum":"0x1","instret":5},"sdt":{"checksum":"0x1","instret":5},"profile":{"mech_hits":2}}`
	fresh := `{"key":"k2","seed":2,"native":{"checksum":"0x1","instret":5},"sdt":{"checksum":"0x1","instret":5},"profile":{"mech_hits":2}}`
	mk := func(r string) *sweepOut {
		return &sweepOut{canonical: []byte("stream\n"), cells: map[int]sweepRec{0: cell(0, "gzip", r)}, done: &sweepRec{Type: "done"}}
	}
	ref := mk(res)
	for op, out := range map[int]*sweepOut{opRepeat: mk(res), opSweep: mk(res), opFresh: mk(fresh)} {
		if err := checkSweep(op, out, 1, ref); err != nil {
			t.Fatalf("op %d: clean sweep rejected: %v", op, err)
		}
	}
	corrupt := map[string]struct {
		op  int
		mut func(o *sweepOut)
	}{
		"stream bytes":  {opRepeat, func(o *sweepOut) { o.canonical = []byte("stream!\n") }},
		"missing cell":  {opRepeat, func(o *sweepOut) { delete(o.cells, 0) }},
		"error record":  {opSweep, func(o *sweepOut) { o.recErrs = 1 }},
		"done errors":   {opSweep, func(o *sweepOut) { o.done.Errors = 1 }},
		"no done":       {opFresh, func(o *sweepOut) { o.done = nil }},
		"sweep result":  {opSweep, func(o *sweepOut) { o.cells[0] = cell(0, "gzip", strings.Replace(res, "k1", "k9", 1)) }},
		"fresh measure": {opFresh, func(o *sweepOut) { o.cells[0] = cell(0, "gzip", strings.Replace(fresh, "0x1", "0x2", 1)) }},
	}
	for name, c := range corrupt {
		out := mk(res)
		if c.op == opFresh {
			out = mk(fresh)
		}
		c.mut(out)
		if err := checkSweep(c.op, out, 1, ref); err == nil {
			t.Errorf("%s: corrupt sweep accepted", name)
		}
	}
}

// End to end: with a corrupted reference stream every repeat sweep fails.
func TestFleetLoopCountsFailures(t *testing.T) {
	env, err := fleetSetup(config{seed: 3, dir: t.TempDir()}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	samples, failed, _ := env.loop(500 * time.Millisecond)
	if failed != 0 || len(samples) == 0 {
		t.Fatalf("clean loop: %d ok, %d failed", len(samples), failed)
	}
	env.ref.canonical = append(env.ref.canonical, '\n')
	samples, failed, _ = env.loop(500 * time.Millisecond)
	for _, s := range samples {
		if s.op == opRepeat {
			t.Fatal("a repeat sweep passed against a corrupted reference stream")
		}
	}
	if failed == 0 {
		t.Fatal("no failures counted")
	}
}

func TestCPUSharesReducesByPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"sdt/internal/core.(*VM).execBody":   "core",
		"sdt/internal/cache.(*Cache).Access": "cache",
		"runtime.mallocgc":                   "runtime",
		"runtime/internal/atomic.Load":       "runtime",
		"sync.(*Mutex).Lock":                 "",
		"main.main":                          "",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
	spec, err := workload.Get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	img, err := spec.Image(0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		if _, err := runNative(img, hostarch.X86()); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, p := range sharePackages {
		total += shares[p]
	}
	if total > 1.0001 {
		t.Errorf("shares sum to %g", total)
	}
	if shares["machine"] <= 0 {
		t.Errorf("no machine share in a native run (%v)", shares)
	}
	// The native interpreter is the machine and cache packages.
	if s := shares["machine"] + shares["cache"]; !raceEnabled && s < 0.5 {
		t.Errorf("machine+cache share %g of a native run, want most of it (%v)", s, shares)
	}
}

func TestTopSharesSumsFlatByPackage(t *testing.T) {
	top := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 1000000000ns (100%)
Showing nodes accounting for 1000000000ns, 100% of 1000000000ns total
      flat  flat%   sum%        cum   cum%
400000000ns 40.00% 40.00% 900000000ns 90.00%  sdt/internal/machine.(*Machine).Step
250000000ns 25.00% 65.00% 250000000ns 25.00%  sdt/internal/cache.(*Cache).Access (inline)
100000000ns 10.00% 75.00% 150000000ns 15.00%  sdt/internal/machine.(*Machine).load
 50000000ns  5.00% 80.00%  50000000ns  5.00%  runtime.mallocgc
200000000ns 20.00%   100% 200000000ns 20.00%  main.main
         0     0%   100% 900000000ns 90.00%  sdt/internal/core.(*VM).Run
`
	shares, err := topShares(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"machine": 0.5, "cache": 0.25, "runtime": 0.05, "core": 0}
	for p, w := range want {
		if got := shares[p]; got != w {
			t.Errorf("%s share %g, want %g", p, got, w)
		}
	}
	if _, err := topShares("Showing nodes accounting for 0, 0% of 0 total\n"); err == nil {
		t.Error("an empty profile gave shares")
	}
}

// The request mixes are derived from the regeneration matrix's width.
func TestMixFollowsRegenerationMatrix(t *testing.T) {
	if regenColumns != len(simMechs) {
		t.Fatalf("regenColumns %d, matrix has %d mechanism columns", regenColumns, len(simMechs))
	}
	n := map[int]int{}
	for _, op := range fleetBlock {
		n[op]++
	}
	if n[opFresh] != 1 || n[opRepeat] != regenColumns-1 || n[opSweep] != regenColumns {
		t.Fatalf("fleet block %v", n)
	}
}

// Every full window counts, each scaled by the kernel times around it.
func TestWindowsAtRefSpeed(t *testing.T) {
	w := &windows{n: 2, kts: []time.Duration{2 * calibRef, 2 * calibRef, 2 * calibRef}}
	for range 2 {
		w.done = append(w.done, window{units: 10, dur: time.Second, lat: []float64{4, 6}})
	}
	rate, lat, err := w.atRefSpeed()
	if err != nil {
		t.Fatal(err)
	}
	if rate != 20 || !reflect.DeepEqual(lat, []float64{2, 3, 2, 3}) {
		t.Fatalf("rate %g lat %v, want 20 [2 3 2 3]", rate, lat)
	}
	if _, _, err := (&windows{n: 2}).atRefSpeed(); err == nil {
		t.Fatal("no windows gave a result")
	}
}
