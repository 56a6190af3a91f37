package bench

import (
	"math"
	"strings"
	"sync"
	"testing"

	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
)

// testRunner shrinks workloads hard so harness tests stay fast.
func testRunner() *Runner {
	r := NewRunner()
	r.ScaleDivisor = 50
	r.Workloads = []string{"gzip", "perlbmk", "vortex"}
	return r
}

func TestGeomean(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{1, 4}, 2},
		{[]float64{2, 0, 8}, 0}, // nonpositive input
		{[]float64{2, 2, 2}, 2},
	}
	for _, tt := range tests {
		if got := Geomean(tt.in); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestNativeMemoized(t *testing.T) {
	r := testRunner()
	a, err := r.Native("gzip", "x86")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Native("gzip", "x86")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Native is not memoized")
	}
	c, err := r.Native("gzip", "sparc")
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("memoization key must include the architecture")
	}
}

func TestRunVerifiesEquivalence(t *testing.T) {
	r := testRunner()
	res, err := r.Run("perlbmk", "x86", "ibtc:1024")
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown() <= 1 {
		t.Errorf("slowdown = %v, want > 1", res.Slowdown())
	}
	if res.SDT.Checksum != res.Native.Checksum {
		t.Error("Run returned diverged result")
	}
	again, err := r.Run("perlbmk", "x86", "ibtc:1024")
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Error("Run is not memoized")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	r := testRunner()
	if _, err := r.Run("nope", "x86", "ibtc:1024"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := r.Run("gzip", "vax", "ibtc:1024"); err == nil {
		t.Error("unknown arch accepted")
	}
	if _, err := r.Run("gzip", "x86", "warp"); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

// Every entry point goes through the one SDT measurement, so each must
// agree with Run where it configures the same run, predictor miss rates
// included, and move the result where it configures another.
func TestRunEntryPoints(t *testing.T) {
	const wl, spec = "perlbmk", "ibtc:1024"
	r := testRunner()
	stock, err := r.Run(wl, "x86", spec)
	if err != nil {
		t.Fatal(err)
	}
	if stock.BTBMissRate == 0 {
		t.Fatalf("Run(%s, x86, %s): BTB miss rate 0, want a measured rate", wl, spec)
	}
	same := func(t *testing.T, res *Result) {
		if res.SDT != stock.SDT || res.BTBMissRate != stock.BTBMissRate || res.RASMissRate != stock.RASMissRate {
			t.Errorf("got SDT %+v, BTB miss %v, RAS miss %v; Run gave %+v, %v, %v",
				res.SDT, res.BTBMissRate, res.RASMissRate, stock.SDT, stock.BTBMissRate, stock.RASMissRate)
		}
	}
	freeFlags := hostarch.X86()
	freeFlags.Name = "x86-noflags"
	freeFlags.FlagsSave, freeFlags.FlagsRestore = 0, 0
	tests := []struct {
		name  string
		run   func() (*Result, error)
		check func(t *testing.T, res *Result)
	}{
		{"options", func() (*Result, error) {
			return r.RunWithOptions(wl, "x86", spec, nil)
		}, same},
		{"options-tiny-cache", func() (*Result, error) {
			return r.RunWithOptions(wl, "x86", spec, func(o *core.Options) { o.CacheBytes = 512 })
		}, func(t *testing.T, res *Result) {
			if res.Prof.Flushes <= stock.Prof.Flushes {
				t.Errorf("a 512-byte fragment cache flushed %d times, stock %d", res.Prof.Flushes, stock.Prof.Flushes)
			}
		}},
		// One IBTC behind all three kinds is the plain IBTC.
		{"handler-shared-ibtc", func() (*Result, error) {
			return r.RunWithHandler(wl, "x86", "shared-ibtc", func() core.IBHandler {
				h := ib.NewIBTC(ib.IBTCConfig{Entries: 1024})
				return ib.NewPerKind(h, h, h)
			})
		}, same},
		{"model-stock", func() (*Result, error) {
			return r.RunWithModel(wl, spec, hostarch.X86())
		}, same},
		{"model-free-flags", func() (*Result, error) {
			return r.RunWithModel(wl, spec, freeFlags)
		}, func(t *testing.T, res *Result) {
			if res.Slowdown() >= stock.Slowdown() {
				t.Errorf("free flags (%.3f) should beat stock (%.3f)", res.Slowdown(), stock.Slowdown())
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := tt.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.SDT.Checksum != res.Native.Checksum || res.SDT.Instret != res.Native.Instret {
				t.Fatal("returned a diverged result")
			}
			tt.check(t, res)
		})
	}
}

func TestByID(t *testing.T) {
	for _, e := range Experiments {
		got, err := ByID(e.ID)
		if err != nil || got.Title != e.Title {
			t.Errorf("ByID(%s) = %v, %v", e.ID, got.Title, err)
		}
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s is incomplete", e.ID)
		}
	}
}

func TestEveryExperimentRunsOnSubset(t *testing.T) {
	// End-to-end: every experiment must complete and produce output on a
	// shrunken suite. Sweeps touch only their own subsets, so results are
	// small but the code paths are exercised.
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r := NewRunner()
			r.ScaleDivisor = 60
			r.Workloads = []string{"gzip", "perlbmk", "vortex"}
			var sb strings.Builder
			if err := RunOne(r, &sb, e); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(sb.String()) < 80 {
				t.Errorf("%s produced almost no output:\n%s", e.ID, sb.String())
			}
		})
	}
}

func TestScaleDivisorShrinksWork(t *testing.T) {
	big := NewRunner()
	big.Workloads = []string{"gzip"}
	big.ScaleDivisor = 10
	small := NewRunner()
	small.Workloads = []string{"gzip"}
	small.ScaleDivisor = 60
	rb, err := big.Native("gzip", "x86")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := small.Native("gzip", "x86")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Native.Instret >= rb.Native.Instret {
		t.Error("larger divisor should mean less work")
	}
}

// Regression: a divisor exceeding DefaultScale used to risk flooring the
// scale to 0, which Image interprets as "full DefaultScale" — the huge
// divisor would silently select the LARGEST run. It must clamp and stay
// small instead.
func TestScaleDivisorBeyondDefaultScaleStaysSmall(t *testing.T) {
	def := NewRunner()
	def.Workloads = []string{"gzip"}
	huge := NewRunner()
	huge.Workloads = []string{"gzip"}
	huge.ScaleDivisor = 1 << 30
	rd, err := def.Native("gzip", "x86")
	if err != nil {
		t.Fatal(err)
	}
	rh, err := huge.Native("gzip", "x86")
	if err != nil {
		t.Fatal(err)
	}
	if rh.Native.Instret >= rd.Native.Instret {
		t.Errorf("divisor 2^30 ran %d instructions vs default %d — floor-to-0 selected the full workload",
			rh.Native.Instret, rd.Native.Instret)
	}
}

// Whole-suite experiments route their grids through the sweep engine;
// the rendered output must be byte-identical to a fully sequential run
// regardless of worker count (run under -race in CI).
func TestParallelExperimentOutputDeterministic(t *testing.T) {
	render := func(parallel int) string {
		r := testRunner()
		r.Parallel = parallel
		var buf strings.Builder
		for _, id := range []string{"E2", "E7", "E8"} {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := RunOne(r, &buf, e); err != nil {
				t.Fatalf("%s at parallel=%d: %v", id, parallel, err)
			}
		}
		return buf.String()
	}
	sequential := render(1)
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != sequential {
			t.Errorf("output at %d workers differs from sequential:\n%s\n--- vs ---\n%s",
				workers, got, sequential)
		}
	}
}

// A grid error must surface from the experiment, not crash or hang, and
// must identify the failing cell.
func TestGridErrorPropagates(t *testing.T) {
	r := testRunner()
	r.Workloads = []string{"gzip", "nosuchworkload"}
	e, err := ByID("E2")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	err = RunOne(r, &buf, e)
	if err == nil || !strings.Contains(err.Error(), "nosuchworkload") {
		t.Errorf("E2 with a bad workload: err = %v, want mention of nosuchworkload", err)
	}
}

func TestRunnerConcurrentDedup(t *testing.T) {
	// Concurrent requests for one measurement must produce one
	// computation and share the result.
	r := testRunner()
	const n = 8
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Run("perlbmk", "x86", "ibtc:1024")
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatal("concurrent callers received different result objects")
		}
	}
}

func TestRunnerConcurrentDistinctKeys(t *testing.T) {
	r := testRunner()
	specs := []string{"ibtc:64", "ibtc:256", "sieve:64", "translator"}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			_, errs[i] = r.Run("gzip", "x86", spec)
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", specs[i], err)
		}
	}
}

func TestExportCSV(t *testing.T) {
	r := testRunner()
	if _, err := r.Run("gzip", "x86", "ibtc:64"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("gzip", "sparc", "ibtc:64"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.ExportCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// header + 2 natives + 2 runs
	if len(lines) != 5 {
		t.Fatalf("got %d CSV lines:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "workload,arch,mechanism") {
		t.Errorf("header = %q", lines[0])
	}
	for _, want := range []string{"gzip,sparc,ibtc:64", "gzip,x86,native"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("CSV missing row %q", want)
		}
	}
	// Stable ordering: exporting twice gives identical bytes.
	var sb2 strings.Builder
	if err := r.ExportCSV(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Error("CSV export is not deterministic")
	}
}

func TestBestSpecsParse(t *testing.T) {
	r := testRunner()
	for _, spec := range BestSpecs {
		if _, err := r.Run("gzip", "x86", spec); err != nil {
			t.Errorf("BestSpec %q failed: %v", spec, err)
		}
	}
}
