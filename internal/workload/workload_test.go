package workload_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/workload"
)

const testScaleDivisor = 10 // shrink default scales to keep tests quick

func testScale(s *workload.Spec) int {
	return s.ScaledDown(testScaleDivisor)
}

func TestRegistry(t *testing.T) {
	names := workload.Names()
	if len(names) < 17 { // 12 SPEC + >=5 micro
		t.Fatalf("only %d workloads registered: %v", len(names), names)
	}
	for _, want := range workload.SPECNames() {
		if _, err := workload.Get(want); err != nil {
			t.Errorf("SPEC workload %s missing: %v", want, err)
		}
	}
	if _, err := workload.Get("nonexistent"); err == nil {
		t.Error("Get accepted an unknown name")
	}
}

// A divisor larger than DefaultScale must clamp, never floor to 0: scale
// 0 means "full DefaultScale" to Generate/Image, so an unclamped floor
// would turn "run tiny" into "run everything".
func TestScaledDownNeverFloorsToZero(t *testing.T) {
	for _, name := range workload.Names() {
		s, _ := workload.Get(name)
		for _, div := range []int{1, 2, s.DefaultScale, s.DefaultScale * 10, 1 << 30} {
			got := s.ScaledDown(div)
			if got < 1 {
				t.Errorf("%s.ScaledDown(%d) = %d, want >= 1", name, div, got)
			}
			if div > 1 && got > s.DefaultScale {
				t.Errorf("%s.ScaledDown(%d) = %d exceeds DefaultScale %d", name, div, got, s.DefaultScale)
			}
		}
		if got := s.ScaledDown(0); got != s.DefaultScale {
			t.Errorf("%s.ScaledDown(0) = %d, want DefaultScale %d", name, got, s.DefaultScale)
		}
		// The clamped scale must still take effect — the regression this
		// test pins is scale flooring to 0, which Generate interprets as
		// the FULL DefaultScale. (Workloads whose DefaultScale is already
		// at the clamp floor have nothing to shrink.)
		huge := s.ScaledDown(1 << 30)
		if huge < s.DefaultScale && s.Generate(huge) == s.Generate(0) {
			t.Errorf("%s at clamped scale %d generates its full default program", name, huge)
		}
	}
}

func TestAllWorkloadsAssemble(t *testing.T) {
	for _, name := range workload.Names() {
		s, _ := workload.Get(name)
		if _, err := s.Image(testScale(s)); err != nil {
			t.Errorf("%s does not assemble: %v", name, err)
		}
	}
}

func TestAllWorkloadsRunNative(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, _ := workload.Get(name)
			img, err := s.Image(testScale(s))
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.RunImage(img, hostarch.X86(), 200_000_000)
			if err != nil {
				t.Fatalf("native run: %v", err)
			}
			r := m.Result()
			if r.OutCount == 0 {
				t.Error("workload produced no output (no self-check)")
			}
			if r.Instret < 1000 {
				t.Errorf("workload retired only %d instructions", r.Instret)
			}
		})
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	s, _ := workload.Get("gcc")
	img1, err := s.Image(testScale(s))
	if err != nil {
		t.Fatal(err)
	}
	img2, _ := s.Image(testScale(s))
	a, err := machine.RunImage(img1, hostarch.X86(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.RunImage(img2, hostarch.SPARC(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Architectural results must not depend on the cost model.
	if a.Result().Checksum != b.Result().Checksum || a.Result().Instret != b.Result().Instret {
		t.Error("workload results vary across cost models")
	}
}

func TestScaleScalesWork(t *testing.T) {
	s, _ := workload.Get("vortex")
	small, err := s.Image(50)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.Image(5000)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := machine.RunImage(small, hostarch.X86(), 200_000_000)
	ml, _ := machine.RunImage(large, hostarch.X86(), 200_000_000)
	if ml.Result().Instret < ms.Result().Instret*5 {
		t.Errorf("scale barely changes work: %d vs %d", ms.Result().Instret, ml.Result().Instret)
	}
}

func TestSDTEquivalenceOnWorkloads(t *testing.T) {
	// The deep end-to-end invariant: every workload computes the same
	// output stream natively and under the SDT, under contrasting
	// mechanisms, on both cost models.
	specs := []string{"translator", "ibtc:4096", "sieve:1024", "fastret+inline:2+ibtc:4096"}
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, _ := workload.Get(name)
			scale := testScale(s) / 4
			if scale < 2 {
				scale = 2
			}
			img, err := s.Image(scale)
			if err != nil {
				t.Fatal(err)
			}
			native, err := machine.RunImage(img, hostarch.X86(), 200_000_000)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				cfg, err := ib.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, model := range []string{"x86", "sparc"} {
					m, _ := hostarch.ByName(model)
					// Each VM needs a fresh handler: re-parse.
					cfg, _ = ib.Parse(spec)
					vm, err := core.New(img, core.Options{Model: m, Handler: cfg.Handler, FastReturns: cfg.FastReturns})
					if err != nil {
						t.Fatal(err)
					}
					if err := vm.Run(200_000_000); err != nil {
						t.Fatalf("%s on %s: %v", spec, model, err)
					}
					if vm.Result().Checksum != native.Result().Checksum {
						t.Errorf("%s on %s: checksum mismatch", spec, model)
					}
					if vm.Result().Instret != native.Result().Instret {
						t.Errorf("%s on %s: instret mismatch", spec, model)
					}
				}
			}
		})
	}
}

func TestIBClassesMatchBehaviour(t *testing.T) {
	// The generators' advertised IB classes must be visible in their
	// dynamic counts — this pins the workload calibration.
	type profile struct {
		per1k          float64
		ret, jmp, call uint64
	}
	profiles := map[string]profile{}
	for _, name := range workload.SPECNames() {
		s, _ := workload.Get(name)
		img, err := s.Image(testScale(s))
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.RunImage(img, hostarch.X86(), 200_000_000)
		if err != nil {
			t.Fatal(err)
		}
		profiles[name] = profile{
			per1k: m.Counts.IBPer1K(),
			ret:   m.Counts.IB[isa.IBReturn],
			jmp:   m.Counts.IB[isa.IBJump],
			call:  m.Counts.IB[isa.IBCall],
		}
	}
	// Sparse group stays sparse; heavy groups are an order of magnitude up.
	for _, low := range []string{"gzip", "mcf", "twolf", "bzip2"} {
		if p := profiles[low]; p.per1k > 15 {
			t.Errorf("%s: %.1f IB/1k, want sparse (<15)", low, p.per1k)
		}
	}
	for _, high := range []string{"gcc", "perlbmk", "eon", "vortex", "gap"} {
		if p := profiles[high]; p.per1k < 20 {
			t.Errorf("%s: %.1f IB/1k, want heavy (>20)", high, p.per1k)
		}
	}
	// Kind mixes.
	if p := profiles["perlbmk"]; p.jmp < p.ret {
		t.Errorf("perlbmk should be ijump-dominant: jmp=%d ret=%d", p.jmp, p.ret)
	}
	if p := profiles["gcc"]; p.jmp < p.ret {
		t.Errorf("gcc should be ijump-dominant: jmp=%d ret=%d", p.jmp, p.ret)
	}
	if p := profiles["vortex"]; p.ret < 4*p.jmp {
		t.Errorf("vortex should be returns-dominant: ret=%d jmp=%d", p.ret, p.jmp)
	}
	if p := profiles["eon"]; p.call == 0 || p.call < p.jmp {
		t.Errorf("eon should be icall-heavy: call=%d jmp=%d", p.call, p.jmp)
	}
	if p := profiles["parser"]; p.ret < 10*p.call {
		t.Errorf("parser should be returns-dominant: ret=%d call=%d", p.ret, p.call)
	}
}

func TestGenerateStableAcrossCalls(t *testing.T) {
	s, _ := workload.Get("perlbmk")
	if s.Generate(5) != s.Generate(5) {
		t.Error("Generate is not deterministic")
	}
}

// Load serves the CLIs: a workload name, a ".s" source or a serialized
// image must give the same program, and no program at all is an error.
func TestLoad(t *testing.T) {
	want, err := workload.Load("gzip", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.Get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "gzip.s")
	if err := os.WriteFile(src, []byte(s.Generate(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := want.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "gzip.img")
	if err := os.WriteFile(bin, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{src, bin} {
		got, err := workload.Load("", 0, []string{path})
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		if !slices.Equal(got.Code, want.Code) || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("Load(%s) differs from the gzip workload", path)
		}
	}
	for _, args := range [][]string{nil, {src, bin}} {
		if _, err := workload.Load("", 0, args); err == nil {
			t.Errorf("Load with args %q: no error", args)
		}
	}
	if _, err := workload.Load("nosuch", 0, nil); err == nil {
		t.Error("unknown workload accepted")
	}
}
