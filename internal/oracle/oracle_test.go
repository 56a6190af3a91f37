package oracle_test

import (
	"fmt"
	"strings"
	"testing"

	"sdt/internal/asm"
	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/machine"
	"sdt/internal/oracle"
	"sdt/internal/program"
	"sdt/internal/randprog"
)

var sweepArchs = []string{"x86", "sparc"}

func build(t *testing.T, cfg randprog.Config) *program.Image {
	t.Helper()
	src := randprog.Generate(cfg)
	img, err := asm.Assemble(fmt.Sprintf("rand%d.s", cfg.Seed), src)
	if err != nil {
		t.Fatalf("seed %d does not assemble: %v", cfg.Seed, err)
	}
	return img
}

// TestSweepEveryMechanism is the tier-1 oracle sweep: every registered
// mechanism's sweep specs × both paper architectures × every metamorphic
// variant, against the native oracle, over deterministic random programs.
// Zero unexplained divergences allowed.
func TestSweepEveryMechanism(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			img := build(t, randprog.Small(seed))
			findings, err := oracle.SweepImage(img, sweepArchs, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				t.Errorf("%s", f)
			}
		})
	}
}

// TestSweepLimitStops sweeps instruction budgets that stop the guest
// mid-run — at fragment starts, inside bodies and inside superblock parts —
// and requires the SDT to stop in the native interpreter's exact
// architectural state, not only at its retired-instruction count. The
// corpus-scale program runs more iterations than usual so that every
// budget stops it.
func TestSweepLimitStops(t *testing.T) {
	limits := []uint64{1, 2, 3, 5, 7, 11, 17, 64, 101, 257, 1000, 1337, 4099, 9973}
	cfg := randprog.Small(1)
	cfg.Iterations = 80
	img := build(t, cfg)
	img.MemSize = 64 << 10 // 1,176 runs: keep per-run setup small
	native, err := machine.RunImage(img, hostarch.X86(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := native.State.Instret; n <= limits[len(limits)-1] {
		t.Fatalf("guest retires only %d instructions; every budget must stop it", n)
	}
	for _, limit := range limits {
		t.Run(fmt.Sprintf("limit%d", limit), func(t *testing.T) {
			t.Parallel()
			findings, err := oracle.SweepImage(img, sweepArchs, nil, limit)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				t.Errorf("%s", f)
			}
		})
	}
}

// TestLimitStopEveryInstruction stops a small call/return loop at every
// instruction boundary of its run, so some budget lands on each fragment
// entry — including right after a fast return, where the SDT's pc last
// held a fragment-cache address.
func TestLimitStopEveryInstruction(t *testing.T) {
	img, err := asm.Assemble("calls.s", `
	main:
		li r10, 0
		li r11, 6
	loop:
		call fn
		addi r10, r10, 1
		blt r10, r11, loop
		out r12
		halt
	fn:
		addi r12, r12, 5
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	img.MemSize = 64 << 10 // ~1,500 runs: keep per-run setup small
	native, err := machine.RunImage(img, hostarch.X86(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for limit := uint64(1); limit < native.State.Instret; limit++ {
		findings, err := oracle.SweepImage(img, []string{"x86"}, nil, limit)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("limit %d: %s", limit, f)
		}
	}
}

// TestSweepSpecsCoverRegistry guards the auto-pickup contract: every
// registered mechanism family must contribute at least one parseable
// sweep spec that mentions it, so a new registry entry cannot silently
// escape the oracle.
func TestSweepSpecsCoverRegistry(t *testing.T) {
	specs := ib.SweepSpecs()
	for _, spec := range specs {
		if _, err := ib.Parse(spec); err != nil {
			t.Errorf("sweep spec %q does not parse: %v", spec, err)
		}
	}
	for _, e := range ib.Registered() {
		if len(e.Sweep) == 0 {
			t.Errorf("registry entry %q has no sweep specs", e.Name)
			continue
		}
		found := false
		for _, spec := range specs {
			for _, comp := range strings.Split(spec, "+") {
				if strings.Split(comp, ":")[0] == e.Name {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("no sweep spec exercises registry entry %q", e.Name)
		}
	}
}

// TestDeterminism: repeated runs must be bit-identical, cycle counts and
// profile included, for a representative spec of every family and for
// the trace/flush variants that exercise the most handler state.
func TestDeterminism(t *testing.T) {
	img := build(t, randprog.Small(11))
	for _, spec := range ib.SweepSpecs() {
		for _, v := range oracle.Variants() {
			divs, err := oracle.CheckDeterminism(img, oracle.Config{
				Arch: "x86", Spec: spec, Options: v.Mutate,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, v.Name, err)
			}
			for _, d := range divs {
				t.Errorf("%s/%s: %s", spec, v.Name, d)
			}
		}
	}
}

// TestRetAddrTransparency: every non-fastret sweep spec must pass the
// guest-reads-own-return-address probe; every fastret spec must fail it
// in exactly the documented way.
func TestRetAddrTransparency(t *testing.T) {
	for _, arch := range sweepArchs {
		for _, spec := range ib.SweepSpecs() {
			divs, err := oracle.CheckRetAddrTransparency(arch, spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, spec, err)
			}
			for _, d := range divs {
				t.Errorf("%s/%s: %s", arch, spec, d)
			}
		}
	}
}

// TestOracleCatchesInjectedBug: with the IBTC tag-aliasing bug injected,
// the oracle must report a divergence — the subsystem's own smoke test
// that a wrong dispatch cannot hide from the state comparison.
func TestOracleCatchesInjectedBug(t *testing.T) {
	img := build(t, randprog.Small(1))
	rep, err := oracle.Diff(img, oracle.Config{
		Arch: "x86",
		Spec: "ibtc:2",
		Handler: func(h core.IBHandler) {
			if !ib.InjectIBTCTagAlias(h) {
				t.Fatal("no IBTC found in handler chain")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("oracle reported a broken IBTC as equivalent")
	}
}

// TestDiffReportsFaultSymmetry: a guest that faults natively must fault
// under the SDT at the same retired-instruction count.
func TestDiffReportsFaultSymmetry(t *testing.T) {
	src := `
	main:
		li r9, 3
		li r1, 0
		lw r2, (r1)    ; guard-page load: faults in both executions
		halt
	`
	img, err := asm.Assemble("fault.s", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"translator", "ibtc:16", "fastret+ibtc:16"} {
		rep, err := oracle.Diff(img, oracle.Config{Arch: "x86", Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if rep.NativeErr == nil {
			t.Fatal("fault program ran clean natively")
		}
		for _, d := range rep.Divergences {
			t.Errorf("%s: %s", spec, d)
		}
	}
}

// TestLaxFastretSkipsStateChecks: arbitrary guests that manufacture
// return addresses are out of scope for fastret equivalence; Lax must
// suppress the comparison rather than report the documented hazard as a
// bug.
func TestLaxFastretSkipsStateChecks(t *testing.T) {
	// The probe program observes ra, which diverges under fastret.
	img, err := asm.Assemble("probe.s", oracle.RetAddrProbeSource)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := oracle.Diff(img, oracle.Config{Arch: "x86", Spec: "fastret+ibtc:16"})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Clean() {
		t.Error("strict oracle missed the fastret hazard")
	}
	lax, err := oracle.Diff(img, oracle.Config{Arch: "x86", Spec: "fastret+ibtc:16", Lax: true})
	if err != nil {
		t.Fatal(err)
	}
	if !lax.Clean() {
		t.Errorf("lax oracle still reports: %v", lax.Divergences)
	}
}
