package sdt_test

import (
	"strings"
	"testing"

	"sdt"
)

const quickProg = `
main:
	li r10, 0
	li r11, 200
loop:
	mov a0, r10
	call double
	out rv
	addi r10, r10, 1
	blt r10, r11, loop
	halt
double:
	add rv, a0, a0
	ret
`

func TestPublicAPIQuickstart(t *testing.T) {
	img, err := sdt.Assemble("quick.s", quickProg)
	if err != nil {
		t.Fatal(err)
	}
	native, err := sdt.RunNative(img, "x86", 0)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := sdt.Run(img, "x86", "ibtc:4096", 0)
	if err != nil {
		t.Fatal(err)
	}
	if native.Result().Checksum != vm.Result().Checksum {
		t.Error("native and SDT runs disagree")
	}
	if vm.Result().Cycles <= native.Result().Cycles {
		t.Error("SDT should cost more cycles than native")
	}
}

func TestSlowdownHelper(t *testing.T) {
	img, err := sdt.Assemble("quick.s", quickProg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sdt.Slowdown(img, "x86", "ibtc:4096", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 1.0 || s > 30 {
		t.Errorf("slowdown = %.2f, expected a plausible overhead", s)
	}
	naive, err := sdt.Slowdown(img, "x86", "translator", 0)
	if err != nil {
		t.Fatal(err)
	}
	if naive <= s {
		t.Errorf("naive (%.2f) should exceed IBTC (%.2f)", naive, s)
	}
}

func TestMechanismParsing(t *testing.T) {
	h, fast, err := sdt.Mechanism("fastret+inline:2+ibtc:1024")
	if err != nil {
		t.Fatal(err)
	}
	if !fast {
		t.Error("fastret flag lost")
	}
	if h.Name() != "inline(2)+ibtc(shared,1024)" {
		t.Errorf("handler = %q", h.Name())
	}
	if _, _, err := sdt.Mechanism("warp-drive"); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestCompileMiniC(t *testing.T) {
	img, err := sdt.CompileMiniC("t.mc", `
		func twice(x) { return x + x; }
		func main() {
			var i = 0;
			while (i < 50) { out twice(i); i = i + 1; }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := sdt.Slowdown(img, "x86", "ibtc:1024", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slow <= 1 {
		t.Errorf("slowdown = %.2f", slow)
	}
	if _, err := sdt.CompileMiniC("bad.mc", "func main( {"); err == nil {
		t.Error("bad MiniC accepted")
	}
}

func TestConfigure(t *testing.T) {
	opts, err := sdt.Configure("sparc", "trace+fastret+ibtc:1024")
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Traces || !opts.FastReturns || opts.Handler == nil || opts.Model.Name != "sparc" {
		t.Errorf("Configure produced %+v", opts)
	}
	if _, err := sdt.Configure("x86", "trace"); err == nil {
		t.Error("bare trace spec accepted")
	}
	if _, err := sdt.Configure("vax", "ibtc"); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestArchLookup(t *testing.T) {
	for _, name := range []string{"x86", "sparc"} {
		m, err := sdt.Arch(name)
		if err != nil || m.Name != name {
			t.Errorf("Arch(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := sdt.Arch("mips"); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestWorkloadAccess(t *testing.T) {
	names := sdt.Workloads()
	if len(names) < 12 {
		t.Fatalf("only %d workloads", len(names))
	}
	w, err := sdt.Workload("perlbmk")
	if err != nil {
		t.Fatal(err)
	}
	img, err := w.Image(5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sdt.Slowdown(img, "sparc", "sieve:1024", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 1 {
		t.Errorf("slowdown = %.2f", s)
	}
}

func TestExperimentRunnerAPI(t *testing.T) {
	ids := sdt.ExperimentIDs()
	// E1..E18 without the retired E14.
	if len(ids) != 17 || ids[0] != "E1" || ids[16] != "E18" {
		t.Fatalf("experiment IDs = %v", ids)
	}
	r := sdt.NewExperimentRunner()
	r.ScaleDivisor = 40
	r.Workloads = []string{"gzip", "perlbmk"}
	var buf strings.Builder
	if err := sdt.RunExperiment(r, "E1", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gzip", "perlbmk", "IB/1k"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
	if err := sdt.RunExperiment(r, "E99", &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}
