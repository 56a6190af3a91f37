package core_test

import (
	"strings"
	"testing"

	"sdt/internal/asm"
	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/program"
)

// Guest programs exercising every control-flow shape.
var testPrograms = map[string]string{
	"factorial": `
		main:
			li a0, 10
			call fact
			out rv
			halt
		fact:
			li rv, 1
			li r9, 2
			blt a0, r9, done
			push ra
			push a0
			subi a0, a0, 1
			call fact
			pop a0
			pop ra
			mul rv, rv, a0
		done:
			ret
	`,
	"jumptable": `
		main:
			li r10, 0
			li r11, 0
			li r12, 500
		loop:
			andi r2, r10, 3
			la r1, table
			slli r2, r2, 2
			add r1, r1, r2
			lw r3, (r1)
			jr r3
		c0: addi r11, r11, 1
			jmp next
		c1: addi r11, r11, 10
			jmp next
		c2: addi r11, r11, 100
			jmp next
		c3: addi r11, r11, 1000
		next:
			addi r10, r10, 1
			blt r10, r12, loop
			out r11
			halt
		.data
		table: .word c0, c1, c2, c3
	`,
	"funcptr": `
		main:
			li r10, 0
			li r11, 300
			li r12, 0
		loop:
			andi r2, r10, 1
			la r1, fns
			slli r2, r2, 2
			add r1, r1, r2
			lw r3, (r1)
			mov a0, r10
			callr r3
			add r12, r12, rv
			addi r10, r10, 1
			blt r10, r11, loop
			out r12
			halt
		inc:
			addi rv, a0, 1
			ret
		dbl:
			add rv, a0, a0
			ret
		.data
		fns: .word inc, dbl
	`,
	"mutual": `
		main:
			li a0, 20
			call even
			out rv
			halt
		even:            ; rv = 1 if a0 even
			bnez a0, even_rec
			li rv, 1
			ret
		even_rec:
			push ra
			subi a0, a0, 1
			call odd
			pop ra
			ret
		odd:
			bnez a0, odd_rec
			li rv, 0
			ret
		odd_rec:
			push ra
			subi a0, a0, 1
			call even
			pop ra
			ret
	`,
	"deeprecursion": `
		main:
			li a0, 200       ; deeper than any RAS
			call sum
			out rv
			halt
		sum:                 ; rv = a0 + a0-1 + ... + 1
			beqz a0, zero
			push ra
			push a0
			subi a0, a0, 1
			call sum
			pop a0
			pop ra
			add rv, rv, a0
			ret
		zero:
			li rv, 0
			ret
	`,
	"interp": `
		; a tiny bytecode interpreter: the perlbmk-shaped workload
		main:
			la r20, prog     ; bytecode pc
			li r21, 0        ; accumulator
		dispatch:
			lbu r1, (r20)
			addi r20, r20, 1
			la r2, ops
			slli r3, r1, 2
			add r2, r2, r3
			lw r3, (r2)
			jr r3
		op_add:
			lbu r4, (r20)
			addi r20, r20, 1
			add r21, r21, r4
			jmp dispatch
		op_mul:
			lbu r4, (r20)
			addi r20, r20, 1
			mul r21, r21, r4
			jmp dispatch
		op_out:
			out r21
			jmp dispatch
		op_loop:
			lbu r4, (r20)    ; counter cell offset... simple: repeat from start r4 times
			addi r20, r20, 1
			addi r22, r22, 1
			bge r22, r4, dispatch
			la r20, prog
			jmp dispatch
		op_halt:
			out r21
			halt
		.data
		ops: .word op_add, op_mul, op_out, op_loop, op_halt
		prog:
			.byte 0, 5       ; add 5
			.byte 1, 3       ; mul 3
			.byte 0, 7       ; add 7
			.byte 2          ; out
			.byte 3, 200     ; loop 200x
			.byte 4          ; halt
	`,
	// A chain of forward direct jumps every iteration: traces lay the
	// successors out fall-through and elide the jumps.
	"jumpchain": `
		main:
			li r10, 0
			li r11, 5000
		loop:
			addi r10, r10, 1
			jmp hop1
		hop1:
			addi r12, r12, 3
			jmp hop2
		hop2:
			xor r12, r12, r10
			jmp hop3
		hop3:
			addi r12, r12, 7
			blt r10, r11, loop
			out r12
			halt
	`,
}

// mechanisms every equivalence test runs under.
var testSpecs = []string{
	"translator",
	"ibtc:64",
	"ibtc:4096",
	"ibtc:4096:private",
	"ibtc:4096:sharedjump",
	"inline:1+translator",
	"inline:2+ibtc:4096",
	"sieve:16",
	"sieve:1024",
	"retcache:1024+ibtc:4096",
	"fastret+ibtc:4096",
	"fastret+sieve:1024",
	"fastret+inline:2+ibtc:4096",
}

func assemble(t *testing.T, src string) *program.Image {
	t.Helper()
	img, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func runNative(t *testing.T, img *program.Image) *machine.Machine {
	t.Helper()
	m, err := machine.RunImage(img, hostarch.X86(), 50_000_000)
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	return m
}

func runSDT(t *testing.T, img *program.Image, spec string, mutate func(*core.Options)) *core.VM {
	t.Helper()
	cfg, err := ib.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	opts := core.Options{Model: hostarch.X86(), Handler: cfg.Handler, FastReturns: cfg.FastReturns}
	if mutate != nil {
		mutate(&opts)
	}
	vm, err := core.New(img, opts)
	if err != nil {
		t.Fatalf("new VM: %v", err)
	}
	if err := vm.Run(50_000_000); err != nil {
		t.Fatalf("SDT run under %s: %v", spec, err)
	}
	return vm
}

func TestSDTMatchesNativeAllMechanisms(t *testing.T) {
	for name, src := range testPrograms {
		img := assemble(t, src)
		native := runNative(t, img)
		for _, spec := range testSpecs {
			t.Run(name+"/"+spec, func(t *testing.T) {
				vm := runSDT(t, img, spec, nil)
				nr, sr := native.Result(), vm.Result()
				if sr.Checksum != nr.Checksum || sr.OutCount != nr.OutCount {
					t.Errorf("output mismatch: native %d values chk=%#x, sdt %d values chk=%#x",
						nr.OutCount, nr.Checksum, sr.OutCount, sr.Checksum)
				}
				if sr.Instret != nr.Instret {
					t.Errorf("instret mismatch: native %d, sdt %d", nr.Instret, sr.Instret)
				}
				if sr.ExitCode != nr.ExitCode {
					t.Errorf("exit code mismatch: %d vs %d", sr.ExitCode, nr.ExitCode)
				}
				if sr.Cycles <= nr.Cycles {
					t.Errorf("SDT (%d cycles) should not beat native (%d cycles)", sr.Cycles, nr.Cycles)
				}
			})
		}
	}
}

func TestIBCountsMatchNative(t *testing.T) {
	img := assemble(t, testPrograms["funcptr"])
	native := runNative(t, img)
	vm := runSDT(t, img, "ibtc:4096", nil)
	for k := isa.IBKind(0); k < isa.NumIBKinds; k++ {
		if vm.Prof.IBExec[k] != native.Counts.IB[k] {
			t.Errorf("%v count: sdt %d, native %d", k, vm.Prof.IBExec[k], native.Counts.IB[k])
		}
	}
}

func TestLinkingAmortizesTranslatorEntries(t *testing.T) {
	img := assemble(t, testPrograms["jumptable"])
	vm := runSDT(t, img, "ibtc:4096", nil)
	// With linking, translator entries should be close to the number of
	// distinct fragments, not the number of executed blocks.
	if vm.Prof.TranslatorEntries > vm.Prof.Translations*3 {
		t.Errorf("translator entries %d vs %d translations: linking is not amortizing",
			vm.Prof.TranslatorEntries, vm.Prof.Translations)
	}
}

func TestDisableLinkingCostsMore(t *testing.T) {
	img := assemble(t, testPrograms["factorial"])
	linked := runSDT(t, img, "ibtc:4096", nil)
	unlinked := runSDT(t, img, "ibtc:4096", func(o *core.Options) { o.DisableLinking = true })
	if unlinked.Result().Checksum != linked.Result().Checksum {
		t.Fatal("unlinked run computed a different answer")
	}
	if unlinked.Env.Cycles <= linked.Env.Cycles {
		t.Errorf("unlinked (%d) should cost more than linked (%d)", unlinked.Env.Cycles, linked.Env.Cycles)
	}
	if unlinked.Prof.TranslatorEntries <= linked.Prof.TranslatorEntries*2 {
		t.Errorf("unlinked translator entries %d vs linked %d: expected a large increase",
			unlinked.Prof.TranslatorEntries, linked.Prof.TranslatorEntries)
	}
}

func TestSmallBlocksStillCorrect(t *testing.T) {
	img := assemble(t, testPrograms["interp"])
	native := runNative(t, img)
	vm := runSDT(t, img, "ibtc:4096", func(o *core.Options) { o.MaxBlockInsts = 2 })
	if vm.Result().Checksum != native.Result().Checksum {
		t.Error("tiny MaxBlockInsts changed program output")
	}
	if vm.Result().Instret != native.Result().Instret {
		t.Error("tiny MaxBlockInsts changed instruction count")
	}
}

func TestCacheFlushCorrectness(t *testing.T) {
	// A fragment cache far too small for the program forces continual
	// flushes; results must not change, under any mechanism.
	for _, spec := range []string{"ibtc:256", "sieve:64", "fastret+ibtc:256"} {
		t.Run(spec, func(t *testing.T) {
			img := assemble(t, testPrograms["mutual"])
			native := runNative(t, img)
			vm := runSDT(t, img, spec, func(o *core.Options) { o.CacheBytes = 200 })
			if vm.Prof.Flushes == 0 {
				t.Fatal("test expected flushes; raise the pressure")
			}
			if vm.Result().Checksum != native.Result().Checksum {
				t.Error("flushes changed program output")
			}
		})
	}
}

func TestFastReturnsHitRAS(t *testing.T) {
	img := assemble(t, testPrograms["factorial"])
	vm := runSDT(t, img, "fastret+ibtc:4096", nil)
	hits, misses := vm.Env.RAS.Stats()
	if hits == 0 {
		t.Fatal("fast returns never hit the RAS")
	}
	if misses > hits/4 {
		t.Errorf("RAS under fast returns: %d hits, %d misses", hits, misses)
	}
}

func TestFastReturnsBeatIBTCOnCallHeavyCode(t *testing.T) {
	// Shallow call nesting repeated many times: the regime where the RAS
	// wins. (Recursion deeper than the RAS overflows it and fast returns
	// lose their edge — see TestDeepRecursionOverflowsRAS.)
	src := `
		main:
			li r10, 0
			li r11, 3000
			li r12, 0
		loop:
			mov a0, r10
			call f1
			add r12, r12, rv
			call f2
			add r12, r12, rv
			addi r10, r10, 1
			blt r10, r11, loop
			out r12
			halt
		f1:
			addi rv, a0, 1
			ret
		f2:
			push ra
			call f1
			pop ra
			add rv, rv, rv
			ret
	`
	img := assemble(t, src)
	fast := runSDT(t, img, "fastret+ibtc:4096", nil)
	slow := runSDT(t, img, "ibtc:4096", nil)
	if fast.Env.Cycles >= slow.Env.Cycles {
		t.Errorf("fast returns (%d cycles) should beat IBTC returns (%d cycles) on call-heavy code",
			fast.Env.Cycles, slow.Env.Cycles)
	}
}

func TestDeepRecursionOverflowsRAS(t *testing.T) {
	// Recursion deeper than the hardware return-address stack wraps it,
	// so most fast returns mispredict — the regime where table-based
	// return handling catches up.
	img := assemble(t, testPrograms["deeprecursion"])
	vm := runSDT(t, img, "fastret+ibtc:4096", nil)
	hits, misses := vm.Env.RAS.Stats()
	if misses < hits {
		t.Errorf("depth-200 recursion against a 16-deep RAS: %d hits, %d misses — expected mostly misses", hits, misses)
	}
}

func TestFastReturnTransparencyHazard(t *testing.T) {
	// The paper's transparency discussion: a guest that inspects its own
	// return address observes fragment-cache addresses under fast returns.
	src := `
		main:
			call probe
			halt
		probe:
			out ra        ; leaks the return address
			ret
	`
	img := assemble(t, src)
	native := runNative(t, img)
	honest := runSDT(t, img, "ibtc:4096", nil)
	fast := runSDT(t, img, "fastret+ibtc:4096", nil)

	if honest.Result().Checksum != native.Result().Checksum {
		t.Error("IBTC must be fully transparent")
	}
	if fast.Result().Checksum == native.Result().Checksum {
		t.Error("fast returns should (by design) leak host addresses to the guest")
	}
	if got := fast.State.Out.Values[0]; got < core.FragBase {
		t.Errorf("leaked ra = %#x, expected a fragment-cache address", got)
	}
}

func TestFastReturnToComputedGuestAddress(t *testing.T) {
	// A guest that manufactures a return target (longjmp-style) must
	// still work under fast returns via the fallback path.
	src := `
		main:
			la ra, landing
			ret              ; "return" to a guest address never hostized
		landing:
			li r1, 77
			out r1
			halt
	`
	img := assemble(t, src)
	native := runNative(t, img)
	vm := runSDT(t, img, "fastret+ibtc:4096", nil)
	if vm.Result().Checksum != native.Result().Checksum {
		t.Error("computed guest return address broke under fast returns")
	}
}

func TestNaiveOverheadDwarfsIBTC(t *testing.T) {
	img := assemble(t, testPrograms["interp"])
	naive := runSDT(t, img, "translator", nil)
	ibtc := runSDT(t, img, "ibtc:4096", nil)
	if naive.Env.Cycles < ibtc.Env.Cycles*2 {
		t.Errorf("naive (%d) should be far slower than IBTC (%d) on dispatch-heavy code",
			naive.Env.Cycles, ibtc.Env.Cycles)
	}
}

func TestProfileBreakdownSane(t *testing.T) {
	img := assemble(t, testPrograms["funcptr"])
	vm := runSDT(t, img, "ibtc:4096", nil)
	b := vm.Prof.Overhead(vm.Env.Cycles)
	if b.Body+b.IB+b.Ctx+b.Trans != b.Total {
		t.Errorf("breakdown does not sum: body=%d ib=%d ctx=%d trans=%d total=%d",
			b.Body, b.IB, b.Ctx, b.Trans, b.Total)
	}
	if b.Body == 0 || b.IB == 0 || b.Trans == 0 {
		t.Errorf("expected nonzero body/ib/trans, got %+v", b)
	}
}

func TestOptionsValidation(t *testing.T) {
	img := assemble(t, "main: halt\n")
	if _, err := core.New(img, core.Options{}); err == nil {
		t.Error("New accepted empty options")
	}
	if _, err := core.New(img, core.Options{Model: hostarch.X86()}); err == nil {
		t.Error("New accepted options without handler")
	}
	if _, err := core.New(img, core.Options{Model: hostarch.X86(), Handler: ib.NewTranslator(), MaxBlockInsts: -1}); err == nil {
		t.Error("New accepted negative MaxBlockInsts")
	}
}

func TestRunLimit(t *testing.T) {
	img := assemble(t, "main: jmp main\n")
	cfg, _ := ib.Parse("ibtc:64")
	vm, err := core.New(img, core.Options{Model: hostarch.X86(), Handler: cfg.Handler})
	if err != nil {
		t.Fatal(err)
	}
	err = vm.Run(1000)
	if err == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Errorf("err = %v, want instruction limit", err)
	}
}

func TestWildIndirectTargetFaults(t *testing.T) {
	src := `
		main:
			li r1, 0x2000   ; data address, not code
			jr r1
	`
	img := assemble(t, src)
	vm, err := core.New(img, core.Options{Model: hostarch.X86(), Handler: ib.NewIBTC(ib.IBTCConfig{Entries: 64})})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(1000); err == nil {
		t.Error("jump to data should fault under the SDT")
	}
}

func TestSiteAddressCorrect(t *testing.T) {
	// The IB site records the guest pc of the block's terminator, which
	// sits past the block's straight-line body.
	src := `
	main:
		call fn
		halt
	fn:
		addi r1, r1, 1
		addi r1, r1, 2
		ret
	`
	img := assemble(t, src)
	cfg, _ := ib.Parse("ibtc:64")
	var siteAt uint32
	probe := &siteProbe{inner: cfg.Handler, sawSite: &siteAt}
	vm, err := core.New(img, core.Options{Model: hostarch.X86(), Handler: probe})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := img.Symbols["fn"] + 2*isa.WordSize; siteAt != want {
		t.Errorf("ret site recorded at %#x, want %#x", siteAt, want)
	}
}

// siteProbe records the guest pc of the return site it resolves.
type siteProbe struct {
	inner   core.IBHandler
	sawSite *uint32
}

func (p *siteProbe) Name() string                       { return "probe" }
func (p *siteProbe) Init(vm *core.VM)                   { p.inner.Init(vm) }
func (p *siteProbe) Flush(vm *core.VM)                  { p.inner.Flush(vm) }
func (p *siteProbe) Attach(vm *core.VM, s *core.IBSite) { p.inner.Attach(vm, s) }
func (p *siteProbe) Resolve(vm *core.VM, s *core.IBSite, target uint32) (*core.Fragment, error) {
	*p.sawSite = s.GuestPC
	return p.inner.Resolve(vm, s, target)
}
