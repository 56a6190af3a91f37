package core_test

import (
	"testing"

	"sdt/internal/asm"
	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/program"
)

// Dispatch-heavy benchmark programs. Each spends nearly all of its time in
// the steady-state dispatch loop (translation is a negligible prefix), so
// ns/op and allocs/op here measure the simulator's hot path, not setup.
// These are the benchmarks the perf-regression gate (scripts/bench.sh, a
// paired A/B against a base commit) tracks; see docs/PERF.md.
const benchDispatchSrc = `
	; indirect-jump dispatch loop: a bytecode-interpreter shape where
	; every iteration executes an indirect jump through a table.
	main:
		li r10, 0
		li r11, 60000
	loop:
		andi r2, r10, 3
		la r1, table
		slli r2, r2, 2
		add r1, r1, r2
		lw r3, (r1)
		jr r3
	c0:	addi r12, r12, 1
		jmp next
	c1:	addi r12, r12, 10
		jmp next
	c2:	addi r12, r12, 100
		jmp next
	c3:	addi r12, r12, 1000
	next:
		addi r10, r10, 1
		blt r10, r11, loop
		out r12
		halt
	.data
	table: .word c0, c1, c2, c3
`

const benchCallRetSrc = `
	; call/return-heavy loop: the regime fast returns and return caches
	; target. Two call sites, shallow nesting, repeated many times.
	main:
		li r10, 0
		li r11, 40000
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

const benchLinkedSrc = `
	; direct-branch-only loop: no indirect branches at all, so every
	; fragment exit resolves through the direct-link fast path.
	main:
		li r10, 0
		li r11, 120000
	loop:
		andi r2, r10, 1
		beqz r2, even
		addi r12, r12, 3
		jmp next
	even:
		addi r12, r12, 5
	next:
		addi r10, r10, 1
		blt r10, r11, loop
		out r12
		halt
`

const benchGuardThrashSrc = `
	; megamorphic dispatch loop: a pseudo-random walk over eight targets,
	; so any trace formed through the indirect jump sees a polymorphic
	; continuation. Trace guards must prove unprofitable, patch out, and
	; leave only the side-exit cost behind.
	main:
		li r10, 0
		li r11, 50000
		li r25, 1
	loop:
		li r1, 1103515245
		mul r25, r25, r1
		addi r25, r25, 12345
		srli r2, r25, 9
		andi r2, r2, 7
		la r1, table
		slli r2, r2, 2
		add r1, r1, r2
		lw r3, (r1)
		jr r3
	c0:	addi r12, r12, 1
		jmp next
	c1:	addi r12, r12, 2
		jmp next
	c2:	addi r12, r12, 3
		jmp next
	c3:	addi r12, r12, 4
		jmp next
	c4:	addi r12, r12, 5
		jmp next
	c5:	addi r12, r12, 6
		jmp next
	c6:	addi r12, r12, 7
		jmp next
	c7:	addi r12, r12, 8
	next:
		addi r10, r10, 1
		blt r10, r11, loop
		out r12
		halt
	.data
	table: .word c0, c1, c2, c3, c4, c5, c6, c7
`

func benchImage(b *testing.B, src string) *program.Image {
	b.Helper()
	img, err := asm.Assemble("bench.s", src)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// runDispatchBench measures end-to-end VM construction plus execution of a
// dispatch-heavy guest under one mechanism spec, reporting retired guest
// instructions per second.
func runDispatchBench(b *testing.B, src, spec string) {
	b.Helper()
	img := benchImage(b, src)
	cfg, err := ib.Parse(spec)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, err := core.New(img, cfg.Options(hostarch.X86()))
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Run(0); err != nil {
			b.Fatal(err)
		}
		insts += vm.State.Instret
		vm.Recycle()
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "guest-MIPS")
}

// The BenchmarkRun family is the dispatch-heavy benchmark set the
// regression gate tracks (scripts/bench.sh times them against the same
// benchmarks built from a base commit, alternating the two binaries).

func BenchmarkRunDispatchIBTC(b *testing.B) {
	runDispatchBench(b, benchDispatchSrc, "ibtc:4096")
}

func BenchmarkRunDispatchSieve(b *testing.B) {
	runDispatchBench(b, benchDispatchSrc, "sieve:1024")
}

func BenchmarkRunDispatchTranslator(b *testing.B) {
	runDispatchBench(b, benchDispatchSrc, "translator")
}

func BenchmarkRunCallRetFastret(b *testing.B) {
	runDispatchBench(b, benchCallRetSrc, "fastret+ibtc:4096")
}

func BenchmarkRunCallRetInline(b *testing.B) {
	runDispatchBench(b, benchCallRetSrc, "inline:2+ibtc:4096")
}

func BenchmarkRunLinkedLoop(b *testing.B) {
	runDispatchBench(b, benchLinkedSrc, "ibtc:4096")
}

// The BenchmarkRunSuperblock family runs the same guests with trace
// formation on: steady state executes a fused superblock body instead of
// chaining fragments. Linked-loop is the pure win case (no indirect
// branches, every exit elided), call-ret exercises fast calls and return
// guards inside a trace, and guard-thrash is the adversarial case — a
// megamorphic dispatch whose guards must patch out, leaving side exits as
// the dominant path.

func BenchmarkRunSuperblockLinkedLoop(b *testing.B) {
	runDispatchBench(b, benchLinkedSrc, "trace+ibtc:4096")
}

func BenchmarkRunSuperblockCallRet(b *testing.B) {
	runDispatchBench(b, benchCallRetSrc, "trace+fastret+ibtc:4096")
}

func BenchmarkRunSuperblockGuardThrash(b *testing.B) {
	runDispatchBench(b, benchGuardThrashSrc, "trace+ibtc:4096")
}

// The BenchmarkRunAdaptive family runs the same guests under per-site
// adaptive selection: dispatch is the polymorphic case (the 4-target site
// promotes to the IBTC tier and re-translates once), call-ret is the
// monomorphic case (every site stays on the one-compare inline tier), and
// guard-thrash is the megamorphic adversary. These track both the
// steady-state cost of the per-resolve policy evaluation and the one-time
// promotion machinery.

func BenchmarkRunAdaptiveDispatch(b *testing.B) {
	runDispatchBench(b, benchDispatchSrc, "adaptive:4096")
}

func BenchmarkRunAdaptiveCallRet(b *testing.B) {
	runDispatchBench(b, benchCallRetSrc, "adaptive:4096")
}

func BenchmarkRunAdaptiveGuardThrash(b *testing.B) {
	runDispatchBench(b, benchGuardThrashSrc, "adaptive:4096")
}

// BenchmarkFlushStorm squeezes the fragment cache far below the working
// set, so the VM flushes continuously: it measures the cost of flush +
// retranslation churn. Flush must be O(live fragments) with no wholesale
// table reallocation — this benchmark regressing means flush pressure got
// expensive again.
func BenchmarkFlushStorm(b *testing.B) {
	img := benchImage(b, benchDispatchSrc)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := ib.Parse("ibtc:64")
		if err != nil {
			b.Fatal(err)
		}
		vm, err := core.New(img, core.Options{
			Model:      hostarch.X86(),
			Handler:    cfg.Handler,
			CacheBytes: 192,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Run(0); err != nil {
			b.Fatal(err)
		}
		if vm.Prof.Flushes == 0 {
			b.Fatal("flush storm never flushed")
		}
		insts += vm.State.Instret
		vm.Recycle()
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "guest-MIPS")
}
