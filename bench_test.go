// Benchmarks regenerating the paper's evaluation: one testing.B benchmark
// per experiment (table/figure), E1..E12. Each benchmark executes its
// experiment end-to-end at reduced workload scale and reports the headline
// metric it produces (geomean slowdown where applicable) alongside Go's
// timing. Run a single experiment at full scale with cmd/sdtbench.
package sdt_test

import (
	"io"
	"testing"

	"sdt/internal/bench"
	"sdt/internal/hostarch"
	"sdt/internal/machine"
	"sdt/internal/workload"
)

// benchRunner returns a Runner shrunk for benchmarking.
func benchRunner() *bench.Runner {
	r := bench.NewRunner()
	r.ScaleDivisor = 8
	return r
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if err := e.Run(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// geomeanSlowdown runs the suite under one spec and reports the geometric
// mean slowdown as a benchmark metric.
func geomeanSlowdown(b *testing.B, r *bench.Runner, arch, spec string) {
	b.Helper()
	var vals []float64
	for _, wl := range workload.SPECNames() {
		res, err := r.Run(wl, arch, spec)
		if err != nil {
			b.Fatal(err)
		}
		vals = append(vals, res.Slowdown())
	}
	b.ReportMetric(bench.Geomean(vals), "slowdown-x")
}

func BenchmarkE1Characterization(b *testing.B) { runExperiment(b, "E1") }

func BenchmarkE2Naive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		geomeanSlowdown(b, r, "x86", bench.SpecNaive)
	}
}

func BenchmarkE3IBTCSweep(b *testing.B) { runExperiment(b, "E3") }

func BenchmarkE4SharedVsPrivate(b *testing.B) { runExperiment(b, "E4") }

func BenchmarkE5InlineDepth(b *testing.B) { runExperiment(b, "E5") }

func BenchmarkE6SieveSweep(b *testing.B) { runExperiment(b, "E6") }

func BenchmarkE7FastReturns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		geomeanSlowdown(b, r, "x86", bench.SpecFastRet)
	}
}

func BenchmarkE8BestX86(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		geomeanSlowdown(b, r, "x86", bench.SpecIBTC)
	}
}

func BenchmarkE9BestSPARC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		geomeanSlowdown(b, r, "sparc", bench.SpecIBTC)
	}
}

func BenchmarkE10Breakdown(b *testing.B) { runExperiment(b, "E10") }

func BenchmarkE11FlagsAblation(b *testing.B) { runExperiment(b, "E11") }

func BenchmarkE12PredictorAblation(b *testing.B) { runExperiment(b, "E12") }

func BenchmarkE13CachePressure(b *testing.B) { runExperiment(b, "E13") }

func BenchmarkE15IBTCOrganization(b *testing.B) { runExperiment(b, "E15") }

func BenchmarkE16Traces(b *testing.B) { runExperiment(b, "E16") }

func BenchmarkE17PerKindAttribution(b *testing.B) { runExperiment(b, "E17") }

func BenchmarkE18Adaptive(b *testing.B) { runExperiment(b, "E18") }

// Simulator throughput benchmarks: how fast the laboratory itself runs,
// in retired guest instructions per second.

func BenchmarkSimulatorNative(b *testing.B) {
	spec, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	img, err := spec.Image(spec.ScaledDown(8))
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.RunImage(img, hostarch.X86(), 0)
		if err != nil {
			b.Fatal(err)
		}
		insts += m.Result().Instret
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "guest-MIPS")
}

func BenchmarkSimulatorSDT(b *testing.B) {
	r := benchRunner()
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.RunWithModel("gcc", bench.SpecIBTC, hostarch.X86())
		if err != nil {
			b.Fatal(err)
		}
		insts += res.SDT.Instret
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "guest-MIPS")
}
