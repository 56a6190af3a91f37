package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"sdt/internal/workload"
)

// coldSeq makes every cold-bench request unique across iterations, runs
// and parallel client goroutines.
var coldSeq atomic.Int64

// Serving-path benchmarks: requests/sec through the full HTTP + store +
// pool stack, cold (every request a distinct program, so every request
// executes) and cached (one program, so after the first request everything
// is a store hit). Run at pool sizes 1, 4 and GOMAXPROCS to see admission
// and dedup costs separately from execution costs.

func poolSizes() []int {
	sizes := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		sizes = append(sizes, n)
	}
	return sizes
}

func benchServer(b *testing.B, workers int) *httptest.Server {
	b.Helper()
	s, err := New(Config{Workers: workers, QueueDepth: 1024, MemEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func benchSubmit(b *testing.B, ts *httptest.Server, req RunRequest) {
	b.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d: %s", resp.StatusCode, data)
	}
}

// benchReq returns the benchmark guest; i != 0 makes the program (and so
// its key) unique per iteration.
func benchReq(i int) RunRequest {
	src := strings.Replace(quickSrc, "li r11, 64", fmt.Sprintf("li r11, %d", 64+i%1024), 1)
	return RunRequest{Name: "bench.s", Source: src, Mech: "ibtc:4096", Seed: uint64(i)}
}

func BenchmarkServiceCold(b *testing.B) {
	for _, workers := range poolSizes() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ts := benchServer(b, workers)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					benchSubmit(b, ts, benchReq(int(coldSeq.Add(1))))
				}
			})
		})
	}
}

// BenchmarkServiceCached submits one program repeatedly, so after the
// first request every request is a store hit. quick is a 15-line source;
// gcc is a SPEC-shaped one (about 4 KB) whose assembly would dominate a
// hit if the server compiled every submission.
func BenchmarkServiceCached(b *testing.B) {
	gcc, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	for _, prog := range []struct{ name, source string }{
		{"quick", quickSrc},
		{"gcc", gcc.Generate(gcc.ScaledDown(50))},
	} {
		for _, workers := range poolSizes() {
			b.Run(fmt.Sprintf("src=%s/workers=%d", prog.name, workers), func(b *testing.B) {
				ts := benchServer(b, workers)
				req := RunRequest{Name: prog.name, Source: prog.source, Mech: "ibtc:4096"}
				benchSubmit(b, ts, req) // warm the store
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						benchSubmit(b, ts, req)
					}
				})
			})
		}
	}
}

// serveMix returns the /v1/run programs of perfbench's serve workload,
// as it submits them: the 12 SPEC-shaped sources at ScaledDown(50) and
// the micro.mcvm MiniC source.
func serveMix(tb testing.TB) []RunRequest {
	tb.Helper()
	var reqs []RunRequest
	for _, name := range workload.SPECNames() {
		spec, err := workload.Get(name)
		if err != nil {
			tb.Fatal(err)
		}
		reqs = append(reqs, RunRequest{Name: name, Lang: LangAsm, Source: spec.Generate(spec.ScaledDown(50)), Arch: "arm", Mech: "sieve:16384", Seed: 0x9e3779b97f4a7c15})
	}
	mc, err := workload.Get("micro.mcvm")
	if err != nil {
		tb.Fatal(err)
	}
	return append(reqs, RunRequest{Name: "mcvm", Lang: LangMiniC, Source: workload.MCVMSource(mc.ScaledDown(50)), Arch: "x86", Mech: "ibtc:16384", Seed: 7})
}

// BenchmarkRunHit times one /v1/run store hit through the handler alone,
// with no loopback: after one warm-up run the program is in the
// image memo and its result in the store, so a hit is request decoding,
// the memo and store lookups and the response write. quick is a 15-line
// source; gcc, perlbmk and mcvm are serve-mix bodies of about 4.8, 7.4
// and 2 KB.
func BenchmarkRunHit(b *testing.B) {
	reqs := []RunRequest{{Name: "quick", Source: quickSrc, Mech: "ibtc:4096"}}
	for _, req := range serveMix(b) {
		if req.Name == "gcc" || req.Name == "perlbmk" || req.Name == "mcvm" {
			reqs = append(reqs, req)
		}
	}
	for _, req := range reqs {
		b.Run("src="+req.Name, func(b *testing.B) {
			s, err := New(Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			body, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			hit := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				return rec
			}
			hit() // execute once: every timed request is a hit
			if rec := hit(); !bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"cached":true,`)) {
				b.Fatalf("second request is not a hit: %.80s", rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
		})
	}
}
