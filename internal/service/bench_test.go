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
