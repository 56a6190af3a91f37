package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdt/internal/program"
)

// freshKey is the store key RunRequest.key derives from a fresh compile
// of req, the definition every memoized key must equal.
func freshKey(t *testing.T, req RunRequest) string {
	t.Helper()
	req.withDefaults()
	img, err := req.compile()
	if err != nil {
		t.Fatal(err)
	}
	return req.key(img)
}

// memoMisses is the image memo's cumulative build count.
func memoMisses(s *Server) uint64 {
	_, misses := s.images.Stats()
	return misses
}

// For asm and MiniC, every /v1/run key must equal RunRequest.key of a
// fresh compile: on the build that fills the memo, on the hit after it,
// for the same source under another name, for another source under the
// same name, and for a formatting-only edit, which misses the memo but
// compiles to the same image and so still hits the store.
func TestImageMemoKeysMatchFreshCompile(t *testing.T) {
	for _, lang := range []struct {
		lang, src, other, reformatted string
	}{
		{LangAsm, quickSrc,
			strings.Replace(quickSrc, "li r11, 64", "li r11, 32", 1),
			strings.ReplaceAll(quickSrc, "\t", "    ") + "\n; formatting only\n"},
		{LangMiniC, minicSrc,
			strings.Replace(minicSrc, "twice(21)", "twice(20)", 1),
			strings.ReplaceAll(minicSrc, " ", "  ") + "\n\n"},
	} {
		s, ts := newTestServer(t, Config{Workers: 2})
		steps := []struct {
			what      string
			name, src string
			memoHit   bool
			cached    bool
			keyOf     int // the first step whose key this step's must equal
		}{
			{"first", "p", lang.src, false, false, 0},
			{"repeat", "p", lang.src, true, true, 0},
			{"renamed", "q", lang.src, false, false, 2},
			{"other source", "p", lang.other, false, false, 3},
			{"reformatted", "p", lang.reformatted, false, true, 0},
		}
		var keys []string
		for _, st := range steps {
			req := RunRequest{Name: st.name, Lang: lang.lang, Source: st.src, Mech: "ibtc:512"}
			before := memoMisses(s)
			status, data := submit(t, ts, req)
			if status != http.StatusOK {
				t.Fatalf("%s %s: status %d, body %s", lang.lang, st.what, status, data)
			}
			resp, res := decodeRun(t, data)
			if want := freshKey(t, req); res.Key != want {
				t.Errorf("%s %s: key %s, RunRequest.key of a fresh compile %s", lang.lang, st.what, res.Key, want)
			}
			if hit := memoMisses(s) == before; hit != st.memoHit {
				t.Errorf("%s %s: memo hit = %v, want %v", lang.lang, st.what, hit, st.memoHit)
			}
			if resp.Cached != st.cached {
				t.Errorf("%s %s: cached = %v, want %v", lang.lang, st.what, resp.Cached, st.cached)
			}
			for j, k := range keys {
				if same := k == res.Key; same != (steps[j].keyOf == st.keyOf) {
					t.Errorf("%s %s: key equal to %s's = %v", lang.lang, st.what, steps[j].what, same)
				}
			}
			keys = append(keys, res.Key)
		}
	}
}

// Concurrent first submissions of one program compile it once: the memo
// counts one miss however the eight requests interleave.
func TestImageMemoSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	spec := mustWorkload(t, "gcc")
	body, err := json.Marshal(RunRequest{Name: "gcc", Source: spec.Generate(spec.ScaledDown(50)), Mech: "ibtc:512"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(resp.Body)
				t.Errorf("status %d, body %s", resp.StatusCode, data)
			}
		}()
	}
	close(start)
	wg.Wait()
	if hits, misses := s.images.Stats(); misses != 1 || hits != n-1 {
		t.Errorf("memo hits/misses = %d/%d after %d concurrent first submissions, want %d/1", hits, misses, n, n-1)
	}
}

// bigSrc assembles to an image heavier than the memo's byte bound.
const bigSrc = `
.mem 0x800000
.data
pad:
.space 4200000
.text
main:
	li r1, 7
	out r1
	halt
`

// A program over the byte bound still runs and still hits the store, but
// is compiled for every request and never displaces memoized images.
func TestImageMemoOversizedProgram(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if status, data := submit(t, ts, RunRequest{Source: quickSrc}); status != http.StatusOK {
		t.Fatalf("small program: status %d, body %s", status, data)
	}
	req := RunRequest{Name: "big.s", Source: bigSrc}
	for i, wantCached := range []bool{false, true} {
		before := memoMisses(s)
		status, data := submit(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("big program run %d: status %d, body %s", i, status, data)
		}
		resp, res := decodeRun(t, data)
		if resp.Cached != wantCached || res.Key != freshKey(t, req) {
			t.Errorf("big program run %d: cached %v key %s, want %v and RunRequest.key", i, resp.Cached, res.Key, wantCached)
		}
		if memoMisses(s) != before+1 {
			t.Errorf("big program run %d was not compiled afresh", i)
		}
		_, _, entries, size := s.imageMemoStats()
		if entries != 1 || size > imageMemoBytes {
			t.Errorf("big program run %d: memo holds %d entries, %d bytes; want the small program only, at most %d bytes", i, entries, size, imageMemoBytes)
		}
	}
}

// An invalid program answers 400 invalid_program with its compiler's
// message, and the failure is not memoized: the same bad request
// compiles again. The valid asm program submitted first shares its name
// and source with the unknown-language case, which must not reach it.
func TestImageMemoInvalidProgramNotMemoized(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, data := submit(t, ts, RunRequest{Source: quickSrc}); status != http.StatusOK {
		t.Fatalf("valid program: status %d, body %s", status, data)
	}
	for _, tc := range badRuns {
		if tc.wantCode != CodeInvalidProgram {
			continue
		}
		req := tc.req
		req.withDefaults()
		_, compileErr := req.compile()
		if compileErr == nil {
			t.Fatalf("%s: compiles", tc.name)
		}
		for attempt := range 2 {
			before := memoMisses(s)
			status, data := submit(t, ts, tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("%s attempt %d: status %d, want 400", tc.name, attempt, status)
			}
			if e := decodeError(t, data); e.Code != CodeInvalidProgram || e.Message != compileErr.Error() {
				t.Errorf("%s attempt %d: error %+v, want %s %q", tc.name, attempt, e, CodeInvalidProgram, compileErr)
			}
			if memoMisses(s) != before+1 {
				t.Errorf("%s attempt %d: not compiled again", tc.name, attempt)
			}
		}
	}
	if _, _, entries, _ := s.imageMemoStats(); entries != 1 {
		t.Errorf("memo holds %d entries, want only the valid program", entries)
	}
}

// A request whose context ends while it waits on another request's
// compile of the same program answers with mapError's status for the
// cause, not 400, and does not compile itself.
func TestImageMemoWaiterContextEnds(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := RunRequest{Name: "slow.s", Source: quickSrc}
	leaderReq := req
	leaderReq.withDefaults()
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := s.compiled(context.Background(), runImageKey(&leaderReq), &leaderReq, func() (*program.Image, error) {
			close(started)
			<-release
			return leaderReq.compile()
		})
		leader <- err
	}()
	<-started

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		ctx    func() (context.Context, context.CancelFunc)
		status int
		code   string
	}{
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 20*time.Millisecond)
		}, http.StatusGatewayTimeout, CodeDeadlineExceeded},
		{"canceled", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(20*time.Millisecond, cancel)
			return ctx, cancel
		}, 499, CodeCanceled},
	} {
		ctx, cancel := tc.ctx()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)).WithContext(ctx))
		cancel()
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.status, rec.Body)
			continue
		}
		if e := decodeError(t, rec.Body.Bytes()); e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader compile: %v", err)
	}
	if misses := memoMisses(s); misses != 1 {
		t.Errorf("memo misses = %d, want 1 (waiters must not compile)", misses)
	}
}

// Sweeps over more distinct scales than the memo's entry bound leave it
// within both bounds, and every cell's result is still the one a direct
// run of a freshly generated image produces.
func TestSweepImageMemoBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	scales := make([]int, imageMemoEntries+8)
	for i := range scales {
		scales[i] = i + 1
	}
	req := SweepRequest{Workloads: []string{"micro.ret"}, Mechs: []string{"ibtc:256"}, Scales: scales, Limit: 1 << 24}
	status, recs := submitSweep(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("sweep status = %d", status)
	}
	_, cells, done := splitSweep(t, recs)
	if len(cells) != len(scales) || done.Errors != 0 {
		t.Fatalf("sweep: %d cells, %d errors; want %d, 0", len(cells), done.Errors, len(scales))
	}
	_, misses, entries, size := s.imageMemoStats()
	if misses != uint64(len(scales)) || entries > imageMemoEntries || size > imageMemoBytes {
		t.Errorf("memo: %d builds, %d entries, %d bytes; want %d builds within %d entries and %d bytes",
			misses, entries, size, len(scales), imageMemoEntries, imageMemoBytes)
	}
	spec := mustWorkload(t, "micro.ret")
	for _, c := range cells {
		img, err := spec.Image(c.Scale)
		if err != nil {
			t.Fatal(err)
		}
		rr := &RunRequest{Name: c.Workload, Lang: LangWorkload, Arch: c.Arch, Mech: c.Mech, Limit: req.Limit}
		want, err := s.runJob(context.Background(), rr.key(img), img, rr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Result, want) {
			t.Errorf("scale %d: cell result differs from a direct run:\n%s\n%s", c.Scale, c.Result, want)
		}
	}
}

// runImageKey is the sha256 of the length-prefixed language, name and
// source, byte for byte, and hashes the strings where they lie: its
// allocations are the digest's and the key's, with no copy of a 64 KiB
// source. io.WriteString on the digest, which has no WriteString method,
// copied each string before hashing it.
func TestRunImageKeyHashesInPlace(t *testing.T) {
	req := &RunRequest{Lang: LangAsm, Name: "big", Source: strings.Repeat("\tnop\n", 64<<10/5)}
	var buf bytes.Buffer
	for _, s := range []string{req.Lang, req.Name, req.Source} {
		binary.Write(&buf, binary.LittleEndian, uint64(len(s)))
		buf.WriteString(s)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got, want := runImageKey(req), "run|"+hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("runImageKey = %s, want %s", got, want)
	}
	// The digest's and the key's own allocations; the version that
	// copied each string made 8.
	const budget = 4
	if allocs := testing.AllocsPerRun(100, func() { runImageKey(req) }); allocs > budget {
		t.Errorf("runImageKey allocates %v times per call, want at most %d", allocs, budget)
	}
}
