package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sdt/internal/hostarch"
	"sdt/internal/ib"
)

// quickSrc is a small returns-dense program that halts on its own.
const quickSrc = `
main:
	li r10, 0
	li r11, 64
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

// spinSrc never halts; only a deadline, cancellation or the instruction
// budget stops it.
const spinSrc = `
main:
	li r10, 0
spin:
	addi r10, r10, 1
	jmp spin
`

// minicSrc exercises the MiniC front end.
const minicSrc = `
func twice(x) { return x + x; }
func main() { out twice(21); }
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req RunRequest) (int, []byte) {
	t.Helper()
	return submitCtx(t, context.Background(), ts, req)
}

func submitCtx(t *testing.T, ctx context.Context, ts *httptest.Server, req RunRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeRun(t *testing.T, data []byte) (RunResponse, RunResult) {
	t.Helper()
	var resp RunResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decoding response %q: %v", data, err)
	}
	var res RunResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("decoding result %q: %v", resp.Result, err)
	}
	return resp, res
}

func decodeError(t *testing.T, data []byte) ErrorInfo {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("decoding error body %q: %v", data, err)
	}
	return e.Error
}

func TestRunColdThenCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := RunRequest{Name: "quick.s", Source: quickSrc, Arch: "x86", Mech: "ibtc:4096"}

	status, data := submit(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("cold submit: status %d, body %s", status, data)
	}
	resp1, res1 := decodeRun(t, data)
	if resp1.Cached {
		t.Error("first submission claims to be cached")
	}
	if res1.Slowdown <= 1 {
		t.Errorf("slowdown = %v, want > 1", res1.Slowdown)
	}
	if res1.Profile.IBReturns == 0 {
		t.Error("returns-dense program reports no return lookups")
	}
	if res1.SDT.Instret != res1.Native.Instret || res1.SDT.Checksum != res1.Native.Checksum {
		t.Errorf("sdt/native mismatch in result: %+v vs %+v", res1.SDT, res1.Native)
	}

	status, data = submit(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("warm submit: status %d, body %s", status, data)
	}
	resp2, _ := decodeRun(t, data)
	if !resp2.Cached {
		t.Error("second submission was not served from cache")
	}
	if !bytes.Equal(resp1.Result, resp2.Result) {
		t.Errorf("cached result differs:\n%s\n%s", resp1.Result, resp2.Result)
	}
	if got := s.met.runsTotal.total(); got != 1 {
		t.Errorf("runs executed = %d, want 1", got)
	}

	// The result is also addressable directly.
	hres, err := http.Get(ts.URL + "/v1/result/" + res1.Key)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := io.ReadAll(hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK || !bytes.Equal(direct, resp1.Result) {
		t.Errorf("GET /v1/result: status %d, body %s", hres.StatusCode, direct)
	}
}

func TestRunMiniC(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, data := submit(t, ts, RunRequest{Name: "t.mc", Lang: LangMiniC, Source: minicSrc, Mech: "sieve:64"})
	if status != http.StatusOK {
		t.Fatalf("minic submit: status %d, body %s", status, data)
	}
	_, res := decodeRun(t, data)
	if res.Native.OutCount != 1 {
		t.Errorf("out count = %d, want 1", res.Native.OutCount)
	}
}

// badRuns are /v1/run bodies refused with a 400 and the given code.
var badRuns = []struct {
	name     string
	req      RunRequest
	wantCode string
}{
	{"bad arch", RunRequest{Source: quickSrc, Arch: "mips"}, CodeInvalidArgument},
	{"bad mech", RunRequest{Source: quickSrc, Mech: "warp:9"}, CodeInvalidArgument},
	{"bad asm", RunRequest{Source: "frobnicate r1, r2"}, CodeInvalidProgram},
	{"bad minic", RunRequest{Lang: LangMiniC, Source: "func {"}, CodeInvalidProgram},
	{"bad lang", RunRequest{Lang: "cobol", Source: quickSrc}, CodeInvalidProgram},
}

// badRunBodies are raw /v1/run bodies refused with 400 invalid_request.
var badRunBodies = []struct{ name, body string }{
	{"malformed JSON", `{"source":`},
	{"unknown field", `{"source":"halt","bogus":1}`},
	{"string for a number", `{"source":"halt","seed":"7"}`},
	{"negative seed", `{"source":"halt","seed":-1}`},
	{"fractional limit", `{"source":"halt","limit":1.5}`},
	{"truncated string", `{"source":"hal`},
	{"empty body", ``},
	{"over-cap body", `{"source":"halt"}` + strings.Repeat(" ", badRunCap)},
	{"trailing garbage", `{"source":"halt"} trailing`},
}

// badRunCap is TestBadRequests' MaxBodyBytes.
const badRunCap = 4096

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: badRunCap})
	for _, tc := range badRuns {
		status, data := submit(t, ts, tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, status, data)
			continue
		}
		if e := decodeError(t, data); e.Code != tc.wantCode {
			t.Errorf("%s: code = %q, want %q", tc.name, e.Code, tc.wantCode)
		}
	}
	post := func(body string) (int, []byte) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	for _, tc := range badRunBodies {
		status, data := post(tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, status, data)
			continue
		}
		if e := decodeError(t, data); e.Code != CodeInvalidRequest {
			t.Errorf("%s: code = %q, want %q", tc.name, e.Code, CodeInvalidRequest)
		}
	}
	// encoding/json matches keys case-insensitively, and so does sdtd.
	if status, data := post(`{"Source":"halt"}`); status != http.StatusOK {
		t.Errorf("case-variant key: status = %d, want 200 (body %s)", status, data)
	}
}

// FuzzDecodeRun feeds arbitrary bodies to the /v1/run decoder and checks
// it against the reference, decodeJSON. A body the scanner accepts must
// decode to the reference's RunRequest. decodeRun must refuse with
// invalid_request exactly the bodies the reference refuses, and for the
// rest return the reference's request with its defaults applied, or
// refuse it with invalid_argument for an unknown arch or mechanism.
func FuzzDecodeRun(f *testing.F) {
	for _, tc := range badRuns {
		raw, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, tc := range badRunBodies {
		if len(tc.body) < 1<<10 {
			f.Add([]byte(tc.body))
		}
	}
	for _, body := range append(scanAccepts, scanDeclines...) {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"source":"halt","arch":"arm-like","mech":"retcache+ibtc:128","timeout_ms":-1}`))
	s := &Server{cfg: Config{}.withDefaults()}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScan(t, body)
		var ref RunRequest
		refErr := decodeJSON(body, &ref)
		req, bad := s.decodeRun(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if refErr != nil {
			if bad == nil || bad.Code != CodeInvalidRequest {
				t.Fatalf("reference refused %.80q (%v), decodeRun gave %+v, %+v", body, refErr, req, bad)
			}
			return
		}
		ref.withDefaults()
		_, archErr := hostarch.ByName(ref.Arch)
		_, mechErr := ib.Parse(ref.Mech)
		if bad != nil {
			if bad.Code != CodeInvalidArgument || archErr == nil && mechErr == nil {
				t.Fatalf("refused %.80q with %+v; reference decoded %+v", body, bad, ref)
			}
			return
		}
		if archErr != nil || mechErr != nil {
			t.Fatalf("accepted %.80q with arch %q, mech %q: %v, %v", body, req.Arch, req.Mech, archErr, mechErr)
		}
		if req.Name == "" || req.Lang == "" || req.Arch == "" || req.Mech == "" {
			t.Fatalf("accepted %.80q without its defaults: %+v", body, req)
		}
		if req != ref {
			t.Fatalf("decoded %.80q as %+v, reference %+v", body, req, ref)
		}
	})
}

// Identical concurrent submissions must collapse to a single execution.
func TestConcurrentSubmitStormDedups(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	req := RunRequest{Name: "storm.s", Source: quickSrc, Mech: "ibtc:1024"}

	const n = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	var cold int
	var results [][]byte
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, data := submit(t, ts, req)
			if status != http.StatusOK {
				t.Errorf("storm submit: status %d, body %s", status, data)
				return
			}
			resp, _ := decodeRun(t, data)
			mu.Lock()
			defer mu.Unlock()
			if !resp.Cached {
				cold++
			}
			results = append(results, resp.Result)
		}()
	}
	wg.Wait()

	if got := s.met.runsTotal.total(); got != 1 {
		t.Errorf("runs executed = %d, want 1 (dedup failed)", got)
	}
	if cold != 1 {
		t.Errorf("%d submissions reported cached=false, want exactly 1", cold)
	}
	for i := 1; i < len(results); i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("result %d differs from result 0", i)
		}
	}
}

// A deadline must stop a runaway guest mid-loop with a distinct error
// code, well before the instruction budget would.
func TestDeadlineExceededMidGuest(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	start := time.Now()
	status, data := submit(t, ts, RunRequest{Name: "spin.s", Source: spinSrc, TimeoutMS: 100})
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", status, data)
	}
	if e := decodeError(t, data); e.Code != CodeDeadlineExceeded {
		t.Errorf("code = %q, want %q", e.Code, CodeDeadlineExceeded)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline response took %v, want well under 2s for a 100ms deadline", elapsed)
	}
	// execute answers on ctx.Done() before runJob's deferred outcome
	// increment, so the counter may trail the response.
	runs := s.met.runsTotal.get(outcomeDeadline)
	waitFor(t, "deadline outcome count", func() bool { return runs.Value() != 0 })
	if got := runs.Value(); got != 1 {
		t.Errorf("deadline outcome count = %d, want 1", got)
	}
}

// The instruction budget is still enforced and maps to its own code.
func TestInstructionLimitExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, data := submit(t, ts, RunRequest{Name: "spin.s", Source: spinSrc, Limit: 50_000})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", status, data)
	}
	if e := decodeError(t, data); e.Code != CodeLimitExceeded {
		t.Errorf("code = %q, want %q", e.Code, CodeLimitExceeded)
	}
}

// spinReq returns a unique never-halting request (distinct cache keys so
// submissions do not dedup).
func spinReq(i int, timeoutMS int64) RunRequest {
	src := strings.Replace(spinSrc, "li r10, 0", fmt.Sprintf("li r10, %d", i), 1)
	return RunRequest{Name: fmt.Sprintf("spin%d.s", i), Source: src, TimeoutMS: timeoutMS}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// With one worker and a one-slot queue, a third distinct submission must
// be rejected with 429 + Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// These run until the test cancels them; status is irrelevant.
			submitCancelable(t, ctx, ts, spinReq(i, 30_000))
		}(i)
	}
	// One job on the worker, one in the queue.
	waitFor(t, "worker busy", func() bool { return s.inflight.Load() == 1 })
	waitFor(t, "queue full", func() bool { return s.pool.depth() == 1 })

	body, _ := json.Marshal(spinReq(99, 30_000))
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, data)
	}
	// Retry-After must be present and a computed, sane backoff: an
	// integer number of seconds within the documented [1, 30] bounds.
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Error("429 response carries no Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 30 {
		t.Errorf("Retry-After = %q, want an integer in [1, 30]", ra)
	}
	if e := decodeError(t, data); e.Code != CodeQueueFull {
		t.Errorf("code = %q, want %q", e.Code, CodeQueueFull)
	}

	cancel() // release the stuck jobs; VM stops at the next ctx check
	wg.Wait()
}

// submitCancelable is submit but tolerant of the transport error produced
// when ctx is cancelled mid-request.
func submitCancelable(t *testing.T, ctx context.Context, ts *httptest.Server, req RunRequest) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return // cancelled — expected
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Draining must finish in-flight work while rejecting new submissions.
func TestGracefulDrainFinishesInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	// A finite but slow job: ~1.6M instructions.
	slow := RunRequest{Name: "slow.s", Source: `
main:
	li r10, 0
	lui r11, 12
loop:
	addi r10, r10, 1
	blt r10, r11, loop
	out r10
	halt
`}
	type outcome struct {
		status int
		data   []byte
	}
	ch := make(chan outcome, 1)
	go func() {
		status, data := submit(t, ts, slow)
		ch <- outcome{status, data}
	}()
	waitFor(t, "job in flight", func() bool { return s.inflight.Load() >= 1 })

	s.StartDrain()

	// New work is refused...
	status, data := submit(t, ts, RunRequest{Source: quickSrc})
	if status != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503 (body %s)", status, data)
	}
	if e := decodeError(t, data); e.Code != CodeDraining {
		t.Errorf("draining code = %q, want %q", e.Code, CodeDraining)
	}
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hres.StatusCode)
	}

	// ...but the in-flight job completes.
	got := <-ch
	if got.status != http.StatusOK {
		t.Fatalf("in-flight job during drain: status %d, body %s", got.status, got.data)
	}
	s.Close() // must not hang
}

// Results must survive a full server restart via the on-disk layer.
func TestDiskStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := RunRequest{Name: "persist.s", Source: quickSrc, Mech: "retcache:256+ibtc:256"}

	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	status, data := submit(t, ts1, req)
	if status != http.StatusOK {
		t.Fatalf("first server submit: status %d, body %s", status, data)
	}
	resp1, _ := decodeRun(t, data)
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	status, data = submit(t, ts2, req)
	if status != http.StatusOK {
		t.Fatalf("restarted server submit: status %d, body %s", status, data)
	}
	resp2, _ := decodeRun(t, data)
	if !resp2.Cached {
		t.Error("restarted server did not serve from the on-disk store")
	}
	if !bytes.Equal(resp1.Result, resp2.Result) {
		t.Errorf("result changed across restart:\n%s\n%s", resp1.Result, resp2.Result)
	}
	if st := s2.Store().Stats(); st.DiskHits == 0 {
		t.Errorf("store stats after restart: %+v, want a disk hit", st)
	}
	if got := s2.met.runsTotal.total(); got != 0 {
		t.Errorf("restarted server executed %d runs, want 0", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	submit(t, ts, RunRequest{Source: quickSrc})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		`sdtd_requests_total{path="/v1/run",code="200"} 1`,
		`sdtd_runs_total{outcome="ok"} 1`,
		"sdtd_run_latency_seconds_count 1",
		"sdtd_translated_fragments_total",
		`sdtd_ib_lookups_total{mech="ibtc:16384",kind="return"}`,
		"sdtd_cache_misses_total 1",
		"sdtd_queue_depth 0",
		"sdtd_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n--- exposition:\n%s", want, text)
		}
	}
}

// A panicking job must produce a 500 for its caller and leave the worker
// alive for the next job.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// Reach into the pool directly with a job that panics; the HTTP
	// surface has no intentional panic path.
	j := newJob(context.Background(), func(context.Context) ([]byte, error) {
		panic("boom")
	})
	if err := s.pool.submit(j); err != nil {
		t.Fatal(err)
	}
	<-j.done
	if j.err == nil || !strings.Contains(j.err.Error(), "boom") {
		t.Fatalf("panicking job error = %v, want wrapped panic", j.err)
	}
	// The single worker must still serve real traffic.
	status, data := submit(t, ts, RunRequest{Source: quickSrc})
	if status != http.StatusOK {
		t.Fatalf("submit after panic: status %d, body %s", status, data)
	}
}
