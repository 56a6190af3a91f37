package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"sdt/internal/hostarch"
	"sdt/internal/sweep"
	"sdt/internal/workload"
)

func mustWorkload(t *testing.T, name string) *workload.Spec {
	t.Helper()
	spec, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// sweepRecord is the union of every NDJSON record type, for decoding a
// stream line by line in tests.
type sweepRecord struct {
	Type     string `json:"type"`
	Index    int    `json:"index"`
	Workload string `json:"workload"`
	Arch     string `json:"arch"`
	Mech     string `json:"mech"`
	Scale    int    `json:"scale"`
	Cached   bool   `json:"cached"`
	// Replayed is bool on cell records and int on the done record; any
	// absorbs both shapes.
	Replayed  any             `json:"replayed"`
	Resumed   int             `json:"resumed"`
	Attempts  int             `json:"attempts"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Result    json.RawMessage `json:"result"`
	Error     *ErrorInfo      `json:"error"`
	Total     int             `json:"total"`
	Done      int             `json:"done"`
	Errors    int             `json:"errors"`
	Canceled  int             `json:"canceled"`
}

func submitSweep(t *testing.T, ts *httptest.Server, req SweepRequest) (int, []sweepRecord) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []sweepRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec sweepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("decoding stream line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, recs
}

// splitSweep indexes a stream by record type.
func splitSweep(t *testing.T, recs []sweepRecord) (start sweepRecord, cells map[int]sweepRecord, done sweepRecord) {
	t.Helper()
	cells = map[int]sweepRecord{}
	var haveStart, haveDone bool
	for _, rec := range recs {
		switch rec.Type {
		case "start":
			start, haveStart = rec, true
		case "cell":
			if _, dup := cells[rec.Index]; dup {
				t.Errorf("cell index %d emitted twice", rec.Index)
			}
			cells[rec.Index] = rec
		case "done":
			done, haveDone = rec, true
		case "progress":
			// heartbeats are timing-dependent; ignore
		default:
			t.Errorf("unknown record type %q", rec.Type)
		}
	}
	if !haveStart || !haveDone {
		t.Fatalf("stream missing start (%v) or done (%v) record", haveStart, haveDone)
	}
	return start, cells, done
}

// A small matrix must stream exactly one result record per cell, all
// successful, with indices covering the matrix in its deterministic
// expansion order.
func TestSweepStreamCompleteness(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	req := SweepRequest{
		Workloads: []string{"gzip", "vpr"},
		Mechs:     []string{"ibtc:4096", "sieve:1024"},
		Limit:     20_000_000,
	}
	status, recs := submitSweep(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	start, cells, done := splitSweep(t, recs)
	if start.Total != 4 {
		t.Errorf("start.total = %d, want 4", start.Total)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cell records, want 4", len(cells))
	}
	// Expansion is workload-major: gzip×ibtc, gzip×sieve, vpr×ibtc, vpr×sieve.
	wantCells := []struct{ wl, mech string }{
		{"gzip", "ibtc:4096"}, {"gzip", "sieve:1024"},
		{"vpr", "ibtc:4096"}, {"vpr", "sieve:1024"},
	}
	for i, want := range wantCells {
		c, ok := cells[i]
		if !ok {
			t.Errorf("no record for cell %d", i)
			continue
		}
		if c.Workload != want.wl || c.Mech != want.mech || c.Arch != "x86" {
			t.Errorf("cell %d = %s/%s/%s, want %s/x86/%s", i, c.Workload, c.Arch, c.Mech, want.wl, want.mech)
		}
		if c.Error != nil {
			t.Errorf("cell %d failed: %+v", i, c.Error)
			continue
		}
		var res RunResult
		if err := json.Unmarshal(c.Result, &res); err != nil {
			t.Fatalf("cell %d result: %v", i, err)
		}
		if res.Name != want.wl || res.Mech != want.mech || res.Lang != LangWorkload {
			t.Errorf("cell %d result = %s/%s lang %s", i, res.Name, res.Mech, res.Lang)
		}
		if res.Slowdown <= 1 {
			t.Errorf("cell %d slowdown = %v, want > 1", i, res.Slowdown)
		}
	}
	if done.Done != 4 || done.Errors != 0 || done.Canceled != 0 {
		t.Errorf("done = %+v, want 4/0/0", done)
	}
}

// One poisoned cell must produce exactly one error record while every
// other cell completes — per-cell isolation, never batch failure.
func TestSweepPoisonedCellIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	req := SweepRequest{
		Workloads: []string{"gzip", "nosuchworkload", "vpr"},
		Mechs:     []string{"ibtc:1024"},
		Limit:     20_000_000,
	}
	status, recs := submitSweep(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (errors are per-cell)", status)
	}
	_, cells, done := splitSweep(t, recs)
	if len(cells) != 3 {
		t.Fatalf("got %d cell records, want 3", len(cells))
	}
	for i, c := range cells {
		if c.Workload == "nosuchworkload" {
			if c.Error == nil || c.Error.Code != CodeInvalidArgument {
				t.Errorf("poisoned cell error = %+v, want code %q", c.Error, CodeInvalidArgument)
			}
		} else if c.Error != nil {
			t.Errorf("healthy cell %d (%s) failed: %+v", i, c.Workload, c.Error)
		}
	}
	if done.Done != 2 || done.Errors != 1 {
		t.Errorf("done = %+v, want done=2 errors=1", done)
	}
	if got := s.met.sweepCells.get(outcomeError).Value(); got != 1 {
		t.Errorf("sweep cell error count = %d, want 1", got)
	}
}

// Resubmitting an identical sweep must serve every cell from the store —
// no new executions — with per-cell result bytes identical to the first
// stream's.
func TestSweepCachedResubmit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	req := SweepRequest{
		Workloads: []string{"gzip"},
		Mechs:     []string{"ibtc:1024", "translator"},
		Limit:     20_000_000,
	}
	status, recs := submitSweep(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("cold sweep status = %d", status)
	}
	_, cold, _ := splitSweep(t, recs)
	executed := s.met.runsTotal.total()
	if executed == 0 {
		t.Fatal("cold sweep executed nothing")
	}

	status, recs = submitSweep(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("warm sweep status = %d", status)
	}
	_, warm, _ := splitSweep(t, recs)
	if got := s.met.runsTotal.total(); got != executed {
		t.Errorf("warm sweep executed %d new runs, want 0", got-executed)
	}
	for i, c := range warm {
		if !c.Cached {
			t.Errorf("warm cell %d not served from cache", i)
		}
		if !bytes.Equal(c.Result, cold[i].Result) {
			t.Errorf("warm cell %d result differs from cold:\n%s\n%s", i, cold[i].Result, c.Result)
		}
	}
}

// A sweep cell and a direct /v1/run of the same program share one cache
// entry: the sweep populates it, the direct submission hits it.
func TestSweepSharesStoreWithRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	status, recs := submitSweep(t, ts, SweepRequest{
		Workloads: []string{"gzip"},
		Mechs:     []string{"ibtc:1024"},
		Limit:     20_000_000,
	})
	if status != http.StatusOK {
		t.Fatalf("sweep status = %d", status)
	}
	_, cells, _ := splitSweep(t, recs)
	if cells[0].Error != nil {
		t.Fatalf("sweep cell failed: %+v", cells[0].Error)
	}
	executed := s.met.runsTotal.total()

	// The equivalent direct submission: same generated source, same tuple.
	spec := mustWorkload(t, "gzip")
	status, data := submit(t, ts, RunRequest{
		Name:   "gzip",
		Source: spec.Generate(0),
		Mech:   "ibtc:1024",
		Limit:  20_000_000,
	})
	if status != http.StatusOK {
		t.Fatalf("direct run status = %d, body %s", status, data)
	}
	resp, _ := decodeRun(t, data)
	if !resp.Cached {
		t.Error("direct /v1/run after the sweep was not served from cache")
	}
	if !bytes.Equal(resp.Result, cells[0].Result) {
		t.Errorf("direct result differs from sweep cell:\n%s\n%s", resp.Result, cells[0].Result)
	}
	if got := s.met.runsTotal.total(); got != executed {
		t.Errorf("direct run executed again (%d -> %d runs)", executed, got)
	}
}

// Disconnecting mid-stream must cancel outstanding cells: with a single
// worker and a wide matrix, most cells never start, which is observable
// in the run and sweep-cell counters.
func TestSweepClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(SweepRequest{
		Workloads: []string{"gzip", "vpr", "gcc", "mcf", "crafty", "parser",
			"eon", "perlbmk", "gap", "vortex", "bzip2", "twolf"},
		Mechs: []string{"ibtc:1024"},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read just the start record, then walk away mid-stream.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no first record: %v", sc.Err())
	}
	cancel()

	// The server must notice the disconnect and drain the remaining cells
	// as canceled without executing them.
	waitFor(t, "sweep to finish as canceled", func() bool {
		return s.met.sweepsTotal.get(outcomeCanceled).Value() == 1
	})
	if got := s.met.sweepCells.get(outcomeCanceled).Value(); got == 0 {
		t.Error("no sweep cells recorded as canceled")
	}
	if executed := s.met.runsTotal.total(); executed >= 12 {
		t.Errorf("all %d cells executed despite the disconnect", executed)
	}
}

// badSweepCap is the MaxSweepCells that badSweeps are refused under.
const badSweepCap = 3

// badSweeps are sweep bodies that every sweep route must refuse with a
// 400 before it starts streaming.
var badSweeps = []struct{ name, body string }{
	{"empty workloads", `{"mechs":["ibtc:1024"]}`},
	{"negative scale", `{"workloads":["gzip"],"scales":[-1]}`},
	{"cell cap", `{"workloads":["gzip","vpr"],"mechs":["a","b"]}`},
	{"cell cap overflow", overflowSweep()},
	{"unknown field", `{"workloads":["gzip"],"bogus":1}`},
	{"malformed JSON", `{"workloads":["gzip"]`},
	{"bad id", `{"workloads":["gzip"],"id":"../escape"}`},
	{"trailing data", `{"workloads":["gzip"]} trailing`},
}

// overflowSweep is a matrix of 2^16 entries per dimension: 2^64 cells,
// which wraps to 0 in a plain product of the dimension sizes.
func overflowSweep() string {
	list := "[" + strings.Repeat(`"",`, 1<<16-1) + `""]`
	scales := "[" + strings.Repeat("0,", 1<<16-1) + "0]"
	return fmt.Sprintf(`{"workloads":%s,"archs":%s,"mechs":%s,"scales":%s}`, list, list, list, scales)
}

// All three sweep routes share one decoder and its validation: each bad
// body is refused by each route, the shard's wrapped in a shard request.
func TestSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepCells: badSweepCap, StoreDir: t.TempDir()})
	routes := []struct {
		path string
		wrap func(body string) string
	}{
		{"/v1/sweep", func(body string) string { return body }},
		{"/v1/sweep/shard", func(body string) string { return `{"sweep":` + body + `,"cells":[0]}` }},
		{"/v1/cluster/sweep", func(body string) string { return body }},
	}
	for _, rt := range routes {
		for _, tc := range badSweeps {
			resp, err := http.Post(ts.URL+rt.path, "application/json", strings.NewReader(rt.wrap(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status = %d, want 400", rt.path, tc.name, resp.StatusCode)
				continue
			}
			if e := decodeError(t, data); e.Code != CodeInvalidRequest {
				t.Errorf("%s %s: code = %q, want %q", rt.path, tc.name, e.Code, CodeInvalidRequest)
			}
		}
	}
}

// FuzzDecodeSweep feeds arbitrary bodies to the decoder every sweep
// route shares. It must never panic, and a body it accepts must name a
// workload, carry no negative scale and expand to at most the cap.
func FuzzDecodeSweep(f *testing.F) {
	for _, tc := range badSweeps {
		// The overflow body is too large to mutate: the fuzzer stalls
		// minimizing its offspring. TestSweepBadRequests covers it.
		if len(tc.body) < 1<<10 {
			f.Add([]byte(tc.body))
		}
	}
	f.Add([]byte(`{"workloads":["gzip"],"mechs":["ibtc:256","sieve:64"],"scales":[0],"seed":1,"limit":9}`))
	s := &Server{cfg: Config{MaxSweepCells: badSweepCap}.withDefaults()}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		m, err := s.decodeSweep(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)), &req, &req)
		if err != nil {
			return
		}
		if len(req.Workloads) == 0 {
			t.Fatalf("accepted %.80q with no workloads", body)
		}
		for _, sc := range req.Scales {
			if sc < 0 {
				t.Fatalf("accepted %.80q with scale %d", body, sc)
			}
		}
		// Bound each dimension first so Size cannot overflow here.
		for _, n := range []int{len(m.Workloads), len(m.Archs), len(m.Mechs), len(m.Scales)} {
			if n > badSweepCap {
				t.Fatalf("accepted %.80q with a %d-entry dimension", body, n)
			}
		}
		if n := m.Size(); n > badSweepCap {
			t.Fatalf("accepted %.80q expanding to %d cells", body, n)
		}
	})
}

// postLines posts a JSON body and returns the status and the non-empty
// lines of the response.
func postLines(t *testing.T, url string, body any) (int, [][]byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			lines = append(lines, append([]byte(nil), line...))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines
}

// Every record of every sweep route has an exact key set, pinned per
// route: only shard cell records carry "key" (the coordinator journals
// it), the cluster stream never carries "cached", "attempts" or
// "elapsed_ms" (it is canonical), and only /v1/sweep carries "replayed".
func TestSweepRecordShapes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, StoreDir: t.TempDir()})
	// Cell 0 succeeds and cell 1 is invalid, so a checkpointed sweep
	// keeps its journal and the second run replays cell 0.
	req := SweepRequest{
		Workloads: []string{"gzip", "nosuchworkload"},
		Mechs:     []string{"ibtc:256"},
		Limit:     20_000_000,
	}
	const (
		ok       = "arch,attempts,elapsed_ms,index,mech,result,type,workload"
		invalid  = "arch,attempts,elapsed_ms,error,index,mech,type,workload"
		done     = "canceled,done,elapsed_ms,errors,total,type"
		progress = "done,errors,total,type"
	)
	checkpointed := req
	checkpointed.ID = "shapes"
	clusterCheckpointed := req
	clusterCheckpointed.ID = "cluster-shapes"
	steps := []struct {
		name, path string
		body       any
		want       map[string]string // "start", "cell/<index>", "done", "progress" -> sorted keys
	}{
		{"sweep", "/v1/sweep", checkpointed, map[string]string{
			"start":  "total,type",
			"cell/0": ok,
			"cell/1": invalid,
			"done":   done,
		}},
		{"sweep resumed", "/v1/sweep", checkpointed, map[string]string{
			"start":  "resumed,total,type",
			"cell/0": "arch,attempts,cached,elapsed_ms,index,mech,replayed,result,type,workload",
			"cell/1": invalid,
			"done":   "canceled,done,elapsed_ms,errors,replayed,total,type",
		}},
		{"shard", "/v1/sweep/shard", ShardRequest{Sweep: req, Cells: []int{0, 1}}, map[string]string{
			"start":  "total,type",
			"cell/0": "arch,attempts,cached,elapsed_ms,index,key,mech,result,type,workload",
			"cell/1": invalid,
			"done":   done,
		}},
		{"cluster", "/v1/cluster/sweep", clusterCheckpointed, map[string]string{
			"start":  "total,type",
			"cell/0": "arch,index,mech,result,type,workload",
			"cell/1": "arch,error,index,mech,type,workload",
			"done":   "done,errors,total,type",
		}},
		{"cluster resumed", "/v1/cluster/sweep", clusterCheckpointed, map[string]string{
			"start":  "resumed,total,type",
			"cell/0": "arch,index,mech,result,type,workload",
			"cell/1": "arch,error,index,mech,type,workload",
			"done":   "done,errors,total,type",
		}},
	}
	for _, st := range steps {
		status, lines := postLines(t, ts.URL+st.path, st.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", st.name, status, bytes.Join(lines, nil))
		}
		seen := map[string]bool{}
		for _, line := range lines {
			var rec map[string]json.RawMessage
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("%s: decoding %q: %v", st.name, line, err)
			}
			var typ string
			json.Unmarshal(rec["type"], &typ)
			label := typ
			if typ == "cell" {
				label = "cell/" + string(rec["index"])
			}
			keys := make([]string, 0, len(rec))
			for k := range rec {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			want, known := st.want[label]
			if typ == "progress" {
				want, known = progress, true
			}
			if !known {
				t.Errorf("%s: unexpected record %s", st.name, line)
				continue
			}
			if got := strings.Join(keys, ","); got != want {
				t.Errorf("%s: %s keys = %s, want %s", st.name, label, got, want)
			}
			seen[label] = true
		}
		for label := range st.want {
			if !seen[label] {
				t.Errorf("%s: no %s record", st.name, label)
			}
		}
	}
}

// prepareCell resumes each image's memoized hash state instead of
// hashing the image again; every cell key must still equal the one
// RunRequest.key derives from a freshly assembled image, on the call
// that fills the memo and on the hits after it.
func TestPrepareCellKeyMatchesRunKey(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	req := &SweepRequest{Seed: 7, Limit: 1 << 20}
	for _, name := range workload.Names() {
		spec, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int{0, 2} {
			fresh, err := spec.Image(scale)
			if err != nil {
				t.Fatal(err)
			}
			for arch := range hostarch.Models() {
				for _, mech := range []string{"ibtc:256", "retcache+sieve:64"} {
					c := sweep.Cell{Workload: name, Arch: arch, Mech: mech, Scale: scale}
					key, rr, _, err := s.prepareCell(context.Background(), c, req)
					if err != nil {
						t.Fatal(err)
					}
					if want := rr.key(fresh); key != want {
						t.Fatalf("%s scale %d %s %s: memoized key %s, RunRequest.key %s", name, scale, arch, mech, key, want)
					}
				}
			}
		}
	}
}
