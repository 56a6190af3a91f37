package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sdt/internal/cluster"
	"sdt/internal/faultinject"
	"sdt/internal/store"
	"sdt/internal/sweep"
)

// switchable defers handler installation: cluster membership needs the
// listener URLs, which only exist once the test servers are up, but the
// servers need a handler at construction.
type switchable struct {
	mu sync.RWMutex
	h  http.Handler
}

func (sw *switchable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw.mu.RLock()
	h := sw.h
	sw.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (sw *switchable) set(h http.Handler) {
	sw.mu.Lock()
	sw.h = h
	sw.mu.Unlock()
}

type clusterNode struct {
	s  *Server
	ts *httptest.Server
	cl *cluster.Cluster
}

// newClusterNodes boots n in-process sdtd nodes sharing one static
// membership list. probe < 0 disables the health prober (liveness then
// comes from dispatch outcomes, keeping tests deterministic).
func newClusterNodes(t *testing.T, n int, probe time.Duration, mut func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	return newClusterNodesRF(t, n, 1, probe, mut)
}

// newClusterNodesRF is newClusterNodes with a replication factor.
func newClusterNodesRF(t *testing.T, n, rf int, probe time.Duration, mut func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	sws := make([]*switchable, n)
	urls := make([]string, n)
	tss := make([]*httptest.Server, n)
	for i := range sws {
		sws[i] = &switchable{}
		tss[i] = httptest.NewServer(sws[i])
		urls[i] = tss[i].URL
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cl, err := cluster.New(cluster.Config{
			Self:             urls[i],
			Peers:            urls,
			Replication:      rf,
			ProbeInterval:    probe,
			BreakerThreshold: 2,
			BreakerCooldown:  time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 2, StoreDir: t.TempDir(), Cluster: cl}
		if mut != nil {
			mut(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sws[i].set(s.Handler())
		nodes[i] = &clusterNode{s: s, ts: tss[i], cl: cl}
		ts := tss[i]
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
	}
	return nodes
}

// clusterSweep posts to /v1/cluster/sweep and returns the status, the
// deterministic stream bytes (heartbeat progress records filtered out,
// exactly as documented in docs/CLUSTER.md) and the decoded records.
func clusterSweep(t *testing.T, ts *httptest.Server, req SweepRequest, query string) (int, []byte, []sweepRecord) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/cluster/sweep"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data, nil
	}
	var canonical bytes.Buffer
	var recs []sweepRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec sweepRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("decoding stream line %q: %v", sc.Text(), err)
		}
		if rec.Type != "progress" {
			canonical.Write(line)
			canonical.WriteByte('\n')
			recs = append(recs, rec)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, canonical.Bytes(), recs
}

var clusterMatrix = SweepRequest{
	Workloads: []string{"gzip", "vpr"},
	Mechs:     []string{"ibtc:256", "sieve:64"},
	Limit:     20_000_000,
}

// The tentpole guarantee: a 3-node cluster's merged sweep stream is
// byte-identical to a 1-node run of the same request, and the fleet
// executes every cell exactly once.
func TestClusterSweepMergedOutputMatchesSingleNode(t *testing.T) {
	single := newClusterNodes(t, 1, -1, nil)
	status, golden, grecs := clusterSweep(t, single[0].ts, clusterMatrix, "")
	if status != http.StatusOK {
		t.Fatalf("single-node cluster sweep = %d: %s", status, golden)
	}
	_, gcells, gdone := splitSweep(t, grecs)
	if gdone.Done != 4 || gdone.Errors != 0 {
		t.Fatalf("single-node done = %+v, want 4 clean cells", gdone)
	}
	// Canonical stream: cells arrive in matrix-index order.
	for i, rec := range grecs[1 : len(grecs)-1] {
		if rec.Type != "cell" || rec.Index != i {
			t.Fatalf("record %d = type %q index %d, want ordered cells", i, rec.Type, rec.Index)
		}
	}
	_ = gcells

	nodes := newClusterNodes(t, 3, -1, nil)
	status, merged, mrecs := clusterSweep(t, nodes[0].ts, clusterMatrix, "")
	if status != http.StatusOK {
		t.Fatalf("3-node cluster sweep = %d: %s", status, merged)
	}
	if !bytes.Equal(golden, merged) {
		t.Fatalf("3-node merged stream differs from single-node golden:\n--- golden\n%s--- merged\n%s", golden, merged)
	}
	if _, _, mdone := splitSweep(t, mrecs); mdone.Done != 4 {
		t.Fatalf("3-node done = %+v", mdone)
	}
	// Exactly one execution per cell across the whole fleet: ownership-
	// aligned placement means no node duplicated another's work.
	var runs uint64
	for _, n := range nodes {
		runs += n.s.met.runsTotal.total()
	}
	if runs != 4 {
		t.Fatalf("fleet executed %d runs for 4 cells, want exactly 4", runs)
	}
}

// A peer whose shard dispatch fails is excluded and its cells
// reassigned; the merged output must be indistinguishable from a
// healthy run.
func TestClusterSweepReassignsFailedShard(t *testing.T) {
	single := newClusterNodes(t, 1, -1, nil)
	status, golden, _ := clusterSweep(t, single[0].ts, clusterMatrix, "")
	if status != http.StatusOK {
		t.Fatal("golden sweep failed")
	}

	// The coordinator's first shard dispatch fails (io-class injection
	// at the dispatch seam); the target peer is distrusted and its
	// cells rerouted.
	inj := faultinject.New(&faultinject.Plan{Points: []faultinject.Point{
		{Site: cluster.SiteShard, Class: faultinject.ClassIO, Every: 1, Limit: 1},
	}})
	nodes := newClusterNodes(t, 3, -1, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Faults = inj
		}
	})
	status, merged, mrecs := clusterSweep(t, nodes[0].ts, clusterMatrix, "")
	if status != http.StatusOK {
		t.Fatalf("sweep with failed shard = %d", status)
	}
	if !bytes.Equal(golden, merged) {
		t.Fatalf("recovered stream differs from golden:\n--- golden\n%s--- merged\n%s", golden, merged)
	}
	if _, _, done := splitSweep(t, mrecs); done.Done != 4 || done.Errors != 0 {
		t.Fatalf("done = %+v, want 4 clean cells", done)
	}
	coord := nodes[0].s
	if coord.met.clusterReassigned.Value() == 0 {
		t.Fatal("a shard dispatch failed but no cells were counted reassigned")
	}
}

// A draining peer refuses its shard (503); the coordinator must treat
// it like a dead node and finish the matrix elsewhere, with the exact
// number of reassignments its ownership share predicts.
func TestClusterSweepRoutesAroundDrainingPeer(t *testing.T) {
	nodes := newClusterNodes(t, 3, -1, nil)
	req := clusterMatrix
	nodes[2].s.StartDrain()

	// White-box: compute how many cells the drained node owns (the ring
	// depends on ephemeral ports, so this varies run to run).
	m := req.matrix()
	expected := 0
	for _, c := range m.Cells() {
		key, _, _, err := nodes[0].s.prepareCell(context.Background(), c, &req)
		if err != nil {
			t.Fatal(err)
		}
		if nodes[0].cl.Owner(key).Name() == nodes[2].cl.SelfName() {
			expected++
		}
	}

	status, _, recs := clusterSweep(t, nodes[0].ts, req, "")
	if status != http.StatusOK {
		t.Fatalf("sweep status = %d", status)
	}
	if _, _, done := splitSweep(t, recs); done.Done != 4 || done.Errors != 0 || done.Canceled != 0 {
		t.Fatalf("done = %+v, want 4 clean cells despite a draining peer", done)
	}
	if got := nodes[0].s.met.clusterReassigned.Value(); got != uint64(expected) {
		t.Fatalf("reassigned %d cells, drained node owned %d", got, expected)
	}
	if nodes[2].s.met.runsTotal.total() != 0 {
		t.Fatal("draining node executed cells")
	}
}

// The peer-result endpoint serves sealed entries from the strictly
// local store tiers.
func TestPeerResultEndpoint(t *testing.T) {
	nodes := newClusterNodes(t, 2, -1, nil)
	req := RunRequest{Name: "quick.s", Source: quickSrc, Arch: "x86", Mech: "ibtc:4096"}
	status, data := submit(t, nodes[0].ts, req)
	if status != http.StatusOK {
		t.Fatalf("seed run = %d: %s", status, data)
	}
	_, res := decodeRun(t, data)

	resp, err := http.Get(nodes[0].ts.URL + "/v1/peer/result/" + res.Key)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer result = %d", resp.StatusCode)
	}
	payload, err := store.OpenEntry(raw)
	if err != nil {
		t.Fatalf("peer response failed integrity verification: %v", err)
	}
	var got RunResult
	if err := json.Unmarshal(payload, &got); err != nil || got.Key != res.Key {
		t.Fatalf("sealed payload = %q (%v)", payload, err)
	}

	resp, err = http.Get(nodes[0].ts.URL + "/v1/peer/result/" + "00ab" + res.Key[4:])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing peer result = %d, want 404", resp.StatusCode)
	}
}

// A /v1/run on one node must be served from a peer's store when the
// owning peer already holds the result: a peer hit is a cache hit, and
// the bytes are identical to the original.
func TestRunServedFromPeerTier(t *testing.T) {
	nodes := newClusterNodes(t, 2, -1, nil)
	base := RunRequest{Name: "quick.s", Source: quickSrc, Arch: "x86", Mech: "ibtc:4096"}
	base.withDefaults()
	img, err := base.compile()
	if err != nil {
		t.Fatal(err)
	}
	// Ownership depends on ephemeral ports: pick seeds whose keys node 0
	// owns, so a submission on node 1 must cross the wire.
	var seeds []uint64
	for seed := uint64(0); seed < 256 && len(seeds) < 3; seed++ {
		req := base
		req.Seed = seed
		if nodes[1].cl.Owner(req.key(img)).Name() == nodes[0].cl.SelfName() {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < 3 {
		t.Fatal("no seeds owned by node 0 in 256 candidates")
	}

	originals := make(map[uint64][]byte)
	for _, seed := range seeds {
		req := base
		req.Seed = seed
		status, data := submit(t, nodes[0].ts, req)
		if status != http.StatusOK {
			t.Fatalf("seed run = %d: %s", status, data)
		}
		resp, _ := decodeRun(t, data)
		originals[seed] = resp.Result
	}
	for _, seed := range seeds {
		req := base
		req.Seed = seed
		status, data := submit(t, nodes[1].ts, req)
		if status != http.StatusOK {
			t.Fatalf("peer-tier run = %d: %s", status, data)
		}
		resp, _ := decodeRun(t, data)
		if !resp.Cached {
			t.Fatalf("seed %d: peer-held result not reported as a cache hit", seed)
		}
		if !bytes.Equal(resp.Result, originals[seed]) {
			t.Fatalf("seed %d: peer-fetched bytes differ from the original", seed)
		}
	}
	st := nodes[1].s.Store().Stats()
	if st.PeerHits != uint64(len(seeds)) || st.PeerErrors != 0 {
		t.Fatalf("node 1 store stats = %+v, want %d peer hits", st, len(seeds))
	}
	if nodes[1].s.met.runsTotal.total() != 0 {
		t.Fatal("node 1 executed despite peer-held results")
	}
}

// With the owning peer unreachable, runs must still succeed from local
// compute, the peer breaker must trip, and /healthz must report the
// degraded peer — the tier-degradation satellite end to end.
func TestPeerOutageDegradesGracefully(t *testing.T) {
	nodes := newClusterNodes(t, 2, 20*time.Millisecond, nil)
	base := RunRequest{Name: "quick.s", Source: quickSrc, Arch: "x86", Mech: "ibtc:4096"}
	base.withDefaults()
	img, err := base.compile()
	if err != nil {
		t.Fatal(err)
	}
	var seeds []uint64
	for seed := uint64(0); seed < 256 && len(seeds) < 3; seed++ {
		req := base
		req.Seed = seed
		if nodes[1].cl.Owner(req.key(img)).Name() == nodes[0].cl.SelfName() {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < 3 {
		t.Fatal("no seeds owned by node 0 in 256 candidates")
	}

	nodes[0].ts.Close() // the owner vanishes

	// Wait for the prober to mark the dead owner down: fetches then skip
	// it outright (no per-request timeout bleed) instead of feeding its
	// breaker. The transport-error-then-breaker path is unit-covered in
	// internal/cluster.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, h := getHealth(t, nodes[1].ts)
		if code == http.StatusOK && h.Status == HealthDegraded {
			var dead *cluster.PeerHealth
			for i := range h.Cluster {
				if !h.Cluster[i].Self {
					dead = &h.Cluster[i]
				}
			}
			if dead == nil || dead.Up {
				t.Fatalf("cluster health = %+v, want the dead peer down", h.Cluster)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported the dead peer: %d %+v", code, h)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, seed := range seeds {
		req := base
		req.Seed = seed
		status, data := submit(t, nodes[1].ts, req)
		if status != http.StatusOK {
			t.Fatalf("run with dead owner = %d: %s", status, data)
		}
		if resp, _ := decodeRun(t, data); resp.Cached {
			t.Fatalf("seed %d reported cached with the owner dead", seed)
		}
	}
	st := nodes[1].s.Store().Stats()
	if st.PeerHits != 0 {
		t.Fatalf("store stats = %+v, want no peer hits with the owner dead", st)
	}
	_, h := getHealth(t, nodes[1].ts)
	for _, p := range h.Cluster {
		if !p.Self && p.Skipped < 3 {
			t.Fatalf("dead peer health = %+v, want >= 3 skipped fetches", p)
		}
	}
}

// Every sweep route's heartbeat must be gone before the done record: a
// tick that raced the end of the sweep used to write a progress record
// after done, or after the handler had returned, which panicked the
// daemon on the dead ResponseWriter. The three routes share one
// heartbeat, and each stream must end on its done record.
func TestSweepHeartbeatEndsBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SweepHeartbeat: time.Microsecond})
	req := SweepRequest{Workloads: []string{"gzip"}, Mechs: []string{"ibtc:256"}, Limit: 20_000_000}
	for _, route := range []struct {
		path string
		body any
	}{
		{"/v1/sweep", req},
		{"/v1/sweep/shard", ShardRequest{Sweep: req, Cells: []int{0}}},
		{"/v1/cluster/sweep", req},
	} {
		for i := 0; i < 200; i++ {
			status, lines := postLines(t, ts.URL+route.path, route.body)
			if status != http.StatusOK {
				t.Fatalf("%s sweep %d: status = %d", route.path, i, status)
			}
			var last struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Type != "done" {
				t.Fatalf("%s sweep %d: last record %s, want the done record", route.path, i, lines[len(lines)-1])
			}
		}
	}
}

// Shard endpoint contract: key-carrying records for exactly the
// requested cells, and journal-less by design.
func TestSweepShardEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	post := func(req ShardRequest) (int, []sweepRecord) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sweep/shard", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, nil
		}
		var recs []sweepRecord
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var rec sweepRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		return resp.StatusCode, recs
	}

	status, recs := post(ShardRequest{Sweep: clusterMatrix, Cells: []int{1, 3}})
	if status != http.StatusOK {
		t.Fatalf("shard status = %d", status)
	}
	_, cells, done := splitSweep(t, recs)
	if done.Done != 2 || len(cells) != 2 {
		t.Fatalf("shard done = %+v over %d cells, want exactly the 2 requested", done, len(cells))
	}
	for idx, rec := range cells {
		if idx != 1 && idx != 3 {
			t.Fatalf("shard executed unrequested cell %d", idx)
		}
		if rec.Error != nil {
			t.Fatalf("cell %d errored: %v", idx, rec.Error)
		}
	}
	// Key is on the raw records (sweepRecord drops it); decode one line
	// again to check it.
	var withKey struct {
		Key string `json:"key"`
	}
	raw, _ := json.Marshal(ShardRequest{Sweep: clusterMatrix, Cells: []int{0}})
	resp, err := http.Post(ts.URL+"/v1/sweep/shard", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	found := false
	for sc.Scan() {
		var rec sweepRecord
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Type == "cell" {
			if err := json.Unmarshal(sc.Bytes(), &withKey); err != nil || len(withKey.Key) != 64 {
				t.Fatalf("shard cell record key = %q (%v), want a sha256 hex key", withKey.Key, err)
			}
			found = true
		}
	}
	resp.Body.Close()
	if !found {
		t.Fatal("no cell record on the shard stream")
	}

	bad := ShardRequest{Sweep: clusterMatrix, Cells: []int{99}}
	if status, _ := post(bad); status != http.StatusBadRequest {
		t.Fatalf("out-of-range cell accepted: %d", status)
	}
	bad = ShardRequest{Sweep: clusterMatrix, Cells: []int{0, 0}}
	if status, _ := post(bad); status != http.StatusBadRequest {
		t.Fatalf("duplicate cell accepted: %d", status)
	}
	bad = ShardRequest{Sweep: clusterMatrix, Cells: []int{}}
	if status, _ := post(bad); status != http.StatusBadRequest {
		t.Fatalf("empty cells accepted: %d", status)
	}
	withID := clusterMatrix
	withID.ID = "nope"
	if status, _ := post(ShardRequest{Sweep: withID, Cells: []int{0}}); status != http.StatusBadRequest {
		t.Fatalf("journaled shard accepted: %d", status)
	}
}

// The drain satellite: SIGTERM mid-sweep (StartDrain) must cancel the
// sweep stream promptly, emit cancellation records for unfinished
// cells, and leave a journal that a later daemon resumes with zero
// duplicate executions.
func TestDrainCancelsSweepAndLeavesResumableJournal(t *testing.T) {
	dir := t.TempDir()
	// Latency injection keeps each cell slow enough that the drain
	// lands mid-matrix deterministically, without big instruction
	// budgets.
	inj := faultinject.New(&faultinject.Plan{Points: []faultinject.Point{
		{Site: sweep.SiteCell, Class: faultinject.ClassLatency, Every: 1, LatencyMS: 150},
	}})
	s, ts := newTestServer(t, Config{StoreDir: dir, Workers: 1, Faults: inj})
	req := SweepRequest{
		ID:        "drain-mid-sweep",
		Workloads: []string{"gzip"},
		Mechs:     []string{"ibtc:256", "sieve:64", "retcache+ibtc:128", "fastret+sieve:32"},
		Limit:     20_000_000,
	}

	type sweepResult struct {
		status int
		recs   []sweepRecord
	}
	res := make(chan sweepResult, 1)
	go func() {
		status, recs := submitSweep(t, ts, req)
		res <- sweepResult{status, recs}
	}()

	// Wait for the first completed cell, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for s.met.sweepCells.get(outcomeOK).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cell completed before the drain deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.StartDrain()

	r := <-res
	if r.status != http.StatusOK {
		t.Fatalf("drained sweep status = %d", r.status)
	}
	_, cells, done := splitSweep(t, r.recs)
	if done.Done == 0 || done.Done == done.Total {
		t.Fatalf("drained sweep done = %+v, want a partial matrix", done)
	}
	// Unfinished cells surface as canceled (caught mid-run) or draining
	// (refused by the closing pool) — both resumable, nothing else — and
	// are tallied as canceled, never as errors, in the done record and
	// in the metrics, as the coordinator tallies them.
	for idx, rec := range cells {
		if rec.Error != nil && rec.Error.Code != CodeCanceled && rec.Error.Code != CodeDraining {
			t.Fatalf("cell %d failed with %q, want only drain codes", idx, rec.Error.Code)
		}
	}
	if done.Errors != 0 || done.Canceled != done.Total-done.Done {
		t.Fatalf("drained sweep done = %+v, want every unfinished cell canceled and none an error", done)
	}
	if got := s.met.sweepCells.get(outcomeError).Value(); got != 0 {
		t.Fatalf("sdtd_sweep_cells_total{outcome=\"error\"} = %d after a drain, want 0", got)
	}
	jpath := filepath.Join(dir, "sweeps", req.ID+".json")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatalf("drain did not leave a journal: %v", err)
	}
	var jf struct {
		Cells []struct {
			Index int `json:"index"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &jf); err != nil {
		t.Fatalf("journal is torn: %v", err)
	}
	if len(jf.Cells) != done.Done {
		t.Fatalf("journal covers %d cells, stream completed %d", len(jf.Cells), done.Done)
	}

	// Resume on a fresh daemon over the same store: journaled cells
	// replay, only the cancelled remainder executes.
	s2, ts2 := newTestServer(t, Config{StoreDir: dir, Workers: 1})
	status, recs := submitSweep(t, ts2, req)
	if status != http.StatusOK {
		t.Fatalf("resume status = %d", status)
	}
	start2, _, done2 := splitSweep(t, recs)
	if start2.Resumed != done.Done {
		t.Fatalf("resume replayed %d cells, journal held %d", start2.Resumed, done.Done)
	}
	if done2.Done != done2.Total || done2.Errors != 0 {
		t.Fatalf("resume done = %+v, want the full matrix", done2)
	}
	if got := s2.met.runsTotal.total(); got != uint64(done.Total-done.Done) {
		t.Fatalf("resume executed %d cells, want only the %d unfinished ones", got, done.Total-done.Done)
	}
	if _, err := os.Stat(jpath); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("journal not retired after full completion (err=%v)", err)
	}
}

// The clustered exposition: peer and cluster-sweep series appear with
// their documented names once the node is a cluster member.
func TestClusterMetricsExposition(t *testing.T) {
	nodes := newClusterNodes(t, 2, -1, nil)
	if status, body, _ := clusterSweep(t, nodes[0].ts, clusterMatrix, ""); status != http.StatusOK {
		t.Fatalf("sweep = %d: %s", status, body)
	}
	resp, err := http.Get(nodes[0].ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		"sdtd_peer_up{peer=",
		"sdtd_peer_fetches_total{peer=",
		"sdtd_peer_breaker_trips_total{peer=",
		`sdtd_cluster_sweeps_total{outcome="ok"} 1`,
		`sdtd_cluster_sweep_cells_total{outcome="ok"} 4`,
		"sdtd_cluster_sweep_reassigned_cells_total 0",
		`sdtd_cache_hits_total{layer="peer"}`,
		"sdtd_cache_peer_errors_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n--- exposition:\n%s", want, text)
		}
	}
}

// A cluster sweep checkpoint must also resume with zero duplicate
// executions — the failure-recovery half of the tentpole, driven
// through the coordinator endpoint.
func TestClusterSweepCheckpointResume(t *testing.T) {
	nodes := newClusterNodes(t, 2, -1, nil)
	req := clusterMatrix
	req.ID = "cluster-ckpt"

	status, golden, recs := clusterSweep(t, nodes[0].ts, req, "")
	if status != http.StatusOK {
		t.Fatalf("sweep status = %d", status)
	}
	if _, _, done := splitSweep(t, recs); done.Done != 4 {
		t.Fatalf("done = %+v", done)
	}
	// Completed fully: journal retired, so re-running with the same ID
	// executes nothing anywhere — every cell is already in some node's
	// store, found locally or over the peer tier.
	var runsBefore uint64
	for _, n := range nodes {
		runsBefore += n.s.met.runsTotal.total()
	}
	status, second, recs := clusterSweep(t, nodes[0].ts, req, "")
	if status != http.StatusOK {
		t.Fatalf("re-run status = %d", status)
	}
	if _, _, done := splitSweep(t, recs); done.Done != 4 {
		t.Fatalf("re-run done = %+v", done)
	}
	var runsAfter uint64
	for _, n := range nodes {
		runsAfter += n.s.met.runsTotal.total()
	}
	if runsAfter != runsBefore {
		t.Fatalf("re-run executed %d new cells, want 0 (all cached)", runsAfter-runsBefore)
	}
	// Cached results and executed results are canonically identical.
	if !bytes.Equal(golden, second) {
		t.Fatal("cached cluster sweep stream differs from the original")
	}
}
