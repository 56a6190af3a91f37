package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdt/internal/cluster"
	"sdt/internal/faultinject"
	"sdt/internal/sweep"
)

const testAdminToken = "test-admin-token"

// postAdmin POSTs a JSON body with an admin token ("" = no token).
func postAdmin(t *testing.T, url, token string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("X-Admin-Token", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

// newSoloNode boots one clustered node whose boot membership is just
// itself — the shape of a daemon started fresh to join a running fleet.
func newSoloNode(t *testing.T, mut func(cfg *Config)) *clusterNode {
	t.Helper()
	sw := &switchable{}
	ts := httptest.NewServer(sw)
	cl, err := cluster.New(cluster.Config{
		Self:          ts.URL,
		Peers:         []string{ts.URL},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 2, StoreDir: t.TempDir(), Cluster: cl}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw.set(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &clusterNode{s: s, ts: ts, cl: cl}
}

// The membership surface is admin-only: disabled without a configured
// token, refused on a wrong token, allowed on the right one via either
// header form.
func TestMembershipEndpointsAdminGuard(t *testing.T) {
	open := newClusterNodes(t, 2, -1, nil)
	status, body := postAdmin(t, open[0].ts.URL+"/v1/cluster/join", "", MemberChange{URL: "http://x:1"})
	if status != http.StatusForbidden {
		t.Fatalf("join without configured token = %d: %s", status, body)
	}

	guarded := newClusterNodes(t, 2, -1, func(i int, cfg *Config) { cfg.AdminToken = testAdminToken })
	status, body = postAdmin(t, guarded[0].ts.URL+"/v1/cluster/leave", "wrong", MemberChange{URL: "http://x:1"})
	if status != http.StatusForbidden {
		t.Fatalf("leave with wrong token = %d: %s", status, body)
	}
	status, body = postAdmin(t, guarded[0].ts.URL+"/v1/cluster/membership", "", MembershipUpdate{Epoch: 1})
	if status != http.StatusForbidden {
		t.Fatalf("membership without token = %d: %s", status, body)
	}
	// The bearer form passes too.
	req, _ := http.NewRequest(http.MethodPost, guarded[0].ts.URL+"/v1/cluster/join",
		bytes.NewReader([]byte(`{"url":"http://joiner.invalid:9"}`)))
	req.Header.Set("Authorization", "Bearer "+testAdminToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join with bearer token = %d", resp.StatusCode)
	}
}

// Join and leave rebuild the ring on every member without restarting
// anything: the fleet converges to one epoch, the joiner adopts it, and
// a removed node installs a solo view but keeps serving.
func TestJoinLeaveRebuildsRingEverywhere(t *testing.T) {
	nodes := newClusterNodes(t, 3, -1, func(i int, cfg *Config) { cfg.AdminToken = testAdminToken })
	joiner := newSoloNode(t, func(cfg *Config) { cfg.AdminToken = testAdminToken })

	status, body := postAdmin(t, nodes[0].ts.URL+"/v1/cluster/join", testAdminToken, MemberChange{URL: joiner.ts.URL})
	if status != http.StatusOK {
		t.Fatalf("join = %d: %s", status, body)
	}
	var mr MembershipResponse
	if err := json.Unmarshal(body, &mr); err != nil || mr.Epoch != 1 || len(mr.Members) != 4 {
		t.Fatalf("join response = %+v (%v), want epoch 1 with 4 members", mr, err)
	}
	all := append(append([]*clusterNode(nil), nodes...), joiner)
	for i, n := range all {
		_, h := getHealth(t, n.ts)
		if h.ClusterEpoch != 1 || len(h.Cluster) != 4 {
			t.Fatalf("node %d after join: epoch=%d members=%d, want 1/4", i, h.ClusterEpoch, len(h.Cluster))
		}
	}

	// A duplicate join is a client error and does not bump the epoch.
	if status, _ := postAdmin(t, nodes[0].ts.URL+"/v1/cluster/join", testAdminToken, MemberChange{URL: joiner.ts.URL}); status != http.StatusBadRequest {
		t.Fatalf("duplicate join = %d, want 400", status)
	}

	status, body = postAdmin(t, nodes[0].ts.URL+"/v1/cluster/leave", testAdminToken, MemberChange{URL: nodes[2].ts.URL})
	if status != http.StatusOK {
		t.Fatalf("leave = %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil || mr.Epoch != 2 || len(mr.Members) != 3 {
		t.Fatalf("leave response = %+v (%v), want epoch 2 with 3 members", mr, err)
	}
	for i, n := range []*clusterNode{nodes[0], nodes[1], joiner} {
		_, h := getHealth(t, n.ts)
		if h.ClusterEpoch != 2 || len(h.Cluster) != 3 {
			t.Fatalf("survivor %d after leave: epoch=%d members=%d, want 2/3", i, h.ClusterEpoch, len(h.Cluster))
		}
	}
	// The removed node knows it is out (solo view at the fleet epoch) but
	// still answers — its keys migrate lazily before it is shut down.
	code, h := getHealth(t, nodes[2].ts)
	if code != http.StatusOK || h.ClusterEpoch != 2 || len(h.Cluster) != 1 {
		t.Fatalf("removed node health = %d %+v, want a serving solo view at epoch 2", code, h)
	}

	// The ring rebuilds are visible in the exposition.
	text := scrape(t, nodes[0].ts)
	for _, want := range []string{
		"sdtd_cluster_ring_epoch 2",
		`sdtd_cluster_membership_changes_total{op="join"} 1`,
		`sdtd_cluster_membership_changes_total{op="leave"} 1`,
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}
	if text := scrape(t, nodes[1].ts); !bytes.Contains([]byte(text), []byte(`sdtd_cluster_membership_changes_total{op="apply"} 2`)) {
		t.Errorf("follower metrics missing the applied ring rebuilds:\n%s", text)
	}
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return out.String()
}

// An RF=2 fleet fans every freshly computed result out to its replica
// peer, asynchronously, and the counters on both sides agree.
func TestWriteReplicationFansOut(t *testing.T) {
	nodes := newClusterNodesRF(t, 2, 2, -1, nil)
	req := RunRequest{Name: "quick.s", Source: quickSrc, Arch: "x86", Mech: "ibtc:4096"}
	status, data := submit(t, nodes[0].ts, req)
	if status != http.StatusOK {
		t.Fatalf("run = %d: %s", status, data)
	}
	_, res := decodeRun(t, data)

	// With 2 members at RF=2 every key's replica set is both nodes, so
	// the non-computing node must receive the entry. Wait on the sender's
	// counter: it is the last thing to settle (after the PUT round-trip).
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].cl.ReplStats().Sent == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never sent: %+v", nodes[0].cl.ReplStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := nodes[1].s.Store().Get(res.Key); !ok {
		t.Fatal("replica not in the peer's local store")
	}
	if st := nodes[0].cl.ReplStats(); st.Sent != 1 || st.Failed != 0 {
		t.Fatalf("sender repl stats = %+v, want 1 clean send", st)
	}
	if st := nodes[1].cl.ReplStats(); st.Received != 1 {
		t.Fatalf("receiver repl stats = %+v, want 1 received", st)
	}
	// The replica write must not echo back: the receiver stored via Put,
	// so its own fan-out stays silent.
	if st := nodes[1].cl.ReplStats(); st.Sent != 0 {
		t.Fatalf("receiver re-replicated the entry: %+v", st)
	}

	_, h := getHealth(t, nodes[0].ts)
	if h.Replication != 2 || h.ReplStats == nil || h.ReplStats.Sent != 1 {
		t.Fatalf("health = replication=%d stats=%+v, want the fan-out surfaced", h.Replication, h.ReplStats)
	}
	text := scrape(t, nodes[0].ts)
	for _, want := range []string{
		"sdtd_replication_factor 2",
		"sdtd_cluster_ring_epoch 0",
		"sdtd_replication_sent_total 1",
		"sdtd_replication_pending 0",
		"sdtd_replication_queue_depth 0",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("sender metrics missing %q", want)
		}
	}
	if text := scrape(t, nodes[1].ts); !bytes.Contains([]byte(text), []byte("sdtd_replication_received_total 1")) {
		t.Error("receiver metrics missing the received replica")
	}
}

// The degraded-replica read satellite, end to end: a corrupt disk frame
// on one node is repaired from its replica without re-running the cell,
// and the repair re-seals the local frame.
func TestDegradedReplicaReadRepairsWithoutRecompute(t *testing.T) {
	dirs := make([]string, 2)
	nodes := newClusterNodesRF(t, 2, 2, -1, func(i int, cfg *Config) {
		cfg.MemEntries = 1 // tiny memory tier so reads reach the disk frame
		dirs[i] = cfg.StoreDir
	})
	base := RunRequest{Name: "quick.s", Source: quickSrc, Arch: "x86", Mech: "ibtc:4096"}
	status, data := submit(t, nodes[0].ts, base)
	if status != http.StatusOK {
		t.Fatalf("seed run = %d: %s", status, data)
	}
	_, res := decodeRun(t, data)

	// Wait for the replica, then evict the entry from node 0's memory
	// tier and corrupt its disk frame.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := nodes[1].s.Store().Get(res.Key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	evict := base
	evict.Seed = 7
	if status, _ := submit(t, nodes[0].ts, evict); status != http.StatusOK {
		t.Fatal("evicting run failed")
	}
	frame := filepath.Join(dirs[0], res.Key[:2], res.Key)
	raw, err := os.ReadFile(frame)
	if err != nil {
		t.Fatalf("reading disk frame: %v", err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(frame, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	runsBefore := nodes[0].s.met.runsTotal.total() + nodes[1].s.met.runsTotal.total()
	status, data = submit(t, nodes[0].ts, base)
	if status != http.StatusOK {
		t.Fatalf("degraded read = %d: %s", status, data)
	}
	if resp, _ := decodeRun(t, data); !resp.Cached {
		t.Fatal("replica-repaired read not reported as a cache hit")
	}
	if runsAfter := nodes[0].s.met.runsTotal.total() + nodes[1].s.met.runsTotal.total(); runsAfter != runsBefore {
		t.Fatalf("corruption repair re-executed the cell (%d -> %d runs)", runsBefore, runsAfter)
	}
	st := nodes[0].s.Store().Stats()
	if st.Corruptions != 1 || st.PeerHits != 1 {
		t.Fatalf("store stats = %+v, want 1 corruption repaired via 1 peer hit", st)
	}
	if text := scrape(t, nodes[0].ts); !bytes.Contains([]byte(text), []byte("sdtd_store_corruption_total 1")) {
		t.Error("metrics missing the corruption count")
	}

	// Repair re-sealed the frame: evict again and re-read — served from
	// the local disk, no second peer fetch, no new corruption.
	if status, _ := submit(t, nodes[0].ts, evict); status != http.StatusOK {
		t.Fatal("second evicting run failed")
	}
	status, data = submit(t, nodes[0].ts, base)
	if status != http.StatusOK {
		t.Fatalf("post-repair read = %d", status)
	}
	if resp, _ := decodeRun(t, data); !resp.Cached {
		t.Fatal("post-repair read missed")
	}
	st = nodes[0].s.Store().Stats()
	if st.Corruptions != 1 || st.PeerHits != 1 {
		t.Fatalf("post-repair stats = %+v, want the frame served locally", st)
	}
}

// Coordinator failover: a cluster sweep's checkpoint journal is
// replicated as it persists, and after the coordinator dies mid-sweep a
// survivor adopts the sweep, replays the journal, and the fleet never
// re-executes a journaled cell.
func TestClusterSweepAdoptedBySurvivor(t *testing.T) {
	dirs := make([]string, 2)
	nodes := newClusterNodesRF(t, 2, 2, -1, func(i int, cfg *Config) {
		cfg.Workers = 1
		cfg.Faults = faultinject.New(&faultinject.Plan{Points: []faultinject.Point{
			{Site: sweep.SiteCell, Class: faultinject.ClassLatency, Every: 1, LatencyMS: 150},
		}})
		dirs[i] = cfg.StoreDir
	})
	req := clusterMatrix
	req.ID = "adopt-mid-sweep"

	type sweepResult struct {
		status int
		recs   []sweepRecord
	}
	res := make(chan sweepResult, 1)
	go func() {
		status, _, recs := clusterSweep(t, nodes[0].ts, req, "")
		res <- sweepResult{status, recs}
	}()

	// Pull the plug on the coordinator once the fleet completed at least
	// one cell (but, with 150ms latency per cell, not the whole matrix).
	// The coordinator's merged count covers its own shard as well as the
	// peer's; sdtd_sweep_cells_total would count the peer's shard alone.
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].s.met.clusterCells.get(outcomeOK).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cell completed before the kill deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	nodes[0].s.StartDrain()
	r := <-res
	if r.status != http.StatusOK {
		t.Fatalf("drained cluster sweep status = %d", r.status)
	}
	_, _, done := splitSweep(t, r.recs)
	if done.Done == 0 || done.Done == done.Total {
		t.Fatalf("drained cluster sweep done = %+v, want a partial matrix", done)
	}

	// The drain ended the coordinator's own sweep, cutting off the
	// peer's shard stream; the peer did nothing wrong and stays up, so
	// the final journal push reached it.
	for _, p := range nodes[0].cl.CurrentView().Members() {
		if !p.Up() {
			t.Fatalf("the coordinator's drain marked %s down", p.Name())
		}
	}

	// The tentpole artifact: the survivor holds a replicated copy of the
	// dead coordinator's journal.
	if _, err := os.Stat(filepath.Join(dirs[1], "sweeps", req.ID+".json")); err != nil {
		t.Fatalf("journal replica missing on the survivor: %v", err)
	}

	status, _, recs := clusterSweep(t, nodes[1].ts, req, "?adopt="+req.ID)
	if status != http.StatusOK {
		t.Fatalf("adoption status = %d", status)
	}
	start2, _, done2 := splitSweep(t, recs)
	if start2.Resumed != done.Done {
		t.Fatalf("adoption replayed %d cells, the replicated journal held %d", start2.Resumed, done.Done)
	}
	if done2.Done != done2.Total || done2.Errors != 0 {
		t.Fatalf("adopted sweep done = %+v, want the full matrix", done2)
	}
	if got := nodes[1].s.met.sweepsAdopted.Value(); got != 1 {
		t.Fatalf("sweeps adopted = %d, want 1", got)
	}
	if text := scrape(t, nodes[0].ts); !bytes.Contains([]byte(text), []byte(`sdtd_replication_journal_pushes_total{outcome="ok"}`)) {
		t.Error("coordinator metrics missing the journal pushes")
	}
	if text := scrape(t, nodes[1].ts); !bytes.Contains([]byte(text), []byte("sdtd_cluster_sweeps_adopted_total 1")) {
		t.Error("survivor metrics missing the adoption")
	}

	// Adopting a sweep nobody journaled is a clean 404, not a silent
	// from-scratch run.
	unknown := clusterMatrix
	unknown.ID = "never-ran"
	if status, body, _ := clusterSweep(t, nodes[1].ts, unknown, "?adopt=never-ran"); status != http.StatusNotFound {
		t.Fatalf("adopting an unknown sweep = %d: %s", status, body)
	}
}

// A sweep in flight across a membership change completes against its
// pinned ring epoch: the merged stream is byte-identical to a
// single-node run, and the joiner (not in the pinned view) executes
// nothing.
func TestClusterSweepSpansMembershipChange(t *testing.T) {
	single := newClusterNodes(t, 1, -1, nil)
	status, golden, _ := clusterSweep(t, single[0].ts, clusterMatrix, "")
	if status != http.StatusOK {
		t.Fatal("golden sweep failed")
	}

	nodes := newClusterNodesRF(t, 3, 2, -1, func(i int, cfg *Config) {
		cfg.Workers = 1
		cfg.AdminToken = testAdminToken
		cfg.Faults = faultinject.New(&faultinject.Plan{Points: []faultinject.Point{
			{Site: sweep.SiteCell, Class: faultinject.ClassLatency, Every: 1, LatencyMS: 150},
		}})
	})
	joiner := newSoloNode(t, func(cfg *Config) { cfg.AdminToken = testAdminToken })

	type sweepResult struct {
		status int
		merged []byte
	}
	res := make(chan sweepResult, 1)
	go func() {
		status, merged, _ := clusterSweep(t, nodes[0].ts, clusterMatrix, "")
		res <- sweepResult{status, merged}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cells uint64
		for _, n := range nodes {
			cells += n.s.met.sweepCells.get(outcomeOK).Value()
		}
		if cells > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed before the join")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, body := postAdmin(t, nodes[0].ts.URL+"/v1/cluster/join", testAdminToken, MemberChange{URL: joiner.ts.URL}); status != http.StatusOK {
		t.Fatalf("mid-sweep join = %d: %s", status, body)
	}

	r := <-res
	if r.status != http.StatusOK {
		t.Fatalf("sweep across membership change = %d", r.status)
	}
	if !bytes.Equal(golden, r.merged) {
		t.Fatalf("stream across membership change differs from golden:\n--- golden\n%s--- merged\n%s", golden, r.merged)
	}
	if got := joiner.s.met.runsTotal.total(); got != 0 {
		t.Fatalf("joiner executed %d cells of a sweep pinned to the pre-join ring", got)
	}
	// The ring did change under the sweep.
	_, h := getHealth(t, nodes[0].ts)
	if h.ClusterEpoch != 1 || len(h.Cluster) != 4 {
		t.Fatalf("post-sweep health = epoch %d, %d members, want the joined ring", h.ClusterEpoch, len(h.Cluster))
	}
}

// newNodeWithSilentPeer boots one clustered node (FetchTimeout 500 ms)
// next to a fake fleet member that answers /healthz, runs the shards it
// is sent on the node itself (so it stays trusted for the whole sweep),
// 404s everything else, and never answers the requests silent matches.
// With member set the fake is in the boot membership; otherwise the
// node starts solo. The fake is released before any server closes:
// httptest.Server.Close waits for handlers, and a handler stuck on the
// silent peer would deadlock it.
func newNodeWithSilentPeer(t *testing.T, member bool, silent func(r *http.Request) bool, mut func(cfg *Config)) (*clusterNode, *httptest.Server) {
	t.Helper()
	release := make(chan struct{})
	sw := &switchable{}
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case silent(r):
			<-release
		case r.URL.Path == "/healthz":
			w.WriteHeader(http.StatusOK)
		case r.URL.Path == "/v1/sweep/shard":
			sw.ServeHTTP(w, r)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(fake.Close)
	ts := httptest.NewServer(sw)
	peers := []string{ts.URL}
	if member {
		peers = append(peers, fake.URL)
	}
	cl, err := cluster.New(cluster.Config{
		Self:          ts.URL,
		Peers:         peers,
		ProbeInterval: -1,
		FetchTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 2, StoreDir: t.TempDir(), Cluster: cl}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw.set(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	t.Cleanup(func() { close(release) }) // runs first
	return &clusterNode{s: s, ts: ts, cl: cl}, fake
}

// postWithin POSTs body to url (with the admin token) and returns the
// status and the response body, failing the test if they are not in
// after d. The request then finishes in the background once the silent
// peer is released, so it must not touch t.
func postWithin(t *testing.T, d time.Duration, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status int
		body   []byte
		err    error
	}
	got := make(chan answer, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
		if err != nil {
			got <- answer{err: err}
			return
		}
		req.Header.Set("X-Admin-Token", testAdminToken)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			got <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		got <- answer{resp.StatusCode, data, err}
	}()
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatal(a.err)
		}
		return a.status, a.body
	case <-time.After(d):
		t.Fatalf("POST %s still open after %s", url, d)
		return 0, nil
	}
}

// A journal successor that accepts the connection and never answers
// must not hold back a checkpointed cluster sweep's done record by more
// than one FetchTimeout: its first failed push drops it from the sweep,
// so later snapshots and the tombstone do not wait on it again.
func TestClusterSweepDoneWithSilentJournalSuccessor(t *testing.T) {
	const fetchTimeout = 500 * time.Millisecond // newNodeWithSilentPeer's
	node, _ := newNodeWithSilentPeer(t, true, func(r *http.Request) bool {
		return r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, cluster.PeerJournalPath)
	}, nil)
	req := clusterMatrix
	req.ID = "silent-successor"
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the stream with each record's arrival time. The request
	// finishes in the background if the test gives up on it, so the
	// reader must not touch t.
	type stamped struct {
		at  time.Time
		rec sweepRecord
	}
	got := make(chan []stamped, 1)
	go func() {
		var recs []stamped
		defer func() { got <- recs }()
		resp, err := http.Post(node.ts.URL+"/v1/cluster/sweep", "application/json", bytes.NewReader(raw))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var rec sweepRecord
			if dec.Decode(&rec) != nil {
				return
			}
			recs = append(recs, stamped{time.Now(), rec})
		}
	}()
	var recs []stamped
	select {
	case recs = <-got:
	case <-time.After(20 * time.Second):
		t.Fatal("cluster sweep still open after 20s")
	}
	if len(recs) < 2 || recs[len(recs)-1].rec.Type != "done" || recs[len(recs)-2].rec.Type != "cell" {
		t.Fatalf("stream of %d records does not end on a cell and then the done record: %+v", len(recs), recs)
	}
	done := recs[len(recs)-1].rec
	if done.Done != done.Total || done.Errors != 0 {
		t.Fatalf("done = %+v, want every cell run", done)
	}
	// Between the last cell and the done record the coordinator only
	// closes the journal. A shipper that kept pushing to the silent
	// successor would spend up to three FetchTimeouts there (in-flight
	// push, final push, tombstone).
	if gap, bound := recs[len(recs)-1].at.Sub(recs[len(recs)-2].at), fetchTimeout+300*time.Millisecond; gap > bound {
		t.Fatalf("done record %s after the last cell, want within one FetchTimeout plus slack (%s)", gap, bound)
	}
	if got := node.s.met.journalPushes.get(outcomeError).Value(); got != 1 {
		t.Fatalf("%d journal pushes to the silent successor failed, want exactly 1 before it is dropped", got)
	}
}

// A join whose membership broadcast reaches a member that never answers
// still returns: the broadcast is bounded by FetchTimeout.
func TestClusterJoinWithSilentMember(t *testing.T) {
	node, fake := newNodeWithSilentPeer(t, false, func(r *http.Request) bool {
		return r.URL.Path == cluster.MembershipPath
	}, func(cfg *Config) { cfg.AdminToken = testAdminToken })
	status, body := postWithin(t, 5*time.Second, node.ts.URL+"/v1/cluster/join", MemberChange{URL: fake.URL})
	var mr MembershipResponse
	if status != http.StatusOK || json.Unmarshal(body, &mr) != nil || mr.Epoch != 1 || len(mr.Members) != 2 {
		t.Fatalf("join = %d %s, want epoch 1 with 2 members", status, body)
	}
}

// badMemberChanges are join/leave bodies the membership routes refuse
// with a 400 before touching the ring.
var badMemberChanges = []struct{ name, body string }{
	{"empty url", `{}`},
	{"unknown field", `{"url":"http://a:1","bogus":1}`},
	{"malformed JSON", `{"url":`},
	{"not an object", `["http://a:1"]`},
	{"bad url", `{"url":"ftp://a:1"}`},
	{"trailing data", `{"url":"http://a:1"} trailing`},
}

func TestMemberChangeBadRequests(t *testing.T) {
	node := newSoloNode(t, func(cfg *Config) { cfg.AdminToken = testAdminToken })
	for _, route := range []string{"/v1/cluster/join", "/v1/cluster/leave"} {
		for _, tc := range badMemberChanges {
			req, _ := http.NewRequest(http.MethodPost, node.ts.URL+route, strings.NewReader(tc.body))
			req.Header.Set("X-Admin-Token", testAdminToken)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status = %d, want 400", route, tc.name, resp.StatusCode)
				continue
			}
			if e := decodeError(t, data); e.Code != CodeInvalidRequest {
				t.Errorf("%s %s: code = %q", route, tc.name, e.Code)
			}
		}
	}
	if _, h := getHealth(t, node.ts); h.ClusterEpoch != 0 {
		t.Fatalf("refused member changes moved the ring to epoch %d", h.ClusterEpoch)
	}
}

// FuzzDecodeMemberChange feeds arbitrary bodies to the join/leave and
// membership-update decoders and applies what they accept to a fresh
// two-member cluster. Nothing may panic; an accepted join/leave names a
// URL, a join that succeeds adds exactly one member, and an update that
// applies installs its epoch with self still in the view.
func FuzzDecodeMemberChange(f *testing.F) {
	for _, tc := range badMemberChanges {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"url":"http://127.0.0.1:3"}`))
	f.Add([]byte(`{"epoch":2,"peers":["http://127.0.0.1:1","http://127.0.0.1:3"]}`))
	f.Add([]byte(`{"epoch":1,"peers":["http://127.0.0.1:2"]}`))
	s := &Server{cfg: Config{}.withDefaults()}
	const self = "http://127.0.0.1:1"
	fresh := func(t *testing.T) *cluster.Cluster {
		c, err := cluster.New(cluster.Config{Self: self, Peers: []string{self, "http://127.0.0.1:2"}, ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	post := func(body []byte) (http.ResponseWriter, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if mc, err := s.decodeMemberChange(post(body)); err == nil {
			if mc.URL == "" {
				t.Fatalf("accepted %.80q with no url", body)
			}
			if v, err := fresh(t).Join(mc.URL); err == nil && (v.Size() != 3 || v.Epoch() != 1) {
				t.Fatalf("join %q = %d members at epoch %d, want 3 at 1", mc.URL, v.Size(), v.Epoch())
			}
			if v, err := fresh(t).Leave(mc.URL); err == nil && v.Size() != 1 {
				t.Fatalf("leave %q left %d members, want 1", mc.URL, v.Size())
			}
		}
		var u MembershipUpdate
		w, r := post(body)
		if err := s.decodeBody(w, r, &u); err != nil {
			return
		}
		v, changed, err := fresh(t).Apply(u.Epoch, u.Peers)
		if err != nil {
			return
		}
		if changed != (u.Epoch > 0) || v.Epoch() != u.Epoch {
			t.Fatalf("apply epoch %d: changed=%v, view at epoch %d", u.Epoch, changed, v.Epoch())
		}
		if v.Self().URL() != self {
			t.Fatalf("apply %.80q lost self: %s", body, v.Self().URL())
		}
	})
}
