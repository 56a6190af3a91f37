package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
