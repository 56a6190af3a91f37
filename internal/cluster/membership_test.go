package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdt/internal/store"
)

// peerServer is a scripted fleet member: it serves sealed entries for
// the keys it holds (404 otherwise), accepts replica PUTs, and answers
// health probes.
type peerServer struct {
	ts   *httptest.Server
	mu   sync.Mutex
	held map[string][]byte
	puts int
}

func newPeerServer(t *testing.T) *peerServer {
	t.Helper()
	ps := &peerServer{held: make(map[string][]byte)}
	ps.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			w.WriteHeader(http.StatusOK)
		case strings.HasPrefix(r.URL.Path, PeerResultPath):
			key := strings.TrimPrefix(r.URL.Path, PeerResultPath)
			switch r.Method {
			case http.MethodGet:
				ps.mu.Lock()
				data, ok := ps.held[key]
				ps.mu.Unlock()
				if !ok {
					http.Error(w, "no", http.StatusNotFound)
					return
				}
				w.Write(store.SealEntry(data))
			case http.MethodPut:
				raw := make([]byte, 0, 1024)
				buf := make([]byte, 1024)
				for {
					n, err := r.Body.Read(buf)
					raw = append(raw, buf[:n]...)
					if err != nil {
						break
					}
				}
				data, err := store.OpenEntry(raw)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				ps.mu.Lock()
				ps.held[key] = data
				ps.puts++
				ps.mu.Unlock()
				w.WriteHeader(http.StatusNoContent)
			}
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ps.ts.Close)
	return ps
}

func (ps *peerServer) hold(key string, data []byte) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.held[key] = data
}

func (ps *peerServer) get(key string) ([]byte, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	d, ok := ps.held[key]
	return d, ok
}

// testFleet builds a cluster whose self is a non-listening URL plus the
// given live peer servers, with the prober off.
func testFleet(t *testing.T, rf int, servers ...*peerServer) *Cluster {
	t.Helper()
	self := "http://127.0.0.1:1"
	peers := []string{self}
	for _, ps := range servers {
		peers = append(peers, ps.ts.URL)
	}
	c, err := New(Config{
		Self:          self,
		Peers:         peers,
		Replication:   rf,
		ProbeInterval: -1,
		Client:        servers[0].ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// peerOf maps a server back to its Peer in the current view.
func peerOf(t *testing.T, c *Cluster, ps *peerServer) *Peer {
	t.Helper()
	name := strings.TrimPrefix(ps.ts.URL, "http://")
	for _, p := range c.CurrentView().Members() {
		if p.Name() == name {
			return p
		}
	}
	t.Fatalf("server %s not in membership", name)
	return nil
}

// findKey searches deterministic candidate keys for one accepted by ok
// on the cluster's current view.
func findKey(t *testing.T, c *Cluster, ok func(v *View, key string) bool) string {
	t.Helper()
	v := c.CurrentView()
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("%064x", i*2654435761+99991)
		if ok(v, key) {
			return key
		}
	}
	t.Fatal("no key matching predicate in 100000 candidates")
	return ""
}

func TestViewEpochsJoinLeaveApply(t *testing.T) {
	a := newPeerServer(t)
	c := testFleet(t, 1, a)
	if c.CurrentView().Epoch() != 0 || c.CurrentView().Size() != 2 {
		t.Fatalf("boot view: epoch=%d size=%d, want 0/2", c.CurrentView().Epoch(), c.CurrentView().Size())
	}
	peerA := peerOf(t, c, a)

	v, err := c.Join("http://10.9.9.9:1234")
	if err != nil || v.Epoch() != 1 || v.Size() != 3 {
		t.Fatalf("join: view=%+v err=%v, want epoch 1 size 3", v, err)
	}
	if _, err := c.Join("http://10.9.9.9:1234"); err == nil {
		t.Fatal("duplicate join accepted")
	}
	// Surviving members keep their Peer objects (breakers, counters).
	if peerOf(t, c, a) != peerA {
		t.Fatal("join rebuilt the surviving peer object")
	}

	v, err = c.Leave("http://10.9.9.9:1234")
	if err != nil || v.Epoch() != 2 || v.Size() != 2 {
		t.Fatalf("leave: view=%+v err=%v, want epoch 2 size 2", v, err)
	}
	if _, err := c.Leave("http://10.9.9.9:1234"); err == nil {
		t.Fatal("leaving a non-member accepted")
	}

	// Stale epochs are ignored.
	if _, changed, err := c.Apply(1, []string{"http://127.0.0.1:1"}); err != nil || changed {
		t.Fatalf("stale apply: changed=%v err=%v, want no-op", changed, err)
	}
	// A membership excluding self installs a solo view at the broadcast
	// epoch: the node is out of the ring but keeps serving.
	v2, changed, err := c.Apply(10, []string{a.ts.URL})
	if err != nil || !changed || v2.Epoch() != 10 || v2.Size() != 1 || !v2.Self().Self() {
		t.Fatalf("self-excluding apply: view=%+v changed=%v err=%v, want solo epoch 10", v2, changed, err)
	}
	// The last member cannot leave.
	if _, err := c.Leave(c.SelfName()); err == nil {
		t.Fatal("removing the last member accepted")
	}
}

// Fetch walks the whole replica set: a 404 from the first replica is a
// per-peer miss and the walk continues to the next, where the entry is
// found and verified.
func TestFetchWalksReplicas(t *testing.T) {
	a, b := newPeerServer(t), newPeerServer(t)
	c := testFleet(t, 2, a, b)
	pa, pb := peerOf(t, c, a), peerOf(t, c, b)
	key := findKey(t, c, func(v *View, k string) bool {
		reps := v.Replicas(k)
		return len(reps) == 2 && reps[0] == pa && reps[1] == pb
	})
	b.hold(key, []byte("payload"))

	data, ok, err := c.Fetch(key)
	if err != nil || !ok || string(data) != "payload" {
		t.Fatalf("Fetch = (%q, %v, %v), want replica hit", data, ok, err)
	}
	if pa.misses.Load() != 1 || pa.errors.Load() != 0 {
		t.Fatalf("first replica: misses=%d errors=%d, want a clean 404 miss", pa.misses.Load(), pa.errors.Load())
	}
	if pb.hits.Load() != 1 {
		t.Fatalf("second replica hits = %d, want 1", pb.hits.Load())
	}
	if pa.Degraded() {
		t.Fatal("404s must not feed the breaker")
	}
}

// A down replica is skipped without an RPC, and the walk extends past
// the replica set (fallback copies can live on later successors after
// reassignment during an outage).
func TestFetchSkipsDownAndExtendsWalk(t *testing.T) {
	a, b := newPeerServer(t), newPeerServer(t)
	c := testFleet(t, 1, a, b)
	pa, pb := peerOf(t, c, a), peerOf(t, c, b)
	// Owner is a (sole replica at RF=1); b holds a fallback copy.
	key := findKey(t, c, func(v *View, k string) bool {
		return v.Replicas(k)[0] == pa
	})
	b.hold(key, []byte("fallback"))
	pa.MarkDown()

	data, ok, err := c.Fetch(key)
	if err != nil || !ok || string(data) != "fallback" {
		t.Fatalf("Fetch = (%q, %v, %v), want extended-walk hit", data, ok, err)
	}
	if pa.skipped.Load() != 1 {
		t.Fatalf("down replica skipped = %d, want 1", pa.skipped.Load())
	}
	if pb.hits.Load() != 1 {
		t.Fatalf("successor hits = %d, want 1", pb.hits.Load())
	}
}

// Transport errors and 404s take different paths: an unreachable
// replica feeds its breaker and accrues an error counter, but the walk
// still reaches the live replica and the caller gets the data.
func TestFetchTransportErrorVsMiss(t *testing.T) {
	a, b := newPeerServer(t), newPeerServer(t)
	// Kill a's listener but keep its URL in the membership.
	deadURL := a.ts.URL
	a.ts.Close()
	self := "http://127.0.0.1:1"
	c, err := New(Config{
		Self:             self,
		Peers:            []string{self, deadURL, b.ts.URL},
		Replication:      2,
		ProbeInterval:    -1,
		BreakerThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pa, pb *Peer
	for _, p := range c.CurrentView().Members() {
		switch p.Name() {
		case strings.TrimPrefix(deadURL, "http://"):
			pa = p
		case strings.TrimPrefix(b.ts.URL, "http://"):
			pb = p
		}
	}
	key := findKey(t, c, func(v *View, k string) bool {
		reps := v.Replicas(k)
		return len(reps) == 2 && reps[0] == pa && reps[1] == pb
	})
	b.hold(key, []byte("alive"))

	data, ok, err := c.Fetch(key)
	if err != nil || !ok || string(data) != "alive" {
		t.Fatalf("Fetch = (%q, %v, %v), want hit despite dead first replica", data, ok, err)
	}
	if pa.errors.Load() != 1 || pa.misses.Load() != 0 {
		t.Fatalf("dead replica: errors=%d misses=%d, want the failure counted as transport error", pa.errors.Load(), pa.misses.Load())
	}
	if !pa.Degraded() {
		t.Fatal("transport failure at threshold 1 must trip the breaker")
	}
	// Next fetch skips the open breaker instead of timing out again.
	key2 := findKey(t, c, func(v *View, k string) bool {
		reps := v.Replicas(k)
		return len(reps) == 2 && reps[0] == pa && reps[1] == pb
	})
	b.hold(key2, []byte("alive2"))
	if _, ok, err := c.Fetch(key2); err != nil || !ok {
		t.Fatalf("Fetch with open breaker = (%v, %v), want hit via next replica", ok, err)
	}
	if pa.skipped.Load() == 0 {
		t.Fatal("open breaker must skip, not re-dial")
	}
}

// Replicate fans a freshly computed entry out to the other members of
// its replica set; the replicas verify the seal and store it.
func TestReplicateFanout(t *testing.T) {
	a, b := newPeerServer(t), newPeerServer(t)
	c := testFleet(t, 3, a, b) // rf = fleet size: every entry everywhere
	c.Start()
	defer c.Close()

	key := findKey(t, c, func(v *View, k string) bool { return true })
	c.Replicate(key, []byte("replicated"))

	// Wait on the sender's counter, which settles after the replicas
	// have stored the entry and answered.
	deadline := time.Now().Add(5 * time.Second)
	for c.ReplStats().Sent < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never acknowledged the entry: %+v", c.ReplStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	da, oka := a.get(key)
	db, okb := b.get(key)
	if !oka || !okb || string(da) != "replicated" || string(db) != "replicated" {
		t.Fatalf("replicas hold %q (%v) / %q (%v)", da, oka, db, okb)
	}
	if st := c.ReplStats(); st.Sent != 2 {
		t.Fatalf("repl stats = %+v, want 2 sent", st)
	}
}

// With RF < 2 replication is off entirely.
func TestReplicateNoopAtRF1(t *testing.T) {
	a := newPeerServer(t)
	c := testFleet(t, 1, a)
	c.Start()
	defer c.Close()
	c.Replicate("deadbeef", []byte("x"))
	time.Sleep(20 * time.Millisecond)
	if st := c.ReplStats(); st.Sent != 0 || st.Queue != 0 || st.Pending != 0 {
		t.Fatalf("repl stats = %+v, want untouched at RF=1", st)
	}
	if a.puts != 0 {
		t.Fatal("peer received a replica at RF=1")
	}
}

type mapLocal map[string][]byte

func (m mapLocal) Get(key string) ([]byte, bool) {
	d, ok := m[key]
	return d, ok
}

// A replica push to a down peer parks the key; when the prober sees the
// peer again, anti-entropy re-reads the bytes from the local store and
// delivers them.
func TestReplicateAntiEntropyOnRecovery(t *testing.T) {
	a := newPeerServer(t)
	c := testFleet(t, 2, a)
	c.Start()
	defer c.Close()
	pa := peerOf(t, c, a)

	key := findKey(t, c, func(v *View, k string) bool { return true })
	c.SetLocal(mapLocal{key: []byte("late")})
	pa.MarkDown()
	c.Replicate(key, []byte("late"))

	if st := c.ReplStats(); st.Pending != 1 || st.Sent != 0 {
		t.Fatalf("repl stats after down-peer write = %+v, want 1 pending", st)
	}
	// What the prober does on a down->up transition.
	pa.up.Store(true)
	c.recoverPeer(pa)

	// Wait on the sender's counter: the peer stores the key before it
	// answers, so the counter is the last thing to settle.
	deadline := time.Now().Add(5 * time.Second)
	for c.ReplStats().Sent == 0 {
		if time.Now().After(deadline) {
			t.Fatal("anti-entropy never delivered the parked key")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d, ok := a.get(key); !ok || string(d) != "late" {
		t.Fatalf("replica holds %q (%v), want the local store's bytes", d, ok)
	}
	if st := c.ReplStats(); st.Requeued != 1 || st.Sent != 1 || st.Pending != 0 {
		t.Fatalf("repl stats after recovery = %+v, want requeued=1 sent=1", st)
	}
}

// After a membership change, keys whose owner moved are still found on
// their previous-epoch replicas — the lazy migration path — and counted.
func TestFetchPrevViewMigration(t *testing.T) {
	a, b := newPeerServer(t), newPeerServer(t)
	c := testFleet(t, 1, a, b)
	pb := peerOf(t, c, b)
	key := findKey(t, c, func(v *View, k string) bool {
		return v.Owner(k) == pb
	})
	b.hold(key, []byte("migrating"))

	if _, err := c.Leave(b.ts.URL); err != nil {
		t.Fatal(err)
	}
	data, ok, err := c.Fetch(key)
	if err != nil || !ok || string(data) != "migrating" {
		t.Fatalf("Fetch after leave = (%q, %v, %v), want prev-epoch hit", data, ok, err)
	}
	if st := c.ReplStats(); st.Migrated != 1 {
		t.Fatalf("repl stats = %+v, want 1 migrated key", st)
	}
}
