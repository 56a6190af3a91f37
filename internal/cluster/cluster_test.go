package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdt/internal/store"
)

// twoNode builds a self + one remote peer cluster where the remote is
// the given test server, and returns a key the remote owns.
func twoNode(t *testing.T, ts *httptest.Server, cfg Config) (*Cluster, string) {
	t.Helper()
	self := "http://127.0.0.1:1"
	cfg.Self = self
	cfg.Peers = []string{self, ts.URL}
	cfg.ProbeInterval = -1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("%064x", i)
		if !c.Owner(k).Self() {
			return c, k
		}
	}
	t.Fatal("no key owned by the remote peer in 4096 candidates")
	return nil, ""
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name  string
		peers []string
		want  string // substring of the error
	}{
		{"self outside the membership list", []string{"http://b:2"}, "self a:1 is not in the peer list"},
		{"duplicate peer", []string{"http://a:1", "http://a:1/"}, "duplicate peer a:1"},
		{"non-http peer", []string{"http://a:1", "ftp://b:2"}, "scheme must be http or https"},
		{"peer url with a path", []string{"http://a:1", "http://b:2/base"}, "with no path"},
	}
	for _, tt := range tests {
		_, err := New(Config{Self: "http://a:1", Peers: tt.peers})
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: err = %v, want one containing %q", tt.name, err, tt.want)
		}
	}
}

// A fetch for a remotely-owned key must hit the owner's sealed-entry
// endpoint and verify the framing; a locally-owned key must miss with
// no RPC at all.
func TestFetchHitAndLocalMiss(t *testing.T) {
	payload := []byte(`{"cycles":42}`)
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if !strings.HasPrefix(r.URL.Path, PeerResultPath) {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		w.Write(store.SealEntry(payload))
	}))
	defer ts.Close()
	c, key := twoNode(t, ts, Config{})

	data, ok, err := c.Fetch(key)
	if err != nil || !ok || string(data) != string(payload) {
		t.Fatalf("Fetch = %q, %v, %v", data, ok, err)
	}
	// A key the local node owns never leaves the process.
	var local string
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("%064x", i)
		if c.Owner(k).Self() {
			local = k
			break
		}
	}
	if _, ok, err := c.Fetch(local); ok || err != nil {
		t.Fatalf("locally-owned fetch = %v, %v; want clean miss", ok, err)
	}
	if calls != 1 {
		t.Fatalf("owner called %d times, want 1", calls)
	}
	h := c.Health()
	var hits, misses uint64
	for _, p := range h {
		hits += p.Hits
		misses += p.Misses
	}
	if hits != 1 || misses != 0 {
		t.Fatalf("health counters = %+v, want 1 hit", h)
	}
}

// A 404 from the owner is a clean miss and healthy I/O.
func TestFetchMiss(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer ts.Close()
	c, key := twoNode(t, ts, Config{})
	if _, ok, err := c.Fetch(key); ok || err != nil {
		t.Fatalf("Fetch = %v, %v; want clean miss", ok, err)
	}
	for _, p := range c.Health() {
		if p.Degraded {
			t.Fatalf("peer degraded after a clean miss: %+v", p)
		}
	}
}

// Consecutive failures must trip the owner's breaker; once open,
// fetches skip the RPC entirely instead of hammering a dead node.
func TestFetchUnreachableTripsBreaker(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	c, key := twoNode(t, ts, Config{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	ts.Close() // now unreachable

	for i := 0; i < 2; i++ {
		if _, _, err := c.Fetch(key); err == nil {
			t.Fatalf("fetch %d from a dead owner succeeded", i)
		}
	}
	// Breaker open: a miss without an error, and without an RPC.
	if _, ok, err := c.Fetch(key); ok || err != nil {
		t.Fatalf("open-breaker fetch = %v, %v; want silent miss", ok, err)
	}
	var remote PeerHealth
	for _, p := range c.Health() {
		if !p.Self {
			remote = p
		}
	}
	if !remote.Degraded || remote.BreakerTrips != 1 || remote.Errors != 2 || remote.Skipped != 1 {
		t.Fatalf("remote health = %+v, want degraded with 2 errors, 1 skip, 1 trip", remote)
	}
}

// A corrupt sealed entry is a data problem: the fetch errors (caller
// recomputes) but the breaker records availability Success.
func TestFetchCorruptEntry(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := store.SealEntry([]byte(`{"cycles":42}`))
		raw[len(raw)-1] ^= 0x01
		w.Write(raw)
	}))
	defer ts.Close()
	c, key := twoNode(t, ts, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	if _, ok, err := c.Fetch(key); ok || err == nil {
		t.Fatalf("Fetch of corrupt entry = %v, %v; want error", ok, err)
	}
	for _, p := range c.Health() {
		if p.Degraded {
			t.Fatalf("corruption tripped the availability breaker: %+v", p)
		}
	}
}

// fakeFaults injects at a single site.
type fakeFaults struct {
	site    string
	err     error
	corrupt bool
}

func (f *fakeFaults) Fail(site string) error {
	if site == f.site {
		return f.err
	}
	return nil
}

func (f *fakeFaults) Corrupt(site string, data []byte) ([]byte, bool) {
	if site == f.site && f.corrupt && len(data) > 0 {
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0x10
		return mut, true
	}
	return data, false
}

// The SiteFetch seam must be able to fail a fetch before any RPC and
// to corrupt a response after it.
func TestFetchFaultInjection(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Write(store.SealEntry([]byte(`{"ok":true}`)))
	}))
	defer ts.Close()

	f := &fakeFaults{site: SiteFetch, err: errors.New("injected")}
	c, key := twoNode(t, ts, Config{Faults: f})
	if _, _, err := c.Fetch(key); err == nil || calls != 0 {
		t.Fatalf("io-class injection: err=%v calls=%d, want pre-RPC failure", err, calls)
	}

	f.err = nil
	f.corrupt = true
	if _, ok, err := c.Fetch(key); ok || err == nil {
		t.Fatalf("corrupt-class injection: ok=%v err=%v, want integrity rejection", ok, err)
	}
	if calls != 1 {
		t.Fatalf("corrupt-class injection made %d calls, want 1", calls)
	}
}

// The prober must mark a dead peer down and a recovered one up, and
// MarkDown must be sticky until the next probe.
func TestProber(t *testing.T) {
	var healthy sync.Map
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, down := healthy.Load("down"); down {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	self := "http://127.0.0.1:1"
	c, err := New(Config{
		Self:          self,
		Peers:         []string{self, ts.URL},
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	var remote *Peer
	for _, p := range c.CurrentView().Members() {
		if !p.Self() {
			remote = p
		}
	}
	wait := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for remote.Up() != want {
			if time.Now().After(deadline) {
				t.Fatalf("peer never became %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	wait(true, "up")
	healthy.Store("down", true)
	wait(false, "down")
	healthy.Delete("down")
	wait(true, "up again")
}

// A peer that is still booting when Start fires its initial probe must be
// re-probed with short backoff and marked up as soon as it answers — not
// after a full probe interval. The interval here is far longer than the
// test timeout, so only the boot-phase retry loop can flip the peer up.
func TestProberBootBackoff(t *testing.T) {
	var ready sync.Map
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := ready.Load("up"); !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	self := "http://127.0.0.1:1"
	c, err := New(Config{
		Self:          self,
		Peers:         []string{self, ts.URL},
		ProbeInterval: time.Hour, // the steady ticker never fires in-test
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()

	var remote *Peer
	for _, p := range c.CurrentView().Members() {
		if !p.Self() {
			remote = p
		}
	}
	// Let the initial probe see the peer down, then bring it up.
	deadline := time.Now().Add(5 * time.Second)
	for remote.Up() {
		if time.Now().After(deadline) {
			t.Fatal("initial probe never marked the booting peer down")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ready.Store("up", true)
	for !remote.Up() {
		if time.Now().After(deadline) {
			t.Fatal("boot backoff never re-probed the peer (would have waited a full interval)")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Merge must emit records in global index order no matter the delivery
// order, matching what a single-node Ordered sweep would stream.
func TestMergeOrder(t *testing.T) {
	const n = 257
	var got []int
	m := NewMerge[int](func(index, v int) {
		if index != v {
			t.Fatalf("emit(%d, %d): index/value mismatch", index, v)
		}
		got = append(got, v)
	})
	perm := rand.New(rand.NewSource(7)).Perm(n)
	var wg sync.WaitGroup
	for shard := 0; shard < 4; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := shard; i < n; i += 4 {
				m.Add(perm[i], perm[i])
			}
		}(shard)
	}
	wg.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("emission order broken at %d: got %d", i, v)
		}
	}
	if len(got) != n {
		t.Fatalf("emitted %d records, want %d", len(got), n)
	}
}

// View.Assign must walk the deterministic failover order and fall back to
// self when nobody is acceptable.
func TestAssignFailover(t *testing.T) {
	self := "http://a:1"
	c, err := New(Config{
		Self:          self,
		Peers:         []string{self, "http://b:2", "http://c:3"},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("%064x", 99)
	v := c.CurrentView()
	owner := v.Assign(key, nil)
	if owner != v.Owner(key) {
		t.Fatal("nil-predicate Assign is not Owner")
	}
	// Excluding the owner yields a different member, deterministically.
	alt := v.Assign(key, func(p *Peer) bool { return p != owner })
	if alt == owner {
		t.Fatal("Assign returned the excluded owner")
	}
	if again := v.Assign(key, func(p *Peer) bool { return p != owner }); again != alt {
		t.Fatal("failover assignment is not deterministic")
	}
	// Nobody acceptable: work still lands somewhere (self).
	if p := v.Assign(key, func(*Peer) bool { return false }); !p.Self() {
		t.Fatalf("all-rejected Assign = %s, want self", p.Name())
	}
}
