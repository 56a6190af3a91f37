package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdt/internal/store"
)

// journalFleet builds a cluster whose self is a non-listening URL plus
// one live fake peer per handler, and returns it with the peers in the
// journal key's successor order for id (self left out). A handler is
// picked for each peer by that position once the ring is known, so
// tests can script "the first successor answers 404, the second ..."
// whatever ports the servers got.
func journalFleet(t *testing.T, id string, handlers ...http.HandlerFunc) (*Cluster, []*Peer) {
	t.Helper()
	return journalFleetWith(t, Config{ProbeInterval: -1}, id, handlers...)
}

// journalFleetWith is journalFleet on a cluster built from cfg, whose
// Self and Peers it fills in.
func journalFleetWith(t *testing.T, cfg Config, id string, handlers ...http.HandlerFunc) (*Cluster, []*Peer) {
	t.Helper()
	var mu sync.Mutex
	byHost := make(map[string]http.HandlerFunc)
	self := "http://127.0.0.1:1"
	peers := []string{self}
	for range handlers {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			h := byHost[r.Host]
			mu.Unlock()
			h(w, r)
		}))
		t.Cleanup(ts.Close)
		peers = append(peers, ts.URL)
	}
	cfg.Self, cfg.Peers = self, peers
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var order []*Peer
	for _, p := range c.CurrentView().Successors(journalKey(id)) {
		if !p.Self() {
			order = append(order, p)
		}
	}
	mu.Lock()
	for i, p := range order {
		byHost[p.Name()] = handlers[i]
	}
	mu.Unlock()
	return c, order
}

// Every fleet ships its journal to at least one successor, RF=1
// included, and to RF-1 of them otherwise, never to self and in the
// journal key's successor order.
func TestJournalTargets(t *testing.T) {
	self := "http://a:1"
	members := []string{self, "http://b:2", "http://c:3", "http://d:4"}
	for _, tc := range []struct{ rf, want int }{{1, 1}, {2, 1}, {3, 2}, {4, 3}} {
		c, err := New(Config{Self: self, Peers: members, Replication: tc.rf, ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		v := c.CurrentView()
		got := v.journalTargets("sweep-1")
		if len(got) != tc.want {
			t.Fatalf("RF=%d: %d journal targets, want %d", tc.rf, len(got), tc.want)
		}
		var order []*Peer
		for _, p := range v.Successors(journalKey("sweep-1")) {
			if !p.Self() {
				order = append(order, p)
			}
		}
		for i, p := range got {
			if p != order[i] {
				t.Fatalf("RF=%d: target %d is %s, want successor %s", tc.rf, i, p.Name(), order[i].Name())
			}
		}
	}
	solo, err := New(Config{Self: self, Peers: []string{self}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if js := solo.ShipJournal(solo.CurrentView(), "sweep-1", nil); js != nil {
		t.Fatal("a fleet of one got a journal shipper")
	}
}

// FetchJournal walks the journal's successors in ring order: it skips
// a down peer without asking it, goes on past a 404, a bad seal and a
// body valid rejects, and returns the first good copy without asking
// the successors after it.
func TestFetchJournalWalk(t *testing.T) {
	const id = "adopt-me"
	good := []byte(`{"id":"adopt-me","n":1}`)
	var mu sync.Mutex
	asked := make(map[int]int)
	serve := func(i int, answer func(w http.ResponseWriter)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || r.URL.Path != PeerJournalPath+id {
				t.Errorf("successor %d got %s %s", i, r.Method, r.URL.Path)
			}
			mu.Lock()
			asked[i]++
			mu.Unlock()
			answer(w)
		}
	}
	badSeal := store.SealEntry(good)
	badSeal[len(badSeal)-1] ^= 0x01
	c, order := journalFleet(t, id,
		serve(0, func(w http.ResponseWriter) { w.Write(store.SealEntry(good)) }), // down: never asked
		serve(1, func(w http.ResponseWriter) { w.WriteHeader(http.StatusNotFound) }),
		serve(2, func(w http.ResponseWriter) { w.Write(badSeal) }),
		serve(3, func(w http.ResponseWriter) { w.Write(store.SealEntry([]byte(`{"id":"other"}`))) }),
		serve(4, func(w http.ResponseWriter) { w.Write(store.SealEntry(good)) }),
		serve(5, func(w http.ResponseWriter) { w.Write(store.SealEntry([]byte(`{"id":"adopt-me","n":2}`))) }),
	)
	order[0].MarkDown()
	valid := func(data []byte) bool { return strings.Contains(string(data), `"id":"adopt-me"`) }

	data, err := c.FetchJournal(id, valid)
	if err != nil || string(data) != string(good) {
		t.Fatalf("FetchJournal = %q, %v; want the first good copy", data, err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, want := range []int{0, 1, 1, 1, 1, 0} {
		if asked[i] != want {
			t.Errorf("successor %d asked %d times, want %d", i, asked[i], want)
		}
	}
}

// With no good copy anywhere FetchJournal reports ErrNoJournal, naming
// what each failed successor answered.
func TestFetchJournalNone(t *testing.T) {
	c, _ := journalFleet(t, "gone",
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNotFound) },
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusInternalServerError) },
	)
	_, err := c.FetchJournal("gone", func([]byte) bool { return true })
	if !errors.Is(err, ErrNoJournal) || !strings.Contains(err.Error(), "500") {
		t.Fatalf("FetchJournal = %v, want ErrNoJournal with the 500", err)
	}
}

// The shipper keeps only the latest snapshot while a push is in flight,
// and sends a tombstone once the sweep completes (and only then).
func TestJournalShipperLatestWinsAndTombstone(t *testing.T) {
	for _, complete := range []bool{false, true} {
		const id = "ship-me"
		var (
			mu   sync.Mutex
			seen []string
		)
		started, release := make(chan struct{}), make(chan struct{})
		c, order := journalFleet(t, id, func(w http.ResponseWriter, r *http.Request) {
			raw, _ := io.ReadAll(r.Body)
			rec := r.Method
			if r.Method == http.MethodPut {
				data, err := store.OpenEntry(raw)
				if err != nil {
					t.Errorf("push with a bad seal: %v", err)
				}
				rec += " " + string(data)
			}
			mu.Lock()
			seen = append(seen, rec)
			first := len(seen) == 1
			mu.Unlock()
			if first {
				close(started)
				<-release
			}
			w.WriteHeader(http.StatusNoContent)
		})
		var pushes []error
		js := c.ShipJournal(c.CurrentView(), id, func(p *Peer, err error) {
			if p != order[0] {
				t.Errorf("pushed to %s, want the first successor", p.Name())
			}
			pushes = append(pushes, err)
		})
		js.Push([]byte("v1"))
		<-started // v1 is in flight; v2 and v3 queue behind it
		js.Push([]byte("v2"))
		js.Push([]byte("v3"))
		close(release)
		js.Finish(complete)

		want := []string{"PUT v1", "PUT v3"}
		if complete {
			want = append(want, "DELETE")
		}
		mu.Lock()
		if strings.Join(seen, ",") != strings.Join(want, ",") {
			t.Errorf("complete=%v: peer saw %q, want %q", complete, seen, want)
		}
		mu.Unlock()
		if len(pushes) != 2 || pushes[0] != nil || pushes[1] != nil {
			t.Errorf("complete=%v: push outcomes %v, want 2 clean pushes", complete, pushes)
		}
	}
}

// The shipper sends each snapshot to every target at once, skips a
// target that is down, and drops one whose push failed for the rest of
// the sweep: a successor that never answers costs one FetchTimeout per
// sweep, not one per snapshot and tombstone.
func TestJournalShipperSkipsDownAndDropsFailed(t *testing.T) {
	const (
		id      = "ship-around"
		timeout = 250 * time.Millisecond
	)
	release := make(chan struct{})
	defer close(release) // before the fleet's servers close
	var mu sync.Mutex
	seen := make(map[int][]string)
	serve := func(i int, silent bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[i] = append(seen[i], r.Method)
			mu.Unlock()
			if silent {
				<-release
				return
			}
			w.WriteHeader(http.StatusNoContent)
		}
	}
	c, order := journalFleetWith(t, Config{Replication: 4, ProbeInterval: -1, FetchTimeout: timeout}, id,
		serve(0, true), serve(1, false), serve(2, false))
	order[1].MarkDown()
	pushes := make(map[*Peer][]error)
	js := c.ShipJournal(c.CurrentView(), id, func(p *Peer, err error) {
		mu.Lock()
		pushes[p] = append(pushes[p], err)
		mu.Unlock()
	})
	start := time.Now()
	js.Push([]byte("v1"))
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		pushed := len(pushes[order[0]]) > 0 && len(pushes[order[2]]) > 0
		mu.Unlock()
		if pushed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first snapshot's pushes never finished")
		}
	}
	js.Push([]byte("v2"))
	js.Finish(true)
	if d := time.Since(start); d > 2*timeout {
		t.Errorf("shipping past a silent successor took %s, want about one FetchTimeout (%s)", d, timeout)
	}

	mu.Lock()
	defer mu.Unlock()
	for i, want := range []string{"PUT", "", "PUT,PUT,DELETE"} {
		if got := strings.Join(seen[i], ","); got != want {
			t.Errorf("target %d saw %q, want %q", i, got, want)
		}
	}
	if errs := pushes[order[0]]; len(errs) != 1 || errs[0] == nil {
		t.Errorf("silent target push outcomes %v, want one failure", errs)
	}
	if errs := pushes[order[2]]; len(errs) != 2 || errs[0] != nil || errs[1] != nil {
		t.Errorf("live target push outcomes %v, want two clean pushes", errs)
	}
}

// A peer that takes a request and never answers costs one FetchTimeout,
// on every kind of peer request.
func TestSilentPeerBoundedByFetchTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-release }))
	defer ts.Close()
	defer close(release)
	self := "http://127.0.0.1:1"
	c, err := New(Config{Self: self, Peers: []string{self, ts.URL}, ProbeInterval: -1, FetchTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	v := c.CurrentView()
	var remote *Peer
	for _, p := range v.Members() {
		if !p.Self() {
			remote = p
		}
	}
	for name, call := range map[string]func() error{
		"fetch":     func() error { _, _, err := c.fetchFrom(remote, "k"); return err },
		"put":       func() error { return c.putEntry(remote, "k", []byte("x")) },
		"journal":   func() error { _, err := c.FetchJournal("j", func([]byte) bool { return true }); return err },
		"broadcast": func() error { return c.Broadcast(context.Background(), v, v, "token") },
		"probe": func() error {
			if c.probe(remote) {
				return nil
			}
			return errors.New("down")
		},
	} {
		start := time.Now()
		if err := call(); err == nil {
			t.Errorf("%s to a silent peer succeeded", name)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s to a silent peer took %s, want about one FetchTimeout", name, d)
		}
	}
}
