package store

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// fakeReplicator records Replicate calls.
type fakeReplicator struct {
	mu    sync.Mutex
	calls []string
}

func (f *fakeReplicator) Replicate(key string, data []byte) {
	f.mu.Lock()
	f.calls = append(f.calls, key)
	f.mu.Unlock()
}

func (f *fakeReplicator) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

const replKey = "cd34ef56cd34ef56"

// Replicate fires exactly when this node ran compute: once for a fresh
// computation, never for cache hits, never for peer-tier hits (the peer
// already owns the replica set for that value).
func TestReplicatorFiresOnlyOnCompute(t *testing.T) {
	repl := &fakeReplicator{}
	s, err := OpenByteStoreWith(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.SetReplicator(repl)

	if _, _, err := s.Do(context.Background(), replKey, func() ([]byte, error) {
		return []byte("fresh"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if repl.count() != 1 {
		t.Fatalf("fresh compute fanned out %d times, want 1", repl.count())
	}

	// Cache hit: no fan-out.
	if _, hit, _ := s.Do(context.Background(), replKey, nil); !hit {
		t.Fatal("cached value not hit")
	}
	if repl.count() != 1 {
		t.Fatalf("cache hit fanned out (%d calls)", repl.count())
	}

	// Failed compute: no fan-out.
	if _, _, err := s.Do(context.Background(), "ee"+replKey, func() ([]byte, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("failed compute reported success")
	}
	if repl.count() != 1 {
		t.Fatalf("failed compute fanned out (%d calls)", repl.count())
	}
}

// A peer-tier hit must not re-replicate: the value entered this node
// from the fleet, so pushing it back out would bounce entries between
// replicas forever.
func TestReplicatorSilentOnPeerHit(t *testing.T) {
	repl := &fakeReplicator{}
	remote := &fakeRemote{data: map[string][]byte{replKey: []byte("peer bytes")}}
	s, err := OpenByteStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRemote(remote)
	s.SetReplicator(repl)

	data, hit, err := s.Do(context.Background(), replKey, func() ([]byte, error) {
		return nil, errors.New("must not compute")
	})
	if err != nil || !hit || string(data) != "peer bytes" {
		t.Fatalf("Do = (%q, %v, %v), want peer hit", data, hit, err)
	}
	if repl.count() != 0 {
		t.Fatalf("peer hit fanned out (%d calls)", repl.count())
	}
}

// The degraded-replica read path: a corrupt disk frame is repaired from
// a replica without rerunning compute, and the repair re-seals the
// local frame so future reads are local again.
func TestCorruptFrameRepairsFromReplicaWithoutCompute(t *testing.T) {
	dir := t.TempDir()
	remote := &fakeRemote{data: map[string][]byte{replKey: []byte("replica copy")}}
	s, err := OpenByteStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRemote(remote)
	s.Put(replKey, []byte("replica copy"))
	// Push the entry out of the memory tier and corrupt the disk frame.
	s.Put("ff"+replKey[2:], []byte("evict"))
	flipOneBit(t, s.disk, replKey)

	data, hit, err := s.Do(context.Background(), replKey, func() ([]byte, error) {
		t.Fatal("compute ran: read repair must come from the replica")
		return nil, nil
	})
	if err != nil || string(data) != "replica copy" {
		t.Fatalf("Do = (%q, %v, %v), want replica repair", data, hit, err)
	}
	st := s.Stats()
	if st.Corruptions != 1 {
		t.Fatalf("stats = %+v, want the corruption counted", st)
	}
	if st.PeerHits != 1 {
		t.Fatalf("stats = %+v, want the repair sourced from the peer tier", st)
	}

	// The repair re-seals the local frame: a fresh store over the same
	// directory serves the key from disk with no remote.
	s2, err := OpenByteStoreWith(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(replKey); !ok || string(v) != "replica copy" {
		t.Fatalf("repaired frame Get = (%q, %v), want local hit", v, ok)
	}
}
