package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeRemote is a scripted peer tier.
type fakeRemote struct {
	data  map[string][]byte
	err   error
	calls int
}

func (f *fakeRemote) Fetch(key string) ([]byte, bool, error) {
	f.calls++
	if f.err != nil {
		return nil, false, f.err
	}
	v, ok := f.data[key]
	return v, ok, nil
}

const remoteKey = "ab12cd34ab12cd34"

// A peer hit must satisfy Do as a cache hit, be promoted through both
// local tiers, and never run compute.
func TestRemoteTierHitPromotes(t *testing.T) {
	dir := t.TempDir()
	remote := &fakeRemote{data: map[string][]byte{remoteKey: []byte("peer bytes")}}
	s, err := OpenByteStoreWith(Options{Dir: dir, Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	computed := false
	data, hit, err := s.Do(context.Background(), remoteKey, func() ([]byte, error) {
		computed = true
		return nil, errors.New("must not compute")
	})
	if err != nil || string(data) != "peer bytes" {
		t.Fatalf("Do = %q, %v", data, err)
	}
	if computed {
		t.Fatal("compute ran despite a peer hit")
	}
	if !hit {
		t.Fatal("peer hit not reported as a cache hit")
	}
	st := s.Stats()
	if st.PeerHits != 1 || st.PeerErrors != 0 {
		t.Fatalf("stats = %+v, want 1 peer hit", st)
	}

	// Promotion: the next lookup is local (memory), and the entry is
	// durable on disk for the node's own future restarts.
	if v, ok := s.Get(remoteKey); !ok || string(v) != "peer bytes" {
		t.Fatalf("promoted Get = %q, %v", v, ok)
	}
	if st := s.Stats(); st.MemHits != 1 {
		t.Fatalf("promoted lookup not served from memory: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, remoteKey[:2], remoteKey)); err != nil {
		t.Fatalf("peer hit not written through to disk: %v", err)
	}
	if remote.calls != 1 {
		t.Fatalf("remote consulted %d times, want 1", remote.calls)
	}
}

// A failing peer tier must degrade to computation, counted but invisible
// to the caller.
func TestRemoteTierErrorFallsThrough(t *testing.T) {
	remote := &fakeRemote{err: errors.New("peer down")}
	s, err := OpenByteStoreWith(Options{Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	data, hit, err := s.Do(context.Background(), remoteKey, func() ([]byte, error) {
		return []byte("computed"), nil
	})
	if err != nil || hit || string(data) != "computed" {
		t.Fatalf("Do = %q, hit=%v, %v", data, hit, err)
	}
	st := s.Stats()
	if st.PeerErrors != 1 || st.PeerHits != 0 {
		t.Fatalf("stats = %+v, want 1 peer error", st)
	}
	// The computed value is stored locally; the peer is not consulted for
	// the now-cached key.
	if _, hit, _ := s.Do(context.Background(), remoteKey, nil); !hit {
		t.Fatal("computed value not cached")
	}
	if remote.calls != 1 {
		t.Fatalf("remote consulted %d times, want 1", remote.calls)
	}
}

// A clean remote miss computes without counting an error.
func TestRemoteTierMissComputes(t *testing.T) {
	remote := &fakeRemote{data: map[string][]byte{}}
	s, err := OpenByteStoreWith(Options{Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	data, hit, err := s.Do(context.Background(), remoteKey, func() ([]byte, error) {
		return []byte("computed"), nil
	})
	if err != nil || hit || string(data) != "computed" {
		t.Fatalf("Do = %q, hit=%v, %v", data, hit, err)
	}
	if st := s.Stats(); st.PeerErrors != 0 || st.PeerHits != 0 {
		t.Fatalf("stats = %+v, want no peer activity counted", st)
	}
}

// Lookup reads the local tiers, then the peer tier, and never computes:
// a local hit asks no peer, a peer hit is counted and promoted, and a
// miss or a failing peer is a plain miss.
func TestLookupLocalThenPeer(t *testing.T) {
	remote := &fakeRemote{data: map[string][]byte{remoteKey: []byte("peer bytes")}}
	s, err := OpenByteStoreWith(Options{Dir: t.TempDir(), Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Lookup(remoteKey); !ok || string(v) != "peer bytes" {
		t.Fatalf("peer Lookup = %q, %v", v, ok)
	}
	if v, ok := s.Lookup(remoteKey); !ok || string(v) != "peer bytes" {
		t.Fatalf("promoted Lookup = %q, %v", v, ok)
	}
	if st := s.Stats(); st.PeerHits != 1 || st.MemHits != 1 || remote.calls != 1 {
		t.Fatalf("stats = %+v after %d peer calls, want one peer hit then one memory hit", st, remote.calls)
	}
	if v, ok := s.Lookup("missing"); ok {
		t.Fatalf("Lookup of a missing key = %q", v)
	}
	remote.err = errors.New("peer down")
	if v, ok := s.Lookup("other"); ok {
		t.Fatalf("Lookup through a failing peer = %q", v)
	}
	if st := s.Stats(); st.PeerErrors != 1 || st.MemEntries != 1 {
		t.Fatalf("stats = %+v, want one peer error and nothing computed", st)
	}

	local, err := OpenByteStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	local.Put(remoteKey, []byte("local bytes"))
	if v, ok := local.Lookup(remoteKey); !ok || string(v) != "local bytes" {
		t.Fatalf("local Lookup = %q, %v", v, ok)
	}
	if _, ok := local.Lookup("missing"); ok {
		t.Fatal("Lookup without a peer tier found a missing key")
	}
}

// Quarantined entries older than the TTL are swept at open; fresh
// evidence is kept.
func TestQuarantineAgeSweep(t *testing.T) {
	dir := t.TempDir()
	qdir := filepath.Join(dir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(qdir, "aaaa1111")
	fresh := filepath.Join(qdir, "bbbb2222")
	for _, p := range []string{old, fresh} {
		if err := os.WriteFile(p, []byte("corpse"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-DefaultQuarantineTTL - time.Hour)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}

	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.QuarantineSwept(); n != 1 {
		t.Fatalf("QuarantineSwept = %d, want 1", n)
	}
	if _, err := os.Stat(old); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale quarantine file survived the sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh quarantine file swept: %v", err)
	}

	// ttl < 0 keeps everything.
	d2, err := OpenDiskTTL(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if n := d2.QuarantineSwept(); n != 0 {
		t.Fatalf("negative-ttl open swept %d files", n)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("negative-ttl open removed quarantine evidence: %v", err)
	}
}

// Sealed entries must round-trip and reject any bit flip — the framing is
// also the peer-transfer format, so this is the cluster's wire integrity.
func TestSealOpenEntryRoundTrip(t *testing.T) {
	payload := []byte(`{"key":"abc","cycles":123}`)
	raw := SealEntry(payload)
	got, err := OpenEntry(raw)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("round trip = %q, %v", got, err)
	}
	for bit := 0; bit < len(raw)*8; bit += 37 {
		mut := append([]byte(nil), raw...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := OpenEntry(mut); err == nil {
			t.Fatalf("flipped bit %d not detected", bit)
		}
	}
	if _, err := OpenEntry([]byte("short")); err == nil {
		t.Fatal("truncated entry not rejected")
	}
}
