package store

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Remote is an optional third storage tier consulted by Do after both
// local tiers miss — in practice internal/cluster's peer fetch, which
// asks the consistent-hash owner of the key. Fetch returns (data, true,
// nil) on a remote hit, (nil, false, nil) on a clean remote miss (the key
// is owned locally, or the owner does not have it), and an error when the
// owner could not be consulted (unreachable peer, corrupt payload —
// per-peer breakers live below this interface). Implementations must be
// safe for concurrent calls.
type Remote interface {
	Fetch(key string) ([]byte, bool, error)
}

// Replicator is an optional write fan-out consulted by Do after a fresh
// computation: the cluster layer pushes the new entry to the other
// members of its replica set, asynchronously and best-effort. It fires
// only for values this node actually computed — never for peer-tier
// hits or replica writes accepted from peers, which is what keeps a
// replicating fleet from echoing entries back and forth.
// Implementations must be safe for concurrent calls and must not mutate
// or retain-and-modify data.
type Replicator interface {
	Replicate(key string, data []byte)
}

// ByteStore is the content-addressed result store: a single-flight Group
// in front of an in-memory LRU in front of an optional on-disk layer,
// with an optional remote peer tier behind both. Lookups try memory,
// then disk (promoting disk hits into memory); Do additionally tries the
// peer tier before computing, and a peer hit is written through both
// local tiers (promotion) so the next lookup is local. Disk read/write
// errors never fail a request — the entry is simply treated as absent and
// the error counted in Stats — and neither do peer errors. Two
// self-healing behaviours sit on top:
//
//   - Integrity: the disk layer verifies a checksummed header on every
//     read. A corrupt entry is quarantined and counted, the lookup misses,
//     and the recomputed value is written back through Put — read-repair,
//     serialized by the Group's single-flight.
//   - Availability: consecutive disk I/O failures trip a circuit breaker
//     (closed -> open -> half-open with jittered backoff). While the
//     breaker is not closed the store runs memory-LRU-only; Degraded
//     reports that state so the service can surface it on /healthz.
//     (The peer tier has its own per-peer breakers, inside Remote.)
type ByteStore struct {
	group  *Group[[]byte]
	br     *Breaker
	remote Remote
	repl   Replicator

	peerHits atomic.Uint64
	peerErrs atomic.Uint64

	mu       sync.Mutex
	mem      *LRU[[]byte]
	disk     *Disk
	memHits  uint64
	diskHits uint64
	misses   uint64
	diskErrs uint64
}

// ByteStoreStats is a snapshot of store counters.
type ByteStoreStats struct {
	MemHits      uint64 // lookups served from the in-memory LRU
	DiskHits     uint64 // lookups served from disk
	PeerHits     uint64 // Do calls served from the remote peer tier
	Misses       uint64 // lookups that found nothing locally
	DiskErrors   uint64 // disk reads/writes that failed (entry treated as absent)
	PeerErrors   uint64 // peer fetches that failed (entry treated as absent)
	MemEntries   int    // live entries in the in-memory LRU
	Evictions    uint64 // LRU evictions
	Corruptions  uint64 // entries that failed integrity verification
	Quarantined  uint64 // corrupt entries preserved under quarantine/
	BreakerTrips uint64 // times the disk circuit breaker opened
	Degraded     bool   // disk currently bypassed by the breaker
}

// Hits returns total cache hits across all layers.
func (s ByteStoreStats) Hits() uint64 { return s.MemHits + s.DiskHits + s.PeerHits }

// Options parameterizes OpenByteStoreWith.
type Options struct {
	// Dir is the on-disk layer root ("" = memory only).
	Dir string
	// MemEntries bounds the in-memory LRU (<= 0 = unbounded).
	MemEntries int
	// Faults arms the disk layer's fault-injection seam (nil = none).
	Faults Faults
	// BreakerThreshold is how many consecutive disk I/O failures trip the
	// circuit breaker (0 = 5, < 0 = breaker disabled).
	BreakerThreshold int
	// BreakerCooldown is the base open -> half-open wait, jittered ±50%
	// (0 = 1s).
	BreakerCooldown time.Duration
	// QuarantineTTL bounds how long quarantined corrupt entries are kept
	// before OpenDisk sweeps them (0 = DefaultQuarantineTTL, < 0 = keep
	// forever).
	QuarantineTTL time.Duration
	// Remote is the optional peer tier consulted by Do after both local
	// tiers miss (nil = none; the single-node paths pay one nil check).
	Remote Remote
}

// OpenByteStore opens a store with an in-memory LRU of memEntries entries
// (<= 0 means unbounded) backed by an on-disk layer at dir; an empty dir
// selects a memory-only store.
func OpenByteStore(dir string, memEntries int) (*ByteStore, error) {
	return OpenByteStoreWith(Options{Dir: dir, MemEntries: memEntries})
}

// OpenByteStoreWith opens a store with explicit Options.
func OpenByteStoreWith(o Options) (*ByteStore, error) {
	threshold := o.BreakerThreshold
	if threshold == 0 {
		threshold = 5
	}
	s := &ByteStore{
		mem:    NewLRU[[]byte](o.MemEntries),
		br:     NewBreaker(threshold, o.BreakerCooldown),
		remote: o.Remote,
	}
	if o.Dir != "" {
		d, err := OpenDiskTTL(o.Dir, o.QuarantineTTL)
		if err != nil {
			return nil, err
		}
		d.SetFaults(o.Faults)
		s.disk = d
	}
	s.group = NewGroup[[]byte](tiered{s})
	return s, nil
}

// SetRemote arms (or with nil disarms) the peer tier. Not safe to call
// concurrently with Do; intended for wiring right after construction,
// before the store serves traffic.
func (s *ByteStore) SetRemote(r Remote) { s.remote = r }

// SetReplicator arms (or with nil disarms) the write fan-out. Same
// wiring contract as SetRemote: call before the store serves traffic.
func (s *ByteStore) SetReplicator(r Replicator) { s.repl = r }

// tiered adapts the two storage layers to the Group's Backend interface
// without exposing Backend methods on ByteStore itself (ByteStore.Get/Put
// are the synchronized public equivalents).
type tiered struct{ s *ByteStore }

func (t tiered) Get(key string) ([]byte, bool) { return t.s.Get(key) }
func (t tiered) Put(key string, v []byte)      { t.s.Put(key, v) }

// Get returns the stored bytes for key, trying memory then disk. A disk
// hit is promoted into memory. Get is strictly local: the peer tier is
// consulted only by Do, so a node serving its own store to peers can
// never be tricked into fetching from them in turn.
func (s *ByteStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.mem.Get(key); ok {
		s.memHits++
		return v, true
	}
	if s.disk != nil && s.br.Allow() {
		v, ok, err := s.disk.Get(key)
		switch {
		case err == nil && ok:
			s.br.Success()
			s.diskHits++
			s.mem.Put(key, v)
			return v, true
		case err == nil:
			s.br.Success() // a clean miss is healthy I/O
		case errors.Is(err, ErrCorrupt):
			// Verification failure: the disk answered, the data was rot.
			// Quarantine already happened in the layer below; the miss
			// below triggers recomputation and Put writes fresh bytes
			// back (read-repair).
			s.br.Success()
		default:
			s.diskErrs++
			s.br.Failure()
		}
	}
	s.misses++
	return nil, false
}

// Put writes the entry through both local layers. Callers must not mutate
// data afterwards.
func (s *ByteStore) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem.Put(key, data)
	if s.disk != nil && s.br.Allow() {
		if err := s.disk.Put(key, data); err != nil {
			s.diskErrs++
			s.br.Failure()
		} else {
			s.br.Success()
		}
	}
}

// Do returns the stored bytes for key, computing (and storing) them at
// most once across concurrent callers. On a local miss the remote peer
// tier (if armed) is consulted before compute runs — inside the
// single-flight, so concurrent callers for one key trigger at most one
// peer RPC — and a peer hit is promoted through both local tiers. hit
// reports whether any tier (local or peer) already held the value. A
// failed peer fetch is counted and falls through to compute; it never
// fails the request. See Group.Do for the cancellation contract.
func (s *ByteStore) Do(ctx context.Context, key string, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	if s.remote == nil {
		data, hit, err = s.group.Do(ctx, key, compute)
		if !hit && err == nil && s.repl != nil {
			s.repl.Replicate(key, data)
		}
		return data, hit, err
	}
	fromPeer := false
	data, hit, err = s.group.Do(ctx, key, func() ([]byte, error) {
		if v, ok := s.fetchRemote(key); ok {
			fromPeer = true
			return v, nil
		}
		return compute()
	})
	// Only the leader's closure can set fromPeer, and it is only read
	// after that leader's Do returns: a peer hit is a cache hit to the
	// caller, not a computation. Replication fires exactly when this
	// call ran compute — a peer hit means the value's replica set
	// already holds it (or is receiving it from its computer).
	if !hit && !fromPeer && err == nil && s.repl != nil {
		s.repl.Replicate(key, data)
	}
	if fromPeer {
		hit = true
	}
	return data, hit, err
}

// Lookup returns the stored bytes for key from the local tiers, then
// from the peer tier, and never computes. A peer hit is counted and
// promoted through both local tiers as in Do.
func (s *ByteStore) Lookup(key string) ([]byte, bool) {
	if v, ok := s.Get(key); ok || s.remote == nil {
		return v, ok
	}
	v, ok := s.fetchRemote(key)
	if ok {
		s.Put(key, v)
	}
	return v, ok
}

// fetchRemote consults the peer tier, counting hits and failures.
func (s *ByteStore) fetchRemote(key string) ([]byte, bool) {
	v, ok, err := s.remote.Fetch(key)
	switch {
	case err != nil:
		s.peerErrs.Add(1)
		return nil, false
	case ok:
		s.peerHits.Add(1)
		return v, true
	default:
		return nil, false
	}
}

// Stats returns a snapshot of the store counters.
func (s *ByteStore) Stats() ByteStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ByteStoreStats{
		MemHits:      s.memHits,
		DiskHits:     s.diskHits,
		PeerHits:     s.peerHits.Load(),
		Misses:       s.misses,
		DiskErrors:   s.diskErrs,
		PeerErrors:   s.peerErrs.Load(),
		MemEntries:   s.mem.Len(),
		Evictions:    s.mem.Evictions(),
		BreakerTrips: s.br.TripCount(),
		Degraded:     s.br.Degraded(),
	}
	if s.disk != nil {
		st.Corruptions = s.disk.Corruptions()
		st.Quarantined = s.disk.Quarantined()
	}
	return st
}

// Degraded reports whether the disk layer is currently bypassed by the
// circuit breaker (the store is serving memory-LRU-only).
func (s *ByteStore) Degraded() bool { return s.br.Degraded() }

// Persistent reports whether the store has an on-disk layer.
func (s *ByteStore) Persistent() bool { return s.disk != nil }
