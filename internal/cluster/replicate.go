package cluster

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
)

// Local is the strictly-local store view the replicator reads from when
// it retries a key whose bytes it no longer holds (anti-entropy after a
// peer recovers). In practice it is the node's own ByteStore; Get must
// never cascade into peer fetches.
type Local interface {
	Get(key string) ([]byte, bool)
}

// Replication tuning. The queue bounds memory (tasks carry the sealed
// payload); the pending set bounds the anti-entropy backlog per peer;
// the attempt cap keeps a peer that accepts probes but rejects writes
// from recycling the same key forever.
const (
	replQueueDepth  = 1024
	replPendingMax  = 4096
	replMaxAttempts = 8
	replWorkers     = 2
)

// replTask is one queued fan-out: push key's sealed entry to peer. A
// nil data means "re-read from the local store at send time" (the
// anti-entropy path, where holding every deferred payload in memory
// would defeat the bounded queue).
type replTask struct {
	peer     *Peer
	key      string
	data     []byte
	attempts int
}

// ReplStats is a snapshot of the replication counters, reported under
// /healthz and rendered as sdtd_replication_* metrics.
type ReplStats struct {
	Sent     uint64 `json:"sent"`               // sealed entries acknowledged by a replica
	Failed   uint64 `json:"failed,omitempty"`   // pushes that errored (deferred for anti-entropy)
	Dropped  uint64 `json:"dropped,omitempty"`  // keys given up on (bounds exceeded or retries exhausted)
	Requeued uint64 `json:"requeued,omitempty"` // anti-entropy retries enqueued after a peer recovered
	Received uint64 `json:"received,omitempty"` // replica writes accepted from peers
	Migrated uint64 `json:"migrated,omitempty"` // fetches served by a previous-epoch replica (lazy key migration)
	Pending  int    `json:"pending,omitempty"`  // keys awaiting anti-entropy retry
	Queue    int    `json:"queue,omitempty"`    // fan-out tasks currently queued
}

// replicator fans sealed entries out to ring successors: a bounded
// queue drained by a couple of workers, plus a per-peer pending set for
// keys that could not be pushed (peer down, queue full, transport
// error). Pending keys are re-enqueued when the prober next sees their
// peer up — anti-entropy on probe recovery — with payloads re-read from
// the local store so the backlog costs keys, not bytes.
type replicator struct {
	queue chan replTask

	mu      sync.Mutex
	pending map[string]map[string]int // peer name -> key -> attempts so far

	sent     atomic.Uint64
	failed   atomic.Uint64
	dropped  atomic.Uint64
	requeued atomic.Uint64
	received atomic.Uint64
	migrated atomic.Uint64
}

func newReplicator() *replicator {
	return &replicator{
		queue:   make(chan replTask, replQueueDepth),
		pending: make(map[string]map[string]int),
	}
}

// stats snapshots the counters.
func (r *replicator) stats() ReplStats {
	r.mu.Lock()
	pending := 0
	for _, keys := range r.pending {
		pending += len(keys)
	}
	r.mu.Unlock()
	return ReplStats{
		Sent:     r.sent.Load(),
		Failed:   r.failed.Load(),
		Dropped:  r.dropped.Load(),
		Requeued: r.requeued.Load(),
		Received: r.received.Load(),
		Migrated: r.migrated.Load(),
		Pending:  pending,
		Queue:    len(r.queue),
	}
}

// defer_ parks key for peer until anti-entropy retries it. Attempts
// carries over so a key cannot bounce queue<->pending forever.
func (r *replicator) defer_(peer *Peer, key string, attempts int) {
	if attempts >= replMaxAttempts {
		r.dropped.Add(1)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := r.pending[peer.name]
	if keys == nil {
		keys = make(map[string]int)
		r.pending[peer.name] = keys
	}
	if _, ok := keys[key]; !ok && len(keys) >= replPendingMax {
		r.dropped.Add(1)
		return
	}
	if prev := keys[key]; attempts < prev {
		attempts = prev
	}
	keys[key] = attempts
}

// take removes and returns peer's pending key set.
func (r *replicator) take(peer *Peer) map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := r.pending[peer.name]
	delete(r.pending, peer.name)
	return keys
}

// Replicate implements store.Replicator: it fans key's freshly computed
// bytes out to the other members of its replica set, asynchronously and
// best-effort. With RF < 2 (or a fleet of one) it is a no-op. Callers
// must not mutate data afterwards (the store already demands this).
func (c *Cluster) Replicate(key string, data []byte) {
	v := c.cur.Load()
	if v.rf < 2 {
		return
	}
	for _, p := range v.Replicas(key) {
		if p.self {
			continue
		}
		if !p.Up() {
			// Don't burn queue slots on a known-dead peer; anti-entropy
			// delivers when the prober sees it again.
			c.repl.defer_(p, key, 0)
			continue
		}
		select {
		case c.repl.queue <- replTask{peer: p, key: key, data: data}:
		default:
			c.repl.defer_(p, key, 0)
		}
	}
}

// NoteReplicaReceived counts one replica write accepted from a peer
// (the service's PUT handler calls it, keeping all replication counters
// in one place).
func (c *Cluster) NoteReplicaReceived() { c.repl.received.Add(1) }

// ReplStats snapshots the replication counters.
func (c *Cluster) ReplStats() ReplStats { return c.repl.stats() }

// replLoop is one replication worker: it drains the queue and pushes
// each task's sealed entry to its peer.
func (c *Cluster) replLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case t := <-c.repl.queue:
			c.replSend(t)
		}
	}
}

// replSend performs one replica push. Failures defer the key for
// anti-entropy rather than erroring anywhere visible: replication is
// best-effort by design, and the content-addressed store makes a
// missed replica merely a future recompute, never wrong data.
func (c *Cluster) replSend(t replTask) {
	data := t.data
	if data == nil {
		if c.local == nil {
			c.repl.dropped.Add(1)
			return
		}
		var ok bool
		data, ok = c.local.Get(t.key)
		if !ok {
			// The bytes are gone locally (evicted memory-only store);
			// nothing to replicate.
			c.repl.dropped.Add(1)
			return
		}
	}
	if err := c.putEntry(t.peer, t.key, data); err != nil {
		c.repl.failed.Add(1)
		c.repl.defer_(t.peer, t.key, t.attempts+1)
		return
	}
	c.repl.sent.Add(1)
}

// putEntry PUTs one sealed entry to peer's replica endpoint.
func (c *Cluster) putEntry(p *Peer, key string, data []byte) error {
	_, _, err := c.do(context.Background(), peerReq{method: http.MethodPut, url: p.url + PeerResultPath + key, body: data, sealed: true})
	return err
}

// recoverPeer re-enqueues peer's pending keys after the prober saw it
// answer (or on the steady probe tick, which retries transient push
// failures). Payloads are re-read from the local store at send time; a
// key whose current replica set no longer includes the peer (the ring
// moved while it was parked) is dropped rather than pushed to a node
// that no longer owns it.
func (c *Cluster) recoverPeer(p *Peer) {
	keys := c.repl.take(p)
	if len(keys) == 0 {
		return
	}
	v := c.cur.Load()
	for key, attempts := range keys {
		stillReplica := false
		for _, rp := range v.Replicas(key) {
			if rp == p {
				stillReplica = true
				break
			}
		}
		if !stillReplica {
			c.repl.dropped.Add(1)
			continue
		}
		select {
		case c.repl.queue <- replTask{peer: p, key: key, attempts: attempts}:
			c.repl.requeued.Add(1)
		default:
			c.repl.defer_(p, key, attempts)
		}
	}
}
