package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdt/internal/store"
)

// Fault-injection site names for the cluster layer (armed by a
// faultinject.Plan; see docs/ROBUSTNESS.md).
const (
	// SiteFetch fires around a peer-tier fetch. An io-class point fails
	// the fetch as if the owner were unreachable (feeding its breaker);
	// a corrupt-class point flips a bit in the sealed response so the
	// integrity check rejects it.
	SiteFetch = "cluster.peer.fetch"
	// SiteShard fires before the coordinator dispatches a sweep shard
	// to a peer. An io-class point fails the dispatch, exercising the
	// reassignment path without killing a process.
	SiteShard = "cluster.sweep.shard"
)

// PeerResultPath is the local-only sealed-entry endpoint prefix peers
// fetch from and replicate to (the key is appended). The GET handler
// serves via the strictly local ByteStore.Get, so a fetch can never
// cascade into further peer fetches; the PUT handler verifies the seal
// and stores locally without re-replicating, so a replica write can
// never cascade into further replication.
const PeerResultPath = "/v1/peer/result/"

// PeerJournalPath is the peer endpoint prefix for replicated sweep
// checkpoint journals (the sweep id is appended): the coordinator PUTs
// its journal to ring successors as it checkpoints, and a survivor
// GETs it back when adopting an orphaned sweep.
const PeerJournalPath = "/v1/peer/journal/"

// maxEntryBytes bounds a fetched sealed entry. Results are small JSON
// documents; anything near this size is a protocol error, not data.
const maxEntryBytes = 16 << 20

// Config parameterizes New.
type Config struct {
	// Self is this node's own base URL and must appear in Peers —
	// every member must agree on the membership list or consistent
	// hashing would send keys to different owners on different nodes.
	Self string
	// Peers is the boot membership, Self included, as base URLs
	// (e.g. http://10.0.0.1:8080). Order is irrelevant. Join/Leave/
	// Apply rebuild the membership at runtime (ring epochs).
	Peers []string
	// Replication is how many distinct ring successors hold each sealed
	// entry (the owner included). 0 or 1 means no replication; values
	// above the fleet size are clamped per view.
	Replication int
	// BreakerThreshold is how many consecutive fetch failures open a
	// peer's circuit breaker (0 = 3, < 0 = breakers disabled).
	BreakerThreshold int
	// BreakerCooldown is the base open -> half-open wait (0 = 1s).
	BreakerCooldown time.Duration
	// ProbeInterval is how often the background prober checks each
	// peer's /healthz (0 = 2s, < 0 = no prober; fetch and dispatch
	// outcomes still update liveness).
	ProbeInterval time.Duration
	// FetchTimeout bounds every request to a peer: result fetch, replica
	// push, probe, journal push, fetch and tombstone, and membership
	// broadcast (0 = 5s).
	FetchTimeout time.Duration
	// Client is the HTTP client for fetches and probes (nil = a
	// dedicated default client).
	Client *http.Client
	// Faults arms the cluster's fault-injection seam (nil = none).
	Faults store.Faults
}

// Peer is one fleet member as seen from the local node. Peer objects
// survive membership changes: a member present in consecutive views
// keeps its breaker state, liveness and counters.
type Peer struct {
	name string // host:port, the ring identity
	url  string // normalized base URL
	self bool

	br *store.Breaker
	up atomic.Bool // last probe/dispatch verdict; optimistic start

	hits    atomic.Uint64 // fetches that returned a verified entry
	misses  atomic.Uint64 // fetches the peer answered 404
	errors  atomic.Uint64 // fetches that failed (network, status, corrupt)
	skipped atomic.Uint64 // fetches refused (down peer or open breaker)
}

// Name returns the peer's ring identity (host:port of its URL).
func (p *Peer) Name() string { return p.name }

// URL returns the peer's normalized base URL.
func (p *Peer) URL() string { return p.url }

// Self reports whether this peer is the local node.
func (p *Peer) Self() bool { return p.self }

// Up reports the peer's last known liveness (probe or dispatch
// outcome). Self is always up.
func (p *Peer) Up() bool { return p.self || p.up.Load() }

// MarkDown records an out-of-band liveness failure (e.g. a sweep shard
// dispatch that died mid-stream). The prober will mark the peer up
// again once /healthz answers.
func (p *Peer) MarkDown() {
	if !p.self {
		p.up.Store(false)
	}
}

// Degraded reports whether the peer's fetch breaker is open or
// half-open.
func (p *Peer) Degraded() bool { return !p.self && p.br.Degraded() }

// PeerHealth is one peer's externally visible state, reported under
// /healthz and rendered as sdtd_peer_* metrics.
type PeerHealth struct {
	Name         string `json:"name"`
	URL          string `json:"url"`
	Self         bool   `json:"self"`
	Up           bool   `json:"up"`
	Degraded     bool   `json:"degraded,omitempty"`
	Hits         uint64 `json:"fetch_hits,omitempty"`
	Misses       uint64 `json:"fetch_misses,omitempty"`
	Errors       uint64 `json:"fetch_errors,omitempty"`
	Skipped      uint64 `json:"fetch_skipped,omitempty"`
	BreakerTrips uint64 `json:"breaker_trips,omitempty"`
}

// Cluster is the local node's view of the fleet: the current View
// (members + ring at one epoch), the fetch/replication machinery and
// the background prober. It implements store.Remote and
// store.Replicator, so it slots directly into ByteStore as the tier
// behind disk and the write fan-out.
type Cluster struct {
	selfName string
	rf       int // configured replication factor (clamped per view)
	brN      int
	brWait   time.Duration
	client   *http.Client
	timeout  time.Duration
	faults   store.Faults
	local    Local // strictly-local store for anti-entropy re-reads

	mu   sync.Mutex // serializes membership changes
	cur  atomic.Pointer[View]
	prev atomic.Pointer[View] // one epoch back; the lazy-migration fetch source

	repl *replicator

	probeEvery time.Duration
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
}

// peerName derives the ring identity from a base URL.
func peerName(raw string) (name, normalized string, err error) {
	u, err := url.Parse(strings.TrimRight(raw, "/"))
	if err != nil {
		return "", "", fmt.Errorf("cluster: peer url %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", "", fmt.Errorf("cluster: peer url %q: scheme must be http or https", raw)
	}
	if u.Host == "" || u.Path != "" || u.RawQuery != "" {
		return "", "", fmt.Errorf("cluster: peer url %q: want scheme://host:port with no path", raw)
	}
	return u.Host, u.Scheme + "://" + u.Host, nil
}

// New builds the local node's view of the fleet. Self must be one of
// Peers; names (host:port) must be distinct. The prober and replication
// workers are not started until Start.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: empty membership")
	}
	selfName, _, err := peerName(cfg.Self)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	timeout := cfg.FetchTimeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	probe := cfg.ProbeInterval
	if probe == 0 {
		probe = 2 * time.Second
	}
	threshold := cfg.BreakerThreshold
	if threshold == 0 {
		threshold = 3
	}
	rf := cfg.Replication
	if rf < 1 {
		rf = 1
	}
	c := &Cluster{
		selfName:   selfName,
		rf:         rf,
		brN:        threshold,
		brWait:     cfg.BreakerCooldown,
		client:     client,
		timeout:    timeout,
		faults:     cfg.Faults,
		repl:       newReplicator(),
		probeEvery: probe,
		stop:       make(chan struct{}),
	}
	v, err := c.makeView(0, cfg.Peers, nil)
	if errors.Is(err, errSelfExcluded) {
		return nil, fmt.Errorf("cluster: self %s is not in the peer list (every member must share one membership list)", selfName)
	}
	if err != nil {
		return nil, err
	}
	c.cur.Store(v)
	return c, nil
}

// makeView builds a View at epoch over urls, reusing Peer objects from
// reuse (by name) so surviving members keep their state. Self must be
// derivable from c.selfName; if self is absent from urls the error is
// reported by the caller's policy (Apply tolerates it, New does not).
func (c *Cluster) makeView(epoch uint64, urls []string, reuse *View) (*View, error) {
	seen := make(map[string]bool, len(urls))
	byName := make(map[string]*Peer)
	if reuse != nil {
		for _, p := range reuse.members {
			byName[p.name] = p
		}
	}
	members := make([]*Peer, 0, len(urls))
	selfSeen := false
	for _, raw := range urls {
		name, normalized, err := peerName(raw)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", name)
		}
		seen[name] = true
		if name == c.selfName {
			selfSeen = true
		}
		if p, ok := byName[name]; ok {
			members = append(members, p)
			continue
		}
		p := &Peer{
			name: name,
			url:  normalized,
			self: name == c.selfName,
			br:   store.NewBreaker(c.brN, c.brWait),
		}
		p.up.Store(true) // optimistic: usable before the first probe lands
		members = append(members, p)
	}
	if !selfSeen {
		return nil, errSelfExcluded
	}
	return buildView(epoch, members, c.rf)
}

// errSelfExcluded marks a membership update that does not contain the
// local node — the shape a leave broadcast has from the leaver's own
// point of view.
var errSelfExcluded = errors.New("cluster: membership update excludes self")

// SetLocal wires the strictly-local store the replicator re-reads
// payloads from (anti-entropy). Call before Start, like SetRemote on
// the store side.
func (c *Cluster) SetLocal(l Local) { c.local = l }

// SelfName returns the local node's ring identity.
func (c *Cluster) SelfName() string { return c.selfName }

// HTTPClient returns the client used for all peer traffic.
func (c *Cluster) HTTPClient() *http.Client { return c.client }

// CurrentView returns the membership at the current ring epoch.
// Work that must stay coherent across membership changes (a sweep's
// partitioning) captures this once and uses the View throughout.
func (c *Cluster) CurrentView() *View { return c.cur.Load() }

// ReplicationFactor returns the configured replication factor (>= 1).
func (c *Cluster) ReplicationFactor() int { return c.rf }

// Owner returns the peer owning key on the current view's ring.
func (c *Cluster) Owner(key string) *Peer { return c.cur.Load().Owner(key) }

// Join adds a member by URL and installs the new view at epoch+1.
// The caller (the service's admin handler) then Broadcasts the
// resulting membership to the rest of the fleet.
func (c *Cluster) Join(raw string) (*View, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.cur.Load()
	// makeView refuses a member that is already in the view.
	v, err := c.makeView(old.epoch+1, append(old.MemberURLs(), raw), old)
	if err != nil {
		return nil, err
	}
	c.install(old, v)
	return v, nil
}

// Leave removes a member by URL (or bare host:port name) and installs
// the new view at epoch+1. Removing self yields a solo view: the node
// keeps serving (so migrating keys can still be pulled from it) but no
// longer participates in the ring.
func (c *Cluster) Leave(raw string) (*View, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := raw
	if strings.Contains(raw, "://") {
		var err error
		if name, _, err = peerName(raw); err != nil {
			return nil, err
		}
	}
	old := c.cur.Load()
	urls := make([]string, 0, len(old.members))
	found := false
	for _, p := range old.members {
		if p.name == name {
			found = true
			continue
		}
		urls = append(urls, p.url)
	}
	if !found {
		return nil, fmt.Errorf("cluster: %s is not a member", name)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("cluster: refusing to remove the last member")
	}
	v, err := c.makeView(old.epoch+1, urls, old)
	if errors.Is(err, errSelfExcluded) {
		v, err = c.soloView(old.epoch + 1)
	}
	if err != nil {
		return nil, err
	}
	c.install(old, v)
	return v, nil
}

// Apply installs a broadcast membership (epoch, member URLs) if it is
// newer than the current view. It returns the view now in effect and
// whether it changed. A membership that excludes self installs a solo
// view: this node has been removed and should expect to be drained, but
// keeps serving its store so migrating keys can be pulled from it.
func (c *Cluster) Apply(epoch uint64, urls []string) (*View, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.cur.Load()
	if epoch <= old.epoch {
		return old, false, nil
	}
	v, err := c.makeView(epoch, urls, old)
	if errors.Is(err, errSelfExcluded) {
		v, err = c.soloView(epoch)
	}
	if err != nil {
		return nil, false, err
	}
	c.install(old, v)
	return v, true, nil
}

// MembershipPath is the admin-guarded route a membership change is
// broadcast to; its body is a MembershipUpdate.
const MembershipPath = "/v1/cluster/membership"

// MembershipUpdate is the body of POST /v1/cluster/membership: the
// authoritative membership at one ring epoch, broadcast by whichever
// node served a join or leave. Nodes apply it only if the epoch is
// newer than their current view.
type MembershipUpdate struct {
	Epoch uint64   `json:"epoch"`
	Peers []string `json:"peers"`
}

// Broadcast pushes v's membership to every node in the union of the old
// and new memberships but self, concurrently, authenticating with the
// fleet's admin token. It is best-effort: a node that misses the update
// (down, racing) converges later, since any member can re-POST it and
// epoch comparison makes applying it idempotent. It waits for the
// fan-out, so its return means the reachable fleet has the new ring,
// and it returns one error per node that did not take the update.
func (c *Cluster) Broadcast(ctx context.Context, old, v *View, token string) error {
	update, err := json.Marshal(MembershipUpdate{Epoch: v.epoch, Peers: v.MemberURLs()})
	if err != nil {
		return err
	}
	urls := make(map[string]bool)
	for _, members := range [][]*Peer{old.members, v.members} {
		for _, p := range members {
			if !p.self {
				urls[p.url] = true
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(urls))
	for u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			if _, _, err := c.do(ctx, peerReq{method: http.MethodPost, url: u + MembershipPath, body: update, token: token}); err != nil {
				errs <- fmt.Errorf("membership broadcast to %s: %w", u, err)
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	var all []error
	for err := range errs {
		all = append(all, err)
	}
	return errors.Join(all...)
}

// soloView is the view a removed node adopts: itself, alone, at the
// broadcast epoch.
func (c *Cluster) soloView(epoch uint64) (*View, error) {
	old := c.cur.Load()
	return c.makeView(epoch, []string{old.self.url}, old)
}

// install swaps in a new view, keeping the outgoing one as the
// lazy-migration fetch source. Only keys whose owner set differs
// between prev and cur ever move, and they move lazily: the first
// local miss on the new owner pulls the entry from a previous-epoch
// replica through the ordinary peer tier.
func (c *Cluster) install(old, v *View) {
	c.prev.Store(old)
	c.cur.Store(v)
}

// Health returns a per-peer snapshot of the current view, sorted by
// name.
func (c *Cluster) Health() []PeerHealth {
	members := c.cur.Load().members
	out := make([]PeerHealth, len(members))
	for i, p := range members {
		out[i] = PeerHealth{
			Name:     p.name,
			URL:      p.url,
			Self:     p.self,
			Up:       p.Up(),
			Degraded: p.Degraded(),
			Hits:     p.hits.Load(),
			Misses:   p.misses.Load(),
			Errors:   p.errors.Load(),
			Skipped:  p.skipped.Load(),
		}
		if !p.self {
			out[i].BreakerTrips = p.br.TripCount()
		}
	}
	return out
}

// Fetch implements store.Remote: it walks key's replica set in
// successor order, skipping down peers and open breakers, until a
// verified sealed entry turns up. A 404 is a clean per-peer miss (the
// peer answered; try the next replica); a transport error feeds that
// peer's breaker and the walk continues. If any replica had to be
// skipped or errored, the walk extends past the replica set to the
// remaining successors — reassignment during an outage can leave
// fallback copies there. Finally, after a membership change, the
// previous epoch's replica set is consulted: that is the lazy key
// migration path, and a hit there is counted as a migrated key before
// the caller promotes it into the local tiers of its new owner.
//
// Entries are verified with store.OpenEntry before being returned, so a
// corrupt peer response is rejected exactly like local disk rot — an
// availability Success (the peer answered) but a fetch error, leaving
// the caller to try elsewhere or recompute.
func (c *Cluster) Fetch(key string) ([]byte, bool, error) {
	v := c.cur.Load()
	var (
		errs    []error
		blocked bool // some replica was unreachable: its copy may exist but can't be read
		tried   = make(map[string]bool, v.rf+1)
	)
	attempt := func(p *Peer, migration bool) ([]byte, bool) {
		if tried[p.name] {
			return nil, false
		}
		tried[p.name] = true
		if p.self {
			return nil, false
		}
		if !p.Up() || !p.br.Allow() {
			p.skipped.Add(1)
			blocked = true
			return nil, false
		}
		data, ok, err := c.fetchFrom(p, key)
		if err != nil {
			p.errors.Add(1)
			blocked = true
			errs = append(errs, fmt.Errorf("cluster: fetch %s from %s: %w", key, p.name, err))
			return nil, false
		}
		if !ok {
			p.misses.Add(1)
			return nil, false
		}
		p.hits.Add(1)
		if migration {
			c.repl.migrated.Add(1)
		}
		return data, true
	}
	for _, p := range v.Replicas(key) {
		if data, ok := attempt(p, false); ok {
			return data, true, nil
		}
	}
	if blocked {
		for _, p := range v.Successors(key) {
			if data, ok := attempt(p, false); ok {
				return data, true, nil
			}
		}
	}
	if pv := c.prev.Load(); pv != nil {
		for _, p := range pv.Replicas(key) {
			if data, ok := attempt(p, true); ok {
				return data, true, nil
			}
		}
	}
	return nil, false, errors.Join(errs...)
}

// fetchFrom performs one peer fetch, feeding p's breaker. A seal
// failure means the peer answered with rot: availability is fine.
func (c *Cluster) fetchFrom(p *Peer, key string) ([]byte, bool, error) {
	if c.faults != nil {
		if err := c.faults.Fail(SiteFetch); err != nil {
			p.br.Failure()
			return nil, false, err
		}
	}
	data, ok, err := c.do(context.Background(), peerReq{method: http.MethodGet, url: p.url + PeerResultPath + key, sealed: true, site: SiteFetch})
	if err != nil && !errors.Is(err, errBadSeal) {
		p.br.Failure()
	} else {
		p.br.Success()
	}
	return data, ok, err
}

// Start launches the background health prober and the replication
// workers (probing is a no-op when the configured interval is negative;
// calling Start twice is not supported).
//
// Boot phase: peers of a sequentially booting fleet are routinely still
// coming up when the first probe fires, and a single startup probe would
// leave them marked down for a whole probe interval (the waitClusterUp
// race the chaos/smoke drivers used to work around). Peers that fail the
// initial probe are re-probed with a short doubling backoff until every
// peer has answered once or the backoff reaches the steady interval;
// thereafter the ticker takes over.
func (c *Cluster) Start() {
	for i := 0; i < replWorkers; i++ {
		c.wg.Add(1)
		go c.replLoop()
	}
	if c.probeEvery < 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.probeEvery)
		defer t.Stop()
		c.probeAll(false)
		for backoff := 25 * time.Millisecond; backoff < c.probeEvery && c.anyPeerDown(); backoff *= 2 {
			select {
			case <-c.stop:
				return
			case <-time.After(backoff):
			}
			c.probeAll(true)
		}
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.probeAll(false)
			}
		}
	}()
}

// Close stops the prober and replication workers and waits for them to
// exit.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// probeOne probes p, updates its liveness, and triggers anti-entropy
// when it is reachable and has a replication backlog (both the down->up
// transition and retries of transiently failed pushes).
func (c *Cluster) probeOne(p *Peer) {
	alive := c.probe(p)
	p.up.Store(alive)
	if alive {
		c.recoverPeer(p)
	}
}

// probeAll checks remote peers' /healthz concurrently: every one, or
// with downOnly just those marked down (the boot-phase retry loop; up
// peers are left to the steady ticker). Any HTTP 200 marks the peer up
// (a degraded-store 200 still serves results); errors and non-200s —
// including a draining node's 503 — mark it down so the sweep
// coordinator stops assigning it new work.
func (c *Cluster) probeAll(downOnly bool) {
	var wg sync.WaitGroup
	for _, p := range c.cur.Load().members {
		if p.self || downOnly && p.up.Load() {
			continue
		}
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			c.probeOne(p)
		}(p)
	}
	wg.Wait()
}

// anyPeerDown reports whether any remote peer is currently marked down.
func (c *Cluster) anyPeerDown() bool {
	for _, p := range c.cur.Load().members {
		if !p.self && !p.up.Load() {
			return true
		}
	}
	return false
}

func (c *Cluster) probe(p *Peer) bool {
	_, ok, err := c.do(context.Background(), peerReq{method: http.MethodGet, url: p.url + "/healthz"})
	return ok && err == nil
}
