package cluster

import (
	"fmt"
	"sort"
)

// View is an immutable snapshot of the fleet at one ring epoch: the
// member list (sorted by name, indices matching the ring) and the
// consistent-hash ring built over it. Membership changes install a new
// View; anything that must stay coherent across a change — most
// importantly a cluster sweep's partitioning — captures one View up
// front and uses it throughout, so in-flight work completes against the
// ring epoch it started under while new work sees the new epoch.
//
// Peer objects are shared between consecutive Views (a member that
// survives a change keeps its breaker state, liveness and counters), so
// a View is cheap: a slice of pointers and a ring.
type View struct {
	epoch   uint64
	members []*Peer // sorted by name; indices match the ring
	ring    *ring
	self    *Peer
	rf      int // effective replication factor: min(configured, len(members))
}

// Epoch returns the view's ring epoch. Epoch 0 is the boot membership;
// every join or leave increments it.
func (v *View) Epoch() uint64 { return v.epoch }

// Members returns the fleet sorted by name. The slice is shared and
// must not be mutated.
func (v *View) Members() []*Peer { return v.members }

// MemberURLs returns every member's normalized base URL, sorted by
// member name — the wire form of the membership (what join/leave
// broadcasts carry).
func (v *View) MemberURLs() []string {
	out := make([]string, len(v.members))
	for i, p := range v.members {
		out[i] = p.url
	}
	return out
}

// Size returns the number of members, self included.
func (v *View) Size() int { return len(v.members) }

// Self returns the local node's Peer.
func (v *View) Self() *Peer { return v.self }

// Owner returns the peer owning key on this view's ring.
func (v *View) Owner(key string) *Peer { return v.members[v.ring.owner(key)] }

// Successors returns every member in key's deterministic ring order
// (owner first, each member once) — the failover and replica-placement
// order.
func (v *View) Successors(key string) []*Peer {
	idx := v.ring.successors(key)
	out := make([]*Peer, len(idx))
	for i, m := range idx {
		out[i] = v.members[m]
	}
	return out
}

// Replicas returns the first RF members in key's successor order: the
// owner set — the nodes a sealed entry for key is written to when
// replication is on, and the nodes Fetch walks looking for it.
func (v *View) Replicas(key string) []*Peer {
	idx := v.ring.successors(key)
	if len(idx) > v.rf {
		idx = idx[:v.rf]
	}
	out := make([]*Peer, len(idx))
	for i, m := range idx {
		out[i] = v.members[m]
	}
	return out
}

// Assign returns the first peer in key's successor order accepted by
// ok. With a nil ok it is Owner. It falls back to self if ok rejects
// every member, so work always has somewhere to run.
func (v *View) Assign(key string, ok func(*Peer) bool) *Peer {
	if ok == nil {
		return v.Owner(key)
	}
	for _, m := range v.ring.successors(key) {
		if ok(v.members[m]) {
			return v.members[m]
		}
	}
	return v.self
}

// buildView assembles a View over members (which must already carry
// exactly one self peer). It sorts members by name and builds the ring.
func buildView(epoch uint64, members []*Peer, vnodes, rf int) (*View, error) {
	sort.Slice(members, func(i, j int) bool { return members[i].name < members[j].name })
	names := make([]string, len(members))
	var self *Peer
	for i, p := range members {
		names[i] = p.name
		if p.self {
			self = p
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: view without a self peer")
	}
	if rf < 1 {
		rf = 1
	}
	if rf > len(members) {
		rf = len(members)
	}
	return &View{
		epoch:   epoch,
		members: members,
		ring:    newRing(names, vnodes),
		self:    self,
		rf:      rf,
	}, nil
}
