// Package cluster lets N sdtd nodes form a cooperating fleet. It
// provides four things:
//
//   - A consistent-hash ring over the content-addressed key space, so
//     every store key has a deterministic replica set and ownership
//     moves minimally when the membership changes. Membership is
//     versioned: each change installs a new immutable View at the next
//     ring epoch (see view.go), and in-flight work completes against
//     the epoch it started under.
//   - A peer tier for store.ByteStore: Fetch walks a key's replica set
//     in successor order for its sealed entry over HTTP, guarded by
//     per-peer circuit breakers (reusing store.Breaker) and a
//     background health prober.
//   - Asynchronous replication: freshly computed entries fan out to the
//     first RF ring successors through a bounded queue, with
//     anti-entropy retries when a down peer comes back (replicate.go).
//   - An ordered-merge helper the sweep coordinator uses to interleave
//     per-shard NDJSON streams back into matrix order, preserving the
//     byte-identity of single-node Ordered output.
//
// The package deliberately does not import internal/service: the
// service layer owns the HTTP handlers and sweep coordination, and
// wires a *Cluster into both the store (as its Remote tier) and the
// coordinator. See docs/CLUSTER.md for the protocol.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVNodes is how many virtual nodes each member contributes to
// the ring. 128 points per member keeps the max/mean key imbalance
// modest (~1.1-1.3x) for small fleets while the ring stays tiny (a
// 16-node fleet is 2048 points, one binary search over 32KB).
const defaultVNodes = 128

// ring maps keys to member indices by consistent hashing: each member
// contributes vnode points at fnv64a("name#i"), keys hash with the
// same function, and a key is owned by the first point clockwise from
// its hash. A ring is immutable once built; membership changes build a
// fresh ring inside a new View rather than mutating this one.
type ring struct {
	points  []ringPoint // sorted by hash
	members int
}

type ringPoint struct {
	hash   uint64
	member int
}

// hash64 is fnv64a followed by a splitmix64-style finalizer. Raw FNV
// has weak avalanche in the high bits for short, similar inputs — the
// vnode labels below differ only in a trailing counter, and without
// the mix their points cluster so badly that one of three members can
// own ~70% of the ring. The finalizer restores uniform spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newRing builds a ring over members (names must be distinct; order is
// irrelevant — placement depends only on the set of names, which is
// what keeps ownership stable across restarts and config reordering).
func newRing(names []string, vnodes int) *ring {
	r := &ring{
		points:  make([]ringPoint, 0, len(names)*vnodes),
		members: len(names),
	}
	for m, name := range names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(name + "#" + strconv.Itoa(i)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// owner returns the member index owning key.
func (r *ring) owner(key string) int {
	return r.points[r.at(key)].member
}

// at returns the index into points of the first point at or clockwise
// from key's hash.
func (r *ring) at(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// successors returns all member indices in ring order starting from
// key's owner, each member once. Index 0 is the owner; the rest is the
// failover order used when reassigning work away from dead nodes —
// deterministic for a given key and membership, so every coordinator
// computes the same reassignment.
func (r *ring) successors(key string) []int {
	out := make([]int, 0, r.members)
	seen := make([]bool, r.members)
	for i, n := r.at(key), 0; n < len(r.points); i, n = i+1, n+1 {
		p := r.points[i%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
			if len(out) == r.members {
				break
			}
		}
	}
	return out
}
