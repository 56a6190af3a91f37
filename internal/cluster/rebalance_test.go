package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// ownerSets renders each key's first-rf successor set (sorted member
// names) on a ring over names — the identity replication cares about: a
// key only migrates when this set changes.
func ownerSets(names []string, rf int, keys []string) map[string]string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	r := newRing(sorted, defaultVNodes)
	sets := make(map[string]string, len(keys))
	for _, key := range keys {
		idx := r.successors(key)
		if len(idx) > rf {
			idx = idx[:rf]
		}
		out := make([]string, len(idx))
		for i, m := range idx {
			out[i] = sorted[m]
		}
		sort.Strings(out)
		sets[key] = strings.Join(out, ",")
	}
	return sets
}

// Property: across random join/leave sequences, the fraction of keys
// whose owner set changes at each step is bounded by ~rf/N — consistent
// hashing's minimal-movement guarantee, which is what makes runtime
// membership changes affordable (only the keys whose replica placement
// actually changed ever migrate).
func TestRingRebalanceBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := ringKeys(3000)
	pool := make([]string, 20)
	for i := range pool {
		pool[i] = fmt.Sprintf("node%02d:%d", i, 8000+i)
	}
	members := append([]string(nil), pool[:4]...)
	for _, rf := range []int{1, 2} {
		before := ownerSets(members, rf, keys)
		for step := 0; step < 12; step++ {
			join := rng.Intn(2) == 0 || len(members) <= rf+1
			if len(members) >= len(pool) {
				join = false
			}
			prevN := len(members)
			if join {
				// Pick an unused name from the pool.
				used := make(map[string]bool, len(members))
				for _, m := range members {
					used[m] = true
				}
				var candidates []string
				for _, p := range pool {
					if !used[p] {
						candidates = append(candidates, p)
					}
				}
				members = append(members, candidates[rng.Intn(len(candidates))])
			} else {
				i := rng.Intn(len(members))
				members = append(members[:i], members[i+1:]...)
			}
			minN := prevN
			if len(members) < minN {
				minN = len(members)
			}
			moved := 0
			now := ownerSets(members, rf, keys)
			for _, k := range keys {
				if now[k] != before[k] {
					moved++
				}
			}
			before = now
			frac := float64(moved) / float64(len(keys))
			bound := float64(rf)/float64(minN) + 0.12
			if frac > bound {
				t.Fatalf("step %d (rf=%d, %d->%d members): %.3f of owner sets changed, bound %.3f",
					step, rf, prevN, len(members), frac, bound)
			}
		}
	}
}

// successors must return each member at most (and, asked for the full
// ring, exactly) once — even on a pathological ring where vnode points
// of different members collide on the same hash.
func TestRingSuccessorsNoDuplicatesOnCollision(t *testing.T) {
	r := &ring{
		members: 3,
		points: []ringPoint{
			// Sorted by hash; hashes 10 and 30 are shared across members.
			{hash: 10, member: 0},
			{hash: 10, member: 1},
			{hash: 10, member: 2},
			{hash: 20, member: 1},
			{hash: 30, member: 0},
			{hash: 30, member: 2},
			{hash: 40, member: 0},
		},
	}
	for _, key := range ringKeys(200) {
		succ := r.successors(key)
		if len(succ) != r.members {
			t.Fatalf("key %s: successors = %v, want all %d members", key, succ, r.members)
		}
		seen := make(map[int]bool)
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("key %s: member %d appears twice in %v", key, m, succ)
			}
			seen[m] = true
		}
	}
}

// The same dedup property on real rings with tiny vnode counts, where
// interleaving is maximal relative to ring size.
func TestRingSuccessorsNoDuplicatesSmallVNodes(t *testing.T) {
	names := []string{"a:1", "b:2", "c:3", "d:4", "e:5"}
	for _, vnodes := range []int{1, 2, 3} {
		r := newRing(names, vnodes)
		for _, key := range ringKeys(500) {
			succ := r.successors(key)
			seen := make(map[int]bool)
			for _, m := range succ {
				if seen[m] {
					t.Fatalf("vnodes=%d key %s: duplicate member in %v", vnodes, key, succ)
				}
				seen[m] = true
			}
			if len(succ) != len(names) {
				t.Fatalf("vnodes=%d key %s: successors = %v, want %d members", vnodes, key, succ, len(names))
			}
		}
	}
}
