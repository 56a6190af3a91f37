package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*2654435761+12345)
	}
	return keys
}

// Ownership must depend only on the set of member names, not their
// order — every node builds the ring from its own -peers flag, and
// they must all agree.
func TestRingOrderIndependent(t *testing.T) {
	keys := ringKeys(500)
	a := newRing([]string{"n1:1", "n2:2", "n3:3"}, defaultVNodes)
	b := newRing([]string{"n3:3", "n1:1", "n2:2"}, defaultVNodes)
	nameA := []string{"n1:1", "n2:2", "n3:3"}
	nameB := []string{"n3:3", "n1:1", "n2:2"}
	for _, k := range keys {
		if nameA[a.owner(k)] != nameB[b.owner(k)] {
			t.Fatalf("key %s: owner differs across member orderings", k)
		}
	}
}

// Removing one member must only move the keys it owned: everyone
// else's keys keep their owner (the minimal-disruption property that
// makes rolling membership changes cheap on the store).
func TestRingConsistency(t *testing.T) {
	keys := ringKeys(2000)
	full := []string{"a:1", "b:2", "c:3", "d:4"}
	without := []string{"a:1", "b:2", "d:4"} // c:3 removed
	rf := newRing(full, defaultVNodes)
	rw := newRing(without, defaultVNodes)
	moved := 0
	for _, k := range keys {
		was := full[rf.owner(k)]
		now := without[rw.owner(k)]
		if was != "c:3" && was != now {
			t.Fatalf("key %s moved %s -> %s though its owner survived", k, was, now)
		}
		if was == "c:3" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the removed member; test is vacuous")
	}
}

// With defaultVNodes per member no node should own a wildly outsized key
// share.
func TestRingBalance(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3"}
	r := newRing(members, defaultVNodes)
	counts := make([]int, len(members))
	for _, k := range ringKeys(9000) {
		counts[r.owner(k)]++
	}
	for i, c := range counts {
		if c < 1500 || c > 4500 {
			// mean is 3000; allow a generous 0.5x..1.5x band
			t.Fatalf("member %s owns %d of 9000 keys — ring badly unbalanced %v", members[i], c, counts)
		}
	}
}

// successors must start at the owner and enumerate every member
// exactly once, deterministically.
func TestRingSuccessors(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3", "d:4"}
	r := newRing(members, defaultVNodes)
	for _, k := range ringKeys(100) {
		succ := r.successors(k)
		if len(succ) != len(members) {
			t.Fatalf("successors(%s) = %v, want %d distinct members", k, succ, len(members))
		}
		if succ[0] != r.owner(k) {
			t.Fatalf("successors(%s)[0] = %d, owner = %d", k, succ[0], r.owner(k))
		}
		seen := make(map[int]bool)
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("successors(%s) = %v repeats member %d", k, succ, m)
			}
			seen[m] = true
		}
	}
}
