package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Span walks must be observationally identical to one Access per line:
// every line's tag, valid bit and LRU word, the tick and the hit and miss
// counts. These tests drive a cache through Walk and a twin through
// per-line Access only, and compare the two after every step.

// equivGeoms are the geometries the equivalence is checked on: the x86
// and arm models' L1 geometry (hostarch.X86, hostarch.ARM), a 1-set cache
// where every span longer than its ways evicts its own lines, a 4-set
// cache whose spans wrap the set index many times over, and a
// direct-mapped cache (no way bits, no span capacity limit).
var equivGeoms = []struct {
	name string
	cfg  Config
}{
	{"x86", Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4}},
	{"arm", Config{SizeBytes: 16 << 10, LineBytes: 32, Ways: 2}},
	{"1set", Config{SizeBytes: 256, LineBytes: 64, Ways: 4}},
	{"tiny", Config{SizeBytes: 128, LineBytes: 16, Ways: 2}},
	{"direct", Config{SizeBytes: 1024, LineBytes: 32, Ways: 1}},
}

// sameState reports the first difference between c and its twin.
func sameState(c, twin *Cache) error {
	if c.tick != twin.tick || c.hits != twin.hits || c.misses != twin.misses {
		return fmt.Errorf("tick/hits/misses %d/%d/%d, per-line twin %d/%d/%d",
			c.tick, c.hits, c.misses, twin.tick, twin.hits, twin.misses)
	}
	for i := range c.lines {
		if c.lines[i] != twin.lines[i] {
			return fmt.Errorf("line slot %d = %+v, per-line twin %+v", i, c.lines[i], twin.lines[i])
		}
	}
	return nil
}

// accessLines is the reference for Walk: one Access per line of s.
func accessLines(c *Cache, s *Span) int {
	misses := 0
	for a := s.From; a < s.End; a += uint32(c.cfg.LineBytes) {
		if !c.Access(a) {
			misses++
		}
	}
	return misses
}

// twinPair is a cache that takes span walks and its per-line twin.
type twinPair struct{ c, twin *Cache }

// equivStats counts what a run of the equivalence check exercised, so the
// check cannot pass vacuously.
type equivStats struct {
	fast      int // walks that found their stamp valid
	overlong  int // walks of spans longer than the stamp's capacity
	evictions int // walks during which a valid line was evicted
}

// runEquiv drives two twin pairs of geometry cfg through n random steps
// drawn from seed, sharing six span holders between them, and checks
// every step.
func runEquiv(cfg Config, seed int64, n int, st *equivStats) error {
	rng := rand.New(rand.NewSource(seed))
	pairs := [2]twinPair{{New(cfg), New(cfg)}, {New(cfg), New(cfg)}}
	c := pairs[0].c
	lineBytes := uint32(cfg.LineBytes)
	setBits := c.tagShift
	// A hot window of 8 consecutive sets that wraps from the top set
	// index to the bottom, six resident tags per set (more than the ways
	// of every geometry here), and a separate tag range for misses.
	lineAddr := func(tag uint32) uint32 {
		set := (c.setMask - 2 + uint32(rng.Intn(8))) & c.setMask
		return tag<<setBits | set
	}
	spans := make([]Span, 6)
	for i := range spans {
		var lines int
		switch r := rng.Intn(10); {
		case r < 6:
			lines = 1 + rng.Intn(4)
		case r < 8:
			lines = 1 + rng.Intn(2*cfg.Ways)
		case c.wayBits > 0:
			lines = 64/int(c.wayBits) - 2 + rng.Intn(5) // around the capacity
		default:
			lines = 1 + rng.Intn(80)
		}
		from := lineAddr(uint32(rng.Intn(6))) * lineBytes
		spans[i] = Span{From: from, End: from + uint32(lines)*lineBytes}
	}
	for step := 0; step < n; step++ {
		p := &pairs[0]
		if rng.Intn(5) == 0 {
			p = &pairs[1]
		}
		var op string
		switch r := rng.Intn(100); {
		case r < 55:
			s := &spans[rng.Intn(len(spans))]
			op = fmt.Sprintf("walk [%#x, %#x)", s.From, s.End)
			if s.gen == p.c.gen {
				st.fast++
			}
			if lines := uint((s.End - s.From) / lineBytes); lines*p.c.wayBits > 64 {
				st.overlong++
			}
			gen := p.c.gen
			got, want := p.c.Walk(s), accessLines(p.twin, s)
			if p.c.gen != gen {
				st.evictions++
			}
			if got != want {
				return fmt.Errorf("step %d %s: %d misses, per-line twin %d", step, op, got, want)
			}
		case r < 80:
			a := lineAddr(uint32(rng.Intn(6)))*lineBytes + uint32(rng.Intn(int(lineBytes)))
			op = fmt.Sprintf("access %#x", a)
			if p.c.Access(a) != p.twin.Access(a) {
				return fmt.Errorf("step %d %s: hit differs from per-line twin", step, op)
			}
		case r < 97:
			a := lineAddr(uint32(8+rng.Intn(8))) * lineBytes
			op = fmt.Sprintf("evicting access %#x", a)
			if p.c.Access(a) != p.twin.Access(a) {
				return fmt.Errorf("step %d %s: hit differs from per-line twin", step, op)
			}
		default:
			op = "reset"
			p.c.Reset()
			p.twin.Reset()
		}
		for i := range pairs {
			if err := sameState(pairs[i].c, pairs[i].twin); err != nil {
				return fmt.Errorf("step %d %s (cache %d): %v", step, op, i, err)
			}
		}
	}
	return nil
}

// TestSpanWalkEquivalence: random interleavings of span walks, single
// accesses, evicting misses and resets leave a cache that walks spans in
// exactly the state of a twin that only ever calls Access, on every
// geometry, with spans shared between two caches.
func TestSpanWalkEquivalence(t *testing.T) {
	for _, g := range equivGeoms {
		t.Run(g.name, func(t *testing.T) {
			var st equivStats
			f := func(seed int64) bool {
				if err := runEquiv(g.cfg, seed, 300, &st); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
			t.Logf("%+v", st)
			if st.fast == 0 || st.evictions == 0 {
				t.Errorf("vacuous run: %+v", st)
			}
			if New(g.cfg).wayBits > 0 && st.overlong == 0 {
				t.Errorf("no span exceeded the stamp capacity: %+v", st)
			}
		})
	}
}

// TestSpanStampBoundToCache: a span stamped by one cache must not take the
// fast path on another cache of the same geometry that has counted the
// same number of generations (none, here) but never held its lines.
func TestSpanStampBoundToCache(t *testing.T) {
	for _, g := range equivGeoms {
		t.Run(g.name, func(t *testing.T) {
			a, b, twin := New(g.cfg), New(g.cfg), New(g.cfg)
			s := Span{From: 0, End: 2 * uint32(g.cfg.LineBytes)}
			a.Walk(&s)
			if a.Walk(&s) != 0 || s.gen != a.gen {
				t.Fatalf("a resident span was not stamped: %+v", s)
			}
			if got, want := b.Walk(&s), accessLines(twin, &s); got != want || want != 2 {
				t.Errorf("walk on a second cache: %d misses, per-line twin %d", got, want)
			}
			if err := sameState(b, twin); err != nil {
				t.Error(err)
			}
		})
	}
}
