// Package cache implements a set-associative L1 cache simulator with LRU
// replacement. The SDT study uses two instances per run: an I-cache fed with
// the addresses of executed code (guest addresses natively, fragment-cache
// addresses under the SDT — the sieve's stub chains live here) and a D-cache
// fed with guest data accesses plus the SDT's own table probes (the IBTC
// lives here).
package cache

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Config describes a cache geometry.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity; 1 = direct-mapped
}

// Validate reports whether the geometry is realizable.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: nonpositive geometry %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by line*ways=%d", c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

type line struct {
	tag   uint32
	valid bool
	lru   uint64 // last-touched tick; larger = more recent
}

// Cache is one simulated cache. The zero value is not usable; call New.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint32
	tagShift  uint
	ways      int
	wayBits   uint   // bits to hold a way index; 0 when direct-mapped
	lines     []line // sets laid out contiguously, ways per set
	tick      uint64
	hits      uint64
	misses    uint64

	// gen changes whenever a valid line is evicted and on Reset, so while
	// it holds still every resident line stays in its slot (installing
	// into an invalid slot moves nothing). Values are unique across all
	// caches (see genRanges), so a Span stamped by one cache never
	// validates against another.
	gen uint64
}

// genRangeBits sizes the private generation range each cache draws from
// genRanges: a cache counts 2^genRangeBits - 1 generations before it draws
// a fresh range, and 2^(64-genRangeBits) ranges outlast any process.
const genRangeBits = 24

// genRanges hands out generation ranges. Range 0 is never drawn, so a
// cache's generation is never 0 and a zero Span is never valid.
var genRanges atomic.Uint64

func (c *Cache) nextGen() {
	c.gen++
	if c.gen&(1<<genRangeBits-1) == 0 {
		c.gen = genRanges.Add(1) << genRangeBits
	}
}

// New builds a cache for the given geometry. It panics if the geometry is
// invalid; validate configs from external input with Config.Validate first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint32(nsets - 1),
		ways:      cfg.Ways,
		wayBits:   uint(bits.Len(uint(cfg.Ways - 1))),
		lines:     make([]line, nsets*cfg.Ways),
		gen:       genRanges.Add(1) << genRangeBits,
	}
	c.tagShift = uint(bits.OnesCount32(c.setMask))
	return c
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Access simulates a reference to addr and reports whether it hit. Misses
// install the line (allocate-on-miss, for both reads and writes).
func (c *Cache) Access(addr uint32) bool {
	hit, _ := c.access(addr >> c.lineShift)
	return hit
}

// access references one line and returns whether it hit and the way it
// now occupies in its set.
func (c *Cache) access(lineAddr uint32) (bool, int) {
	c.tick++
	base := int(lineAddr&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	tag := lineAddr >> c.tagShift
	for i := range set {
		if set[i].tag == tag && set[i].valid {
			set[i].lru = c.tick
			c.hits++
			return true, i
		}
	}
	victim := 0
	for i := range set {
		if set[i].lru < set[victim].lru || !set[i].valid && set[victim].valid {
			victim = i
		}
	}
	if set[victim].valid {
		c.nextGen()
	}
	set[victim] = line{tag: tag, valid: true, lru: c.tick}
	c.misses++
	return false, victim
}

// Span is a line-aligned address range [From, End) that is always fetched
// whole and in order — the code of one straight-line body — together with
// what Walk learnt the last time it left every line of it resident: the
// way each line occupies (consecutive lines fall in consecutive sets) and
// the generation of the cache at that time. The ways of at most 64/ceil(log2(Ways))
// lines fit the stamp (any number when direct-mapped); a longer span is
// never stamped. Build a Span with From and End only; the zero stamp is
// never valid.
type Span struct {
	From, End uint32
	gen       uint64
	ways      uint64 // way of line i in bits [i*wayBits, (i+1)*wayBits)
}

// Walk accesses every line of s in order, exactly as one Access per line
// would, and returns the number of misses.
//
// If the cache's generation still equals s's stamp, no valid line has been
// evicted since every line of s was resident in the recorded slots, so
// each line is still there: the walk does what n hitting Accesses do —
// one tick and one LRU update per line, n hits — without comparing tags.
// Otherwise each line takes the Access path, and s is stamped when no
// valid line was evicted during the walk (an eviction may have displaced
// a line of s itself) and its ways fit the stamp.
func (c *Cache) Walk(s *Span) int {
	first, n := s.From>>c.lineShift, uint32(0)
	if s.End > s.From {
		n = (s.End - s.From) >> c.lineShift
	}
	if s.gen == c.gen {
		lines, nways, setMask := c.lines, c.ways, c.setMask
		ways, wayBits, wayMask := s.ways, c.wayBits, uint64(1)<<c.wayBits-1
		tick := c.tick
		for l := first; l != first+n; l++ {
			tick++
			lines[int(l&setMask)*nways+int(ways&wayMask)].lru = tick
			ways >>= wayBits
		}
		c.tick = tick
		c.hits += uint64(n)
		return 0
	}
	gen, misses := c.gen, 0
	var ways uint64
	for i := uint32(0); i < n; i++ {
		hit, way := c.access(first + i)
		if !hit {
			misses++
		}
		ways |= uint64(way) << (uint(i) * c.wayBits)
	}
	if c.gen == gen && uint(n)*c.wayBits <= 64 {
		s.gen, s.ways = gen, ways
	}
	return misses
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.tick, c.hits, c.misses = 0, 0, 0
	c.nextGen()
}
