package store

import "container/list"

// LRU is a bounded Backend evicting the least-recently-used entries once
// it exceeds its capacity in entries or, when built weighted, its total
// weight. Like Map it is unsynchronized; use it under a Group or an
// external lock.
type LRU[V any] struct {
	capacity  int
	maxWeight int64
	weigh     func(V) int64
	weight    int64      // sum of the live entries' weights
	ll        *list.List // front = most recently used
	index     map[string]*list.Element
	evictions uint64
}

type lruEntry[V any] struct {
	key string
	v   V
	w   int64
}

// NewLRU returns an LRU holding at most capacity entries; capacity <= 0
// means unbounded.
func NewLRU[V any](capacity int) *LRU[V] {
	return NewWeightedLRU[V](capacity, 0, nil)
}

// NewWeightedLRU returns an LRU holding at most capacity entries whose
// weights, as weigh reports them when each is stored, sum to at most
// maxWeight. A bound <= 0 is unbounded. A value heavier than maxWeight on
// its own is not stored at all, so it evicts nothing.
func NewWeightedLRU[V any](capacity int, maxWeight int64, weigh func(V) int64) *LRU[V] {
	return &LRU[V]{capacity: capacity, maxWeight: maxWeight, weigh: weigh, ll: list.New(), index: make(map[string]*list.Element)}
}

// Get implements Backend, refreshing the entry's recency on hit.
func (l *LRU[V]) Get(key string) (V, bool) {
	if el, ok := l.index[key]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).v, true
	}
	var zero V
	return zero, false
}

// Put implements Backend, evicting the oldest entries while over either
// bound.
func (l *LRU[V]) Put(key string, v V) {
	var w int64
	if l.weigh != nil {
		w = l.weigh(v)
	}
	if el, ok := l.index[key]; ok {
		l.remove(el)
	}
	if l.maxWeight > 0 && w > l.maxWeight {
		return
	}
	l.index[key] = l.ll.PushFront(&lruEntry[V]{key: key, v: v, w: w})
	l.weight += w
	// The new entry is at the front and fits both bounds alone, so the
	// loop stops before reaching it.
	for (l.capacity > 0 && l.ll.Len() > l.capacity) || (l.maxWeight > 0 && l.weight > l.maxWeight) {
		l.remove(l.ll.Back())
		l.evictions++
	}
}

func (l *LRU[V]) remove(el *list.Element) {
	e := l.ll.Remove(el).(*lruEntry[V])
	delete(l.index, e.key)
	l.weight -= e.w
}

// Len returns the number of live entries.
func (l *LRU[V]) Len() int { return l.ll.Len() }

// Evictions returns the cumulative eviction count.
func (l *LRU[V]) Evictions() uint64 { return l.evictions }

// Range implements Ranger, most recently used first.
func (l *LRU[V]) Range(f func(key string, v V) bool) {
	for el := l.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry[V])
		if !f(e.key, e.v) {
			return
		}
	}
}
