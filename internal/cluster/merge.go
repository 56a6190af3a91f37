package cluster

import "sync"

// Merge is the coordinator's reorder buffer: per-shard sweep streams
// deliver cell records tagged with their global matrix index in
// whatever order the shards finish them, and Merge emits them in index
// order — the same order a single node's Ordered sweep produces, which
// is what keeps merged output byte-identical across any node count.
//
// It is the cross-node analogue of the reorder buffer inside
// sweep.Engine's Ordered mode, but keyed by sparse global indices
// (each shard holds a subset of 0..total-1) and safe for concurrent
// Add from one goroutine per shard.
type Merge[V any] struct {
	emit func(index int, v V)

	mu   sync.Mutex
	buf  map[int]V
	next int
}

// NewMerge returns a Merge over indices counting up from 0. emit is
// called in strict index order, serialized under the Merge's lock (so
// it may write to a shared stream without further locking, but must not
// call back into the Merge).
func NewMerge[V any](emit func(index int, v V)) *Merge[V] {
	return &Merge[V]{emit: emit, buf: make(map[int]V)}
}

// Add delivers the record for one global index, emitting it — and any
// buffered successors it unblocks — in order. Each index must be added
// exactly once.
func (m *Merge[V]) Add(index int, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf[index] = v
	for {
		r, ok := m.buf[m.next]
		if !ok {
			return
		}
		delete(m.buf, m.next)
		m.emit(m.next, r)
		m.next++
	}
}
