package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupMemoizes(t *testing.T) {
	g := NewGroup[int](nil)
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }
	v, hit, err := g.Do(context.Background(), "k", compute)
	if err != nil || v != 42 || hit {
		t.Fatalf("first Do = (%d, %v, %v), want (42, false, nil)", v, hit, err)
	}
	v, hit, err = g.Do(context.Background(), "k", compute)
	if err != nil || v != 42 || !hit {
		t.Fatalf("second Do = (%d, %v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if hits, misses := g.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("Stats = (%d, %d), want (1, 1)", hits, misses)
	}
}

func TestGroupSingleFlight(t *testing.T) {
	g := NewGroup[int](nil)
	var calls, coldReturns atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := g.Do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				<-release
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Do = (%d, %v)", v, err)
			}
			if !hit {
				coldReturns.Add(1)
			}
		}()
	}
	// Wait for the one computation to start, then release it.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	if coldReturns.Load() != 1 {
		t.Fatalf("%d callers reported a cold result, want exactly 1", coldReturns.Load())
	}
}

func TestGroupErrorNotCachedAndRetried(t *testing.T) {
	g := NewGroup[int](nil)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := g.Do(context.Background(), "k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	v, hit, err := g.Do(context.Background(), "k", func() (int, error) { calls++; return 9, nil })
	if err != nil || v != 9 || hit {
		t.Fatalf("retry Do = (%d, %v, %v), want (9, false, nil)", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

// A waiter whose computation leader fails must retry the computation
// itself rather than inherit the leader's error.
func TestGroupWaiterRetriesAfterLeaderFailure(t *testing.T) {
	g := NewGroup[int](nil)
	started := make(chan struct{})
	release := make(chan struct{})
	go g.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 0, errors.New("leader failed")
	})
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := g.Do(context.Background(), "k", func() (int, error) { return 5, nil })
		if err != nil || v != 5 {
			t.Errorf("waiter Do = (%d, %v), want (5, nil)", v, err)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter block on the leader
	close(release)
	<-done
}

func TestGroupWaiterHonorsContext(t *testing.T) {
	g := NewGroup[int](nil)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go g.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := g.Do(ctx, "k", func() (int, error) { return 1, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter error = %v, want DeadlineExceeded", err)
	}
}

func TestLRUEviction(t *testing.T) {
	l := NewLRU[int](2)
	l.Put("aa", 1)
	l.Put("bb", 2)
	l.Get("aa") // refresh aa; bb is now oldest
	l.Put("cc", 3)
	if _, ok := l.Get("bb"); ok {
		t.Fatal("bb should have been evicted")
	}
	if _, ok := l.Get("aa"); !ok {
		t.Fatal("aa should have survived")
	}
	if l.Len() != 2 || l.Evictions() != 1 {
		t.Fatalf("Len=%d Evictions=%d, want 2, 1", l.Len(), l.Evictions())
	}
}

// A weighted LRU evicts the oldest entries until the weights fit, keeps
// the total within its bound after every Put, re-weighs a replaced value,
// and never stores a value heavier than the whole bound (which therefore
// evicts nothing).
func TestWeightedLRU(t *testing.T) {
	l := NewWeightedLRU[string](4, 10, func(v string) int64 { return int64(len(v)) })
	total := func() (n int, w int64) {
		l.Range(func(_ string, v string) bool { n++; w += int64(len(v)); return true })
		return n, w
	}
	keys := func() string {
		var ks []string
		l.Range(func(k string, _ string) bool { ks = append(ks, k); return true })
		return strings.Join(ks, ",")
	}
	steps := []struct {
		key, v string
		want   string // keys, most recent first
	}{
		{"a", "xxx", "a"},
		{"b", "xxx", "b,a"},
		{"c", "xxx", "c,b,a"},
		{"d", "xx", "d,c,b"},      // 11 > 10: a goes
		{"e", "x", "e,d,c,b"},     // 9
		{"f", "x", "f,e,d,c"},     // entry bound: b goes
		{"c", "xxxxxxx", "c,f,e"}, // re-weighed 3 -> 7: 11, so d goes
		{"g", "xxxxxxxxxxx", "c,f,e"},
		{"f", "xxxxxxxxxxxx", "c,e"}, // an over-weight replacement drops the old value
	}
	for i, st := range steps {
		l.Put(st.key, st.v)
		if got := keys(); got != st.want {
			t.Fatalf("step %d Put(%s, %d bytes): keys %s, want %s", i, st.key, len(st.v), got, st.want)
		}
		if n, w := total(); n > 4 || w > 10 {
			t.Fatalf("step %d: %d entries weighing %d, bounds 4 and 10", i, n, w)
		}
	}
	if l.Evictions() != 3 {
		t.Errorf("Evictions = %d, want 3", l.Evictions())
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "deadbeef00"
	if _, ok, err := d.Get(key); ok || err != nil {
		t.Fatalf("Get on empty store = (%v, %v)", ok, err)
	}
	if err := d.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := d.Get(key)
	if err != nil || !ok || string(data) != "payload" {
		t.Fatalf("Get = (%q, %v, %v)", data, ok, err)
	}
	if n, err := d.Len(); err != nil || n != 1 {
		t.Fatalf("Len = (%d, %v), want 1", n, err)
	}
	// No stray temp files after a successful Put.
	matches, _ := filepath.Glob(filepath.Join(d.Root(), "de", ".*tmp*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestDiskRejectsHostileKeys(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "ab", "../../etc/passwd", "ABCDEF00", "abcd/ef00"} {
		if err := d.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a hostile key", key)
		}
		if _, _, err := d.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a hostile key", key)
		}
	}
}

func TestByteStoreTiering(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenByteStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	key := "cafe0123"
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("value"), nil }

	if _, hit, err := s.Do(context.Background(), key, compute); err != nil || hit {
		t.Fatalf("cold Do = (hit=%v, %v)", hit, err)
	}
	if _, hit, err := s.Do(context.Background(), key, compute); err != nil || !hit {
		t.Fatalf("warm Do = (hit=%v, %v)", hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}

	// A fresh store over the same directory must hit on disk and promote
	// into memory.
	s2, err := OpenByteStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	data, hit, err := s2.Do(context.Background(), key, compute)
	if err != nil || !hit || string(data) != "value" {
		t.Fatalf("restart Do = (%q, hit=%v, %v)", data, hit, err)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.MemEntries != 1 {
		t.Fatalf("restart stats = %+v, want one disk hit promoted to memory", st)
	}
	if v, ok := s2.Get(key); !ok || string(v) != "value" {
		t.Fatalf("Get after promotion = (%q, %v)", v, ok)
	}
	if st := s2.Stats(); st.MemHits == 0 {
		t.Fatalf("promotion did not land in memory: %+v", st)
	}
}

func TestByteStoreMemoryOnly(t *testing.T) {
	s, err := OpenByteStore("", 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Persistent() {
		t.Fatal("memory-only store claims persistence")
	}
	for i := 0; i < 4; i++ {
		s.Put(fmt.Sprintf("abcd%04d", i), []byte{byte(i)})
	}
	if st := s.Stats(); st.MemEntries != 2 || st.Evictions != 2 {
		t.Fatalf("stats after overflow = %+v, want 2 entries, 2 evictions", st)
	}
}

func TestByteStoreSurvivesCorruptDiskDir(t *testing.T) {
	// A file squatting where the shard directory should go makes every
	// disk write fail; the store must keep serving from memory and count
	// the errors.
	dir := t.TempDir()
	s, err := OpenByteStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := "beef0000"
	if err := os.WriteFile(filepath.Join(dir, key[:2]), []byte("squat"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, hit, err := s.Do(context.Background(), key, func() ([]byte, error) { return []byte("v"), nil })
	if err != nil || hit || string(data) != "v" {
		t.Fatalf("Do with broken disk = (%q, %v, %v)", data, hit, err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("value lost: memory layer should still hold it")
	}
	if st := s.Stats(); st.DiskErrors == 0 {
		t.Fatalf("disk errors not counted: %+v", st)
	}
}
