package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// ErrNoJournal marks an adoption that found no journal anywhere: no
// reachable successor held a valid copy.
var ErrNoJournal = errors.New("cluster: no journal found for adoption")

// journalKey is the ring key a sweep's journal replicates under. The
// prefix segregates journal placement from result placement; the id
// makes it deterministic, so an adopting survivor walks the same
// successor order the dead coordinator shipped to.
func journalKey(id string) string { return "journal|" + id }

// journalTargets picks the peers a coordinator ships its journal to:
// the first max(1, RF-1) non-self members in the journal key's
// successor order. Even an RF=1 fleet gets one journal replica —
// coordinator failover must not depend on data replication being
// enabled.
func (v *View) journalTargets(id string) []*Peer {
	n := max(v.rf-1, 1)
	var out []*Peer
	for _, p := range v.Successors(journalKey(id)) {
		if p.self {
			continue
		}
		out = append(out, p)
		if len(out) == n {
			break
		}
	}
	return out
}

// JournalShipper replicates a coordinator's checkpoint journal to its
// ring successors as it persists, making the sweep adoptable if the
// coordinator dies. Shipping is asynchronous and latest-wins: the
// journal is a cumulative snapshot, so only the newest state matters
// and a slow successor coalesces intermediate versions instead of
// queueing them. Each snapshot goes to every target at once; a target
// that is down is skipped, and one whose push fails is dropped for the
// rest of the sweep, as the coordinator distrusts a failed shard, so a
// successor that never answers costs one FetchTimeout per sweep. The
// journal bytes are opaque here.
type JournalShipper struct {
	c       *Cluster
	id      string
	targets []*Peer // owned by run, then by Finish
	onPush  func(p *Peer, err error)
	ch      chan []byte
	done    chan struct{}
}

// ShipJournal starts shipping sweep id's journal to its successors on
// v, the view the sweep is pinned to (targets are chosen at sweep start,
// like its partitioning). onPush hears the outcome of every snapshot
// push to every target, possibly from several goroutines at once. It
// returns nil when v has no other member.
func (c *Cluster) ShipJournal(v *View, id string, onPush func(p *Peer, err error)) *JournalShipper {
	targets := v.journalTargets(id)
	if len(targets) == 0 {
		return nil
	}
	js := &JournalShipper{
		c:       c,
		id:      id,
		targets: targets,
		onPush:  onPush,
		ch:      make(chan []byte, 1),
		done:    make(chan struct{}),
	}
	go js.run()
	return js
}

// Push hands the shipper a freshly persisted journal. It has a single
// producer: the coordinator's tally, serialized by its lock.
func (js *JournalShipper) Push(data []byte) {
	select {
	case <-js.ch: // drop the stale snapshot
	default:
	}
	js.ch <- data
}

// Finish flushes any final snapshot and stops the pump. complete=true
// (the sweep finished and its local journal is gone) sends DELETE
// tombstones, so successors do not keep an adoptable journal for a
// sweep that no longer exists.
func (js *JournalShipper) Finish(complete bool) {
	close(js.ch)
	<-js.done
	if complete {
		js.send(http.MethodDelete, nil)
	}
}

func (js *JournalShipper) run() {
	defer close(js.done)
	for data := range js.ch {
		js.send(http.MethodPut, data)
	}
}

// send makes one journal request of every target that is up, all at
// once, and drops the targets it failed on. Pushes (PUT) are reported
// to onPush.
func (js *JournalShipper) send(method string, body []byte) {
	failed := make([]bool, len(js.targets))
	var wg sync.WaitGroup
	for i, p := range js.targets {
		if !p.Up() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := js.c.do(context.Background(), peerReq{method: method, url: p.url + PeerJournalPath + js.id, body: body, sealed: true})
			if method == http.MethodPut {
				js.onPush(p, err)
			}
			failed[i] = err != nil
		}()
	}
	wg.Wait()
	kept := js.targets[:0]
	for i, p := range js.targets {
		if !failed[i] {
			kept = append(kept, p)
		}
	}
	js.targets = kept
}

// FetchJournal walks sweep id's journal successors on the current view
// in ring order, skipping self and down peers, and returns the first
// copy that unseals and that valid accepts. A 404, a transport error, a
// bad seal or a rejected body moves on to the next successor. With no
// good copy anywhere the error is ErrNoJournal, joined with what each
// failed successor reported.
func (c *Cluster) FetchJournal(id string, valid func([]byte) bool) ([]byte, error) {
	errs := []error{ErrNoJournal}
	for _, p := range c.cur.Load().Successors(journalKey(id)) {
		if p.self || !p.Up() {
			continue
		}
		data, ok, err := c.do(context.Background(), peerReq{method: http.MethodGet, url: p.url + PeerJournalPath + id, sealed: true})
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("fetch from %s: %w", p.name, err))
		case !ok:
			// The peer answered: it holds no copy.
		case !valid(data):
			errs = append(errs, fmt.Errorf("journal from %s rejected (id mismatch or malformed)", p.name))
		default:
			return data, nil
		}
	}
	return nil, errors.Join(errs...)
}
