package service

// Cluster sweep endpoints: the peer-facing sweep shard executor and the
// client-facing sweep coordinator. The protocol is documented in
// docs/CLUSTER.md; membership, the fetch path, journal shipping and
// adoption live in internal/cluster.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"sdt/internal/cluster"
	"sdt/internal/sweep"
)

// ShardRequest is the body of POST /v1/sweep/shard: the coordinator's
// full sweep request plus the global matrix indices this node should
// execute. Every node expands the matrix with the same deterministic
// code, so indices are a complete cell description. RingEpoch pins the
// membership view the coordinator partitioned under: a sweep spanning a
// join or leave completes against the epoch it started under (the
// shard executes by index and needs no ring, so the epoch is carried
// for observability and never rejected — epochs converge lazily).
type ShardRequest struct {
	Sweep     SweepRequest `json:"sweep"`
	Cells     []int        `json:"cells"`
	RingEpoch uint64       `json:"ring_epoch,omitempty"`
}

// Coordinator stream records. Unlike /v1/sweep, the cluster stream is
// canonical: cells are emitted in matrix order and carry only fields
// derived from (matrix, seed, limit) — no timings, attempt counts or
// cache provenance — so the merged output of an N-node sweep is
// byte-identical to a 1-node run of the same request. Heartbeat
// progress records (type "progress") are the one timing-dependent
// exception; deterministic consumers filter them out. The start record
// is SweepStart, as on /v1/sweep.
type (
	clusterCell struct {
		Type     string          `json:"type"` // "cell"
		Index    int             `json:"index"`
		Workload string          `json:"workload"`
		Arch     string          `json:"arch"`
		Mech     string          `json:"mech"`
		Scale    int             `json:"scale,omitempty"`
		Result   json.RawMessage `json:"result,omitempty"`
		Error    *ErrorInfo      `json:"error,omitempty"`
	}
	clusterDone struct {
		Type     string `json:"type"` // "done"
		Done     int    `json:"done"`
		Errors   int    `json:"errors"`
		Canceled int    `json:"canceled,omitempty"`
		Total    int    `json:"total"`
	}
)

// handleSweepShard executes a subset of a sweep matrix on behalf of a
// cluster coordinator, streaming /v1/sweep-shaped records (with the
// result's store key attached) in completion order. Shards are
// journal-less: checkpointing is the coordinator's job.
func (s *Server) handleSweepShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	m, ok := s.readSweep(w, r, &req, &req.Sweep)
	if !ok {
		return
	}
	if req.Sweep.ID != "" {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, "shard requests are journal-less; checkpointing belongs to the coordinator")
		return
	}
	if len(req.Cells) == 0 {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, "cells must be non-empty")
		return
	}
	cells := m.Cells()
	work := make([]idxCell, 0, len(req.Cells))
	seen := make(map[int]bool, len(req.Cells))
	for _, idx := range req.Cells {
		if idx < 0 || idx >= len(cells) || seen[idx] {
			s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Sprintf("cell index %d out of range or duplicated (matrix has %d cells)", idx, len(cells)))
			return
		}
		seen[idx] = true
		work = append(work, idxCell{idx: idx, cell: cells[idx]})
	}
	s.streamSweep(w, r, &req.Sweep, work, nil, nil, kindShard)
}

// reassignable reports whether a shard cell record describes work that
// died with its node (drain/cancellation) rather than a real per-cell
// outcome, and should therefore be run somewhere else.
func reassignable(e *ErrorInfo) bool {
	return e != nil && (e.Code == CodeCanceled || e.Code == CodeDraining)
}

// handleClusterSweep coordinates a sweep across the fleet: it expands
// and validates the matrix, computes every cell's content-store key,
// partitions cells by the ring owner of their key (so results land on
// the node that owns them), dispatches each partition as a shard,
// merges the returned streams back into matrix order, and reassigns the
// unfinished cells of any shard that dies. With no cluster configured
// it degenerates to a single local shard — emitting the same canonical
// stream, which is what makes N-node output comparable to 1-node.
func (s *Server) handleClusterSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	m, ok := s.readSweep(w, r, &req, &req)
	if !ok {
		return
	}
	cells := m.Cells()

	// Pin the membership view for the whole sweep: partitioning,
	// liveness seeding and shard dispatch all use this epoch, so a join
	// or leave mid-sweep never re-routes in-flight work (new sweeps see
	// the new ring; this one completes under the ring it started with).
	var view *cluster.View
	if c := s.cfg.Cluster; c != nil {
		view = c.CurrentView()
	}

	// Checkpointing works exactly as on /v1/sweep: the journal lives on
	// the coordinator, binding cell indices to store keys. Keys are
	// location-independent, so a resumed coordinator replays what the
	// store holds (local tiers, then peers) without re-execution.
	// ?adopt=<id> additionally pulls a dead coordinator's replicated
	// journal from the fleet, letting a survivor take the sweep over
	// (the client resubmits the same request body to the survivor).
	var adopt func(id string) bool
	if id := r.URL.Query().Get("adopt"); id != "" {
		req.ID = id
		adopt = func(id string) bool {
			err := s.adoptJournal(id)
			if err != nil {
				status, code := http.StatusInternalServerError, CodeInternal
				if errors.Is(err, cluster.ErrNoJournal) {
					status, code = http.StatusNotFound, CodeNotFound
				}
				s.writeError(w, r, status, code, fmt.Sprintf("adopting sweep %s: %v", id, err))
			}
			return err == nil
		}
	}
	jr, ok := s.openJournal(w, r, &req, m, adopt)
	if !ok {
		return
	}
	if jr != nil {
		if adopt != nil {
			s.met.sweepsAdopted.Inc()
		}
		if view != nil {
			// Replicate the journal as it checkpoints, so this sweep is
			// in turn adoptable if this coordinator dies.
			jr.shipper = s.cfg.Cluster.ShipJournal(view, req.ID, func(p *cluster.Peer, err error) {
				if err != nil {
					s.met.journalPushes.get(outcomeError).Inc()
					s.cfg.Log.Printf("journal %s push to %s failed: %v", req.ID, p.Name(), err)
					return
				}
				s.met.journalPushes.get(outcomeOK).Inc()
			})
		}
	}

	// Plan every cell: validate and derive its store key. Planning
	// compiles a workload|scale image only when the bounded image memo
	// (s.images) does not hold it.
	// Invalid cells become canonical error records without dispatch;
	// journaled cells whose bytes the store still holds are replayed.
	var early []clusterCell // invalid and replayed cells, in matrix order
	replayed := 0
	pending := make(map[int]idxCell, len(cells))
	for i, c := range cells {
		key, _, _, err := s.prepareCell(r.Context(), c, &req)
		ic := idxCell{idx: i, cell: c, key: key}
		if err != nil {
			_, e := cellOutcome(err, nil)
			early = append(early, clusterRecord(ic, nil, e))
		} else if data, ok := s.replay(jr, i); ok {
			early = append(early, clusterRecord(ic, data, nil))
			replayed++
		} else {
			pending[i] = ic
		}
	}

	st := s.startSweep(w, r, kindCluster, len(cells), replayed, jr)
	merge := cluster.NewMerge[clusterCell](func(_ int, rec clusterCell) {
		st.write(rec)
	})
	for _, rec := range early {
		if rec.Error != nil {
			st.tally(rec.Index, "", rec.Error)
		}
		merge.Add(rec.Index, rec)
	}

	var mu sync.Mutex // guards pending and alive
	// finalize merges one dispatched cell's terminal outcome. Called
	// concurrently from local shard engines and peer stream readers.
	finalize := func(ic idxCell, result json.RawMessage, e *ErrorInfo) {
		mu.Lock()
		_, live := pending[ic.idx]
		delete(pending, ic.idx)
		mu.Unlock()
		if !live {
			return // duplicate delivery (e.g. a record racing a reassignment)
		}
		st.tally(ic.idx, ic.key, e)
		merge.Add(ic.idx, clusterRecord(ic, result, e))
	}

	// Liveness for this sweep: start from the prober's view, and stop
	// trusting any peer whose shard fails mid-flight. Once distrusted a
	// peer is excluded for the rest of the sweep, so the dispatch loop
	// terminates: every round either finishes the matrix or shrinks the
	// candidate set, and self always accepts work.
	alive := make(map[*cluster.Peer]bool)
	if view != nil {
		for _, p := range view.Members() {
			alive[p] = p.Up()
		}
	}
	for round := 0; ; round++ {
		mu.Lock()
		if len(pending) == 0 {
			mu.Unlock()
			break
		}
		if round > 0 {
			st.reassigned += len(pending)
			s.met.clusterReassigned.Add(uint64(len(pending)))
		}
		idxs := make([]int, 0, len(pending))
		for i := range pending {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		shards := make(map[*cluster.Peer][]idxCell) // nil: the local engine, unclustered
		for _, i := range idxs {
			ic := pending[i]
			var p *cluster.Peer
			if view != nil {
				p = view.Assign(ic.key, func(p *cluster.Peer) bool { return p.Self() || alive[p] })
			}
			shards[p] = append(shards[p], ic)
		}
		mu.Unlock()

		var wg sync.WaitGroup
		for p, batch := range shards {
			if p == nil || p.Self() {
				// The self shard runs on the local engine. Unlike a peer
				// dispatch it cannot fail as a unit, which is what
				// guarantees this loop terminates.
				wg.Add(1)
				go func(batch []idxCell) {
					defer wg.Done()
					s.newEngine(&req).Stream(st.ctx, batch, func(o sweep.Outcome[idxCell, cellValue]) {
						result, e := cellOutcome(o.Err, o.Result.data)
						finalize(o.Item, result, e)
					})
				}(batch)
				continue
			}
			wg.Add(1)
			go func(p *cluster.Peer, batch []idxCell) {
				defer wg.Done()
				if err := s.dispatchShard(st.ctx, p, &req, batch, view.Epoch(), finalize); err != nil {
					if st.ctx.Err() == nil {
						// The peer failed, not this sweep's own context
						// (a drain or the client leaving): the fleet stops
						// trusting it too.
						s.cfg.Log.Printf("cluster sweep: shard on %s failed: %v", p.Name(), err)
						p.MarkDown()
					}
					mu.Lock()
					alive[p] = false
					mu.Unlock()
				}
			}(p, batch)
		}
		wg.Wait()
	}
	st.finish()
}

// clusterRecord is the canonical stream record of one cell.
func clusterRecord(ic idxCell, result json.RawMessage, e *ErrorInfo) clusterCell {
	return clusterCell{
		Type:     "cell",
		Index:    ic.idx,
		Workload: ic.cell.Workload,
		Arch:     ic.cell.Arch,
		Mech:     ic.cell.Mech,
		Scale:    ic.cell.Scale,
		Result:   result,
		Error:    e,
	}
}

// dispatchShard sends one peer its shard and consumes the returned
// NDJSON stream, delivering terminal cell outcomes to finalize. Cells
// the shard reports as canceled (its node draining, or the stream dying
// with the node) are NOT finalized — they stay pending for
// reassignment — unless this coordinator itself is shutting down. Any
// error return means the peer should be distrusted for the rest of the
// sweep.
func (s *Server) dispatchShard(ctx context.Context, p *cluster.Peer, req *SweepRequest, batch []idxCell, epoch uint64, finalize func(idxCell, json.RawMessage, *ErrorInfo)) error {
	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.Fail(cluster.SiteShard); err != nil {
			return err
		}
	}
	byIdx := make(map[int]idxCell, len(batch))
	indices := make([]int, len(batch))
	for i, ic := range batch {
		byIdx[ic.idx] = ic
		indices[i] = ic.idx
	}
	shardReq := ShardRequest{Sweep: *req, Cells: indices, RingEpoch: epoch}
	shardReq.Sweep.ID = "" // journaling is the coordinator's job
	body, err := json.Marshal(shardReq)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL()+"/v1/sweep/shard", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	// Shard streams are long-lived: the request is bounded by ctx, not
	// by the cluster's FetchTimeout.
	resp, err := s.cfg.Cluster.HTTPClient().Do(hr)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard dispatch answered %s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	abandoned := false
	for {
		var rec SweepCellRecord
		if derr := dec.Decode(&rec); derr != nil {
			if derr == io.EOF {
				return fmt.Errorf("shard stream ended without a done record")
			}
			return fmt.Errorf("shard stream died: %w", derr)
		}
		switch rec.Type {
		case "cell":
			ic, ok := byIdx[rec.Index]
			if !ok {
				return fmt.Errorf("shard answered for cell %d it was never assigned", rec.Index)
			}
			if reassignable(rec.Error) && ctx.Err() == nil {
				// The cell died with the shard (drain), not on its own
				// merits: leave it pending for reassignment.
				abandoned = true
				continue
			}
			finalize(ic, rec.Result, rec.Error)
		case "done":
			if abandoned {
				return fmt.Errorf("shard abandoned cells while draining")
			}
			return nil
		}
	}
}
