package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sdt/internal/faultinject"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/program"
	"sdt/internal/sweep"
	"sdt/internal/workload"
)

// LangWorkload marks results computed from a named generated workload
// rather than client-supplied source. It appears in RunResult.Lang for
// sweep cells; it is not accepted as a RunRequest.Lang.
const LangWorkload = "workload"

// sweepRetries is how many times a cell that bounced off the admission
// queue (429 territory on /v1/run) is retried before its error record is
// emitted. Queue-full is the only transient error class: the sweep itself
// occupies workers, so a full queue clears as cells finish.
const sweepRetries = 3

// SweepRequest is the body of POST /v1/sweep: a (workloads × archs ×
// mechs × scales) matrix over the built-in workload generators. Cells are
// validated individually — an unknown workload, arch, or mechanism spec
// poisons only its own cells, never the batch.
type SweepRequest struct {
	// ID, when set, checkpoints the sweep: completed cells are journaled
	// under the on-disk store, and a later request with the same ID (or
	// ?resume=<id>) replays them from the store instead of re-executing.
	// Requires an on-disk store; 1-64 chars of [A-Za-z0-9._-] starting
	// with an alphanumeric. The journal is deleted once every cell has
	// succeeded.
	ID string `json:"id,omitempty"`
	// Workloads names built-in workload generators (required).
	Workloads []string `json:"workloads"`
	// Archs names host cost models (default ["x86"]).
	Archs []string `json:"archs,omitempty"`
	// Mechs lists IB mechanism specs (default ["ibtc:16384"]).
	Mechs []string `json:"mechs,omitempty"`
	// Scales lists workload scales; empty selects each workload's default
	// (scale 0). Scales must be non-negative.
	Scales []int `json:"scales,omitempty"`
	// Seed, Limit and TimeoutMS apply to every cell, with /v1/run
	// semantics (TimeoutMS bounds each cell, not the whole sweep).
	Seed      uint64 `json:"seed,omitempty"`
	Limit     uint64 `json:"limit,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

func (req *SweepRequest) matrix() sweep.Matrix {
	m := sweep.Matrix{
		Workloads: req.Workloads,
		Archs:     req.Archs,
		Mechs:     req.Mechs,
		Scales:    req.Scales,
	}
	if len(m.Archs) == 0 {
		m.Archs = []string{"x86"}
	}
	if len(m.Mechs) == 0 {
		m.Mechs = []string{"ibtc:16384"}
	}
	return m
}

// NDJSON stream records. Every record carries Type; clients switch on it
// and must ignore unknown types.
type (
	// SweepStart is the first record: the expanded cell count, and — on
	// a checkpointed resume — how many cells will be replayed from the
	// journal rather than executed.
	SweepStart struct {
		Type    string `json:"type"` // "start"
		Total   int    `json:"total"`
		Resumed int    `json:"resumed,omitempty"`
	}
	// SweepCellRecord reports one finished cell, in completion order
	// (Index places it in the deterministic matrix order: workloads,
	// then archs, then mechs, then scales). Exactly one of Result and
	// Error is set.
	SweepCellRecord struct {
		Type     string `json:"type"` // "cell"
		Index    int    `json:"index"`
		Workload string `json:"workload"`
		Arch     string `json:"arch"`
		Mech     string `json:"mech"`
		Scale    int    `json:"scale,omitempty"`
		// Key is the result's content-store address. It is set on
		// /v1/sweep/shard streams — the cluster coordinator journals it
		// — and omitted on client-facing /v1/sweep streams.
		Key       string          `json:"key,omitempty"`
		Cached    bool            `json:"cached,omitempty"`
		Replayed  bool            `json:"replayed,omitempty"`
		Attempts  int             `json:"attempts"`
		ElapsedMS float64         `json:"elapsed_ms"`
		Result    json.RawMessage `json:"result,omitempty"`
		Error     *ErrorInfo      `json:"error,omitempty"`
	}
	// SweepProgress is a heartbeat emitted between cells on slow sweeps
	// so proxies do not idle out the connection.
	SweepProgress struct {
		Type   string `json:"type"` // "progress"
		Done   int    `json:"done"`
		Errors int    `json:"errors"`
		Total  int    `json:"total"`
	}
	// SweepDone is the final record. Canceled counts cells that never
	// ran (or were cut short) because the client went away or a drain
	// cut the sweep off (codes canceled and draining); such cells stay
	// resumable from the journal.
	SweepDone struct {
		Type      string  `json:"type"` // "done"
		Done      int     `json:"done"`
		Errors    int     `json:"errors"`
		Canceled  int     `json:"canceled"`
		Replayed  int     `json:"replayed,omitempty"`
		Total     int     `json:"total"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
)

// cellValue is a sweep engine result: the stored measurement bytes, the
// content-store key they live under (what the checkpoint journal
// records), and whether they came from the store.
type cellValue struct {
	key    string
	data   []byte
	cached bool
}

// idxCell carries a cell through the engine together with its position
// in the full matrix, so a resumed sweep or a shard — which only
// schedule part of the matrix — still reports original matrix indices.
// The cluster coordinator also fills in key when it plans the cell.
type idxCell struct {
	idx  int
	cell sweep.Cell
	key  string
}

// errCellInvalid marks a cell that failed validation (unknown workload,
// arch, or mechanism spec) rather than execution.
var errCellInvalid = errors.New("invalid sweep cell")

// decodeSweep decodes a sweep-shaped request body into v and validates
// req, the SweepRequest that v is or carries. It returns the matrix to
// expand, which holds at most MaxSweepCells cells.
func (s *Server) decodeSweep(w http.ResponseWriter, r *http.Request, v any, req *SweepRequest) (sweep.Matrix, error) {
	if err := s.decodeBody(w, r, v); err != nil {
		return sweep.Matrix{}, err
	}
	if len(req.Workloads) == 0 {
		return sweep.Matrix{}, errors.New("workloads must be non-empty")
	}
	for _, sc := range req.Scales {
		if sc < 0 {
			return sweep.Matrix{}, fmt.Errorf("negative scale %d", sc)
		}
	}
	m := req.matrix()
	// Multiply one dimension at a time: each is at least 1, so stopping
	// once past the cap keeps the product from overflowing into a small
	// size that would pass it (2^16 entries in each of the four lists
	// fit in a 1 MB body and multiply to 2^64).
	n := 1
	for _, d := range []int{len(m.Workloads), len(m.Archs), len(m.Mechs), max(len(m.Scales), 1)} {
		if n *= d; n > s.cfg.MaxSweepCells {
			return sweep.Matrix{}, fmt.Errorf("sweep expands to more than the %d-cell limit", s.cfg.MaxSweepCells)
		}
	}
	return m, nil
}

// readSweep is the request half every sweep route shares: it refuses
// new sweeps while draining, then decodes and validates the body into v
// (whose sweep is req). On failure it has written the error response.
func (s *Server) readSweep(w http.ResponseWriter, r *http.Request, v any, req *SweepRequest) (sweep.Matrix, bool) {
	if s.draining.Load() {
		s.setRetryAfter(w)
		s.writeError(w, r, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return sweep.Matrix{}, false
	}
	m, err := s.decodeSweep(w, r, v, req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return sweep.Matrix{}, false
	}
	return m, true
}

// openJournal binds a sweep to its checkpoint journal of completed
// cells, so a broken connection can be resumed without re-executing
// finished work. ?resume=<id> overrides (or supplies) the body ID; no ID
// means no checkpoint and a nil journal. adopt, when set, runs on the
// validated ID before the journal is read and reports whether to go on;
// it writes its own error response. On failure the error response has
// been written.
func (s *Server) openJournal(w http.ResponseWriter, r *http.Request, req *SweepRequest, m sweep.Matrix, adopt func(id string) bool) (*sweepJournal, bool) {
	if id := r.URL.Query().Get("resume"); id != "" {
		req.ID = id
	}
	if req.ID == "" {
		return nil, true
	}
	var jr *sweepJournal
	var err error
	switch {
	case !validSweepID(req.ID):
		err = errors.New("sweep id must be 1-64 chars of [A-Za-z0-9._-] starting with an alphanumeric")
	case s.cfg.StoreDir == "":
		err = errors.New("sweep checkpointing requires an on-disk store")
	case adopt != nil && !adopt(req.ID):
		return nil, false
	default:
		// The only surfaced open error is a matrix mismatch — resuming
		// someone else's journal would serve cells from the wrong
		// experiment.
		jr, err = openSweepJournal(s.journalPath(req.ID), req.ID,
			sweepDigest(m, req.Seed, req.Limit), s.cfg.Faults, s.journalError)
	}
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return nil, false
	}
	return jr, true
}

// replay returns the stored bytes of a cell jr journaled as complete,
// from the local tiers or, in a cluster, from the peer tier: a survivor
// adopting a sweep may not yet hold a result its replica is still
// sending. A journaled cell whose bytes are gone (evicted memory-only
// copy, quarantined entry) is not replayable and falls back to
// execution — the journal is an optimization, never an authority.
func (s *Server) replay(jr *sweepJournal, idx int) ([]byte, bool) {
	if jr == nil {
		return nil, false
	}
	key, ok := jr.have[idx]
	if !ok {
		return nil, false
	}
	return s.store.Lookup(key)
}

// newEngine returns the sweep engine every sweep route runs its cells
// through: one worker per pool slot, queue-full and injected transient
// errors retried.
func (s *Server) newEngine(req *SweepRequest) *sweep.Engine[idxCell, cellValue] {
	eng := &sweep.Engine[idxCell, cellValue]{
		Workers: s.cfg.Workers,
		Retries: sweepRetries,
		IsTransient: func(err error) bool {
			return errors.Is(err, errQueueFull) || faultinject.IsTransient(err)
		},
		Exec: func(ctx context.Context, ic idxCell) (cellValue, error) {
			return s.runCell(ctx, ic.cell, req)
		},
	}
	if s.cfg.Faults != nil {
		eng.Faults = s.cfg.Faults
	}
	return eng
}

// cellRecord is the stream record of one cell before its outcome is known.
func cellRecord(ic idxCell) SweepCellRecord {
	return SweepCellRecord{
		Type:     "cell",
		Index:    ic.idx,
		Workload: ic.cell.Workload,
		Arch:     ic.cell.Arch,
		Mech:     ic.cell.Mech,
		Scale:    ic.cell.Scale,
	}
}

// cellOutcome maps a cell execution outcome to the (result, error)
// pair of its stream record. Exactly one is set.
func cellOutcome(err error, data []byte) (json.RawMessage, *ErrorInfo) {
	switch {
	case err == nil:
		return data, nil
	case errors.Is(err, context.Canceled):
		return nil, &ErrorInfo{Code: CodeCanceled, Message: err.Error()}
	case errors.Is(err, errCellInvalid):
		return nil, &ErrorInfo{Code: CodeInvalidArgument, Message: err.Error()}
	default:
		_, code := mapError(err)
		return nil, &ErrorInfo{Code: code, Message: err.Error()}
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	m, ok := s.readSweep(w, r, &req, &req)
	if !ok {
		return
	}
	jr, ok := s.openJournal(w, r, &req, m, nil)
	if !ok {
		return
	}
	// Split the matrix into journaled cells replayable from the store and
	// the remainder to execute.
	cells := m.Cells()
	var replays []SweepCellRecord
	work := make([]idxCell, 0, len(cells))
	for i, c := range cells {
		ic := idxCell{idx: i, cell: c}
		if data, ok := s.replay(jr, i); ok {
			rec := cellRecord(ic)
			rec.Cached, rec.Replayed, rec.Result = true, true, data
			replays = append(replays, rec)
			continue
		}
		work = append(work, ic)
	}
	s.streamSweep(w, r, &req, work, replays, jr, kindSweep)
}

// startStream commits the response to a 200 NDJSON stream and returns
// the function that writes and flushes one record. Request-level errors
// are over from here: everything else is a per-cell record.
func (s *Server) startStream(w http.ResponseWriter, r *http.Request) func(v any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s.countRequest(r, http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	return func(v any) {
		enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// streamKind is the sweep route a stream answers. It picks the route's
// metrics, its done record and its log line.
type streamKind int

const (
	kindSweep   streamKind = iota // /v1/sweep
	kindShard                     // /v1/sweep/shard
	kindCluster                   // /v1/cluster/sweep
)

// sweepStream is the response lifecycle every sweep route shares:
// drain registration, the NDJSON writer, the start record, the
// heartbeat, the outcome tally (which journals successes), the journal
// close and the done record. The routes differ only in where cell
// records come from: the local engine in completion order (/v1/sweep,
// /v1/sweep/shard) or shards merged into matrix order
// (/v1/cluster/sweep).
type sweepStream struct {
	s      *Server
	kind   streamKind
	ctx    context.Context // the cells' context: ends with the client or a drain
	cancel context.CancelCauseFunc
	reg    int
	start  time.Time
	jr     *sweepJournal
	cells  *counterVec // the route's cells counter

	hbStop, hbDone chan struct{}
	reassigned     int // cluster: cells moved off failed shards (dispatch loop only)

	mu       sync.Mutex // orders writes; guards the tally and jr
	emit     func(any)
	total    int
	replayed int
	done     int
	errs     int
	canceled int
}

// startSweep opens the stream of a total-cell sweep and writes its start
// record; replayed of the cells come from the journal and are tallied
// as successes here. The caller writes or merges every cell record,
// calls tally for every cell it did not replay, then calls finish.
func (s *Server) startSweep(w http.ResponseWriter, r *http.Request, kind streamKind, total, replayed int, jr *sweepJournal) *sweepStream {
	// Register with the drain machinery: a SIGTERM mid-sweep cancels
	// ctx, the engines stop scheduling, unfinished cells emit
	// cancellation records (which a coordinator reassigns), and finish
	// flushes the journal once more, leaving a resumable checkpoint
	// instead of an abandoned matrix.
	ctx, cancel := context.WithCancelCause(r.Context())
	st := &sweepStream{
		s: s, kind: kind, ctx: ctx, cancel: cancel, reg: s.registerSweep(cancel),
		start: time.Now(), jr: jr, cells: s.met.sweepCells,
		hbStop: make(chan struct{}), hbDone: make(chan struct{}),
		emit: s.startStream(w, r), total: total, replayed: replayed, done: replayed,
	}
	if kind == kindCluster {
		st.cells = s.met.clusterCells
	}
	st.cells.get(outcomeOK).Add(uint64(replayed))
	s.met.sweepReplayed.Add(uint64(replayed))
	st.emit(SweepStart{Type: "start", Total: total, Resumed: replayed})
	go st.heartbeat(s.cfg.SweepHeartbeat)
	return st
}

// heartbeat writes a progress record every interval until finish stops it.
func (st *sweepStream) heartbeat(every time.Duration) {
	defer close(st.hbDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-st.hbStop:
			return
		case <-t.C:
			st.mu.Lock()
			st.emit(SweepProgress{Type: "progress", Done: st.done, Errors: st.errs, Total: st.total})
			st.mu.Unlock()
		}
	}
}

// write sends one record.
func (st *sweepStream) write(v any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.emit(v)
}

// tally counts one cell's terminal outcome: ok (journaled under key),
// canceled (cut off by the client going away or by a drain, so the cell
// is resumable and a coordinator reassigns it) or error.
func (st *sweepStream) tally(idx int, key string, e *ErrorInfo) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case e == nil:
		st.done++
		st.cells.get(outcomeOK).Inc()
		if st.jr != nil {
			st.jr.record(idx, key)
		}
	case reassignable(e):
		st.canceled++
		st.cells.get(outcomeCanceled).Inc()
	default:
		st.errs++
		st.cells.get(outcomeError).Inc()
	}
}

// finish ends the stream once every cell is tallied: it stops the
// heartbeat, closes the journal, writes the done record, counts the
// sweep and logs it.
func (st *sweepStream) finish() {
	// Wait for the heartbeat to exit: a tick that wins its select after
	// hbStop closes must not write past the done record, nor after the
	// handler has returned and the ResponseWriter is gone.
	close(st.hbStop)
	<-st.hbDone
	// No writer is left: the caller has tallied every cell.
	complete := st.done == st.total
	if jr := st.jr; jr != nil {
		if complete {
			// Every cell succeeded: the checkpoint has served its purpose.
			// A sweep with errors keeps its journal, so a retry under the
			// same ID replays the successes and re-attempts only the errors.
			jr.remove()
		} else {
			// Incomplete (errors, cancellation, drain): flush once more so
			// the journal durably covers every recorded cell even if an
			// earlier best-effort persist failed mid-sweep.
			jr.persist()
		}
		if jr.shipper != nil {
			// Ship the final journal state to the successors (or, on full
			// completion, tombstone their copies) before answering.
			jr.shipper.Finish(complete)
		}
	}
	elapsed := time.Since(st.start)
	what, sweeps, extra := "sweep", st.s.met.sweepsTotal, ""
	var done any = SweepDone{
		Type: "done", Done: st.done, Errors: st.errs, Canceled: st.canceled,
		Replayed: st.replayed, Total: st.total, ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}
	switch st.kind {
	case kindShard:
		what = "sweep shard"
	case kindCluster:
		what, sweeps, extra = "cluster sweep", st.s.met.clusterSweeps, fmt.Sprintf(" reassigned=%d", st.reassigned)
		done = clusterDone{Type: "done", Done: st.done, Errors: st.errs, Canceled: st.canceled, Total: st.total}
	}
	st.emit(done)
	sweeps.get(outcomeLabel(context.Cause(st.ctx))).Inc()
	st.cancel(nil)
	st.s.unregisterSweep(st.reg)
	st.s.cfg.Log.Printf("%s %d cells: done=%d errors=%d canceled=%d replayed=%d%s elapsed=%s",
		what, st.total, st.done, st.errs, st.canceled, st.replayed, extra, elapsed.Round(time.Millisecond))
}

// streamSweep runs work on the local engine and streams it after
// replays, one record per cell in completion order. It answers
// /v1/sweep and /v1/sweep/shard; shard records carry their store key.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, req *SweepRequest, work []idxCell, replays []SweepCellRecord, jr *sweepJournal, kind streamKind) {
	st := s.startSweep(w, r, kind, len(replays)+len(work), len(replays), jr)
	for _, rec := range replays {
		st.write(rec)
	}
	s.newEngine(req).Stream(st.ctx, work, func(o sweep.Outcome[idxCell, cellValue]) {
		rec := cellRecord(o.Item)
		rec.Cached = o.Result.cached
		rec.Attempts = o.Attempts
		rec.ElapsedMS = float64(o.Elapsed.Microseconds()) / 1000
		rec.Result, rec.Error = cellOutcome(o.Err, o.Result.data)
		if kind == kindShard {
			rec.Key = o.Result.key
		}
		st.tally(o.Item.idx, o.Result.key, rec.Error)
		st.write(rec)
	})
	st.finish()
}

// journalError counts and logs a best-effort journal failure.
func (s *Server) journalError(err error) {
	s.met.journalErrs.Inc()
	s.cfg.Log.Printf("sweep journal: %v", err)
}

// prepareCell validates one cell and builds its run request, its
// compiled image (memoized across cells sharing workload|scale) and its
// content-store key. It is shared by cell execution and by the cluster
// coordinator's planning pass, so both derive identical keys. An invalid
// cell reports errCellInvalid.
func (s *Server) prepareCell(ctx context.Context, c sweep.Cell, req *SweepRequest) (string, *RunRequest, *program.Image, error) {
	spec, err := workload.Get(c.Workload)
	if err != nil {
		return "", nil, nil, fmt.Errorf("%w: %v", errCellInvalid, err)
	}
	if _, err := hostarch.ByName(c.Arch); err != nil {
		return "", nil, nil, fmt.Errorf("%w: %v", errCellInvalid, err)
	}
	if _, err := ib.Parse(c.Mech); err != nil {
		return "", nil, nil, fmt.Errorf("%w: %v", errCellInvalid, err)
	}
	rr := &RunRequest{
		Name:      c.Workload,
		Lang:      LangWorkload,
		Arch:      c.Arch,
		Mech:      c.Mech,
		Seed:      req.Seed,
		Limit:     req.Limit,
		TimeoutMS: req.TimeoutMS, // bounds each cell; not part of the key
	}
	// Scale participates in the key through the image bytes themselves:
	// a different scale assembles to a different image.
	key, img, err := s.compiled(ctx, cellImageKey(c.Workload, c.Scale), rr, func() (*program.Image, error) {
		return spec.Image(c.Scale)
	})
	if err != nil {
		return "", nil, nil, err
	}
	return key, rr, img, nil
}

// runCell executes one cell through the same content-addressed store tier
// as /v1/run: the cell key is derived from the workload's compiled image,
// so a sweep cell and a direct submission of the same program share one
// cache entry, and duplicate cells across concurrent sweeps single-flight.
func (s *Server) runCell(ctx context.Context, c sweep.Cell, req *SweepRequest) (cellValue, error) {
	key, rr, img, err := s.prepareCell(ctx, c, req)
	if err != nil {
		return cellValue{}, err
	}
	data, hit, err := s.runStored(ctx, key, img, rr)
	if err != nil {
		return cellValue{}, err
	}
	return cellValue{key: key, data: data, cached: hit}, nil
}
