package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdt/internal/cluster"
	"sdt/internal/core"
	"sdt/internal/faultinject"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/program"
	"sdt/internal/store"
)

// siteJob is the fault-injection site at the worker job boundary,
// consulted once per job after panic isolation is armed — so an injected
// panic exercises the same recovery path a real one would.
const siteJob = "service.job"

// errJobPanic marks a job that panicked; the worker recovered it and the
// pool stayed up.
var errJobPanic = errors.New("service: job panicked")

// errDivergence marks an SDT run whose architectural result differed from
// the native baseline — a translator bug, never a client error.
var errDivergence = errors.New("service: translated execution diverged from native")

func describePanic(r any) string { return fmt.Sprintf("panic: %v", r) }

// Config parameterizes a Server.
type Config struct {
	// Workers is the execution pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (0 = 64).
	// Submissions beyond it receive 429 + Retry-After.
	QueueDepth int
	// StoreDir is the on-disk result store root ("" = memory only).
	StoreDir string
	// MemEntries is the in-memory result LRU capacity (0 = 1024, < 0 =
	// unbounded).
	MemEntries int
	// DefaultTimeout bounds a run when the request carries no timeout
	// (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any request-supplied timeout (0 = 2m).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds the request body (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxSweepCells bounds how many cells one POST /v1/sweep may expand
	// to (0 = 2048).
	MaxSweepCells int
	// SweepHeartbeat is the interval between progress records on an idle
	// sweep stream (0 = 5s).
	SweepHeartbeat time.Duration
	// StoreBreakerThreshold is how many consecutive disk failures trip
	// the store's circuit breaker (0 = store default, < 0 = disabled).
	StoreBreakerThreshold int
	// StoreBreakerCooldown is the breaker's base open -> half-open wait
	// (0 = store default).
	StoreBreakerCooldown time.Duration
	// Cluster is the fleet view when this node is part of one (nil =
	// single-node). The server takes lifecycle ownership: New arms it as
	// the store's remote tier and starts its health prober, Close stops
	// it. It is caller-constructed because membership (the node's own
	// URL) is only known once the listener is bound.
	Cluster *cluster.Cluster
	// AdminToken guards the membership endpoints (POST
	// /v1/cluster/join, /leave, /membership): requests must carry it in
	// X-Admin-Token or as an Authorization bearer token. Empty disables
	// those endpoints entirely (403) — membership then only changes by
	// restart, as before. Every fleet member must share one token,
	// since membership broadcasts authenticate with it.
	AdminToken string
	// Faults arms deterministic fault injection across the store, the
	// sweep engine, the job boundary, sweep-journal persistence and the
	// cluster's peer fetch/dispatch seams (nil = no injection; the hot
	// paths pay a single nil check).
	Faults *faultinject.Injector
	// Log receives request/lifecycle lines; nil discards them.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MemEntries == 0 {
		c.MemEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 2048
	}
	if c.SweepHeartbeat <= 0 {
		c.SweepHeartbeat = 5 * time.Second
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	return c
}

// runLimit bounds any single simulated execution when the request does not
// set one (matches the bench harness budget).
const runLimit = 2_000_000_000

// Server is the sdtd service: HTTP handlers over a worker pool and the
// content-addressed result store.
type Server struct {
	cfg      Config
	store    *store.ByteStore
	images   *store.Group[*compiledImage] // compiled-image memo of /v1/run programs and sweep cells
	pool     *pool
	met      *metrics
	mux      *http.ServeMux
	draining atomic.Bool
	inflight atomic.Int64 // jobs currently executing on a worker

	// Active sweep streams, so StartDrain can cancel them (flushing
	// their checkpoint journals) instead of waiting a whole matrix out.
	sweepMu  sync.Mutex
	sweeps   map[int]context.CancelCauseFunc
	sweepSeq int
}

// New builds a Server (opening the on-disk store, starting the pool).
// Callers must Close it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	opts := store.Options{
		Dir:              cfg.StoreDir,
		MemEntries:       cfg.MemEntries,
		BreakerThreshold: cfg.StoreBreakerThreshold,
		BreakerCooldown:  cfg.StoreBreakerCooldown,
	}
	if cfg.Faults != nil {
		// Assign only when armed: a typed-nil *Injector in the interface
		// field would defeat the store's nil fast path.
		opts.Faults = cfg.Faults
	}
	st, err := store.OpenByteStoreWith(opts)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		store:  st,
		images: newImageMemo(),
		pool:   newPool(cfg.Workers, cfg.QueueDepth),
		met:    newMetrics(),
		mux:    http.NewServeMux(),
		sweeps: make(map[int]context.CancelCauseFunc),
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/cluster/sweep", s.handleClusterSweep)
	s.mux.HandleFunc("POST /v1/sweep/shard", s.handleSweepShard)
	s.mux.HandleFunc("GET /v1/result/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/peer/result/{key}", s.handlePeerResult)
	s.mux.HandleFunc("PUT /v1/peer/result/{key}", s.handlePeerResultPut)
	s.mux.HandleFunc("GET /v1/peer/journal/{id}", s.handlePeerJournalGet)
	s.mux.HandleFunc("PUT /v1/peer/journal/{id}", s.handlePeerJournalPut)
	s.mux.HandleFunc("DELETE /v1/peer/journal/{id}", s.handlePeerJournalDelete)
	s.mux.HandleFunc("POST /v1/cluster/join", s.handleMemberChange)
	s.mux.HandleFunc("POST /v1/cluster/leave", s.handleMemberChange)
	s.mux.HandleFunc("POST "+cluster.MembershipPath, s.handleMembership)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Cluster != nil {
		// The cluster becomes the store's remote tier (mem -> disk ->
		// peer) and its write fan-out; the store becomes the cluster's
		// local re-read source for anti-entropy. Then probing and the
		// replication workers start. Single-node servers never pay more
		// than a nil check for any of this.
		st.SetRemote(cfg.Cluster)
		st.SetReplicator(cfg.Cluster)
		cfg.Cluster.SetLocal(st)
		cfg.Cluster.Start()
	}
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the result store (tests and diagnostics).
func (s *Server) Store() *store.ByteStore { return s.store }

// errDraining is the cancellation cause handed to active sweep streams
// when the server starts draining.
var errDraining = errors.New("service: server draining")

// StartDrain flips the server into drain mode: /healthz answers 503 so
// load balancers stop routing here, and new submissions are rejected.
// In-flight and queued jobs keep running, but active sweep streams are
// cancelled — each one emits cancellation records for its unfinished
// cells, flushes its checkpoint journal a final time, and ends its
// stream, so a SIGTERM mid-sweep leaves a resumable journal behind
// instead of an abandoned matrix.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	for _, cancel := range s.sweeps {
		cancel(errDraining)
	}
}

// registerSweep tracks an active sweep stream's cancel function for
// StartDrain; the returned id unregisters it. A sweep that starts after
// drain began is cancelled immediately (the handler has already
// rejected new sweeps by then; this closes the race).
func (s *Server) registerSweep(cancel context.CancelCauseFunc) int {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	s.sweepSeq++
	s.sweeps[s.sweepSeq] = cancel
	if s.draining.Load() {
		cancel(errDraining)
	}
	return s.sweepSeq
}

func (s *Server) unregisterSweep(id int) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	delete(s.sweeps, id)
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the pool: admission stops, queued and running jobs finish,
// workers exit. Call after the HTTP server has stopped accepting requests.
func (s *Server) Close() {
	s.StartDrain()
	s.pool.close()
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Close()
	}
}

// ---- HTTP handlers ----

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.draining.Load() {
		s.setRetryAfter(w)
		s.writeError(w, r, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	req, bad := s.decodeRun(w, r)
	if bad != nil {
		s.writeError(w, r, http.StatusBadRequest, bad.Code, bad.Message)
		return
	}
	// Only this request's own build sets compileErr: a waiter on another
	// request's build that fails builds again itself.
	var compileErr error
	key, img, err := s.compiled(r.Context(), runImageKey(&req), &req, func() (*program.Image, error) {
		img, err := req.compile()
		compileErr = err
		return img, err
	})
	if compileErr != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidProgram, compileErr.Error())
		return
	}
	var data []byte
	var hit bool
	if err == nil {
		data, hit, err = s.runStored(r.Context(), key, img, &req)
	}
	if err != nil {
		status, code := mapError(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
		}
		s.writeError(w, r, status, code, err.Error())
		return
	}
	s.writeRun(w, r, hit, float64(time.Since(start).Microseconds())/1000, data)
	s.cfg.Log.Printf("run %s %s/%s key=%s cached=%v elapsed=%s",
		req.Name, req.Arch, req.Mech, key[:12], hit, time.Since(start).Round(time.Microsecond))
}

// decodeRun reads a /v1/run body, applies its defaults and checks its
// arch and mechanism names. A refusal carries the 400's error code.
func (s *Server) decodeRun(w http.ResponseWriter, r *http.Request) (RunRequest, *ErrorInfo) {
	var req RunRequest
	rb, err := s.readBody(w, r)
	if err == nil {
		if !scanRun(rb.buf.Bytes(), &req) {
			req = RunRequest{}
			err = decodeJSON(rb.buf.Bytes(), &req)
		}
		rb.release()
	}
	if err != nil {
		return req, &ErrorInfo{Code: CodeInvalidRequest, Message: err.Error()}
	}
	req.withDefaults()
	if _, err := hostarch.ByName(req.Arch); err != nil {
		return req, &ErrorInfo{Code: CodeInvalidArgument, Message: err.Error()}
	}
	if _, err := ib.Parse(req.Mech); err != nil {
		return req, &ErrorInfo{Code: CodeInvalidArgument, Message: err.Error()}
	}
	return req, nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := s.store.Get(key)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "not_found", "no result stored under "+key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.countRequest(r, http.StatusOK)
	w.Write(data)
}

// health snapshots the server's health report. Degraded (store running
// memory-only behind a tripped breaker) is still a 200: the daemon
// serves correct results, just without persistence — load balancers
// should keep routing, operators should look at the body.
func (s *Server) health() Health {
	st := s.store.Stats()
	h := Health{
		Status: HealthOK,
		Store: StoreHealth{
			Persistent:  s.store.Persistent(),
			Degraded:    st.Degraded,
			Corruptions: st.Corruptions,
			Quarantined: st.Quarantined,
			DiskErrors:  st.DiskErrors,
		},
	}
	if st.Degraded {
		h.Status = HealthDegraded
	}
	if c := s.cfg.Cluster; c != nil {
		h.Cluster = c.Health()
		h.ClusterEpoch = c.CurrentView().Epoch()
		h.Replication = c.ReplicationFactor()
		rs := c.ReplStats()
		h.ReplStats = &rs
		// A down or breaker-guarded peer degrades this node's report:
		// results owned elsewhere may have to be recomputed locally.
		for _, p := range h.Cluster {
			if !p.Self && (!p.Up || p.Degraded) {
				h.Status = HealthDegraded
			}
		}
	}
	if s.draining.Load() {
		h.Status = HealthDraining
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	status := http.StatusOK
	if h.Status == HealthDraining {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, r, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.countRequest(r, http.StatusOK)
	s.met.render(w, func(w io.Writer) {
		st := s.store.Stats()
		fmt.Fprint(w, "# TYPE sdtd_cache_hits_total counter\n")
		fmt.Fprintf(w, "sdtd_cache_hits_total{layer=\"mem\"} %d\n", st.MemHits)
		fmt.Fprintf(w, "sdtd_cache_hits_total{layer=\"disk\"} %d\n", st.DiskHits)
		fmt.Fprintf(w, "sdtd_cache_hits_total{layer=\"peer\"} %d\n", st.PeerHits)
		fmt.Fprintf(w, "# TYPE sdtd_cache_misses_total counter\nsdtd_cache_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "# TYPE sdtd_cache_disk_errors_total counter\nsdtd_cache_disk_errors_total %d\n", st.DiskErrors)
		fmt.Fprintf(w, "# TYPE sdtd_cache_peer_errors_total counter\nsdtd_cache_peer_errors_total %d\n", st.PeerErrors)
		fmt.Fprintf(w, "# TYPE sdtd_cache_mem_entries gauge\nsdtd_cache_mem_entries %d\n", st.MemEntries)
		fmt.Fprintf(w, "# TYPE sdtd_cache_evictions_total counter\nsdtd_cache_evictions_total %d\n", st.Evictions)
		hits, misses, entries, bytes := s.imageMemoStats()
		fmt.Fprintf(w, "# TYPE sdtd_image_memo_hits_total counter\nsdtd_image_memo_hits_total %d\n", hits)
		fmt.Fprintf(w, "# TYPE sdtd_image_memo_misses_total counter\nsdtd_image_memo_misses_total %d\n", misses)
		fmt.Fprintf(w, "# TYPE sdtd_image_memo_entries gauge\nsdtd_image_memo_entries %d\n", entries)
		fmt.Fprintf(w, "# TYPE sdtd_image_memo_bytes gauge\nsdtd_image_memo_bytes %d\n", bytes)
		fmt.Fprintf(w, "# TYPE sdtd_queue_depth gauge\nsdtd_queue_depth %d\n", s.pool.depth())
		fmt.Fprintf(w, "# TYPE sdtd_inflight_runs gauge\nsdtd_inflight_runs %d\n", s.inflight.Load())
		draining := 0
		if s.draining.Load() {
			draining = 1
		}
		fmt.Fprintf(w, "# TYPE sdtd_draining gauge\nsdtd_draining %d\n", draining)
		fmt.Fprintf(w, "# TYPE sdtd_store_corruption_total counter\nsdtd_store_corruption_total %d\n", st.Corruptions)
		fmt.Fprintf(w, "# TYPE sdtd_store_quarantined_total counter\nsdtd_store_quarantined_total %d\n", st.Quarantined)
		fmt.Fprintf(w, "# TYPE sdtd_store_breaker_trips_total counter\nsdtd_store_breaker_trips_total %d\n", st.BreakerTrips)
		degraded := 0
		if st.Degraded {
			degraded = 1
		}
		fmt.Fprintf(w, "# TYPE sdtd_store_degraded gauge\nsdtd_store_degraded %d\n", degraded)
		if c := s.cfg.Cluster; c != nil {
			peers := c.Health()
			fmt.Fprint(w, "# TYPE sdtd_peer_up gauge\n")
			for _, p := range peers {
				up := 0
				if p.Up {
					up = 1
				}
				fmt.Fprintf(w, "sdtd_peer_up{peer=%q} %d\n", p.Name, up)
			}
			fmt.Fprint(w, "# TYPE sdtd_peer_fetches_total counter\n")
			for _, p := range peers {
				if p.Self {
					continue
				}
				fmt.Fprintf(w, "sdtd_peer_fetches_total{peer=%q,outcome=\"hit\"} %d\n", p.Name, p.Hits)
				fmt.Fprintf(w, "sdtd_peer_fetches_total{peer=%q,outcome=\"miss\"} %d\n", p.Name, p.Misses)
				fmt.Fprintf(w, "sdtd_peer_fetches_total{peer=%q,outcome=\"error\"} %d\n", p.Name, p.Errors)
				fmt.Fprintf(w, "sdtd_peer_fetches_total{peer=%q,outcome=\"skipped\"} %d\n", p.Name, p.Skipped)
			}
			fmt.Fprint(w, "# TYPE sdtd_peer_breaker_trips_total counter\n")
			for _, p := range peers {
				if !p.Self {
					fmt.Fprintf(w, "sdtd_peer_breaker_trips_total{peer=%q} %d\n", p.Name, p.BreakerTrips)
				}
			}
			fmt.Fprintf(w, "# TYPE sdtd_cluster_ring_epoch gauge\nsdtd_cluster_ring_epoch %d\n", c.CurrentView().Epoch())
			fmt.Fprintf(w, "# TYPE sdtd_replication_factor gauge\nsdtd_replication_factor %d\n", c.ReplicationFactor())
			rs := c.ReplStats()
			fmt.Fprintf(w, "# TYPE sdtd_replication_sent_total counter\nsdtd_replication_sent_total %d\n", rs.Sent)
			fmt.Fprintf(w, "# TYPE sdtd_replication_received_total counter\nsdtd_replication_received_total %d\n", rs.Received)
			fmt.Fprintf(w, "# TYPE sdtd_replication_failed_total counter\nsdtd_replication_failed_total %d\n", rs.Failed)
			fmt.Fprintf(w, "# TYPE sdtd_replication_dropped_total counter\nsdtd_replication_dropped_total %d\n", rs.Dropped)
			fmt.Fprintf(w, "# TYPE sdtd_replication_requeued_total counter\nsdtd_replication_requeued_total %d\n", rs.Requeued)
			fmt.Fprintf(w, "# TYPE sdtd_replication_migrated_keys_total counter\nsdtd_replication_migrated_keys_total %d\n", rs.Migrated)
			fmt.Fprintf(w, "# TYPE sdtd_replication_pending gauge\nsdtd_replication_pending %d\n", rs.Pending)
			fmt.Fprintf(w, "# TYPE sdtd_replication_queue_depth gauge\nsdtd_replication_queue_depth %d\n", rs.Queue)
		}
		if s.cfg.Faults != nil {
			fmt.Fprint(w, "# TYPE sdtd_faults_injected_total counter\n")
			stats := s.cfg.Faults.Stats()
			sites := make([]string, 0, len(stats))
			for site := range stats {
				sites = append(sites, site)
			}
			sort.Strings(sites)
			for _, site := range sites {
				fmt.Fprintf(w, "sdtd_faults_injected_total{site=%q} %d\n", site, stats[site].Fired)
			}
		}
	})
}

// ---- execution ----

// runStored serves key from the store and, on a miss, executes img
// under req within the request's timeout (TimeoutMS, else the default,
// capped at MaxTimeout). /v1/run and every sweep cell share it, so they
// share one cache entry per key and single-flight duplicates.
func (s *Server) runStored(ctx context.Context, key string, img *program.Image, req *RunRequest) ([]byte, bool, error) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, min(timeout, s.cfg.MaxTimeout))
	defer cancel()
	return s.store.Do(ctx, key, func() ([]byte, error) {
		return s.execute(ctx, key, img, req)
	})
}

// execute submits the run to the pool and waits for it or for ctx. It is
// always called inside the store's single-flight, so at most one execution
// per key is in the pool at a time.
func (s *Server) execute(ctx context.Context, key string, img *program.Image, req *RunRequest) ([]byte, error) {
	j := newJob(ctx, func(ctx context.Context) ([]byte, error) {
		return s.runJob(ctx, key, img, req)
	})
	if err := s.pool.submit(j); err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j.data, j.err
	case <-ctx.Done():
		// The worker notices the same ctx and stops shortly; respond now
		// so the client sees its deadline, not our check granularity.
		return nil, fmt.Errorf("service: request abandoned: %w", context.Cause(ctx))
	}
}

// runJob performs the measurement: native baseline, SDT run, equivalence
// check, profile extraction. It owns panic isolation and the per-run
// metrics. The returned bytes are the marshalled RunResult (the store's
// value), so a given key always maps to one byte sequence.
func (s *Server) runJob(ctx context.Context, key string, img *program.Image, req *RunRequest) (data []byte, err error) {
	s.inflight.Add(1)
	start := time.Now()
	defer func() {
		s.inflight.Add(-1)
		if r := recover(); r != nil {
			s.met.panics.Inc()
			err = errors.Join(errJobPanic, errors.New(describePanic(r)))
		}
		s.met.runsTotal.get(outcomeLabel(err)).Inc()
		s.met.runLatency.Observe(time.Since(start).Seconds())
	}()

	if inj := s.cfg.Faults; inj != nil {
		// Inside the recover scope: an injected panic is recovered and
		// counted like a real one; an injected error maps through the
		// normal outcome/response path.
		if ferr := inj.Fail(siteJob); ferr != nil {
			return nil, fmt.Errorf("service: worker fault: %w", ferr)
		}
	}

	model, err := hostarch.ByName(req.Arch)
	if err != nil {
		return nil, err
	}
	limit := req.Limit
	if limit == 0 {
		limit = runLimit
	}
	native, err := machine.New(img, model)
	if err != nil {
		return nil, err
	}
	if err := native.RunContext(ctx, limit); err != nil {
		return nil, fmt.Errorf("native run: %w", err)
	}
	cfg, err := ib.Parse(req.Mech)
	if err != nil {
		return nil, err
	}
	vm, err := core.New(img, cfg.Options(model))
	if err != nil {
		return nil, err
	}
	if err := vm.RunContext(ctx, limit); err != nil {
		return nil, fmt.Errorf("sdt run: %w", err)
	}

	nr, sr := native.Result(), vm.Result()
	native.Recycle()
	if nr.Checksum != sr.Checksum || nr.Instret != sr.Instret {
		vm.Recycle()
		return nil, errDivergence
	}
	res := RunResult{
		Key:      key,
		Name:     req.Name,
		Lang:     req.Lang,
		Arch:     req.Arch,
		Mech:     req.Mech,
		Seed:     req.Seed,
		Native:   summarize(nr),
		SDT:      summarize(sr),
		Slowdown: float64(sr.Cycles) / float64(nr.Cycles),
		Profile:  summarizeProfile(&vm.Prof),
	}
	s.met.fragments.Add(vm.Prof.Translations)
	s.met.transInsts.Add(vm.Prof.TransInsts)
	for kind := isa.IBKind(0); kind < isa.NumIBKinds; kind++ {
		if n := vm.Prof.IBExec[kind]; n > 0 {
			s.met.ibLookups.get(fmt.Sprintf("mech=%q,kind=%q", req.Mech, kind)).Add(n)
		}
	}
	vm.Recycle()
	return json.Marshal(res)
}

func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, errJobPanic):
		return outcomePanic
	case errors.Is(err, context.DeadlineExceeded):
		return outcomeDeadline
	case errors.Is(err, context.Canceled):
		return outcomeCanceled
	default:
		return outcomeError
	}
}

// mapError translates an execution error into (HTTP status, error code).
func mapError(err error) (int, string) {
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests, CodeQueueFull
	case errors.Is(err, errPoolClosed), errors.Is(err, errDraining):
		// errDraining reaches here as the cancellation cause of a sweep
		// cut short by StartDrain; it must map to a drain code so cluster
		// coordinators know the cell is reassignable, not failed.
		return http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		// Nginx's "client closed request"; the client is gone, the status
		// only lands in logs and metrics.
		return 499, CodeCanceled
	case errors.Is(err, errJobPanic):
		return http.StatusInternalServerError, CodeInternal
	case errors.Is(err, errDivergence):
		return http.StatusInternalServerError, CodeDivergence
	case errors.Is(err, machine.ErrLimit), errors.Is(err, core.ErrLimit):
		return http.StatusUnprocessableEntity, CodeLimitExceeded
	default:
		return http.StatusUnprocessableEntity, CodeRunFailed
	}
}

// ---- response plumbing ----

// retryAfterSeconds estimates when a rejected client should come back:
// the current backlog (queued + executing + this request) divided across
// the workers, paced at the observed median run latency, clamped to
// [1, 30] seconds. Before any run has been measured the median falls back
// to a quarter second, which keeps the floor at 1.
func (s *Server) retryAfterSeconds() int {
	med := s.met.runLatency.quantile(0.5)
	if med <= 0 {
		med = 0.25
	}
	backlog := float64(s.pool.depth() + int(s.inflight.Load()) + 1)
	secs := int(math.Ceil(backlog * med / float64(s.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	s.countRequest(r, status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	s.countRequest(r, status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: ErrorInfo{Code: code, Message: msg}})
	s.cfg.Log.Printf("error %d %s: %s", status, code, msg)
}

// endpoint collapses parameterized paths so metric label cardinality stays
// bounded by the route table, not by client input.
func endpoint(r *http.Request) string {
	if strings.HasPrefix(r.URL.Path, "/v1/peer/result/") {
		return "/v1/peer/result"
	}
	if strings.HasPrefix(r.URL.Path, "/v1/peer/journal/") {
		return "/v1/peer/journal"
	}
	if strings.HasPrefix(r.URL.Path, "/v1/result/") {
		return "/v1/result"
	}
	return r.URL.Path
}

func (s *Server) countRequest(r *http.Request, status int) {
	s.met.requestsTotal.get(fmt.Sprintf("path=%q,code=\"%d\"", endpoint(r), status)).Inc()
}
