package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdt/internal/cluster"
	"sdt/internal/service"
	"sdt/internal/sweep"
	"sdt/internal/workload"
)

const (
	fleetMembers     = 3
	fleetReplication = 2
	// fleetScale is the absolute scale of every fleet cell: short runs,
	// so a fresh sweep measures the write path rather than the simulator.
	fleetScale = 4
)

// fleetRepeat is the fixed matrix repeat sweeps re-read (72 cells).
func fleetRepeat(seed uint64) service.SweepRequest {
	return service.SweepRequest{
		Workloads: workload.SPECNames(),
		Archs:     []string{"x86", "arm"},
		Mechs:     []string{"ibtc:16384", "sieve:16384", "inline:2+ibtc:16384"},
		Scales:    []int{fleetScale},
		Seed:      splitmix64(seed << 20),
	}
}

// fleetFresh is a short checkpointed sweep under a never-seen seed; its
// cells are a subset of the repeat matrix, so their measurements must match.
func fleetFresh(seed uint64, i int) service.SweepRequest {
	return service.SweepRequest{
		ID:        fmt.Sprintf("pb-%d-%d", seed, i),
		Workloads: []string{"crafty", "perlbmk"},
		Archs:     []string{"x86"},
		Mechs:     []string{"ibtc:16384", "sieve:16384"},
		Scales:    []int{fleetScale},
		Seed:      splitmix64(seed<<20 + uint64(i) + 1),
	}
}

// Fleet request types.
const (
	opRepeat = iota // /v1/cluster/sweep over the repeat matrix
	opSweep         // /v1/sweep of the repeat matrix on the coordinator
	opFresh         // checkpointed /v1/cluster/sweep under a fresh seed
	opFirst         // the first repeat stream: the reference the others match
)

// fleetBlock is the client's request mix, shuffled per block by the seed;
// fixed proportions keep every seed's mix the same. Its cluster sweeps
// follow the regeneration split (regenColumns): one fresh sweep (the write
// path) to regenColumns-1 repeat sweeps. Each cluster sweep is matched by
// one /v1/sweep read of the repeat matrix, so the two paths the ROADMAP
// plans to fold together carry equal request counts.
var fleetBlock = [2 * regenColumns]int{opFresh,
	opRepeat, opRepeat, opRepeat, opRepeat, opRepeat, opRepeat,
	opSweep, opSweep, opSweep, opSweep, opSweep, opSweep, opSweep}

// fleetGen yields the client's request types; a pure function of the seed.
type fleetGen struct {
	rng   *rand.Rand
	block [len(fleetBlock)]int
	pos   int
	fresh int
}

func newFleetGen(seed uint64) *fleetGen {
	return &fleetGen{rng: rand.New(rand.NewSource(int64(seed)))}
}

// next returns the request type and its sweep.
func (g *fleetGen) next(seed uint64) (int, service.SweepRequest) {
	if g.pos == 0 {
		g.block = fleetBlock
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	op := g.block[g.pos]
	g.pos = (g.pos + 1) % len(g.block)
	if op == opFresh {
		g.fresh++
		return op, fleetFresh(seed, g.fresh)
	}
	return op, fleetRepeat(seed)
}

// sweepRec is any record of a sweep stream.
type sweepRec struct {
	Type     string             `json:"type"`
	Index    int                `json:"index"`
	Workload string             `json:"workload"`
	Arch     string             `json:"arch"`
	Mech     string             `json:"mech"`
	Result   json.RawMessage    `json:"result"`
	Error    *service.ErrorInfo `json:"error"`
	Errors   int                `json:"errors"`
}

// sweepOut is a finished sweep as the client saw it.
type sweepOut struct {
	canonical []byte           // every record except progress heartbeats
	cells     map[int]sweepRec // cell records by matrix index
	recErrs   int              // cell records carrying an error
	done      *sweepRec
	first     time.Duration // POST to the first cell record
	total     time.Duration
}

func readSweep(ctx context.Context, c *http.Client, url string, req service.SweepRequest) (*sweepOut, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	out := &sweepOut{cells: map[int]sweepRec{}}
	var canon bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec sweepRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("decoding stream record: %w", err)
		}
		switch rec.Type {
		case "progress":
			continue
		case "cell":
			if len(out.cells) == 0 {
				out.first = time.Since(start)
			}
			if rec.Error != nil {
				out.recErrs++
			}
			out.cells[rec.Index] = rec
		case "done":
			r := rec
			out.done = &r
		}
		canon.Write(line)
		canon.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out.total = time.Since(start)
	out.canonical = canon.Bytes()
	return out, nil
}

// measurement is the part of a stored result that is a pure function of
// the cell (not of the seed that keys it).
type measurement struct {
	Native  service.ExecSummary `json:"native"`
	SDT     service.ExecSummary `json:"sdt"`
	Profile json.RawMessage     `json:"profile"`
}

func measurementOf(raw json.RawMessage) (measurement, error) {
	var m measurement
	err := json.Unmarshal(raw, &m)
	return m, err
}

// checkSweep validates a finished sweep: no error records, every cell
// present, a done record with no errors; a repeat stream byte-identical to
// the reference stream for its seed; /v1/sweep cell results byte-identical
// to the cluster's; fresh cells measuring what the reference measured.
func checkSweep(op int, out *sweepOut, want int, ref *sweepOut) error {
	if out.recErrs > 0 {
		return fmt.Errorf("%d error records", out.recErrs)
	}
	if len(out.cells) != want {
		return fmt.Errorf("%d of %d cells", len(out.cells), want)
	}
	for i := 0; i < want; i++ {
		if _, ok := out.cells[i]; !ok {
			return fmt.Errorf("cell %d missing", i)
		}
	}
	if out.done == nil || out.done.Errors > 0 {
		return fmt.Errorf("done record missing or reports errors")
	}
	switch op {
	case opRepeat:
		if !bytes.Equal(out.canonical, ref.canonical) {
			return fmt.Errorf("stream differs from the first stream for this seed")
		}
	case opSweep:
		for i, c := range out.cells {
			if !bytes.Equal(c.Result, ref.cells[i].Result) {
				return fmt.Errorf("cell %d result differs from /v1/cluster/sweep's", i)
			}
		}
	case opFresh:
		byCell := map[string]json.RawMessage{}
		for _, c := range ref.cells {
			byCell[c.Workload+"|"+c.Arch+"|"+c.Mech] = c.Result
		}
		for i, c := range out.cells {
			got, err := measurementOf(c.Result)
			if err != nil {
				return fmt.Errorf("cell %d: %w", i, err)
			}
			want, err := measurementOf(byCell[c.Workload+"|"+c.Arch+"|"+c.Mech])
			if err != nil {
				return fmt.Errorf("cell %d reference: %w", i, err)
			}
			if got.Native != want.Native || got.SDT != want.SDT || !bytes.Equal(got.Profile, want.Profile) {
				return fmt.Errorf("cell %d (%s/%s/%s) measures differently under a fresh seed", i, c.Workload, c.Arch, c.Mech)
			}
		}
	}
	return nil
}

// routeTimer wraps a member's handler and, while on, accumulates busy time
// and calls per route.
type routeTimer struct {
	h     http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	busy  map[string]time.Duration
	calls map[string]int
}

func newRouteTimer(h http.Handler) *routeTimer {
	return &routeTimer{h: h, busy: map[string]time.Duration{}, calls: map[string]int{}}
}

// routeOf names a request's route, with path parameters dropped.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	for _, prefix := range []string{"/v1/peer/result/", "/v1/peer/journal/", "/v1/result/"} {
		if len(p) > len(prefix) && p[:len(prefix)] == prefix {
			p = prefix
		}
	}
	return r.Method + " " + p
}

func (t *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	route := routeOf(r)
	t.mu.Lock()
	t.busy[route] += d
	t.calls[route]++
	t.mu.Unlock()
}

func (t *routeTimer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.busy)
	clear(t.calls)
}

type fleetEnv struct {
	nodes    []*httpNode
	clusters []*cluster.Cluster
	timers   []*routeTimer // empty unless traced
	client   *http.Client
	seed     uint64
	gen      *fleetGen
	ref      *sweepOut // the first repeat stream: the reference for this seed
}

func (e *fleetEnv) close() {
	e.client.CloseIdleConnections()
	for _, n := range e.nodes {
		n.close()
	}
}

// fleetSetup boots the members, waits until each answers /healthz, and
// computes the repeat matrix once (the reference stream) and reads it once
// through /v1/sweep, so later repeats are reads. A traced set-up puts a
// routeTimer (initially off) in front of each member's handler.
func fleetSetup(cfg config, idx int, traced bool) (*fleetEnv, error) {
	lns := make([]net.Listener, fleetMembers)
	urls := make([]string, fleetMembers)
	for i := range lns {
		ln, url, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, url
	}
	e := &fleetEnv{client: newClient(), seed: cfg.seed, gen: newFleetGen(cfg.seed)}
	for i := range lns {
		cl, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls, Replication: fleetReplication, ProbeInterval: -1})
		var srv *service.Server
		if err == nil {
			dir := filepath.Join(cfg.dir, "fleet-"+strconv.Itoa(idx)+"-"+strconv.Itoa(i))
			srv, err = service.New(service.Config{StoreDir: dir, Cluster: cl})
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			e.close()
			return nil, err
		}
		// Members that are not serving yet hold early connections in their
		// listeners' backlogs; nothing is sent before every member serves.
		var h http.Handler = srv.Handler()
		if traced {
			rt := newRouteTimer(h)
			e.timers = append(e.timers, rt)
			h = rt
		}
		e.nodes = append(e.nodes, serveOn(lns[i], urls[i], srv, h))
		e.clusters = append(e.clusters, cl)
	}
	for _, u := range urls {
		resp, err := e.client.Get(u + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s/healthz: status %d", u, resp.StatusCode)
			}
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	rep := fleetRepeat(cfg.seed)
	total := len(rep.Workloads) * len(rep.Archs) * len(rep.Mechs)
	ref, err := readSweep(context.Background(), e.client, urls[0]+"/v1/cluster/sweep", rep)
	if err == nil {
		err = checkSweep(opFirst, ref, total, nil)
	}
	if err == nil {
		e.ref = ref
		var out *sweepOut
		if out, err = readSweep(context.Background(), e.client, urls[0]+"/v1/sweep", rep); err == nil {
			err = checkSweep(opSweep, out, total, ref)
		}
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warming the repeat matrix: %w", err)
	}
	return e, nil
}

// fleetSample is one timed sweep.
type fleetSample struct {
	op           int
	cells        int
	first, total time.Duration
}

// fleetWindow is how many requests a window holds: whole blocks, so every
// window has the same mix.
const fleetWindow = 4 * len(fleetBlock)

func (e *fleetEnv) loop(d time.Duration) (samples []fleetSample, failed int, win *windows) {
	win = newWindows(fleetWindow)
	deadline := time.Now().Add(d)
	coord := e.nodes[0].url
	for time.Now().Before(deadline) {
		op, req := e.gen.next(e.seed)
		path := "/v1/cluster/sweep"
		if op == opSweep {
			path = "/v1/sweep"
		}
		want := len(req.Workloads) * len(req.Archs) * len(req.Mechs)
		out, err := readSweep(context.Background(), e.client, coord+path, req)
		if err == nil {
			err = checkSweep(op, out, want, e.ref)
		}
		if err != nil {
			failed++
			win.add(0, 0, false)
			fmt.Printf("  FAIL %s seed=%d: %v\n", path, req.Seed, err)
			continue
		}
		win.add(float64(len(out.cells)), msOf(out.total), op == opRepeat)
		samples = append(samples, fleetSample{op: op, cells: len(out.cells), first: out.first, total: out.total})
	}
	return samples, failed, win
}

// fleetStats reduces samples: cells streamed, cluster-sweep first-cell
// latencies, and completion latencies (ms) of /v1/sweep reads and of fresh
// sweeps.
func fleetStats(s []fleetSample) (cells int, first, sweeps, fresh []float64) {
	for _, x := range s {
		cells += x.cells
		switch x.op {
		case opSweep:
			sweeps = append(sweeps, msOf(x.total))
			continue
		case opFresh:
			fresh = append(fresh, msOf(x.total))
		}
		first = append(first, msOf(x.first))
	}
	return cells, first, sweeps, fresh
}

func fleetRun(cfg config) (*outcome, error) {
	env, setups, err := setupMany(func(i int) (*fleetEnv, error) { return fleetSetup(cfg, i, false) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	samples, failed, win := env.loop(time.Duration(cfg.seconds * float64(time.Second)))
	if len(samples) == 0 {
		return nil, errNoSamples
	}
	_, first, sweeps, fresh := fleetStats(samples)
	o := &outcome{attempted: len(samples) + failed, failed: failed}
	if err := o.common(setups, win, "repeat cluster sweeps"); err != nil {
		return nil, err
	}
	o.info = append(o.info,
		metric{Name: "first_cell_ms", Value: median(first), Unit: "ms", Samples: len(first), Note: "median over cluster sweeps"},
		metric{Name: "sweep_ms", Value: median(sweeps), Unit: "ms", Samples: len(sweeps), Note: "median over /v1/sweep"},
		metric{Name: "write_ms", Value: median(fresh), Unit: "ms", Samples: len(fresh), Note: "median over fresh checkpointed sweeps"})
	return o, nil
}

// fleetCounters sums the fleet-wide counters the traced phase reports.
type fleetCounters struct {
	runs, peerHits, replSent, replDropped uint64
}

// counters reads every member's executed runs from the sdtd_runs_total
// family of its /metrics exposition, and its store and replication stats.
func (e *fleetEnv) counters() (fleetCounters, error) {
	var c fleetCounters
	for i, n := range e.nodes {
		resp, err := e.client.Get(n.url + "/metrics")
		if err != nil {
			return c, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "sdtd_runs_total{") {
				continue
			}
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				resp.Body.Close()
				return c, fmt.Errorf("parsing %q: %w", line, err)
			}
			c.runs += v
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return c, err
		}
		c.peerHits += n.srv.Store().Stats().PeerHits
		rs := e.clusters[i].ReplStats()
		c.replSent += rs.Sent
		c.replDropped += rs.Dropped
	}
	return c, nil
}

// fleetRoutes names the member routes the traced phase reports.
var fleetRoutes = []struct{ metric, route, unit string }{
	{"service.cluster_sweep_ms", "POST /v1/cluster/sweep", "ms"},
	{"service.sweep_ms", "POST /v1/sweep", "ms"},
	{"service.shard_ms", "POST /v1/sweep/shard", "ms"},
	{"service.peer_fetch_us", "GET /v1/peer/result/", "us"},
	{"service.replica_put_us", "PUT /v1/peer/result/", "us"},
	{"service.journal_put_us", "PUT /v1/peer/journal/", "us"},
}

func fleetTraced(cfg config, o *outcome) error {
	env, err := fleetSetup(cfg, 0, true)
	if err != nil {
		return err
	}
	defer env.close()
	d := phaseDuration(cfg)
	start := time.Now()
	base, f1, _ := env.loop(d)
	baseT := time.Since(start)

	c0, err := env.counters()
	if err != nil {
		return err
	}
	for _, t := range env.timers {
		t.reset()
		t.on.Store(true)
	}
	start = time.Now()
	traced, f2, _ := env.loop(d)
	tracedT := time.Since(start)
	for _, t := range env.timers {
		t.on.Store(false)
	}
	c1, err := env.counters()
	if err != nil {
		return err
	}
	o.attempted += len(base) + len(traced) + f1 + f2
	o.failed += f1 + f2
	if len(base) == 0 || len(traced) == 0 {
		return errNoSamples
	}
	baseCells, first, _, fresh := fleetStats(base)
	tracedCells, _, _, _ := fleetStats(traced)

	busy := map[string]time.Duration{}
	calls := map[string]int{}
	for _, t := range env.timers {
		t.mu.Lock()
		for r, b := range t.busy {
			busy[r] += b
			calls[r] += t.calls[r]
		}
		t.mu.Unlock()
	}
	ms := []metric{
		{Name: "fleet.first_cell_ms", Value: median(first), Unit: "ms", Samples: len(first), Note: "median, untraced"},
		{Name: "fleet.write_ms", Value: median(fresh), Unit: "ms", Samples: len(fresh), Note: "median fresh sweep, untraced"},
		{Name: "fleet.untraced_per_s", Value: float64(baseCells) / baseT.Seconds(), Unit: "1/s", Note: "cells; base of fleet.trace_ratio"},
		{Name: "fleet.trace_ratio", Value: throughputRatio(tracedCells, tracedT, baseCells, baseT), Unit: "ratio", Note: "traced/untraced cells per second"},
	}
	for _, r := range fleetRoutes {
		per := 0.0
		if n := calls[r.route]; n > 0 {
			per = float64(busy[r.route].Nanoseconds()) / float64(n) / 1e3
			if r.unit == "ms" {
				per /= 1e3
			}
		}
		ms = append(ms,
			metric{Name: r.metric, Value: per, Unit: r.unit, Samples: calls[r.route], Note: "mean busy, all members"},
			metric{Name: strings.TrimSuffix(strings.TrimSuffix(r.metric, "_ms"), "_us") + "_calls", Value: float64(calls[r.route]), Unit: "count"})
	}

	// Cluster.Owner over the repeat matrix's store keys.
	var keys []string
	for _, c := range env.ref.cells {
		var k struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(c.Result, &k); err != nil {
			return err
		}
		keys = append(keys, k.Key)
	}
	const ownerReps = 2000
	t := time.Now()
	for r := 0; r < ownerReps; r++ {
		for _, k := range keys {
			env.clusters[0].Owner(k)
		}
	}
	ownerNs := float64(time.Since(t).Nanoseconds()) / float64(ownerReps*len(keys))

	// The sweep engine alone, over no-op items sized to the repeat matrix.
	eng := &sweep.Engine[int, int]{Exec: func(_ context.Context, i int) (int, error) { return i, nil }}
	items := make([]int, len(keys))
	const engReps = 200
	t = time.Now()
	for r := 0; r < engReps; r++ {
		if _, err := eng.Collect(context.Background(), items); err != nil {
			return err
		}
	}
	engUs := usOf(time.Since(t)) / float64(engReps*len(items))

	ms = append(ms,
		metric{Name: "cluster.owner_ns", Value: ownerNs, Unit: "ns", Samples: ownerReps * len(keys), Note: "mean"},
		metric{Name: "cluster.repl_sent", Value: float64(c1.replSent - c0.replSent), Unit: "count", Note: "traced half"},
		metric{Name: "cluster.repl_dropped", Value: float64(c1.replDropped - c0.replDropped), Unit: "count", Note: "traced half"},
		metric{Name: "store.peer_hits", Value: float64(c1.peerHits - c0.peerHits), Unit: "count", Note: "traced half"},
		metric{Name: "fleet.executed_share", Value: float64(c1.runs-c0.runs) / float64(tracedCells), Unit: "ratio", Note: "runs executed / cells streamed"},
		metric{Name: "sweep.engine_us_per_cell", Value: engUs, Unit: "us", Samples: engReps * len(items), Note: "mean, no-op cells"},
	)
	return o.addAll(ms...)
}
