package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdt/internal/asm"
	"sdt/internal/hostarch"
	"sdt/internal/machine"
	"sdt/internal/minic"
	"sdt/internal/program"
	"sdt/internal/service"
	"sdt/internal/store"
	"sdt/internal/workload"
)

// serveScaleDiv shrinks each SPEC-shaped workload for /v1/run: a miss then
// executes ~50-350k guest instructions per run, a short request.
const serveScaleDiv = 50

// regenColumns is the number of mechanism columns of the E8/E9/E16/E18
// matrix (simMechs). A client regenerating that matrix after one mechanism
// changes re-submits every column, and only the changed one executes: one
// miss for every regenColumns-1 hits. The request mixes of serve and fleet
// follow that split.
const regenColumns = 7

// serveMissEvery makes one request in this many carry a fresh seed.
const serveMissEvery = regenColumns

var (
	serveArchs = []string{"x86", "arm"}
	serveMechs = []string{"ibtc:16384", "sieve:16384"}
)

// serveProg is one program clients submit, with the checksum and retired
// instruction count a direct native run of its image produced.
type serveProg struct {
	name, lang, source string
	checksum           uint64
	instret            uint64
}

func compileProg(p *serveProg) (*program.Image, error) {
	if p.lang == service.LangMiniC {
		return minic.CompileToImage(p.name, p.source)
	}
	return asm.Assemble(p.name, p.source)
}

// servePrograms returns the 12 SPEC-shaped sources at a short scale plus
// the MiniC stack-VM program, each checked against a direct native run.
func servePrograms() ([]serveProg, error) {
	var progs []serveProg
	for _, name := range workload.SPECNames() {
		spec, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		progs = append(progs, serveProg{name: name, lang: service.LangAsm, source: spec.Generate(spec.ScaledDown(serveScaleDiv))})
	}
	mc, err := workload.Get("micro.mcvm")
	if err != nil {
		return nil, err
	}
	progs = append(progs, serveProg{name: "mcvm", lang: service.LangMiniC, source: workload.MCVMSource(mc.ScaledDown(serveScaleDiv))})
	for i := range progs {
		img, err := compileProg(&progs[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", progs[i].name, err)
		}
		m, err := machine.RunImage(img, hostarch.X86(), 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", progs[i].name, err)
		}
		progs[i].checksum, progs[i].instret = m.Result().Checksum, m.Result().Instret
		m.Recycle()
	}
	return progs, nil
}

// serveReq is one /v1/run submission of the closed-loop client.
type serveReq struct {
	prog       int
	arch, mech string
	seed       uint64
	miss       bool // a fresh seed: the server must execute it
}

// serveGen yields the request sequence; it is a pure function of the seed.
// The mix is stratified so that every seed sends the same proportions:
// each block of serveMissEvery requests holds exactly one miss, at a
// seeded position, and hits and misses each walk their candidate lists in
// seeded permutations, so every stored program is re-submitted equally
// often and every program misses equally often.
type serveGen struct {
	rng            *rand.Rand
	hits, misses   []serveReq // candidates, consumed in permuted rounds
	hi, mi         int
	block, missAt  int
	hitSeed, fresh uint64
	i              uint64
}

func newServeGen(seed uint64, nprogs int) *serveGen {
	g := &serveGen{rng: rand.New(rand.NewSource(int64(seed))), hitSeed: splitmix64(seed << 20), fresh: seed << 20}
	g.hits = g.hitSetFor(nprogs)
	g.misses = append([]serveReq(nil), g.hits...)
	for i := range g.misses {
		g.misses[i].miss = true
	}
	return g
}

func (g *serveGen) hitSetFor(nprogs int) []serveReq {
	var reqs []serveReq
	for p := 0; p < nprogs; p++ {
		for _, a := range serveArchs {
			for _, m := range serveMechs {
				reqs = append(reqs, serveReq{prog: p, arch: a, mech: m, seed: g.hitSeed})
			}
		}
	}
	return reqs
}

// hitSet lists the stored programs hits re-submit.
func (g *serveGen) hitSet() []serveReq { return append([]serveReq(nil), g.hits...) }

// draw returns the next candidate of a list, reshuffling it per round.
func (g *serveGen) draw(list []serveReq, i *int) serveReq {
	if *i%len(list) == 0 {
		g.rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
	}
	r := list[*i%len(list)]
	*i++
	return r
}

func (g *serveGen) next() serveReq {
	if g.block == 0 {
		g.missAt = g.rng.Intn(serveMissEvery)
	}
	miss := g.block == g.missAt
	g.block = (g.block + 1) % serveMissEvery
	if !miss {
		return g.draw(g.hits, &g.hi)
	}
	r := g.draw(g.misses, &g.mi)
	g.i++
	r.seed = splitmix64(g.fresh + g.i)
	return r
}

// runReply is the part of a /v1/run reply the client checks.
type runReply struct {
	Cached bool `json:"cached"`
	Result struct {
		Key    string              `json:"key"`
		Native service.ExecSummary `json:"native"`
		SDT    service.ExecSummary `json:"sdt"`
	} `json:"result"`
}

// checkRun validates one /v1/run reply: status 200, a body that decodes,
// the cached flag the request class expects, and native and SDT checksums
// and instruction counts equal to the direct run's.
func checkRun(status int, body []byte, wantCached bool, p *serveProg) (*runReply, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var rep runReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if rep.Cached != wantCached {
		return &rep, fmt.Errorf("cached=%v, want %v", rep.Cached, wantCached)
	}
	want := fmt.Sprintf("0x%016x", p.checksum)
	for _, e := range []service.ExecSummary{rep.Result.Native, rep.Result.SDT} {
		if e.Checksum != want || e.Instret != p.instret {
			return &rep, fmt.Errorf("checksum/instret %s/%d, direct run %s/%d", e.Checksum, e.Instret, want, p.instret)
		}
	}
	return &rep, nil
}

// busyTimer wraps a handler and, while on, records how long each request
// spent in it. The benchmark's single client reads the last duration after
// each reply.
type busyTimer struct {
	h    http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	last time.Duration
}

func (b *busyTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !b.on.Load() {
		b.h.ServeHTTP(w, r)
		return
	}
	t := time.Now()
	b.h.ServeHTTP(w, r)
	d := time.Since(t)
	b.mu.Lock()
	b.last = d
	b.mu.Unlock()
}

func (b *busyTimer) lastBusy() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

// httpNode is a service.Server behind a real loopback listener.
type httpNode struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

// listen binds a loopback port; the handler is installed by serve.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serveOn(ln net.Listener, url string, srv *service.Server, h http.Handler) *httpNode {
	n := &httpNode{srv: srv, hs: &http.Server{Handler: h}, url: url, served: make(chan struct{})}
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n
}

// close stops the listener and its connections, waits for the serving
// goroutine, then drains the server's pool.
func (n *httpNode) close() {
	_ = n.hs.Close()
	<-n.served
	n.srv.Close()
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveEnv is one running serve set-up: the server and its client.
type serveEnv struct {
	node   *httpNode
	busy   *busyTimer // nil unless traced
	client *http.Client
	progs  []serveProg
	gen    *serveGen
}

func (e *serveEnv) body(r serveReq) ([]byte, error) {
	p := &e.progs[r.prog]
	return json.Marshal(service.RunRequest{Name: p.name, Lang: p.lang, Source: p.source, Arch: r.arch, Mech: r.mech, Seed: r.seed})
}

// do submits one request and checks its reply. The request is encoded
// before the clock starts, so the returned round trip leaves out the
// client's own JSON work.
func (e *serveEnv) do(r serveReq) (*runReply, time.Duration, error) {
	b, err := e.body(r)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	status, data, err := post(context.Background(), e.client, e.node.url+"/v1/run", b)
	rtt := time.Since(t)
	if err != nil {
		return nil, rtt, err
	}
	rep, err := checkRun(status, data, !r.miss, &e.progs[r.prog])
	return rep, rtt, err
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.node.close()
}

// serveSetup starts a server with a fresh disk store and stores the hit set
// through it, so that every later re-submission is a memory hit. A traced
// set-up puts a busyTimer (initially off) in front of the handler.
func serveSetup(cfg config, progs []serveProg, idx int, traced bool) (*serveEnv, error) {
	srv, err := service.New(service.Config{StoreDir: filepath.Join(cfg.dir, "serve-"+strconv.Itoa(idx))})
	if err != nil {
		return nil, err
	}
	ln, url, err := listen()
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{client: newClient(), progs: progs, gen: newServeGen(cfg.seed, len(progs))}
	var h http.Handler = srv.Handler()
	if traced {
		e.busy = &busyTimer{h: h}
		h = e.busy
	}
	e.node = serveOn(ln, url, srv, h)
	for _, want := range []bool{false, true} {
		for _, r := range e.gen.hitSet() {
			r.miss = !want
			if _, _, err := e.do(r); err != nil {
				e.close()
				return nil, fmt.Errorf("warming hit set: %w", err)
			}
		}
	}
	return e, nil
}

// serveSample is one timed request.
type serveSample struct {
	req       serveReq
	rtt, busy time.Duration
	key       string // the result's store key
}

// serveWindow is one full cycle of the request mix: every hit-set entry
// missed once (one miss per serveMissEvery requests) and the hits between.
func serveWindow(nprogs int) int { return serveMissEvery * nprogs * len(serveArchs) * len(serveMechs) }

// serveLoop runs the closed-loop client for d and returns every request's
// timing and the run's windows; failed requests are counted and left out
// of the samples.
func (e *serveEnv) serveLoop(d time.Duration) (samples []serveSample, failed int, win *windows) {
	win = newWindows(serveWindow(len(e.progs)))
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		r := e.gen.next()
		rep, rtt, err := e.do(r)
		win.add(1, msOf(rtt), err == nil)
		if err != nil {
			failed++
			fmt.Printf("  FAIL %s %s/%s seed=%d: %v\n", e.progs[r.prog].name, r.arch, r.mech, r.seed, err)
			continue
		}
		smp := serveSample{req: r, rtt: rtt, key: rep.Result.Key}
		if e.busy != nil && e.busy.on.Load() {
			smp.busy = e.busy.lastBusy()
		}
		samples = append(samples, smp)
	}
	return samples, failed, win
}

// serveStats reduces samples to per-class latencies (ms).
func serveStats(s []serveSample) (hits, misses []float64) {
	for _, x := range s {
		ms := msOf(x.rtt)
		if x.req.miss {
			misses = append(misses, ms)
		} else {
			hits = append(hits, ms)
		}
	}
	return hits, misses
}

var errNoSamples = errors.New("no successful requests")

func serveRun(cfg config) (*outcome, error) {
	progs, err := servePrograms()
	if err != nil {
		return nil, err
	}
	env, setups, err := setupMany(func(i int) (*serveEnv, error) { return serveSetup(cfg, progs, i, false) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	samples, failed, win := env.serveLoop(time.Duration(cfg.seconds * float64(time.Second)))
	if len(samples) == 0 {
		return nil, errNoSamples
	}
	hits, misses := serveStats(samples)
	o := &outcome{attempted: len(samples) + failed, failed: failed}
	if err := o.common(setups, win, "requests"); err != nil {
		return nil, err
	}
	o.info = append(o.info,
		metric{Name: "hit_ms", Value: median(hits), Unit: "ms", Samples: len(hits), Note: "median"},
		metric{Name: "miss_ms", Value: median(misses), Unit: "ms", Samples: len(misses), Note: "median"})
	return o, nil
}

// phaseDuration is how long each half (untraced, then traced) of a traced
// request phase runs.
func phaseDuration(cfg config) time.Duration {
	return time.Duration(max(2, cfg.seconds/10) * float64(time.Second))
}

// throughputRatio is traced over untraced operations per second.
func throughputRatio(traced int, tracedT time.Duration, base int, baseT time.Duration) float64 {
	return (float64(traced) / tracedT.Seconds()) / (float64(base) / baseT.Seconds())
}

func serveTraced(cfg config, o *outcome) error {
	progs, err := servePrograms()
	if err != nil {
		return err
	}
	env, err := serveSetup(cfg, progs, 0, true)
	if err != nil {
		return err
	}
	defer env.close()
	d := phaseDuration(cfg)
	start := time.Now()
	base, f1, _ := env.serveLoop(d)
	baseT := time.Since(start)

	st := env.node.srv.Store()
	st0 := st.Stats()
	env.busy.on.Store(true)
	start = time.Now()
	traced, f2, _ := env.serveLoop(d)
	tracedT := time.Since(start)
	env.busy.on.Store(false)
	st1 := st.Stats()
	o.attempted += len(base) + len(traced) + f1 + f2
	o.failed += f1 + f2
	if len(base) == 0 || len(traced) == 0 {
		return errNoSamples
	}

	hits, misses := serveStats(base)
	var hitBusy, missBusy, transport []float64
	keys := map[string]bool{}
	for _, s := range traced {
		if s.req.miss {
			missBusy = append(missBusy, usOf(s.busy))
		} else {
			hitBusy = append(hitBusy, usOf(s.busy))
			keys[s.key] = true
		}
		transport = append(transport, usOf(s.rtt-s.busy))
	}

	// Direct calls into the layers a request crosses, on the same inputs.
	var asmT, mcT, nativeT, sdtT time.Duration
	var asmN, mcN int
	model := hostarch.X86()
	for r := 0; r < 10; r++ {
		for i := range progs {
			t := time.Now()
			img, err := compileProg(&progs[i])
			if err != nil {
				return err
			}
			if progs[i].lang == service.LangMiniC {
				mcT += time.Since(t)
				mcN++
			} else {
				asmT += time.Since(t)
				asmN++
			}
			if r > 0 {
				continue
			}
			t = time.Now()
			if _, err := runNative(img, model); err != nil {
				return err
			}
			nativeT += time.Since(t)
			t = time.Now()
			if _, err := runSDT(img, model, serveMechs[0], nil); err != nil {
				return err
			}
			sdtT += time.Since(t)
		}
	}
	var getT time.Duration
	var gets int
	for r := 0; r < 20; r++ {
		for k := range keys {
			t := time.Now()
			if _, ok := st.Get(k); !ok {
				return fmt.Errorf("stored key %s not found", k)
			}
			getT += time.Since(t)
			gets++
		}
	}
	putT, puts, err := timeDiskPuts(filepath.Join(cfg.dir, "scratch-store"))
	if err != nil {
		return err
	}
	n := float64(len(progs))
	return o.addAll(
		metric{Name: "serve.hit_ms", Value: median(hits), Unit: "ms", Samples: len(hits), Note: "median, untraced"},
		metric{Name: "serve.miss_ms", Value: median(misses), Unit: "ms", Samples: len(misses), Note: "median, untraced"},
		metric{Name: "serve.untraced_per_s", Value: float64(len(base)) / baseT.Seconds(), Unit: "1/s", Samples: len(base), Note: "base of serve.trace_ratio"},
		metric{Name: "serve.trace_ratio", Value: throughputRatio(len(traced), tracedT, len(base), baseT), Unit: "ratio", Note: "traced/untraced throughput"},
		metric{Name: "service.handler_us.hit", Value: median(hitBusy), Unit: "us", Samples: len(hitBusy), Note: "median"},
		metric{Name: "service.handler_us.miss", Value: median(missBusy), Unit: "us", Samples: len(missBusy), Note: "median"},
		metric{Name: "service.transport_us", Value: median(transport), Unit: "us", Samples: len(transport), Note: "median RTT - handler"},
		metric{Name: "asm.assemble_us", Value: usOf(asmT) / float64(asmN), Unit: "us", Samples: asmN, Note: "mean"},
		metric{Name: "minic.compile_us", Value: usOf(mcT) / float64(mcN), Unit: "us", Samples: mcN, Note: "mean"},
		metric{Name: "store.get_us", Value: usOf(getT) / float64(gets), Unit: "us", Samples: gets, Note: "mean, memory hits"},
		metric{Name: "store.put_us", Value: usOf(putT) / float64(puts), Unit: "us", Samples: puts, Note: "mean, scratch disk store"},
		metric{Name: "store.mem_hits", Value: float64(st1.MemHits - st0.MemHits), Unit: "count", Note: "traced half"},
		metric{Name: "store.disk_hits", Value: float64(st1.DiskHits - st0.DiskHits), Unit: "count", Note: "traced half"},
		metric{Name: "store.misses", Value: float64(st1.Misses - st0.Misses), Unit: "count", Note: "traced half"},
		metric{Name: "core.short_run_us", Value: usOf(sdtT) / n, Unit: "us", Samples: len(progs), Note: "mean, x86 " + serveMechs[0]},
		metric{Name: "machine.short_native_us", Value: usOf(nativeT) / n, Unit: "us", Samples: len(progs), Note: "mean, x86"},
	)
}

// timeDiskPuts times writes of a result-sized entry to a fresh disk-backed
// store in dir.
func timeDiskPuts(dir string) (time.Duration, int, error) {
	bs, err := store.OpenByteStore(dir, 1024)
	if err != nil {
		return 0, 0, err
	}
	payload := bytes.Repeat([]byte("x"), 1024)
	const n = 200
	var total time.Duration
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%016x", splitmix64(uint64(i)))
		t := time.Now()
		bs.Put(key, payload)
		total += time.Since(t)
	}
	if s := bs.Stats(); s.DiskErrors > 0 {
		return 0, 0, fmt.Errorf("scratch store: %d disk errors", s.DiskErrors)
	}
	return total, n, nil
}
