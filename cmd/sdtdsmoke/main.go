// sdtdsmoke is the end-to-end smoke test for the sdtd daemon, run by
// scripts/ci.sh. It builds (or is given) the sdtd binary, starts it on an
// ephemeral port with an on-disk store, and drives the serving path the
// way a client fleet would:
//
//  1. cold-submits an assembly program and a MiniC program, checking each
//     JSON result against a direct in-process sdt.Run/RunNative;
//  2. re-submits and asserts a cache hit: the store hit counter increments
//     and the result bytes are identical;
//  3. streams a small batch sweep and checks completeness, poisoned-cell
//     isolation, a fully-cached re-submission with byte-identical results,
//     and that a mid-stream client disconnect cancels the remaining cells
//     (observable in sdtd_sweep_cells_total);
//  4. submits a never-halting program with a deadline and asserts the
//     distinct deadline_exceeded code arrives within 2x the deadline;
//  5. starts a slow request, SIGTERMs the daemon mid-flight, and asserts
//     the response still completes and the daemon exits 0;
//  6. forms a two-node cluster (docs/CLUSTER.md) and asserts the peer
//     store tier: results computed on one node are served by the other
//     as byte-identical cache hits, and killing a peer leaves the
//     survivor degraded but serving;
//  7. forms a three-node replicated fleet (-replication=2), joins a
//     fourth node mid-cluster-sweep (the in-flight sweep stays pinned
//     to its ring epoch and streams byte-identical output), then
//     removes and drains one original member; every surviving /healthz
//     reports the new ring and a final sweep is still byte-identical.
//
// Exit status 0 means all checks passed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sdt"
	"sdt/internal/cluster"
	"sdt/internal/sdtdtest"
	"sdt/internal/service"
)

const asmProg = `
main:
	li r10, 0
	li r11, 200
loop:
	mov a0, r10
	call double
	out rv
	addi r10, r10, 1
	blt r10, r11, loop
	halt
double:
	add rv, a0, a0
	ret
`

const minicProg = `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { out fib(15); }
`

const spinProg = `
main:
	li r10, 0
spin:
	addi r10, r10, 1
	jmp spin
`

// slowProg is finite but takes long enough that SIGTERM lands mid-run.
const slowProg = `
main:
	li r10, 0
	lui r11, 400
loop:
	addi r10, r10, 1
	blt r10, r11, loop
	out r10
	halt
`

func main() {
	bin := flag.String("bin", "", "path to an sdtd binary (empty = go build one)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("sdtdsmoke: ")

	if err := run(*bin); err != nil {
		log.Fatal(err)
	}
	fmt.Println("SMOKE OK")
}

func run(bin string) error {
	tmp, err := os.MkdirTemp("", "sdtdsmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	if bin == "" {
		if bin, err = sdtdtest.Build(tmp); err != nil {
			return err
		}
	}

	d, err := start(bin, filepath.Join(tmp, "results"))
	if err != nil {
		return err
	}
	defer d.Kill()

	// 0. Health report shape: 200 with a JSON body describing the store.
	if err := checkHealth(d); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	// 1. Cold submissions, checked against in-process runs.
	asmRes, err := submitChecked(d, "prog.s", service.LangAsm, asmProg, "ibtc:4096")
	if err != nil {
		return fmt.Errorf("assembly program: %w", err)
	}
	if _, err := submitChecked(d, "prog.mc", service.LangMiniC, minicProg, "fastret+ibtc:1024"); err != nil {
		return fmt.Errorf("minic program: %w", err)
	}

	// 2. Cache-hit re-submission.
	hitsBefore, err := d.MetricSum("sdtd_cache_hits_total{")
	if err != nil {
		return err
	}
	resp, err := d.Submit(service.RunRequest{Name: "prog.s", Lang: service.LangAsm, Source: asmProg, Mech: "ibtc:4096"})
	if err != nil {
		return fmt.Errorf("re-submission: %w", err)
	}
	if !resp.Cached {
		return fmt.Errorf("re-submission was not served from cache")
	}
	if !bytes.Equal(resp.Result, asmRes) {
		return fmt.Errorf("cached result not byte-identical:\n%s\n%s", asmRes, resp.Result)
	}
	hitsAfter, err := d.MetricSum("sdtd_cache_hits_total{")
	if err != nil {
		return err
	}
	if hitsAfter <= hitsBefore {
		return fmt.Errorf("store hit counter did not increment (%d -> %d)", hitsBefore, hitsAfter)
	}
	log.Printf("cache hit OK (hits %d -> %d, byte-identical result)", hitsBefore, hitsAfter)

	// 3. Batch sweep over built-in workloads.
	if err := sweepSmoke(d); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	// 4. Deadline-cancelled run: distinct code, within 2x the deadline.
	const deadline = 500 * time.Millisecond
	start := time.Now()
	status, body, err := d.Post(service.RunRequest{Name: "spin.s", Source: spinProg, TimeoutMS: deadline.Milliseconds()})
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("deadline submission: %w", err)
	}
	if status != http.StatusGatewayTimeout {
		return fmt.Errorf("deadline run: status %d, body %s", status, body)
	}
	var eresp service.ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || eresp.Error.Code != service.CodeDeadlineExceeded {
		return fmt.Errorf("deadline run: code %q (err %v), want %q", eresp.Error.Code, err, service.CodeDeadlineExceeded)
	}
	if elapsed > 2*deadline {
		return fmt.Errorf("deadline run returned in %v, want <= %v", elapsed, 2*deadline)
	}
	log.Printf("deadline cancel OK (%v for a %v deadline)", elapsed.Round(time.Millisecond), deadline)

	// 5. Graceful drain: SIGTERM mid-request; the response must still
	// arrive and the daemon must exit 0. The deadline run's worker can
	// outlive its 504 by a few ms, so first wait for the pool to go idle —
	// otherwise the in-flight gauge we poll below could be its residue.
	if err := waitInflightIs(d, false); err != nil {
		return err
	}
	type result struct {
		resp *service.RunResponse
		err  error
	}
	slow := make(chan result, 1)
	go func() {
		r, err := d.Submit(service.RunRequest{Name: "slow.s", Source: slowProg, TimeoutMS: 30_000})
		slow <- result{r, err}
	}()
	if err := waitInflightIs(d, true); err != nil {
		return err
	}
	if err := d.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling daemon: %w", err)
	}
	got := <-slow
	if got.err != nil {
		return fmt.Errorf("in-flight request during drain: %w", got.err)
	}
	if got.resp.Cached {
		return fmt.Errorf("slow program unexpectedly cached")
	}
	if err := d.WaitExit(20 * time.Second); err != nil {
		return err
	}
	log.Print("graceful drain OK (in-flight response delivered, clean exit)")

	// 6. Peer store tier across a two-node cluster.
	if err := peerSmoke(bin, tmp); err != nil {
		return fmt.Errorf("peer tier: %w", err)
	}

	// 7. Replication and runtime membership changes.
	if err := membershipSmoke(bin, tmp); err != nil {
		return fmt.Errorf("membership: %w", err)
	}
	return nil
}

// peerSmoke boots a two-node cluster and checks the remote store tier
// end to end: node B serves node A's results as cache hits, and
// outliving A leaves B degraded but functional.
func peerSmoke(bin, tmp string) error {
	urls, err := sdtdtest.ReservePorts(2)
	if err != nil {
		return err
	}
	peersArg := urls[0] + "," + urls[1]
	nodes := make([]*sdtdtest.Daemon, 2)
	for i := range nodes {
		nodes[i], err = start(bin, filepath.Join(tmp, fmt.Sprintf("peer-%d", i)),
			"-addr", strings.TrimPrefix(urls[i], "http://"),
			"-peers", peersArg, "-self", urls[i], "-peer-probe", "100ms")
		if err != nil {
			return err
		}
		defer nodes[i].Kill()
	}

	// Daemons retry their initial peer probe with short backoff until the
	// first success, so sequential boot converges on its own; this wait is
	// only confirmation that both daemons are listening and converged.
	if err := sdtdtest.WaitRing(nodes, 0, len(nodes), 10*time.Second); err != nil {
		return err
	}

	// A client-side replica of the ring (same membership, same hash)
	// says which results node A owns — those are the ones node B must
	// fetch over the wire rather than recompute.
	ring, err := cluster.New(cluster.Config{Self: urls[0], Peers: urls, ProbeInterval: -1})
	if err != nil {
		return err
	}
	selfA := ring.SelfName()
	type seeded struct {
		seed   uint64
		result json.RawMessage
	}
	var onA []seeded
	for seed := uint64(0); seed < 8; seed++ {
		resp, err := nodes[0].Submit(service.RunRequest{
			Name: "prog.s", Lang: service.LangAsm, Source: asmProg, Mech: "ibtc:4096", Seed: seed,
		})
		if err != nil {
			return fmt.Errorf("seeding node A (seed %d): %w", seed, err)
		}
		var res service.RunResult
		if err := json.Unmarshal(resp.Result, &res); err != nil {
			return err
		}
		if ring.Owner(res.Key).Name() == selfA {
			onA = append(onA, seeded{seed, resp.Result})
		}
	}
	if len(onA) == 0 {
		return fmt.Errorf("none of 8 seeded results hash to node A; ephemeral ports made a degenerate ring, rerun")
	}
	for _, s := range onA {
		resp, err := nodes[1].Submit(service.RunRequest{
			Name: "prog.s", Lang: service.LangAsm, Source: asmProg, Mech: "ibtc:4096", Seed: s.seed,
		})
		if err != nil {
			return fmt.Errorf("peer fetch (seed %d): %w", s.seed, err)
		}
		if !resp.Cached {
			return fmt.Errorf("seed %d owned by node A was recomputed on node B, want a peer cache hit", s.seed)
		}
		if !bytes.Equal(resp.Result, s.result) {
			return fmt.Errorf("seed %d peer-fetched bytes differ from node A's original", s.seed)
		}
	}
	peerHits, err := nodes[1].Metric(`sdtd_cache_hits_total{layer="peer"}`)
	if err != nil {
		return err
	}
	if peerHits < len(onA) {
		return fmt.Errorf("peer hit counter = %d, want >= %d", peerHits, len(onA))
	}
	log.Printf("peer tier OK (%d/8 results owned by node A, all served to node B byte-identical)", len(onA))

	// Outage: B must degrade, not die.
	nodes[0].Kill()
	deadline := time.Now().Add(15 * time.Second)
	for {
		status, h, err := nodes[1].Health()
		if err != nil {
			return err
		}
		if status == http.StatusOK && h.Status == service.HealthDegraded {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node B never reported degraded after its peer died (last: %d %q)", status, h.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := nodes[1].Submit(service.RunRequest{
		Name: "prog.s", Lang: service.LangAsm, Source: asmProg, Mech: "ibtc:4096", Seed: 99,
	}); err != nil {
		return fmt.Errorf("node B stopped serving after its peer died: %w", err)
	}
	log.Print("peer outage OK (survivor degraded but serving)")
	return nil
}

// membershipSmoke drives the replicated-fleet surface: a 3-node
// -replication=2 cluster sweeps the matrix while a fourth node joins
// mid-stream (the sweep is pinned to its ring epoch, so the output is
// unaffected), then one original member is removed and drained. The
// fleet's output must match a single-node golden byte for byte at every
// step, and every member must converge on each new ring.
func membershipSmoke(bin, tmp string) error {
	const adminToken = "smoke-admin-token"
	req := service.SweepRequest{
		Workloads: []string{"gzip", "vpr", "gcc"},
		Mechs:     []string{"ibtc:4096", "sieve:1024"},
		Limit:     20_000_000,
	}

	// Golden: the same matrix through /v1/cluster/sweep on a lone daemon
	// (it degenerates to one local shard).
	gd, err := start(bin, filepath.Join(tmp, "member-golden"))
	if err != nil {
		return err
	}
	_, golden, err := gd.Stream("/v1/cluster/sweep", req, nil)
	gd.Kill()
	if err != nil {
		return fmt.Errorf("golden cluster sweep: %w", err)
	}

	// Three replicated members on fixed ports, plus a reserved port for
	// the joiner.
	urls, err := sdtdtest.ReservePorts(4)
	if err != nil {
		return err
	}
	peersArg := strings.Join(urls[:3], ",")
	nodes := make([]*sdtdtest.Daemon, 4)
	defer func() {
		for _, d := range nodes {
			if d != nil {
				d.Kill()
			}
		}
	}()
	for i := 0; i < 3; i++ {
		nodes[i], err = start(bin, filepath.Join(tmp, fmt.Sprintf("member-%d", i)),
			"-addr", strings.TrimPrefix(urls[i], "http://"),
			"-peers", peersArg, "-self", urls[i], "-peer-probe", "100ms",
			"-replication", "2", "-admin-token", adminToken)
		if err != nil {
			return err
		}
	}
	if err := sdtdtest.WaitRing(nodes[:3], 0, 3, 10*time.Second); err != nil {
		return err
	}

	// Stream the fleet sweep and, as soon as the first cell lands, boot
	// a fourth node (a solo cluster of itself) and join it through the
	// admin endpoint. The in-flight sweep is pinned to the epoch-0 ring;
	// its stream must come out byte-identical to the golden anyway.
	joined := false
	_, canonical, err := nodes[0].Stream("/v1/cluster/sweep", req, func(rec sdtdtest.Record) error {
		if rec.Type != "cell" || joined {
			return nil
		}
		joined = true
		var err error
		nodes[3], err = start(bin, filepath.Join(tmp, "member-3"),
			"-addr", strings.TrimPrefix(urls[3], "http://"),
			"-peers", urls[3], "-self", urls[3], "-peer-probe", "100ms",
			"-replication", "2", "-admin-token", adminToken)
		if err != nil {
			return fmt.Errorf("booting the joiner: %w", err)
		}
		mr, err := nodes[0].PostAdmin("/v1/cluster/join", adminToken, service.MemberChange{URL: urls[3]})
		if err != nil {
			return fmt.Errorf("joining mid-sweep: %w", err)
		}
		if mr.Epoch != 1 || len(mr.Members) != 4 {
			return fmt.Errorf("join answered epoch=%d members=%v, want epoch 1 with 4 members", mr.Epoch, mr.Members)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !joined {
		return fmt.Errorf("sweep stream carried no cell records")
	}
	if !bytes.Equal(canonical, golden) {
		return fmt.Errorf("fleet sweep spanning a join differs from golden:\n--- golden\n%s--- fleet\n%s", golden, canonical)
	}
	log.Print("membership join OK (4th node joined mid-sweep, stream byte-identical)")

	// Every member — the joiner included — must converge on the new ring.
	if err := sdtdtest.WaitRing(nodes[:4], 1, 4, 10*time.Second); err != nil {
		return err
	}

	// Remove an original member and drain it; the survivors converge on
	// epoch 2 and the matrix still streams byte-identically (its share of
	// results lives on ring replicas).
	mr, err := nodes[0].PostAdmin("/v1/cluster/leave", adminToken, service.MemberChange{URL: urls[1]})
	if err != nil {
		return fmt.Errorf("leave: %w", err)
	}
	if mr.Epoch != 2 || len(mr.Members) != 3 {
		return fmt.Errorf("leave answered epoch=%d members=%v, want epoch 2 with 3 members", mr.Epoch, mr.Members)
	}
	if err := nodes[1].Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("draining the removed member: %w", err)
	}
	if err := nodes[1].WaitExit(20 * time.Second); err != nil {
		return err
	}
	survivors := []*sdtdtest.Daemon{nodes[0], nodes[2], nodes[3]}
	if err := sdtdtest.WaitRing(survivors, 2, 3, 10*time.Second); err != nil {
		return err
	}
	_, final, err := nodes[0].Stream("/v1/cluster/sweep", req, nil)
	if err != nil {
		return fmt.Errorf("post-leave sweep: %w", err)
	}
	if !bytes.Equal(final, golden) {
		return fmt.Errorf("post-leave sweep differs from golden:\n--- golden\n%s--- fleet\n%s", golden, final)
	}
	log.Print("membership leave OK (member drained, new ring everywhere, stream byte-identical)")
	return nil
}

// splitSweep indexes a sweep stream: cell records by matrix index, plus
// the final done record.
func splitSweep(recs []sdtdtest.Record) (cells map[int]sdtdtest.Record, done *sdtdtest.Record, err error) {
	cells = map[int]sdtdtest.Record{}
	for i := range recs {
		switch rec := recs[i]; rec.Type {
		case "start", "progress":
		case "cell":
			if _, dup := cells[rec.Index]; dup {
				return nil, nil, fmt.Errorf("duplicate cell index %d", rec.Index)
			}
			cells[rec.Index] = rec
		case "done":
			done = &recs[i]
		default:
			return nil, nil, fmt.Errorf("unknown record type %q", rec.Type)
		}
	}
	if done == nil {
		return nil, nil, fmt.Errorf("stream ended without a done record")
	}
	return cells, done, nil
}

func sweepSmoke(d *sdtdtest.Daemon) error {
	// Completeness: a 2x2 matrix streams one result per cell plus a clean
	// done record.
	req := service.SweepRequest{
		Workloads: []string{"gzip", "vpr"},
		Mechs:     []string{"ibtc:4096", "sieve:1024"},
		Limit:     20_000_000,
	}
	recs, _, err := d.Stream("/v1/sweep", req, nil)
	if err != nil {
		return err
	}
	cells, done, err := splitSweep(recs)
	if err != nil {
		return err
	}
	if len(cells) != 4 || done.Done != 4 || done.Errors != 0 || done.Canceled != 0 {
		return fmt.Errorf("2x2 sweep: %d cells, done=%+v", len(cells), done)
	}
	for i := 0; i < 4; i++ {
		if cells[i].Result == nil {
			return fmt.Errorf("cell %d has no result: %+v", i, cells[i])
		}
	}
	log.Printf("sweep completeness OK (%d cells, 0 errors)", done.Done)

	// Cached re-submission: every cell served from the store, results
	// byte-identical per index.
	again, _, err := d.Stream("/v1/sweep", req, nil)
	if err != nil {
		return fmt.Errorf("re-submission: %w", err)
	}
	cells2, done2, err := splitSweep(again)
	if err != nil {
		return fmt.Errorf("re-submission: %w", err)
	}
	if done2.Done != 4 || done2.Errors != 0 {
		return fmt.Errorf("re-submission done=%+v", done2)
	}
	for i := 0; i < 4; i++ {
		if !cells2[i].Cached {
			return fmt.Errorf("re-submitted cell %d not served from cache", i)
		}
		if !bytes.Equal(cells2[i].Result, cells[i].Result) {
			return fmt.Errorf("re-submitted cell %d result not byte-identical", i)
		}
	}
	log.Print("sweep cached re-submission OK (4/4 cached, byte-identical)")

	// Poisoned-cell isolation: an unknown workload fails only its own cell.
	recs, _, err = d.Stream("/v1/sweep", service.SweepRequest{
		Workloads: []string{"gzip", "nosuchworkload"},
		Mechs:     []string{"ibtc:4096"},
		Limit:     20_000_000,
	}, nil)
	if err != nil {
		return fmt.Errorf("poisoned sweep: %w", err)
	}
	cells, done, err = splitSweep(recs)
	if err != nil {
		return fmt.Errorf("poisoned sweep: %w", err)
	}
	if done.Done != 1 || done.Errors != 1 {
		return fmt.Errorf("poisoned sweep done=%+v", done)
	}
	bad := cells[1]
	if bad.Workload != "nosuchworkload" || bad.Error == nil || bad.Error.Code != service.CodeInvalidArgument {
		return fmt.Errorf("poisoned cell record: %+v", bad)
	}
	log.Print("sweep poisoned-cell isolation OK (1 ok, 1 invalid_argument)")

	// Disconnect cancellation: drop the connection right after the stream
	// starts; the daemon must cancel the remaining cells and account for
	// them in sdtd_sweep_cells_total{outcome="canceled"}.
	canceledBefore, err := d.Metric(`sdtd_sweep_cells_total{outcome="canceled"}`)
	if err != nil {
		return err
	}
	// Read just the start record so the stream is known to be live, then
	// hang up: Stream closes the connection when onRecord fails.
	errHangUp := errors.New("hang up")
	_, _, err = d.Stream("/v1/sweep", service.SweepRequest{
		Workloads: []string{"gcc", "crafty", "eon", "gap", "twolf", "parser"},
		Mechs:     []string{"inline:2+ibtc:16384", "retcache:1024+ibtc:16384"},
	}, func(sdtdtest.Record) error { return errHangUp })
	if !errors.Is(err, errHangUp) {
		return fmt.Errorf("cancel sweep: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		canceled, err := d.Metric(`sdtd_sweep_cells_total{outcome="canceled"}`)
		if err != nil {
			return err
		}
		if canceled > canceledBefore {
			log.Printf("sweep disconnect cancel OK (canceled cells %d -> %d)", canceledBefore, canceled)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no canceled sweep cells counted within 20s of disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// start boots an sdtd child with the smoke's admission queue, storing
// results in storeDir.
func start(bin, storeDir string, extra ...string) (*sdtdtest.Daemon, error) {
	d, err := sdtdtest.Start(bin, storeDir, append([]string{"-queue", "64"}, extra...)...)
	if err == nil {
		log.Printf("daemon up at %s", d.Base)
	}
	return d, err
}

// checkHealth asserts the /healthz contract: HTTP 200 while serving, and
// a JSON service.Health body reporting a persistent, non-degraded store.
func checkHealth(d *sdtdtest.Daemon) error {
	status, h, err := d.Health()
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d, want 200", status)
	}
	if h.Status != service.HealthOK {
		return fmt.Errorf("status field %q, want %q", h.Status, service.HealthOK)
	}
	if !h.Store.Persistent || h.Store.Degraded {
		return fmt.Errorf("store section %+v, want persistent and not degraded", h.Store)
	}
	log.Printf("healthz OK (status=%s persistent=%v)", h.Status, h.Store.Persistent)
	return nil
}

// submitChecked cold-submits a program and verifies the service's numbers
// against a direct in-process run of the same pipeline. It returns the raw
// result bytes for later byte-identity checks.
func submitChecked(d *sdtdtest.Daemon, name, lang, src, mech string) (json.RawMessage, error) {
	resp, err := d.Submit(service.RunRequest{Name: name, Lang: lang, Source: src, Mech: mech})
	if err != nil {
		return nil, err
	}
	if resp.Cached {
		return nil, fmt.Errorf("cold submission claims to be cached")
	}
	var res service.RunResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		return nil, err
	}

	var img *sdt.Image
	if lang == service.LangMiniC {
		img, err = sdt.CompileMiniC(name, src)
	} else {
		img, err = sdt.Assemble(name, src)
	}
	if err != nil {
		return nil, fmt.Errorf("local compile: %w", err)
	}
	native, err := sdt.RunNative(img, "x86", 0)
	if err != nil {
		return nil, fmt.Errorf("local native run: %w", err)
	}
	vm, err := sdt.Run(img, "x86", mech, 0)
	if err != nil {
		return nil, fmt.Errorf("local sdt run: %w", err)
	}
	nr, sr := native.Result(), vm.Result()
	if res.Native.Cycles != nr.Cycles || res.Native.Instret != nr.Instret {
		return nil, fmt.Errorf("native result mismatch: service %+v, direct %+v", res.Native, nr)
	}
	if res.SDT.Cycles != sr.Cycles || res.SDT.Instret != sr.Instret {
		return nil, fmt.Errorf("sdt result mismatch: service %+v, direct %+v", res.SDT, sr)
	}
	wantSum := fmt.Sprintf("0x%016x", sr.Checksum)
	if res.SDT.Checksum != wantSum {
		return nil, fmt.Errorf("checksum mismatch: service %s, direct %s", res.SDT.Checksum, wantSum)
	}
	slow := float64(sr.Cycles) / float64(nr.Cycles)
	if diff := res.Slowdown - slow; diff > 1e-9 || diff < -1e-9 {
		return nil, fmt.Errorf("slowdown mismatch: service %v, direct %v", res.Slowdown, slow)
	}
	log.Printf("%-8s %-24s matches direct run (slowdown %.2fx, %d insts)", name, mech, slow, sr.Instret)
	return resp.Result, nil
}

// waitInflightIs polls /metrics until the in-flight gauge is (non)zero.
func waitInflightIs(d *sdtdtest.Daemon, busy bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n, err := d.Metric("sdtd_inflight_runs")
		if err != nil {
			return err
		}
		if (n != 0) == busy {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("in-flight gauge did not become busy=%v within 10s", busy)
}
