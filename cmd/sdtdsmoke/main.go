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
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"sdt"
	"sdt/internal/cluster"
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
		bin = filepath.Join(tmp, "sdtd")
		build := exec.Command("go", "build", "-o", bin, "sdt/cmd/sdtd")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building sdtd: %w", err)
		}
	}

	d, err := startDaemon(bin, tmp)
	if err != nil {
		return err
	}
	defer d.kill()

	// 0. Health report shape: 200 with a JSON body describing the store.
	if err := d.checkHealth(); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	// 1. Cold submissions, checked against in-process runs.
	asmRes, err := d.submitChecked("prog.s", service.LangAsm, asmProg, "ibtc:4096")
	if err != nil {
		return fmt.Errorf("assembly program: %w", err)
	}
	if _, err := d.submitChecked("prog.mc", service.LangMiniC, minicProg, "fastret+ibtc:1024"); err != nil {
		return fmt.Errorf("minic program: %w", err)
	}

	// 2. Cache-hit re-submission.
	hitsBefore, err := d.cacheHits()
	if err != nil {
		return err
	}
	resp, err := d.submit(service.RunRequest{Name: "prog.s", Lang: service.LangAsm, Source: asmProg, Mech: "ibtc:4096"})
	if err != nil {
		return fmt.Errorf("re-submission: %w", err)
	}
	if !resp.Cached {
		return fmt.Errorf("re-submission was not served from cache")
	}
	if !bytes.Equal(resp.Result, asmRes) {
		return fmt.Errorf("cached result not byte-identical:\n%s\n%s", asmRes, resp.Result)
	}
	hitsAfter, err := d.cacheHits()
	if err != nil {
		return err
	}
	if hitsAfter <= hitsBefore {
		return fmt.Errorf("store hit counter did not increment (%d -> %d)", hitsBefore, hitsAfter)
	}
	log.Printf("cache hit OK (hits %d -> %d, byte-identical result)", hitsBefore, hitsAfter)

	// 3. Batch sweep over built-in workloads.
	if err := d.sweepSmoke(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	// 4. Deadline-cancelled run: distinct code, within 2x the deadline.
	const deadline = 500 * time.Millisecond
	start := time.Now()
	status, body, err := d.post(service.RunRequest{Name: "spin.s", Source: spinProg, TimeoutMS: deadline.Milliseconds()})
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
	if err := d.waitInflightIs(false); err != nil {
		return err
	}
	type result struct {
		resp *service.RunResponse
		err  error
	}
	slow := make(chan result, 1)
	go func() {
		r, err := d.submit(service.RunRequest{Name: "slow.s", Source: slowProg, TimeoutMS: 30_000})
		slow <- result{r, err}
	}()
	if err := d.waitInflightIs(true); err != nil {
		return err
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling daemon: %w", err)
	}
	got := <-slow
	if got.err != nil {
		return fmt.Errorf("in-flight request during drain: %w", got.err)
	}
	if got.resp.Cached {
		return fmt.Errorf("slow program unexpectedly cached")
	}
	if err := d.waitExit(20 * time.Second); err != nil {
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
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		urls = append(urls, "http://"+ln.Addr().String())
		ln.Close()
	}
	peersArg := urls[0] + "," + urls[1]
	nodes := make([]*daemon, 2)
	for i := range nodes {
		var err error
		nodes[i], err = startDaemon(bin, tmp,
			"-addr", strings.TrimPrefix(urls[i], "http://"),
			"-store", filepath.Join(tmp, fmt.Sprintf("peer-%d", i)),
			"-peers", peersArg, "-self", urls[i], "-peer-probe", "100ms")
		if err != nil {
			return err
		}
		defer nodes[i].kill()
	}

	// Daemons retry their initial peer probe with short backoff until the
	// first success, so sequential boot converges on its own; this wait is
	// only confirmation that both daemons are listening and converged.
	if err := waitClusterUp(nodes, 10*time.Second); err != nil {
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
		resp, err := nodes[0].submit(service.RunRequest{
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
		resp, err := nodes[1].submit(service.RunRequest{
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
	peerHits, err := nodes[1].counterValue(`sdtd_cache_hits_total{layer="peer"}`)
	if err != nil {
		return err
	}
	if peerHits < len(onA) {
		return fmt.Errorf("peer hit counter = %d, want >= %d", peerHits, len(onA))
	}
	log.Printf("peer tier OK (%d/8 results owned by node A, all served to node B byte-identical)", len(onA))

	// Outage: B must degrade, not die.
	nodes[0].kill()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(nodes[1].base + "/healthz")
		if err != nil {
			return err
		}
		var h service.Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK && h.Status == service.HealthDegraded {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node B never reported degraded after its peer died (last: %d %q)", resp.StatusCode, h.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := nodes[1].submit(service.RunRequest{
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
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}

	// Golden: the same matrix through /v1/cluster/sweep on a lone daemon
	// (it degenerates to one local shard).
	gd, err := startDaemon(bin, tmp, "-store", filepath.Join(tmp, "member-golden"))
	if err != nil {
		return err
	}
	_, golden, err := gd.stream("/v1/cluster/sweep", req)
	gd.kill()
	if err != nil {
		return fmt.Errorf("golden cluster sweep: %w", err)
	}

	// Three replicated members on fixed ports, plus a reserved port for
	// the joiner.
	var urls []string
	for i := 0; i < 4; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		urls = append(urls, "http://"+ln.Addr().String())
		ln.Close()
	}
	peersArg := strings.Join(urls[:3], ",")
	nodes := make([]*daemon, 4)
	defer func() {
		for _, d := range nodes {
			if d != nil {
				d.kill()
			}
		}
	}()
	for i := 0; i < 3; i++ {
		nodes[i], err = startDaemon(bin, tmp,
			"-addr", strings.TrimPrefix(urls[i], "http://"),
			"-store", filepath.Join(tmp, fmt.Sprintf("member-%d", i)),
			"-peers", peersArg, "-self", urls[i], "-peer-probe", "100ms",
			"-replication", "2", "-admin-token", adminToken)
		if err != nil {
			return err
		}
	}
	if err := waitClusterUp(nodes[:3], 10*time.Second); err != nil {
		return err
	}

	// Stream the fleet sweep and, as soon as the first cell lands, boot
	// a fourth node (a solo cluster of itself) and join it through the
	// admin endpoint. The in-flight sweep is pinned to the epoch-0 ring;
	// its stream must come out byte-identical to the golden anyway.
	resp, err := http.Post(nodes[0].base+"/v1/cluster/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("cluster sweep status %d: %s", resp.StatusCode, data)
	}
	var canonical bytes.Buffer
	joined := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec sweepRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("decoding %q: %w", sc.Text(), err)
		}
		if rec.Type == "progress" {
			continue
		}
		canonical.Write(line)
		canonical.WriteByte('\n')
		if rec.Type == "cell" && !joined {
			joined = true
			nodes[3], err = startDaemon(bin, tmp,
				"-addr", strings.TrimPrefix(urls[3], "http://"),
				"-store", filepath.Join(tmp, "member-3"),
				"-peers", urls[3], "-self", urls[3], "-peer-probe", "100ms",
				"-replication", "2", "-admin-token", adminToken)
			if err != nil {
				return fmt.Errorf("booting the joiner: %w", err)
			}
			mr, err := postAdmin(nodes[0].base+"/v1/cluster/join", adminToken, service.MemberChange{URL: urls[3]})
			if err != nil {
				return fmt.Errorf("joining mid-sweep: %w", err)
			}
			if mr.Epoch != 1 || len(mr.Members) != 4 {
				return fmt.Errorf("join answered epoch=%d members=%v, want epoch 1 with 4 members", mr.Epoch, mr.Members)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !joined {
		return fmt.Errorf("sweep stream carried no cell records")
	}
	if !bytes.Equal(canonical.Bytes(), golden) {
		return fmt.Errorf("fleet sweep spanning a join differs from golden:\n--- golden\n%s--- fleet\n%s", golden, canonical.Bytes())
	}
	log.Print("membership join OK (4th node joined mid-sweep, stream byte-identical)")

	// Every member — the joiner included — must converge on the new ring.
	if err := waitRing(nodes[:4], 1, 4, 10*time.Second); err != nil {
		return err
	}

	// Remove an original member and drain it; the survivors converge on
	// epoch 2 and the matrix still streams byte-identically (its share of
	// results lives on ring replicas).
	mr, err := postAdmin(nodes[0].base+"/v1/cluster/leave", adminToken, service.MemberChange{URL: urls[1]})
	if err != nil {
		return fmt.Errorf("leave: %w", err)
	}
	if mr.Epoch != 2 || len(mr.Members) != 3 {
		return fmt.Errorf("leave answered epoch=%d members=%v, want epoch 2 with 3 members", mr.Epoch, mr.Members)
	}
	if err := nodes[1].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("draining the removed member: %w", err)
	}
	if err := nodes[1].waitExit(20 * time.Second); err != nil {
		return err
	}
	survivors := []*daemon{nodes[0], nodes[2], nodes[3]}
	if err := waitRing(survivors, 2, 3, 10*time.Second); err != nil {
		return err
	}
	_, final, err := nodes[0].stream("/v1/cluster/sweep", req)
	if err != nil {
		return fmt.Errorf("post-leave sweep: %w", err)
	}
	if !bytes.Equal(final, golden) {
		return fmt.Errorf("post-leave sweep differs from golden:\n--- golden\n%s--- fleet\n%s", golden, final)
	}
	log.Print("membership leave OK (member drained, new ring everywhere, stream byte-identical)")
	return nil
}

// postAdmin posts a JSON body with the admin token and decodes the
// membership response.
func postAdmin(url, token string, v any) (*service.MembershipResponse, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Admin-Token", token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var mr service.MembershipResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		return nil, fmt.Errorf("decoding %q: %w", data, err)
	}
	return &mr, nil
}

// waitRing blocks until every node's /healthz reports the given ring
// epoch with the given member count, all up.
func waitRing(nodes []*daemon, epoch uint64, members int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range nodes {
		for {
			var h service.Health
			resp, err := http.Get(d.base + "/healthz")
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&h)
				resp.Body.Close()
			}
			up := 0
			for _, p := range h.Cluster {
				if p.Up {
					up++
				}
			}
			if err == nil && h.ClusterEpoch == epoch && len(h.Cluster) == members && up == members {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never converged on epoch %d with %d members up (last: epoch=%d members=%d up=%d err=%v)",
					d.base, epoch, members, h.ClusterEpoch, len(h.Cluster), up, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// waitClusterUp blocks until every node's /healthz reports every cluster
// member up, or the timeout passes.
func waitClusterUp(nodes []*daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range nodes {
		for {
			up := 0
			resp, err := http.Get(d.base + "/healthz")
			if err == nil {
				var h service.Health
				if json.NewDecoder(resp.Body).Decode(&h) == nil {
					for _, p := range h.Cluster {
						if p.Up {
							up++
						}
					}
				}
				resp.Body.Close()
			}
			if up == len(nodes) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster never converged: %s sees %d/%d members up", d.base, up, len(nodes))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// sweepRec is the union of the /v1/sweep NDJSON record shapes — one
// struct with every field so a single decode handles any record type.
type sweepRec struct {
	Type     string             `json:"type"`
	Total    int                `json:"total"`
	Index    int                `json:"index"`
	Workload string             `json:"workload"`
	Mech     string             `json:"mech"`
	Cached   bool               `json:"cached"`
	Result   json.RawMessage    `json:"result"`
	Error    *service.ErrorInfo `json:"error"`
	Done     int                `json:"done"`
	Errors   int                `json:"errors"`
	Canceled int                `json:"canceled"`
}

// stream posts body to one of the sweep routes and reads the whole
// NDJSON response: every record, plus the canonical bytes (progress
// heartbeats stripped) that deterministic streams are compared by.
func (d *daemon) stream(path string, body any) ([]sweepRec, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(d.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("%s status %d: %s", path, resp.StatusCode, data)
	}
	var canonical bytes.Buffer
	var recs []sweepRec
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec sweepRec
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, fmt.Errorf("decoding %q: %w", line, err)
		}
		recs = append(recs, rec)
		if rec.Type != "progress" {
			canonical.Write(line)
			canonical.WriteByte('\n')
		}
	}
	return recs, canonical.Bytes(), sc.Err()
}

// splitSweep indexes a sweep stream: cell records by matrix index, plus
// the final done record.
func splitSweep(recs []sweepRec) (cells map[int]sweepRec, done *sweepRec, err error) {
	cells = map[int]sweepRec{}
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

func (d *daemon) sweepSmoke() error {
	// Completeness: a 2x2 matrix streams one result per cell plus a clean
	// done record.
	req := service.SweepRequest{
		Workloads: []string{"gzip", "vpr"},
		Mechs:     []string{"ibtc:4096", "sieve:1024"},
		Limit:     20_000_000,
	}
	recs, _, err := d.stream("/v1/sweep", req)
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
	again, _, err := d.stream("/v1/sweep", req)
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
	recs, _, err = d.stream("/v1/sweep", service.SweepRequest{
		Workloads: []string{"gzip", "nosuchworkload"},
		Mechs:     []string{"ibtc:4096"},
		Limit:     20_000_000,
	})
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
	canceledBefore, err := d.counterValue(`sdtd_sweep_cells_total{outcome="canceled"}`)
	if err != nil {
		return err
	}
	body, err := json.Marshal(service.SweepRequest{
		Workloads: []string{"gcc", "crafty", "eon", "gap", "twolf", "parser"},
		Mechs:     []string{"inline:2+ibtc:16384", "retcache:1024+ibtc:16384"},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		cancel()
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		cancel()
		return fmt.Errorf("cancel sweep: %w", err)
	}
	// Read just the start record so the stream is known to be live, then
	// hang up.
	bufio.NewScanner(resp.Body).Scan()
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		canceled, err := d.counterValue(`sdtd_sweep_cells_total{outcome="canceled"}`)
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

// counterValue scrapes one exact metric series from /metrics (0 if the
// series has not been rendered yet).
func (d *daemon) counterValue(series string) (int, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, series+" ") {
			var v int
			if _, err := fmt.Sscanf(line[len(series)+1:], "%d", &v); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return v, sc.Err()
		}
	}
	return 0, sc.Err()
}

// daemon wraps the child sdtd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startDaemon boots an sdtd child. extra flags come after the base set,
// so (flag package, last one wins) they may override -addr or -store —
// the clustered step needs fixed ports and per-node stores.
func startDaemon(bin, tmp string, extra ...string) (*daemon, error) {
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-store", filepath.Join(tmp, "results"),
		"-queue", "64"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
	}()
	go func() { d.done <- cmd.Wait() }()

	select {
	case d.base = <-addr:
	case err := <-d.done:
		return nil, fmt.Errorf("sdtd exited before listening: %v", err)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("sdtd did not report a listen address in 20s")
	}
	log.Printf("daemon up at %s", d.base)
	return d, nil
}

// checkHealth asserts the /healthz contract: HTTP 200 while serving, and
// a JSON service.Health body reporting a persistent, non-degraded store.
func (d *daemon) checkHealth() error {
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d, want 200", resp.StatusCode)
	}
	var h service.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("body is not a JSON health report: %v", err)
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

func (d *daemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
	}
}

func (d *daemon) waitExit(timeout time.Duration) error {
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("sdtd exited uncleanly: %v", err)
		}
		return nil
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("sdtd did not exit within %v of SIGTERM", timeout)
	}
}

func (d *daemon) post(req service.RunRequest) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(d.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (d *daemon) submit(req service.RunRequest) (*service.RunResponse, error) {
	status, data, err := d.post(req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, data)
	}
	var resp service.RunResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decoding %q: %w", data, err)
	}
	return &resp, nil
}

// submitChecked cold-submits a program and verifies the service's numbers
// against a direct in-process run of the same pipeline. It returns the raw
// result bytes for later byte-identity checks.
func (d *daemon) submitChecked(name, lang, src, mech string) (json.RawMessage, error) {
	resp, err := d.submit(service.RunRequest{Name: name, Lang: lang, Source: src, Mech: mech})
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

// cacheHits scrapes total sdtd_cache_hits_total across layers.
func (d *daemon) cacheHits() (int, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	total := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "sdtd_cache_hits_total{") {
			var v int
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err == nil {
				total += v
			}
		}
	}
	return total, sc.Err()
}

// waitInflightIs polls /metrics until the in-flight gauge is (non)zero.
func (d *daemon) waitInflightIs(busy bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/metrics")
		if err != nil {
			return err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "sdtd_inflight_runs ") {
				if idle := strings.HasSuffix(line, " 0"); idle != busy {
					return nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("in-flight gauge did not become busy=%v within 10s", busy)
}
