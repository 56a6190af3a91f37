// sdtchaos is the hostile-conditions test for the sdtd daemon: it drives
// the real binary under a deterministic fault-injection plan (see
// docs/ROBUSTNESS.md) and asserts that robustness machinery never changes
// what the service computes — only whether a given attempt succeeds.
//
// Five phases, all against real child processes on ephemeral ports:
//
//  1. Golden: a clean daemon computes a fixed set of runs and a sweep;
//     their result bytes become the reference.
//  2. Fault storm: a fresh daemon runs the same work under injected disk
//     I/O errors, worker panics, transient cell faults, and journal write
//     failures. Clients retry; every response that eventually succeeds
//     must be byte-identical to the golden bytes, the daemon must stay
//     up, and the panic/fault counters must show the storm actually
//     happened.
//  3. Corruption: one bit of a stored entry is flipped on disk between
//     daemon restarts. The entry must be quarantined, counted, and
//     transparently recomputed to the same bytes (read-repair).
//  4. Kill + resume: a sweep is half-completed under a hostile plan, the
//     daemon is SIGKILLed, and a clean daemon resumes the sweep ID. The
//     journaled cells must be replayed from the store — zero re-executed
//     runs for them — and the remainder must complete.
//  5. Cluster kill: three daemons form a replicated cluster
//     (docs/CLUSTER.md, -replication=2), a /v1/cluster/sweep fans out
//     across them, and one worker node is SIGKILLed mid-shard after
//     replication has quiesced. The merged stream must still be
//     byte-identical to a single-node run of the same matrix, the
//     coordinator must count reassigned cells, and a follow-up sweep must
//     recompute nothing: every result the dead node computed survives on
//     its replica.
//  6. Coordinator kill: the coordinator of a journaled cluster sweep is
//     SIGKILLed mid-matrix. A survivor adopts the sweep via the
//     replicated checkpoint journal (?adopt=<id>), the adopted stream is
//     byte-identical to the golden one (modulo the start record's resumed
//     count), and the fleet re-executes exactly the cells whose results
//     are on no surviving node.
//
// The -seed flag fixes every pseudo-random choice in the fault plans, so
// a failure reproduces exactly. Exit status 0 means all checks passed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sdt/internal/cluster"
	"sdt/internal/sdtdtest"
	"sdt/internal/service"
)

const chaosAsm = `
main:
	li r10, 0
	li r11, 150
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

const chaosMiniC = `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { out fib(14); }
`

// chaosRuns is the fixed /v1/run workload; every phase submits these and
// compares the result bytes.
var chaosRuns = []service.RunRequest{
	{Name: "loop.s", Lang: service.LangAsm, Source: chaosAsm, Arch: "x86", Mech: "ibtc:1024"},
	{Name: "loop.s", Lang: service.LangAsm, Source: chaosAsm, Arch: "arm", Mech: "sieve:256"},
	{Name: "fib.mc", Lang: service.LangMiniC, Source: chaosMiniC, Arch: "x86", Mech: "retcache+ibtc:512"},
	{Name: "fib.mc", Lang: service.LangMiniC, Source: chaosMiniC, Arch: "sparc", Mech: "fastret+sieve:128"},
}

// chaosSweep is the fixed sweep matrix.
var chaosSweep = service.SweepRequest{
	Workloads: []string{"gzip", "vpr"},
	Mechs:     []string{"ibtc:1024", "sieve:256"},
	Limit:     10_000_000,
}

// chaosSweepCells is chaosSweep's expansion size (workloads x mechs).
const chaosSweepCells = 4

func main() {
	seed := flag.Uint64("seed", 42, "seed for the fault plans (fixes the whole scenario)")
	bin := flag.String("bin", "", "path to an sdtd binary (empty = go build one)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("sdtchaos: ")

	if err := run(*bin, *seed); err != nil {
		log.Fatal(err)
	}
	fmt.Println("CHAOS OK")
}

func run(bin string, seed uint64) error {
	tmp, err := os.MkdirTemp("", "sdtchaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	if bin == "" {
		if bin, err = sdtdtest.Build(tmp); err != nil {
			return err
		}
	}

	golden, err := phaseGolden(bin, tmp)
	if err != nil {
		return fmt.Errorf("golden phase: %w", err)
	}
	if err := phaseStorm(bin, tmp, seed, golden); err != nil {
		return fmt.Errorf("fault-storm phase: %w", err)
	}
	if err := phaseCorruption(bin, tmp, golden); err != nil {
		return fmt.Errorf("corruption phase: %w", err)
	}
	if err := phaseResume(bin, tmp, seed, golden); err != nil {
		return fmt.Errorf("kill-resume phase: %w", err)
	}
	goldenStream, keys, err := phaseCluster(bin, tmp, seed)
	if err != nil {
		return fmt.Errorf("cluster phase: %w", err)
	}
	if err := phaseAdopt(bin, tmp, seed, goldenStream, keys); err != nil {
		return fmt.Errorf("adopt phase: %w", err)
	}
	return nil
}

// golden holds the reference bytes from the clean daemon.
type golden struct {
	runs  [][]byte       // indexed like chaosRuns
	cells map[int][]byte // sweep cell index -> result bytes
	keys  []string       // content-store keys of chaosRuns results
}

func phaseGolden(bin, tmp string) (*golden, error) {
	d, err := start(bin, filepath.Join(tmp, "golden"))
	if err != nil {
		return nil, err
	}
	defer d.Kill()

	g := &golden{cells: map[int][]byte{}}
	for i, req := range chaosRuns {
		resp, err := d.Submit(req)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		var res service.RunResult
		if err := json.Unmarshal(resp.Result, &res); err != nil {
			return nil, fmt.Errorf("run %d result: %w", i, err)
		}
		g.runs = append(g.runs, resp.Result)
		g.keys = append(g.keys, res.Key)
	}
	recs, _, err := d.Stream("/v1/sweep", chaosSweep, nil)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.Type != "cell" {
			continue
		}
		if rec.Error != nil {
			return nil, fmt.Errorf("golden sweep cell %d failed: %+v", rec.Index, rec.Error)
		}
		g.cells[rec.Index] = rec.Result
	}
	if len(g.cells) != chaosSweepCells {
		return nil, fmt.Errorf("golden sweep produced %d cells, want %d", len(g.cells), chaosSweepCells)
	}
	log.Printf("golden OK (%d runs, %d sweep cells)", len(g.runs), len(g.cells))
	return g, nil
}

// phaseStorm re-runs the whole workload under a hostile plan. Cadenced
// points guarantee the classes we assert on actually fire; limits
// guarantee the storm eventually drains so retries converge.
func phaseStorm(bin, tmp string, seed uint64, g *golden) error {
	plan := fmt.Sprintf(`{"seed":%d,"points":[`+
		`{"site":"store.disk.read","class":"io","every":4,"limit":25},`+
		`{"site":"store.disk.write","class":"io","every":3,"limit":25},`+
		`{"site":"store.disk.rename","class":"io","every":5,"limit":10},`+
		`{"site":"service.job","class":"panic","every":3,"limit":4},`+
		`{"site":"sweep.cell","class":"transient","prob":0.35,"limit":20},`+
		`{"site":"service.sweep.journal","class":"io","every":2,"limit":6}]}`, seed)
	d, err := start(bin, filepath.Join(tmp, "storm"),
		"-fault-plan", plan, "-allow-faults", "-breaker-cooldown", "50ms")
	if err != nil {
		return err
	}
	defer d.Kill()

	for i, req := range chaosRuns {
		data, err := runRetry(d, req, 15)
		if err != nil {
			return fmt.Errorf("run %d never succeeded: %w", i, err)
		}
		if !bytes.Equal(data, g.runs[i]) {
			return fmt.Errorf("run %d bytes differ under faults:\n%s\nvs golden\n%s", i, data, g.runs[i])
		}
	}
	log.Printf("storm runs OK (%d/%d byte-identical)", len(chaosRuns), len(chaosRuns))

	// The sweep may lose cells to exhausted retries; re-submitting under
	// the same ID replays journaled successes and retries the rest. The
	// fault limits guarantee convergence.
	want := chaosSweepCells
	sweepDone := false
	for attempt := 0; attempt < 8 && !sweepDone; attempt++ {
		recs, _, err := d.Stream("/v1/sweep", withID(chaosSweep, "storm"), nil)
		if err != nil {
			return err
		}
		okCells := 0
		for _, rec := range recs {
			if rec.Type != "cell" || rec.Error != nil {
				continue
			}
			if !bytes.Equal(rec.Result, g.cells[rec.Index]) {
				return fmt.Errorf("sweep cell %d bytes differ under faults", rec.Index)
			}
			okCells++
		}
		sweepDone = okCells == want
	}
	if !sweepDone {
		return fmt.Errorf("sweep did not converge to %d clean cells", want)
	}
	log.Printf("storm sweep OK (%d cells byte-identical)", want)

	// The storm must actually have happened, and the daemon survived it.
	panics, err := d.Metric("sdtd_job_panics_total")
	if err != nil {
		return err
	}
	if panics == 0 {
		return errors.New("panic faults were planned but sdtd_job_panics_total is 0")
	}
	injected, err := d.MetricSum("sdtd_faults_injected_total{")
	if err != nil {
		return err
	}
	if injected == 0 {
		return errors.New("sdtd_faults_injected_total shows no injections")
	}
	if status, _, err := d.Health(); err != nil {
		return fmt.Errorf("daemon unreachable after storm: %w", err)
	} else if status != http.StatusOK {
		return fmt.Errorf("healthz = %d, want %d", status, http.StatusOK)
	}
	log.Printf("storm survived OK (%d faults injected, %d panics recovered)", injected, panics)
	return nil
}

// phaseCorruption flips one stored bit between restarts and asserts
// quarantine + read-repair.
func phaseCorruption(bin, tmp string, g *golden) error {
	dir := filepath.Join(tmp, "corrupt")
	d, err := start(bin, dir)
	if err != nil {
		return err
	}
	if _, err := d.Submit(chaosRuns[0]); err != nil {
		d.Kill()
		return err
	}
	d.Kill() // stored entries are durable before the response is sent

	key := g.keys[0]
	path := filepath.Join(dir, key[:2], key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading stored entry: %w", err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}

	d, err = start(bin, dir)
	if err != nil {
		return err
	}
	defer d.Kill()
	resp, err := d.Submit(chaosRuns[0])
	if err != nil {
		return fmt.Errorf("run over corrupt entry: %w", err)
	}
	if !bytes.Equal(resp.Result, g.runs[0]) {
		return errors.New("recomputed result differs from golden bytes")
	}
	corruptions, err := d.Metric("sdtd_store_corruption_total")
	if err != nil {
		return err
	}
	if corruptions != 1 {
		return fmt.Errorf("sdtd_store_corruption_total = %d, want 1", corruptions)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", key)); err != nil {
		return fmt.Errorf("corrupt entry not quarantined: %w", err)
	}
	// The write-back must verify again: a fresh restart serves it from
	// disk without a recompute.
	log.Printf("corruption OK (flipped bit quarantined, recomputed byte-identical)")
	return nil
}

// phaseResume half-completes a checkpointed sweep under a hostile plan,
// SIGKILLs the daemon, and resumes on a clean one. Journaled cells must
// be replayed, not re-executed.
func phaseResume(bin, tmp string, seed uint64, g *golden) error {
	dir := filepath.Join(tmp, "resume")
	plan := fmt.Sprintf(`{"seed":%d,"points":[`+
		`{"site":"sweep.cell","class":"permanent","every":1,"after":2}]}`, seed)
	d, err := start(bin, dir, "-fault-plan", plan, "-allow-faults", "-workers", "1")
	if err != nil {
		return err
	}
	recs, _, err := d.Stream("/v1/sweep", withID(chaosSweep, "resume"), nil)
	if err != nil {
		d.Kill()
		return err
	}
	okCells := 0
	for _, rec := range recs {
		if rec.Type == "cell" && rec.Error == nil {
			okCells++
		}
	}
	d.Kill() // hard kill: the journal must already be durable

	// The journal on disk knows exactly which cells completed.
	jraw, err := os.ReadFile(filepath.Join(dir, "sweeps", "resume.json"))
	if err != nil {
		return fmt.Errorf("journal after kill: %w", err)
	}
	var journal struct {
		Cells []struct {
			Index int    `json:"index"`
			Key   string `json:"key"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(jraw, &journal); err != nil {
		return fmt.Errorf("decoding journal: %w", err)
	}
	if len(journal.Cells) != okCells || okCells == 0 {
		return fmt.Errorf("journal holds %d cells, sweep completed %d", len(journal.Cells), okCells)
	}
	total := chaosSweepCells
	log.Printf("killed mid-sweep with %d/%d cells journaled", okCells, total)

	d, err = start(bin, dir, "-workers", "1")
	if err != nil {
		return err
	}
	defer d.Kill()
	runsBefore, err := d.MetricSum("sdtd_runs_total{")
	if err != nil {
		return err
	}
	recs, _, err = d.Stream("/v1/sweep", withID(chaosSweep, "resume"), nil)
	if err != nil {
		return err
	}
	replayed, done := 0, 0
	for _, rec := range recs {
		switch rec.Type {
		case "cell":
			if rec.Error != nil {
				return fmt.Errorf("resumed cell %d failed: %+v", rec.Index, rec.Error)
			}
			if !bytes.Equal(rec.Result, g.cells[rec.Index]) {
				return fmt.Errorf("resumed cell %d bytes differ from golden", rec.Index)
			}
			if rec.Replayed == true {
				replayed++
			}
			done++
		case "start":
			if rec.Resumed != okCells {
				return fmt.Errorf("start.resumed = %d, want %d", rec.Resumed, okCells)
			}
		}
	}
	if done != total || replayed != okCells {
		return fmt.Errorf("resume: done=%d replayed=%d, want %d/%d", done, replayed, total, okCells)
	}
	runsAfter, err := d.MetricSum("sdtd_runs_total{")
	if err != nil {
		return err
	}
	if delta := runsAfter - runsBefore; delta != total-okCells {
		return fmt.Errorf("resume executed %d runs, want %d (journaled cells must not re-execute)", delta, total-okCells)
	}
	if _, err := os.Stat(filepath.Join(dir, "sweeps", "resume.json")); !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("journal not retired after full completion (err=%v)", err)
	}
	log.Printf("resume OK (%d replayed, %d executed, journal retired)", replayed, total-okCells)
	return nil
}

// clusterChaosSweep is the phase-5 matrix: 12 cells, so every node of a
// 3-member ring owns a few and the killed node leaves real work behind.
var clusterChaosSweep = service.SweepRequest{
	Workloads: []string{"gzip", "vpr", "mcf", "twolf"},
	Mechs:     []string{"ibtc:1024", "sieve:256", "retcache+ibtc:512"},
	Limit:     10_000_000,
}

// phaseCluster boots a 3-node replicated cluster (-replication=2),
// SIGKILLs a worker node while its shard of a cluster sweep is mid-cell,
// and holds the coordinator to the tentpole guarantee: merged output
// byte-identical to a single node, the dead node's cells reassigned, and
// a follow-up sweep recomputing nothing — every result the victim
// computed before dying survives on its ring replica. Returns the golden
// stream and cell keys for the coordinator-kill phase that follows.
func phaseCluster(bin, tmp string, seed uint64) ([]byte, []string, error) {
	total := len(clusterChaosSweep.Workloads) * len(clusterChaosSweep.Mechs)

	// Golden pass: the same matrix through /v1/cluster/sweep on a lone
	// uncluttered daemon (it degenerates to one local shard), plus a
	// shard call to learn each cell's content-store key.
	gd, err := start(bin, filepath.Join(tmp, "cluster-golden"))
	if err != nil {
		return nil, nil, err
	}
	recs, goldenStream, err := gd.Stream("/v1/cluster/sweep", clusterChaosSweep, nil)
	if err != nil {
		gd.Kill()
		return nil, nil, fmt.Errorf("golden cluster sweep: %w", err)
	}
	for _, rec := range recs {
		if rec.Type == "cell" && rec.Error != nil {
			gd.Kill()
			return nil, nil, fmt.Errorf("golden cell %d failed: %+v", rec.Index, rec.Error)
		}
	}
	keys := make([]string, total)
	shardCells := make([]int, total)
	for i := range shardCells {
		shardCells[i] = i
	}
	srecs, _, err := gd.Stream("/v1/sweep/shard", service.ShardRequest{Sweep: clusterChaosSweep, Cells: shardCells}, nil)
	gd.Kill()
	if err != nil {
		return nil, nil, fmt.Errorf("golden shard: %w", err)
	}
	for _, rec := range srecs {
		if rec.Type == "cell" {
			keys[rec.Index] = rec.Key
		}
	}

	// Three fixed addresses (listen, record, close) so the membership
	// list exists before any daemon does, then a client-side replica of
	// the ring to learn which node owns which cell. The victim is the
	// non-coordinator owning the most cells: killing it mid-shard is
	// guaranteed to strand unfinished work.
	urls, err := sdtdtest.ReservePorts(3)
	if err != nil {
		return nil, nil, err
	}
	ringView, err := cluster.New(cluster.Config{Self: urls[0], Peers: urls, ProbeInterval: -1})
	if err != nil {
		return nil, nil, err
	}
	owned := map[string]int{}
	for _, key := range keys {
		owned[ringView.Owner(key).Name()]++
	}
	victim := 1
	if owned[memberName(urls[2])] > owned[memberName(urls[1])] {
		victim = 2
	}
	if owned[memberName(urls[victim])] < 2 {
		return nil, nil, fmt.Errorf("ring distribution left the victim %d cells of %d; ephemeral ports made a degenerate ring, rerun", owned[memberName(urls[victim])], total)
	}

	// The victim runs one worker with injected per-cell latency, so the
	// kill lands mid-cell deterministically.
	plan := fmt.Sprintf(`{"seed":%d,"points":[{"site":"sweep.cell","class":"latency","every":1,"latency_ms":300}]}`, seed)
	peersArg := strings.Join(urls, ",")
	nodes := make([]*sdtdtest.Daemon, 3)
	for i := range nodes {
		args := []string{"-addr", memberName(urls[i]), "-peers", peersArg, "-self", urls[i],
			"-peer-probe", "150ms", "-replication", "2"}
		if i == victim {
			args = append(args, "-workers", "1", "-fault-plan", plan, "-allow-faults")
		}
		nodes[i], err = start(bin, filepath.Join(tmp, fmt.Sprintf("cluster-%d", i)), args...)
		if err != nil {
			return nil, nil, err
		}
	}
	defer func() {
		for _, d := range nodes {
			if d != nil {
				d.Kill()
			}
		}
	}()

	// Daemons retry their initial peer probe with short backoff until the
	// first success, so the membership converges on its own shortly after
	// the last peer starts listening; this wait just confirms convergence
	// before the sweep is sharded.
	if err := sdtdtest.WaitRing(nodes[:1], 0, 3, 10*time.Second); err != nil {
		return nil, nil, err
	}

	type streamResult struct {
		canonical []byte
		recs      []sdtdtest.Record
		err       error
	}
	res := make(chan streamResult, 1)
	go func() {
		recs, canonical, err := nodes[0].Stream("/v1/cluster/sweep", withID(clusterChaosSweep, "cluster"), nil)
		res <- streamResult{canonical, recs, err}
	}()

	// SIGKILL the victim once it has completed one cell AND replication
	// has quiesced — every result computed so far has been received by
	// its ring replica (with RF=2 each run fans out exactly once), so the
	// kill loses no data. With one worker and 300ms injected latency the
	// victim is necessarily mid-way through its next cell.
	quiesced := func() bool {
		vruns, err := nodes[victim].MetricSum("sdtd_runs_total{")
		if err != nil || vruns < 1 {
			return false
		}
		runs, recv := 0, 0
		for _, d := range nodes {
			r, err := d.MetricSum("sdtd_runs_total{")
			if err != nil {
				return false
			}
			v, err := d.Metric("sdtd_replication_received_total")
			if err != nil {
				return false
			}
			runs += r
			recv += v
		}
		return runs > 0 && recv == runs
	}
	killDeadline := time.Now().Add(60 * time.Second)
	stable := 0
	for stable < 2 {
		if time.Now().After(killDeadline) {
			return nil, nil, errors.New("victim never completed a replicated cell")
		}
		select {
		case r := <-res:
			return nil, nil, fmt.Errorf("sweep finished before the victim could be killed (err=%v, %d records, owned=%v, victim=%s)",
				r.err, len(r.recs), owned, memberName(urls[victim]))
		default:
		}
		if quiesced() {
			stable++
		} else {
			stable = 0
		}
		time.Sleep(25 * time.Millisecond)
	}
	nodes[victim].Kill()
	log.Printf("cluster: killed %s mid-shard after replication quiesced (%d cells owned)",
		memberName(urls[victim]), owned[memberName(urls[victim])])

	r := <-res
	if r.err != nil {
		return nil, nil, fmt.Errorf("cluster sweep through a kill: %w", r.err)
	}
	for _, rec := range r.recs {
		if rec.Type == "cell" && rec.Error != nil {
			return nil, nil, fmt.Errorf("cell %d failed after the kill: %+v", rec.Index, rec.Error)
		}
	}
	if !bytes.Equal(r.canonical, goldenStream) {
		return nil, nil, fmt.Errorf("merged 3-node stream differs from single-node golden through a kill:\n--- golden\n%s--- merged\n%s", goldenStream, r.canonical)
	}
	reassigned, err := nodes[0].Metric("sdtd_cluster_sweep_reassigned_cells_total")
	if err != nil {
		return nil, nil, err
	}
	if reassigned == 0 {
		return nil, nil, errors.New("a node died mid-shard but no cells were counted reassigned")
	}
	log.Printf("cluster: merged stream byte-identical through the kill (%d cells reassigned)", reassigned)

	// The replication guarantee: nothing died with the victim. Its
	// pre-kill results live on ring replicas, post-kill results live on
	// their surviving executors, so the follow-up sweep executes zero
	// cells fleet-wide.
	var survivors []*sdtdtest.Daemon
	for i, d := range nodes {
		if i != victim {
			survivors = append(survivors, d)
		}
	}
	survivorRuns, err := fleetRuns(survivors)
	if err != nil {
		return nil, nil, err
	}
	_, canonical2, err := nodes[0].Stream("/v1/cluster/sweep", withID(clusterChaosSweep, "cluster"), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("follow-up sweep: %w", err)
	}
	if !bytes.Equal(canonical2, goldenStream) {
		return nil, nil, errors.New("follow-up sweep stream differs from golden")
	}
	survivorRunsAfter, err := fleetRuns(survivors)
	if err != nil {
		return nil, nil, err
	}
	if rerun := survivorRunsAfter - survivorRuns; rerun != 0 {
		return nil, nil, fmt.Errorf("follow-up recomputed %d cells; with replication quiesced before the kill every result must survive", rerun)
	}
	log.Printf("cluster OK (0 recomputed: all %d results survived the kill on replicas)", total)
	return goldenStream, keys, nil
}

// phaseAdopt kills the coordinator of a journaled cluster sweep
// mid-matrix and has a survivor adopt it through the replicated
// checkpoint journal.
func phaseAdopt(bin, tmp string, seed uint64, goldenStream []byte, keys []string) error {
	total := len(keys)
	urls, err := sdtdtest.ReservePorts(3)
	if err != nil {
		return err
	}
	// Every node runs one worker with injected per-cell latency, so the
	// matrix is reliably still in flight when the coordinator dies.
	plan := fmt.Sprintf(`{"seed":%d,"points":[{"site":"sweep.cell","class":"latency","every":1,"latency_ms":300}]}`, seed)
	peersArg := strings.Join(urls, ",")
	nodes := make([]*sdtdtest.Daemon, 3)
	dirs := make([]string, 3)
	for i := range nodes {
		dirs[i] = filepath.Join(tmp, fmt.Sprintf("adopt-%d", i))
		nodes[i], err = start(bin, dirs[i],
			"-addr", memberName(urls[i]), "-peers", peersArg, "-self", urls[i],
			"-peer-probe", "150ms", "-replication", "2",
			"-workers", "1", "-fault-plan", plan, "-allow-faults")
		if err != nil {
			return err
		}
	}
	defer func() {
		for _, d := range nodes {
			if d != nil {
				d.Kill()
			}
		}
	}()
	if err := sdtdtest.WaitRing(nodes[:1], 0, 3, 10*time.Second); err != nil {
		return err
	}

	res := make(chan error, 1)
	go func() {
		// The stream dies with the coordinator; the error is expected.
		_, _, err := nodes[0].Stream("/v1/cluster/sweep", withID(clusterChaosSweep, "adopt"), nil)
		res <- err
	}()

	// SIGKILL the coordinator once a survivor holds a journal replica
	// that records at least one completed cell — the artifact adoption
	// depends on.
	killDeadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(killDeadline) {
			return errors.New("no survivor ever held a non-empty journal replica")
		}
		select {
		case err := <-res:
			return fmt.Errorf("sweep finished before the coordinator could be killed (err=%v)", err)
		default:
		}
		if j, err := readJournalIndexes(filepath.Join(dirs[1], "sweeps", "adopt.json")); err == nil && len(j) > 0 {
			break
		}
		if j, err := readJournalIndexes(filepath.Join(dirs[2], "sweeps", "adopt.json")); err == nil && len(j) > 0 {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	nodes[0].Kill()
	<-res
	log.Printf("adopt: killed the coordinator %s mid-sweep", memberName(urls[0]))

	// Let the survivors' replication drain, then take stock: which cells
	// the replicated journal covers, and which results exist on any
	// surviving store. The adopted sweep must re-execute exactly the
	// cells whose bytes are nowhere — the journal gap.
	if err := waitReplQuiet(nodes[1:], 10*time.Second); err != nil {
		return err
	}
	journaled, err := readJournalIndexes(filepath.Join(dirs[1], "sweeps", "adopt.json"))
	if err != nil {
		journaled, err = readJournalIndexes(filepath.Join(dirs[2], "sweeps", "adopt.json"))
	}
	if err != nil || len(journaled) == 0 {
		return fmt.Errorf("journal replica unreadable after the kill: %v", err)
	}
	expectRuns := 0
	for _, key := range keys {
		if !nodes[1].HasKey(key) && !nodes[2].HasKey(key) {
			expectRuns++
		}
	}
	runsBefore, err := fleetRuns(nodes[1:])
	if err != nil {
		return err
	}

	recs, canonical, err := nodes[1].Stream("/v1/cluster/sweep?adopt=adopt", withID(clusterChaosSweep, "adopt"), nil)
	if err != nil {
		return fmt.Errorf("adoption sweep: %w", err)
	}
	resumed := -1
	for _, rec := range recs {
		switch rec.Type {
		case "start":
			resumed = rec.Resumed
		case "cell":
			if rec.Error != nil {
				return fmt.Errorf("adopted cell %d failed: %+v", rec.Index, rec.Error)
			}
		case "done":
			if rec.Done != total || rec.Errors != 0 {
				return fmt.Errorf("adopted sweep done=%d errors=%d, want the full %d-cell matrix", rec.Done, rec.Errors, total)
			}
		}
	}
	// The adopted stream is byte-identical to the golden one apart from
	// the start record, whose resumed count reflects the journal replay.
	if !bytes.Equal(afterFirstLine(canonical), afterFirstLine(goldenStream)) {
		return fmt.Errorf("adopted stream differs from golden beyond the start record:\n--- golden\n%s--- adopted\n%s", goldenStream, canonical)
	}
	if resumed < 0 || resumed > len(journaled) {
		return fmt.Errorf("adoption resumed %d cells, journal replica held %d", resumed, len(journaled))
	}
	runsAfter, err := fleetRuns(nodes[1:])
	if err != nil {
		return err
	}
	if rerun := runsAfter - runsBefore; rerun != expectRuns {
		return fmt.Errorf("adoption re-executed %d cells, want exactly the %d held by no survivor", rerun, expectRuns)
	}
	adopted, err := nodes[1].Metric("sdtd_cluster_sweeps_adopted_total")
	if err != nil {
		return err
	}
	if adopted != 1 {
		return fmt.Errorf("sdtd_cluster_sweeps_adopted_total = %d on the adopter, want 1", adopted)
	}
	log.Printf("adopt OK (journal replica covered %d cells, %d replayed, %d re-executed)",
		len(journaled), resumed, expectRuns)
	return nil
}

// readJournalIndexes parses a checkpoint journal's completed-cell set.
func readJournalIndexes(path string) (map[int]bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jf struct {
		Cells []struct {
			Index int `json:"index"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &jf); err != nil {
		return nil, err
	}
	set := make(map[int]bool, len(jf.Cells))
	for _, c := range jf.Cells {
		set[c.Index] = true
	}
	return set, nil
}

// waitReplQuiet polls until every node's replication queue is empty and
// its counters stop moving — in-flight fan-out has landed (or parked as
// pending toward dead peers).
func waitReplQuiet(nodes []*sdtdtest.Daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	snapshot := func() (int, error) {
		sum := 0
		for _, d := range nodes {
			for _, series := range []string{
				"sdtd_replication_queue_depth",
				"sdtd_replication_sent_total",
				"sdtd_replication_failed_total",
			} {
				v, err := d.Metric(series)
				if err != nil {
					return 0, err
				}
				if series == "sdtd_replication_queue_depth" && v != 0 {
					return -1, nil // still draining
				}
				sum += v
			}
		}
		return sum, nil
	}
	prev := -2
	for {
		cur, err := snapshot()
		if err != nil {
			return err
		}
		if cur >= 0 && cur == prev {
			return nil
		}
		prev = cur
		if time.Now().After(deadline) {
			return errors.New("replication never quiesced")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// afterFirstLine drops a stream's first record (the start line, which
// legitimately differs between a fresh and an adopted sweep).
func afterFirstLine(stream []byte) []byte {
	if i := bytes.IndexByte(stream, '\n'); i >= 0 {
		return stream[i+1:]
	}
	return nil
}

func memberName(url string) string { return strings.TrimPrefix(url, "http://") }

// start boots a quiet sdtd child on dir; every phase's daemons run -q.
func start(bin, dir string, extra ...string) (*sdtdtest.Daemon, error) {
	return sdtdtest.Start(bin, dir, append([]string{"-q"}, extra...)...)
}

// runRetry submits one request, retrying server-side failures (the storm
// injects them on purpose) up to attempts times.
func runRetry(d *sdtdtest.Daemon, req service.RunRequest, attempts int) ([]byte, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		status, body, err := d.Post(req)
		switch {
		case err != nil:
			lastErr = err
		case status == http.StatusOK:
			var resp service.RunResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, err
			}
			return resp.Result, nil
		case status >= 500 || status == http.StatusTooManyRequests:
			lastErr = fmt.Errorf("status %d: %s", status, body)
		default:
			// 4xx other than 429 is a real bug, not storm damage.
			return nil, fmt.Errorf("non-retryable status %d: %s", status, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil, lastErr
}

// withID returns req checkpointed under id ("" = not checkpointed).
func withID(req service.SweepRequest, id string) service.SweepRequest {
	req.ID = id
	return req
}

// fleetRuns sums sdtd_runs_total over nodes: the runs the fleet executed.
func fleetRuns(nodes []*sdtdtest.Daemon) (int, error) {
	total := 0
	for _, d := range nodes {
		n, err := d.MetricSum("sdtd_runs_total{")
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
