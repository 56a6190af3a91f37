// sdtd is the translation-as-a-service daemon: it serves the sdt pipeline
// (assemble/compile, native baseline, SDT run, IB profile) over HTTP with
// a bounded worker pool, a persistent content-addressed result store and
// cancellable execution. See docs/SERVICE.md for the API.
//
// Usage:
//
//	sdtd [-addr host:port] [-store dir] [-workers n] [-queue n]
//	     [-mem n] [-timeout d] [-max-timeout d] [-drain-timeout d] [-q]
//	     [-sweep-cells n] [-sweep-heartbeat d] [-debug-addr host:port]
//	     [-breaker-threshold n] [-breaker-cooldown d]
//	     [-peers url,url,... -self url] [-peer-probe d]
//	     [-peer-breaker-threshold n] [-peer-breaker-cooldown d]
//	     [-replication n] [-admin-token secret]
//	     [-fault-plan file|json -allow-faults]
//
// -peers joins a cluster (see docs/CLUSTER.md): the comma-separated base
// URLs name every boot member, -self says which one this daemon is, and
// must appear in the list. Clustered daemons serve results from each
// other's stores and accept /v1/cluster/sweep, which fans a sweep matrix
// out across the fleet. -replication=N fans each freshly computed result
// out to the first N ring successors, so any single member can die
// without taking the sole copy of its keys. -admin-token enables the
// POST /v1/cluster/join and /leave endpoints, which rebuild the ring at
// runtime without restarting any daemon (every member must be given the
// same token).
//
// -fault-plan arms deterministic fault injection (see docs/ROBUSTNESS.md
// for the plan format and site names). It deliberately makes the daemon
// misbehave, so it is refused unless -allow-faults is also given.
//
// -debug-addr serves Go's net/http/pprof profiling endpoints on a separate
// listener (keep it on loopback; it is intentionally not exposed through
// the service port). See docs/PERF.md for profiling the dispatch loop.
//
// The daemon prints "sdtd: listening on http://HOST:PORT" once it is
// serving (with -addr :0, the chosen port), answers /healthz, and on
// SIGTERM/SIGINT stops admitting work, finishes in-flight jobs, and exits
// 0 — a clean rolling-restart citizen.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sdt/internal/cluster"
	"sdt/internal/faultinject"
	"sdt/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8321", "listen address (use :0 for an ephemeral port)")
		storeDir     = flag.String("store", "", "on-disk result store directory (empty = memory only)")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admission queue depth (excess submissions get 429)")
		memEntries   = flag.Int("mem", 1024, "in-memory result LRU capacity, entries")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-request run timeout")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "cap on request-supplied timeouts")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long shutdown waits for in-flight requests")
		sweepCells   = flag.Int("sweep-cells", 0, "max cells one /v1/sweep may expand to (0 = default 2048)")
		sweepBeat    = flag.Duration("sweep-heartbeat", 0, "progress heartbeat interval for sweep streams (0 = default 5s)")
		quiet        = flag.Bool("q", false, "suppress per-request logging")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		faultPlan    = flag.String("fault-plan", "", "deterministic fault-injection plan: a file path or inline JSON (testing only; requires -allow-faults)")
		allowFaults  = flag.Bool("allow-faults", false, "acknowledge that -fault-plan deliberately breaks this daemon")
		breakerN     = flag.Int("breaker-threshold", 0, "consecutive disk failures that trip the store breaker (0 = default 5, < 0 = disabled)")
		breakerWait  = flag.Duration("breaker-cooldown", 0, "store breaker open -> half-open wait (0 = default 1s)")
		peers        = flag.String("peers", "", "comma-separated base URLs of every cluster member (empty = standalone)")
		self         = flag.String("self", "", "this daemon's own base URL; must appear in -peers")
		peerProbe    = flag.Duration("peer-probe", 0, "peer health probe interval (0 = default 2s, < 0 = disabled)")
		peerBreakerN = flag.Int("peer-breaker-threshold", 0, "consecutive fetch failures that open a peer's circuit (0 = default 3)")
		peerBreakerW = flag.Duration("peer-breaker-cooldown", 0, "peer breaker open -> half-open wait (0 = default 1s)")
		replication  = flag.Int("replication", 1, "ring successors holding each result, owner included (1 = no replication)")
		adminToken   = flag.String("admin-token", "", "token guarding the membership endpoints (empty = join/leave disabled)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "sdtd: ", log.LstdFlags)
	reqLog := logger
	if *quiet {
		reqLog = log.New(io.Discard, "", 0)
	}

	// A fault plan turns the daemon hostile on purpose; refuse it unless
	// the operator states that is what they want.
	var inj *faultinject.Injector
	if *faultPlan != "" {
		if !*allowFaults {
			logger.Fatal("-fault-plan is a testing feature that deliberately injects failures; pass -allow-faults to confirm")
		}
		plan, err := faultinject.ParsePlan(*faultPlan)
		if err != nil {
			logger.Fatalf("parsing -fault-plan: %v", err)
		}
		inj = faultinject.New(plan)
		logger.Printf("fault injection armed: seed=%d points=%d", plan.Seed, len(plan.Points))
	}

	// The -peers list is only the boot-time membership (ring epoch 0);
	// it is resolved here, before the service exists, and the server
	// takes lifecycle ownership (arms the peer store tier, starts and
	// stops the prober, applies runtime join/leave updates).
	var cl *cluster.Cluster
	if *peers != "" {
		if *self == "" {
			logger.Fatal("-peers requires -self (this daemon's own URL, present in the peer list)")
		}
		var members []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		c, err := cluster.New(cluster.Config{
			Self:             *self,
			Peers:            members,
			Replication:      *replication,
			ProbeInterval:    *peerProbe,
			BreakerThreshold: *peerBreakerN,
			BreakerCooldown:  *peerBreakerW,
			Faults:           inj,
		})
		if err != nil {
			logger.Fatalf("forming cluster: %v", err)
		}
		cl = c
		logger.Printf("cluster member %s of %d peers, replication=%d", cl.SelfName(), cl.CurrentView().Size(), cl.ReplicationFactor())
	} else if *self != "" {
		logger.Fatal("-self is meaningless without -peers")
	}

	srv, err := service.New(service.Config{
		Workers:               *workers,
		QueueDepth:            *queue,
		StoreDir:              *storeDir,
		MemEntries:            *memEntries,
		DefaultTimeout:        *timeout,
		MaxTimeout:            *maxTimeout,
		MaxSweepCells:         *sweepCells,
		SweepHeartbeat:        *sweepBeat,
		StoreBreakerThreshold: *breakerN,
		StoreBreakerCooldown:  *breakerWait,
		Faults:                inj,
		Cluster:               cl,
		AdminToken:            *adminToken,
		Log:                   reqLog,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The startup line goes to stdout, unbuffered, so supervisors (and the
	// CI smoke driver) can scrape the ephemeral port.
	fmt.Printf("sdtd: listening on http://%s\n", ln.Addr())

	// The profiling endpoints live on their own listener so they are never
	// reachable through the service port: the debug address stays on
	// loopback (or a firewalled interface) while -addr may be public.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Fatal(err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("sdtd: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("debug serve: %v", err)
			}
		}()
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case got := <-sig:
		logger.Printf("received %v, draining (in-flight jobs will finish)", got)
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	}

	// Drain order: stop routing (healthz 503, submissions rejected), let
	// the HTTP layer finish in-flight requests, then stop the pool.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("shutdown: %v", err)
	}
	srv.Close()
	logger.Print("drained, exiting")
}
