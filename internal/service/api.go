// Package service implements sdtd, the translation-as-a-service daemon: an
// HTTP front end that accepts guest programs (SimRISC-32 assembly or MiniC
// source) plus an {arch, mechanism spec, seed} tuple, executes them through
// the sdt pipeline on a bounded worker pool, and serves the full
// measurement — native baseline, SDT result, slowdown and IB profile — as
// JSON. Results are memoized in a content-addressed store (in-memory LRU
// over an optional on-disk layer, shared single-flight with the bench
// Runner), so identical submissions are served from cache across restarts
// and concurrent duplicates execute once. Execution is cancellable: each
// request carries a deadline that is plumbed as a context down into the
// dispatch loops of both the native machine and the SDT.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"sdt/internal/asm"
	"sdt/internal/cluster"
	"sdt/internal/hostarch"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/minic"
	"sdt/internal/profile"
	"sdt/internal/program"
)

// Request languages.
const (
	LangAsm   = "asm"
	LangMiniC = "minic"
)

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	// Name labels the program in errors and results (default "guest").
	Name string `json:"name,omitempty"`
	// Lang is the source language: "asm" (default) or "minic".
	Lang string `json:"lang,omitempty"`
	// Source is the guest program text.
	Source string `json:"source"`
	// Arch names the host cost model: "x86" (default), "sparc" or "arm",
	// each also reachable under its "-like" alias (e.g. "arm-like").
	Arch string `json:"arch,omitempty"`
	// Mech is the indirect-branch mechanism spec (default "ibtc:16384").
	Mech string `json:"mech,omitempty"`
	// Seed partitions the result key space; the pipeline is deterministic,
	// so distinct seeds produce identical measurements in distinct cache
	// entries (clients use it to force or segregate recomputation).
	Seed uint64 `json:"seed,omitempty"`
	// Limit is the instruction budget per execution (0 = default 2e9).
	Limit uint64 `json:"limit,omitempty"`
	// TimeoutMS bounds wall-clock execution for this request; 0 selects
	// the server default, and values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (req *RunRequest) withDefaults() {
	if req.Name == "" {
		req.Name = "guest"
	}
	if req.Lang == "" {
		req.Lang = LangAsm
	}
	if req.Arch == "" {
		req.Arch = "x86"
	}
	if req.Mech == "" {
		req.Mech = "ibtc:16384"
	}
}

// compile builds the program image for the request.
func (req *RunRequest) compile() (*program.Image, error) {
	switch req.Lang {
	case LangAsm:
		return asm.Assemble(req.Name, req.Source)
	case LangMiniC:
		return minic.CompileToImage(req.Name, req.Source)
	default:
		return nil, fmt.Errorf("unknown lang %q (want %q or %q)", req.Lang, LangAsm, LangMiniC)
	}
}

// key derives the content address of the request's result:
// hash(image bytes | arch | mech | seed | limit | cost-model version).
// Hashing the compiled image (not the source text) means formatting-only
// source changes still hit the cache, while anything that could change the
// measurement — including recalibrated cost models — misses. It is the
// definition of the key: the server derives the same bytes in
// Server.compiled by resuming the image's memoized hash state.
func (req *RunRequest) key(img *program.Image) string {
	h := sha256.New()
	img.WriteTo(h)
	return req.keyAfter(h)
}

// keyAfter finishes req's key from h, a sha256 that has hashed exactly
// the image bytes.
func (req *RunRequest) keyAfter(h hash.Hash) string {
	fmt.Fprintf(h, "|%s|%s|%d|%d|cm%d", req.Arch, req.Mech, req.Seed, req.Limit, hostarch.CostModelVersion)
	return hex.EncodeToString(h.Sum(nil))
}

// ExecSummary is one execution's result in the JSON response. Checksum is
// hex-formatted: it ranges over all 64 bits, which arbitrary JSON clients
// cannot round-trip as a number.
type ExecSummary struct {
	Cycles   uint64 `json:"cycles"`
	Instret  uint64 `json:"instret"`
	Checksum string `json:"checksum"`
	OutCount uint64 `json:"out_count"`
	ExitCode uint32 `json:"exit_code"`
}

func summarize(r machine.Result) ExecSummary {
	return ExecSummary{
		Cycles:   r.Cycles,
		Instret:  r.Instret,
		Checksum: fmt.Sprintf("0x%016x", r.Checksum),
		OutCount: r.OutCount,
		ExitCode: r.ExitCode,
	}
}

// RunProfile is the SDT execution profile in the JSON response.
type RunProfile struct {
	IBReturns         uint64  `json:"ib_returns"`
	IBJumps           uint64  `json:"ib_jumps"`
	IBCalls           uint64  `json:"ib_calls"`
	MechHits          uint64  `json:"mech_hits"`
	MechMisses        uint64  `json:"mech_misses"`
	HitRate           float64 `json:"hit_rate"`
	TranslatorEntries uint64  `json:"translator_entries"`
	Translations      uint64  `json:"translations"`
	TransInsts        uint64  `json:"trans_insts"`
	Flushes           uint64  `json:"flushes"`
	CyclesIB          uint64  `json:"cycles_ib"`
	CyclesCtx         uint64  `json:"cycles_ctx"`
	CyclesTrans       uint64  `json:"cycles_trans"`
}

func summarizeProfile(p *profile.Profile) RunProfile {
	return RunProfile{
		IBReturns:         p.IBExec[isa.IBReturn],
		IBJumps:           p.IBExec[isa.IBJump],
		IBCalls:           p.IBExec[isa.IBCall],
		MechHits:          p.MechHits,
		MechMisses:        p.MechMisses,
		HitRate:           p.HitRate(),
		TranslatorEntries: p.TranslatorEntries,
		Translations:      p.Translations,
		TransInsts:        p.TransInsts,
		Flushes:           p.Flushes,
		CyclesIB:          p.CyclesIB,
		CyclesCtx:         p.CyclesCtx,
		CyclesTrans:       p.CyclesTrans,
	}
}

// RunResult is the cacheable measurement: everything derived only from
// (image, arch, mech, seed, limit). It is what the content-addressed store
// persists, so identical submissions return byte-identical result objects.
type RunResult struct {
	Key      string      `json:"key"`
	Name     string      `json:"name"`
	Lang     string      `json:"lang"`
	Arch     string      `json:"arch"`
	Mech     string      `json:"mech"`
	Seed     uint64      `json:"seed"`
	Native   ExecSummary `json:"native"`
	SDT      ExecSummary `json:"sdt"`
	Slowdown float64     `json:"slowdown"`
	Profile  RunProfile  `json:"profile"`
}

// RunResponse is the body of a successful POST /v1/run.
type RunResponse struct {
	// Cached reports whether Result was served from the store (memory or
	// disk) rather than executed for this request.
	Cached bool `json:"cached"`
	// ElapsedMS is this request's wall-clock service time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Result is the stored RunResult, verbatim.
	Result json.RawMessage `json:"result"`
}

// Error codes returned in ErrorInfo.Code.
const (
	CodeInvalidRequest   = "invalid_request"   // malformed JSON / unsupported fields
	CodeInvalidArgument  = "invalid_argument"  // unknown arch or mechanism spec
	CodeInvalidProgram   = "invalid_program"   // source failed to assemble/compile
	CodeQueueFull        = "queue_full"        // admission queue at capacity (retry later)
	CodeDraining         = "draining"          // server is shutting down
	CodeDeadlineExceeded = "deadline_exceeded" // run cancelled at its deadline
	CodeCanceled         = "canceled"          // client went away mid-run
	CodeLimitExceeded    = "limit_exceeded"    // instruction budget exhausted
	CodeRunFailed        = "run_failed"        // guest faulted
	CodeDivergence       = "divergence"        // SDT result != native result (a bug)
	CodeForbidden        = "forbidden"         // admin endpoint without a valid admin token
	CodeNotFound         = "not_found"         // referenced object does not exist
	CodeInternal         = "internal"          // panic or other server-side failure
)

// Health statuses reported by GET /healthz.
const (
	HealthOK       = "ok"       // fully operational (200)
	HealthDegraded = "degraded" // serving, but the disk store is bypassed (200)
	HealthDraining = "draining" // shutting down, stop routing here (503)
)

// StoreHealth is the result-store section of a Health report.
type StoreHealth struct {
	// Persistent reports whether the store was opened with a disk layer.
	Persistent bool `json:"persistent"`
	// Degraded reports whether the disk layer is currently bypassed by
	// its circuit breaker (memory-LRU-only operation).
	Degraded bool `json:"degraded"`
	// Corruptions counts entries that failed integrity verification.
	Corruptions uint64 `json:"corruptions"`
	// Quarantined counts corrupt entries preserved under quarantine/.
	Quarantined uint64 `json:"quarantined"`
	// DiskErrors counts disk reads/writes that failed outright.
	DiskErrors uint64 `json:"disk_errors"`
}

// Health is the body of GET /healthz. The HTTP status stays coarse for
// load balancers (200 while serving — including degraded — 503 while
// draining); the body carries the detail.
type Health struct {
	Status string      `json:"status"` // HealthOK, HealthDegraded or HealthDraining
	Store  StoreHealth `json:"store"`
	// Cluster is the per-peer fleet view when this node runs clustered
	// (absent single-node). Any down or breaker-guarded peer reports
	// the node degraded: it keeps serving, but results owned elsewhere
	// may be recomputed locally instead of fetched.
	Cluster []cluster.PeerHealth `json:"cluster,omitempty"`
	// ClusterEpoch is the ring epoch of this node's current membership
	// view (0 at boot; every join or leave increments it). All members
	// report the same epoch once a membership change has converged.
	ClusterEpoch uint64 `json:"cluster_epoch,omitempty"`
	// Replication is the configured replication factor (clustered only;
	// 1 = no replication).
	Replication int `json:"replication,omitempty"`
	// ReplStats snapshots the replication counters (clustered only).
	ReplStats *cluster.ReplStats `json:"replication_stats,omitempty"`
}

// MemberChange is the body of POST /v1/cluster/join and /leave: the
// base URL of the member being added or removed.
type MemberChange struct {
	URL string `json:"url"`
}

// MembershipUpdate is the body of POST /v1/cluster/membership — the
// authoritative membership at one ring epoch, broadcast by whichever
// node served a join or leave (cluster.Broadcast sends it).
type MembershipUpdate = cluster.MembershipUpdate

// MembershipResponse answers the membership endpoints with the view now
// in effect on the serving node.
type MembershipResponse struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// ErrorInfo is the machine-readable error in an ErrorResponse.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorInfo `json:"error"`
}
