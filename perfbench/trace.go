package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"sdt/internal/cache"
	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/isa"
	"sdt/internal/machine"
	"sdt/internal/predictor"
	"sdt/internal/program"
	"sdt/internal/workload"
)

// timedHandler decorates an IB handler: it counts Resolve calls and times
// every resolveSampleEvery-th one, keeping the decorator's own clock reads
// off most calls of the hottest boundary in the simulator.
type timedHandler struct {
	core.IBHandler
	calls, sampled uint64
	sampledT       time.Duration
}

const resolveSampleEvery = 8

func (h *timedHandler) Resolve(vm *core.VM, site *core.IBSite, target uint32) (*core.Fragment, error) {
	h.calls++
	if h.calls%resolveSampleEvery != 0 {
		return h.IBHandler.Resolve(vm, site, target)
	}
	t := time.Now()
	f, err := h.IBHandler.Resolve(vm, site, target)
	h.sampledT += time.Since(t)
	h.sampled++
	return f, err
}

// busy estimates the total time spent in Resolve from the sampled calls.
func (h *timedHandler) busy() time.Duration {
	if h.sampled == 0 {
		return 0
	}
	return time.Duration(float64(h.sampledT) * float64(h.calls) / float64(h.sampled))
}

// observingHandler is timedHandler for inner handlers that observe calls.
type observingHandler struct{ *timedHandler }

func (h observingHandler) OnCall(vm *core.VM, guestRet uint32) {
	h.IBHandler.(core.CallObserver).OnCall(vm, guestRet)
}

// wrap returns the decorator as the handler core should see. core asserts
// core.CallObserver on its handler, so the decorator implements OnCall
// exactly when the handler it wraps does.
func (h *timedHandler) wrap() core.IBHandler {
	if _, ok := h.IBHandler.(core.CallObserver); ok {
		return observingHandler{h}
	}
	return h
}

// ibHeavy and ibSparse are the workloads whose indirect branches are
// densest and sparsest; ib.resolve_share is reported for each group.
var (
	ibHeavy  = map[string]bool{"gcc": true, "eon": true, "perlbmk": true, "gap": true}
	ibSparse = map[string]bool{"gzip": true, "mcf": true, "bzip2": true, "twolf": true}
)

// tracedRun runs the traced phase of every workload, so that one traced run
// reports every per-layer metric. Each phase first measures its workload
// untraced in the same process, which gives the base of the tracing
// overhead ratio, and checks that tracing changed no simulated count.
func tracedRun(cfg config) (*outcome, error) {
	o := &outcome{}
	for _, phase := range []func(config, *outcome) error{simTraced, serveTraced, fleetTraced} {
		if err := phase(cfg, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// addAll adds metrics to the per-layer report.
func (o *outcome) addAll(ms ...metric) error {
	for _, m := range ms {
		if err := o.metrics.add(m); err != nil {
			return err
		}
	}
	return nil
}

// simLayer accumulates a traced sim pass, per call boundary.
type simLayer struct {
	nativeT                            map[string]time.Duration // by arch
	nativeInst                         map[string]uint64
	runT                               map[string]time.Duration // by mech, by arch and by IB class
	runInst                            map[string]uint64
	resolveT                           map[string]time.Duration // by IB class
	newT, recycleT                     time.Duration
	sdtCells                           int
	resolveCalls, resolveSampled       uint64
	resolveSampledT                    time.Duration
	translations, entries, flushes, cy uint64
}

func (l *simLayer) addSDT(c simCell, hk *sdtHooks, counts simCounts) {
	inst := counts.Result.Instret
	for _, k := range []string{mechShort(c.mech), c.arch} {
		l.runT[k] += hk.runT
		l.runInst[k] += inst
	}
	class := ""
	switch {
	case ibHeavy[c.wl]:
		class = "ibheavy"
	case ibSparse[c.wl]:
		class = "ibsparse"
	}
	if class != "" {
		l.runT[class] += hk.runT
		l.resolveT[class] += hk.handler.busy()
	}
	l.newT += hk.newT
	l.recycleT += hk.recycleT
	l.sdtCells++
	l.resolveCalls += hk.handler.calls
	l.resolveSampled += hk.handler.sampled
	l.resolveSampledT += hk.handler.sampledT
	l.translations += counts.Translations
	l.entries += counts.TranslatorEntries
	l.flushes += counts.Flushes
	l.cy += counts.Result.Cycles
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func simTraced(cfg config, o *outcome) error {
	env, err := simSetup()
	if err != nil {
		return err
	}
	// workload.Spec.Image at default scale, the set-up's main cost.
	var imgT time.Duration
	var imgs int
	for r := 0; r < 3; r++ {
		for _, name := range workload.SPECNames() {
			spec, err := workload.Get(name)
			if err != nil {
				return err
			}
			t := time.Now()
			if _, err := spec.Image(0); err != nil {
				return err
			}
			imgT += time.Since(t)
			imgs++
		}
	}

	cells := simCells(cfg.seed)
	runs := make([][]simCounts, len(cells))
	// Untraced pass, under the CPU profiler only.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var untracedT time.Duration
	var insts uint64
	for i, c := range cells {
		counts, d, err := env.run(c, nil)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		untracedT += d
		insts += counts.Result.Instret
		runs[i] = append(runs[i], counts)
	}
	pprof.StopCPUProfile()

	// Traced pass: the same cells with every call boundary timed.
	l := &simLayer{nativeT: map[string]time.Duration{}, nativeInst: map[string]uint64{},
		runT: map[string]time.Duration{}, runInst: map[string]uint64{}, resolveT: map[string]time.Duration{}}
	var tracedT time.Duration
	for i, c := range cells {
		var hk *sdtHooks
		if c.mech != "" {
			hk = &sdtHooks{}
		}
		counts, d, err := env.run(c, hk)
		if err != nil {
			return err
		}
		tracedT += d
		runs[i] = append(runs[i], counts)
		if hk == nil {
			l.nativeT[c.arch] += d
			l.nativeInst[c.arch] += counts.Result.Instret
		} else {
			l.addSDT(c, hk, counts)
		}
	}
	// Every repeat must match, so this also asserts that tracing left every
	// simulated count of every cell identical to the untraced pass.
	failed, msgs := checkSimCells(cells, runs)
	for _, m := range msgs {
		fmt.Println("  FAIL traced sim:", m)
	}
	o.attempted += len(cells)
	o.failed += failed

	shares, err := cpuShares(prof.Bytes(), cfg.dir)
	if err != nil {
		return fmt.Errorf("reducing the CPU profile: %w", err)
	}
	sdt := uint64(l.sdtCells)
	ms := []metric{
		{Name: "sim.guest_mips", Value: float64(insts) / untracedT.Seconds() / 1e6, Unit: "Minst/s", Samples: len(cells), Note: "untraced pass"},
		{Name: "sim.untraced_per_s", Value: float64(len(cells)) / untracedT.Seconds(), Unit: "1/s", Samples: len(cells), Note: "base of sim.trace_ratio"},
		{Name: "sim.trace_ratio", Value: untracedT.Seconds() / tracedT.Seconds(), Unit: "ratio", Note: "traced/untraced throughput"},
		{Name: "workload.image_ms", Value: msOf(imgT) / float64(imgs), Unit: "ms", Samples: imgs, Note: "mean"},
	}
	for _, a := range simArchs {
		ms = append(ms, metric{Name: "machine.native_ns_per_inst." + a, Value: nsPer(l.nativeT[a], l.nativeInst[a]), Unit: "ns"})
	}
	for _, m := range simMechs {
		k := mechShort(m)
		ms = append(ms, metric{Name: "core.ns_per_inst." + k, Value: nsPer(l.runT[k], l.runInst[k]), Unit: "ns", Note: "VM.Run"})
	}
	for _, a := range simArchs {
		ms = append(ms, metric{Name: "core.ns_per_inst." + a, Value: nsPer(l.runT[a], l.runInst[a]), Unit: "ns", Note: "VM.Run"})
	}
	ms = append(ms,
		metric{Name: "core.new_us", Value: usOf(l.newT) / float64(sdt), Unit: "us", Samples: l.sdtCells, Note: "mean"},
		metric{Name: "core.recycle_us", Value: usOf(l.recycleT) / float64(sdt), Unit: "us", Samples: l.sdtCells, Note: "mean"},
		metric{Name: "core.translations", Value: float64(l.translations), Unit: "count", Note: "exact"},
		metric{Name: "core.translator_entries", Value: float64(l.entries), Unit: "count", Note: "exact"},
		metric{Name: "core.flushes", Value: float64(l.flushes), Unit: "count", Note: "exact"},
		metric{Name: "core.sim_cycles", Value: float64(l.cy), Unit: "count", Note: "exact"},
		metric{Name: "ib.resolve_calls", Value: float64(l.resolveCalls), Unit: "count"},
		metric{Name: "ib.resolve_ns", Value: nsPer(l.resolveSampledT, l.resolveSampled), Unit: "ns", Samples: int(l.resolveSampled),
			Note: fmt.Sprintf("mean, 1 call in %d timed", resolveSampleEvery)},
		metric{Name: "ib.resolve_share.ibheavy", Value: share(l.resolveT["ibheavy"], l.runT["ibheavy"]), Unit: "ratio", Note: "of VM.Run"},
		metric{Name: "ib.resolve_share.ibsparse", Value: share(l.resolveT["ibsparse"], l.runT["ibsparse"]), Unit: "ratio", Note: "of VM.Run"},
	)
	rep, err := replayStreams(env)
	if err != nil {
		return err
	}
	ms = append(ms, rep...)
	for _, p := range sharePackages {
		ms = append(ms, metric{Name: p + ".cpu_share", Value: shares[p], Unit: "ratio", Note: "untraced pass, leaf frames"})
	}
	return o.addAll(ms...)
}

// rasOp is one return-address-stack operation of a native run.
type rasOp struct {
	push bool
	addr uint32
}

// streams are the control streams of one native run, in program order.
type streams struct {
	pcs []uint32 // instruction fetches
	btb []uint32 // (site, target) pairs of indirect jumps and calls
	ras []rasOp  // call pushes and return pops
}

// record steps a native run and keeps its I-fetch, IB and call/return
// streams. The streams are a property of the guest, so one recording
// serves every host model.
func (st *streams) record(img *program.Image, model *hostarch.Model) error {
	st.pcs, st.btb, st.ras = st.pcs[:0], st.btb[:0], st.ras[:0]
	m, err := machine.New(img, model)
	if err != nil {
		return err
	}
	defer m.Recycle()
	m.Trace = func(site, target uint32, kind isa.IBKind) {
		switch kind {
		case isa.IBReturn:
			st.ras = append(st.ras, rasOp{addr: target})
		case isa.IBJump:
			st.btb = append(st.btb, site, target)
		case isa.IBCall:
			st.btb = append(st.btb, site, target)
			st.ras = append(st.ras, rasOp{push: true, addr: site + isa.WordSize})
		}
	}
	for !m.State.Halted {
		pc, calls := m.State.PC, m.Counts.Calls
		st.pcs = append(st.pcs, pc)
		if err := m.Step(); err != nil {
			return err
		}
		if m.Counts.Calls != calls {
			st.ras = append(st.ras, rasOp{push: true, addr: pc + isa.WordSize})
		}
	}
	return nil
}

// replayTotals accumulates one host model's replays.
type replayTotals struct {
	cacheT, btbT, rasT         time.Duration
	accesses, hits, btbN, rasN uint64
}

func (r *replayTotals) replay(st *streams, model *hostarch.Model) {
	c := cache.New(model.ICache)
	t := time.Now()
	for _, pc := range st.pcs {
		c.Access(pc)
	}
	r.cacheT += time.Since(t)
	h, _ := c.Stats()
	r.hits += h
	r.accesses += uint64(len(st.pcs))

	b := predictor.NewBTB(model.BTB)
	t = time.Now()
	for i := 0; i+1 < len(st.btb); i += 2 {
		b.Lookup(st.btb[i], st.btb[i+1])
	}
	r.btbT += time.Since(t)
	r.btbN += uint64(len(st.btb) / 2)

	ras := predictor.NewRAS(model.RAS)
	t = time.Now()
	for _, op := range st.ras {
		if op.push {
			ras.Push(op.addr)
		} else {
			ras.Pop(op.addr)
		}
	}
	r.rasT += time.Since(t)
	r.rasN += uint64(len(st.ras))
}

// replayStreams replays every workload's native streams through a fresh
// I-cache, BTB and RAS of each host model, timing each layer in isolation.
func replayStreams(env *simEnv) ([]metric, error) {
	tot := map[string]*replayTotals{}
	for _, a := range simArchs {
		tot[a] = &replayTotals{}
	}
	var st streams
	for _, name := range workload.SPECNames() {
		if err := st.record(env.images[name], env.models[simArchs[0]]); err != nil {
			return nil, fmt.Errorf("recording %s: %w", name, err)
		}
		for _, a := range simArchs {
			tot[a].replay(&st, env.models[a])
		}
	}
	var ms []metric
	for _, a := range simArchs {
		r := tot[a]
		ms = append(ms,
			metric{Name: "cache.access_ns." + a, Value: nsPer(r.cacheT, r.accesses), Unit: "ns", Samples: int(r.accesses), Note: "I-fetch replay"},
			metric{Name: "cache.hit_rate." + a, Value: float64(r.hits) / float64(r.accesses), Unit: "ratio", Note: "I-fetch replay"},
			metric{Name: "predictor.btb_ns." + a, Value: nsPer(r.btbT, r.btbN), Unit: "ns", Samples: int(r.btbN), Note: "IB replay"},
			metric{Name: "predictor.ras_ns." + a, Value: nsPer(r.rasT, r.rasN), Unit: "ns", Samples: int(r.rasN), Note: "call/return replay"},
		)
	}
	return ms, nil
}
