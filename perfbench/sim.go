package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sdt/internal/core"
	"sdt/internal/hostarch"
	"sdt/internal/ib"
	"sdt/internal/machine"
	"sdt/internal/program"
	"sdt/internal/workload"
)

// simMechs are the mechanism specs the E8/E9/E16/E18 regeneration runs.
var simMechs = []string{
	"translator", "ibtc:16384", "sieve:16384", "inline:2+ibtc:16384",
	"fastret+ibtc:16384", "trace+ibtc:16384", "adaptive:16384",
}

var simArchs = []string{"x86", "arm"}

// mechShort names a spec by its first component, for metric names.
func mechShort(spec string) string {
	if i := strings.IndexAny(spec, ":+"); i >= 0 {
		return spec[:i]
	}
	return spec
}

// simCell is one operation of the sim workload: a workload under one
// mechanism on one host model, or its native baseline when mech is "".
type simCell struct {
	wl, arch, mech string
}

func (c simCell) String() string {
	if c.mech == "" {
		return c.wl + "/" + c.arch + "/native"
	}
	return c.wl + "/" + c.arch + "/" + c.mech
}

// simCells returns the whole matrix in an order shuffled by seed.
func simCells(seed uint64) []simCell {
	var cells []simCell
	for _, wl := range workload.SPECNames() {
		for _, arch := range simArchs {
			cells = append(cells, simCell{wl, arch, ""})
			for _, m := range simMechs {
				cells = append(cells, simCell{wl, arch, m})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// simCounts is everything a cell's simulation computes. It is a pure
// function of the cell, so every repeat and every traced run must match.
type simCounts struct {
	Result            machine.Result
	Translations      uint64
	TranslatorEntries uint64
	Flushes           uint64
}

// simEnv holds the assembled images and host models a sim run shares.
type simEnv struct {
	images map[string]*program.Image
	models map[string]*hostarch.Model
}

// close lets setupMany drop a set-up; a simEnv holds nothing to release.
func (*simEnv) close() {}

func newSimEnv() (*simEnv, error) {
	env := &simEnv{images: map[string]*program.Image{}, models: map[string]*hostarch.Model{}}
	for _, name := range workload.SPECNames() {
		spec, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		img, err := spec.Image(0)
		if err != nil {
			return nil, err
		}
		env.images[name] = img
	}
	for _, a := range simArchs {
		m, err := hostarch.ByName(a)
		if err != nil {
			return nil, err
		}
		env.models[a] = m
	}
	return env, nil
}

// warm runs every mechanism once on a small image per host model, so that
// the first timed cell does not pay for filling the VM's storage pools.
func (env *simEnv) warm() error {
	spec, err := workload.Get("gcc")
	if err != nil {
		return err
	}
	img, err := spec.Image(spec.ScaledDown(20))
	if err != nil {
		return err
	}
	for _, a := range simArchs {
		for _, m := range simMechs {
			if _, err := runSDT(img, env.models[a], m, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// simSetup is what a sim run does before it measures: assemble the images
// and warm the pools.
func simSetup() (*simEnv, error) {
	env, err := newSimEnv()
	if err != nil {
		return nil, err
	}
	return env, env.warm()
}

// sdtHooks, when non-nil, times the calls a traced cell makes into core
// and wraps its IB handler.
type sdtHooks struct {
	newT, runT, recycleT time.Duration
	handler              *timedHandler
}

func runSDT(img *program.Image, model *hostarch.Model, spec string, hk *sdtHooks) (simCounts, error) {
	cfg, err := ib.Parse(spec)
	if err != nil {
		return simCounts{}, err
	}
	opts := cfg.Options(model)
	var t0 time.Time
	if hk != nil {
		hk.handler = &timedHandler{IBHandler: opts.Handler}
		opts.Handler = hk.handler.wrap()
		t0 = time.Now()
	}
	vm, err := core.New(img, opts)
	if err != nil {
		return simCounts{}, err
	}
	var t1 time.Time
	if hk != nil {
		t1 = time.Now()
		hk.newT = t1.Sub(t0)
	}
	if err := vm.Run(0); err != nil {
		return simCounts{}, fmt.Errorf("sdt run: %w", err)
	}
	var t2 time.Time
	if hk != nil {
		t2 = time.Now()
		hk.runT = t2.Sub(t1)
	}
	c := simCounts{
		Result:            vm.Result(),
		Translations:      vm.Prof.Translations,
		TranslatorEntries: vm.Prof.TranslatorEntries,
		Flushes:           vm.Prof.Flushes,
	}
	vm.Recycle()
	if hk != nil {
		hk.recycleT = time.Since(t2)
	}
	return c, nil
}

func runNative(img *program.Image, model *hostarch.Model) (simCounts, error) {
	m, err := machine.RunImage(img, model, 0)
	if err != nil {
		return simCounts{}, fmt.Errorf("native run: %w", err)
	}
	c := simCounts{Result: m.Result()}
	m.Recycle()
	return c, nil
}

// run executes one cell and returns its wall time.
func (env *simEnv) run(c simCell, hk *sdtHooks) (simCounts, time.Duration, error) {
	img, model := env.images[c.wl], env.models[c.arch]
	start := time.Now()
	var counts simCounts
	var err error
	if c.mech == "" {
		counts, err = runNative(img, model)
	} else {
		counts, err = runSDT(img, model, c.mech, hk)
	}
	d := time.Since(start)
	if err != nil {
		err = fmt.Errorf("%s: %w", c, err)
	}
	return counts, d, err
}

// checkSimCells counts the cells whose simulation is wrong: a cell whose
// repeats disagree on any simulated count, or an SDT cell whose checksum or
// retired-instruction count differs from its native baseline's.
func checkSimCells(cells []simCell, runs [][]simCounts) (failed int, msgs []string) {
	native := map[string]machine.Result{}
	for i, c := range cells {
		if c.mech == "" && len(runs[i]) > 0 {
			native[c.wl+"/"+c.arch] = runs[i][0].Result
		}
	}
	for i, c := range cells {
		bad := ""
		for _, r := range runs[i][1:] {
			if r != runs[i][0] {
				bad = "simulated counts differ between repeats"
			}
		}
		if c.mech != "" && len(runs[i]) > 0 {
			n, ok := native[c.wl+"/"+c.arch]
			r := runs[i][0].Result
			switch {
			case !ok:
				bad = "no native baseline"
			case r.Checksum != n.Checksum || r.Instret != n.Instret:
				bad = fmt.Sprintf("checksum/instret %#x/%d, native %#x/%d", r.Checksum, r.Instret, n.Checksum, n.Instret)
			}
		}
		if bad != "" {
			failed++
			msgs = append(msgs, c.String()+": "+bad)
		}
	}
	return failed, msgs
}

// simPassSeconds is the middle of the wall times measured for one pass over
// the matrix on a 2-vCPU VM (8-15 s, calibration kernel included). The
// repeat count k is fixed by --seconds rather than by how many passes
// happen to fit, so a loaded machine cannot change k (and with it the
// best-of-k estimate); the run then takes longer instead.
const simPassSeconds = 11

// simRepeats is k: one repeat of every cell per pass, at least two.
func simRepeats(seconds float64) int {
	return max(2, int(seconds/simPassSeconds))
}

// simRun is the untraced sim workload: k passes over the shuffled matrix,
// so each cell's repeats are spread round-robin across the run, and each
// cell is timed as the best of its k repeats. The calibration kernel runs
// after every cell, so the kernel runs around a cell measure the host's
// speed when it ran.
func simRun(cfg config) (*outcome, error) {
	env, setups, err := setupMany(func(int) (*simEnv, error) { return simSetup() })
	if err != nil {
		return nil, err
	}
	cells := simCells(cfg.seed)
	reps := make([][]time.Duration, len(cells))
	runs := make([][]simCounts, len(cells))
	k := simRepeats(cfg.seconds)
	kts := make([][]time.Duration, k)
	passes := make([]float64, k)
	for pass := 0; pass < k; pass++ {
		start := time.Now()
		for i, c := range cells {
			counts, d, err := env.run(c, nil)
			if err != nil {
				return nil, err
			}
			reps[i] = append(reps[i], d)
			runs[i] = append(runs[i], counts)
			kts[pass] = append(kts[pass], calibrate())
		}
		passes[pass] = time.Since(start).Seconds()
	}
	best, k := bestOfK(reps, kts)
	failed, msgs := checkSimCells(cells, runs)
	for _, m := range msgs {
		fmt.Println("  FAIL", m)
	}
	o := &outcome{attempted: len(cells), failed: failed}
	lat := make([]float64, len(best))
	var total time.Duration
	var insts uint64
	for i, b := range best {
		lat[i] = msOf(b)
		total += b
		insts += runs[i][0].Result.Instret
	}
	note := fmt.Sprintf("best of k=%d, at reference speed", k)
	if err := o.addCommon(setups, float64(len(cells))/total.Seconds(), median(lat), lat, note); err != nil {
		return nil, err
	}
	o.info = append(o.info,
		metric{Name: "guest_mips", Value: float64(insts) / total.Seconds() / 1e6, Unit: "Minst/s", Samples: len(cells), Note: note},
		metric{Name: "pass_s", Value: median(passes), Unit: "s", Samples: k, Note: fmt.Sprintf("median wall time of a pass (all: %.4g)", passes)})
	return o, nil
}
