// Package hostarch defines parametric cost models of the host processors
// the paper measures on. A Model prices every host-level operation an SDT
// emits or a native program executes: ALU work, memory references (on top
// of the simulated L1 caches), control transfers (on top of the simulated
// BTB and return-address stack), condition-flag spills, context switches
// and translation work.
//
// Two built-in models bracket the paper's cross-architecture comparison:
//
//   - X86: deep pipeline, expensive indirect-branch mispredictions, and —
//     decisive for inline compare sequences — expensive eflags save/restore
//     (pushf/popf) around any compare the SDT inserts inside the guest's
//     live-flags region.
//   - SPARC: shallower pipeline with cheaper mispredictions, costlier
//     context switches (register-window spill/fill), and free "flags"
//     handling because compares can target a scratch condition register.
//
// The absolute numbers are calibrated to mid-2000s hardware of each flavour
// but every experiment reports ratios (SDT cycles / native cycles), so the
// reproduction depends on relative, not absolute, costs. E11/E12 ablate the
// two parameters that drive the paper's architecture-dependence claim.
package hostarch

import (
	"fmt"

	"sdt/internal/cache"
	"sdt/internal/isa"
	"sdt/internal/predictor"
)

// CostModelVersion identifies the current calibration of the built-in
// models. It is folded into every content-addressed result key (see
// internal/service), so persisted measurements are invalidated when the
// numbers change. Bump it whenever any built-in model's parameters, the
// cache/predictor geometries, or the cost-charging rules move.
//
// Version 2: parameterized predictor geometries (set-associative/two-level
// BTB, RAS overflow+repair policies) and the arm model's two-level BTB.
//
// Version 3: superblock compilation — traces execute as fused single-body
// fragments (direct transfers along the recorded path elided, emitted
// trace code compacted through per-model super-op tables, I-fetch charged
// per emitted cache line), so every trace-mode cycle total moved.
//
// Version 4: adaptive dispatch — per-arch AdaptiveParams (promotion and
// demotion thresholds, per-promotion re-translation charge) join the
// model, so runs under the "adaptive" mechanism depend on these numbers.
const CostModelVersion = 4

// Model prices host-level operations in cycles.
type Model struct {
	Name string

	// Straight-line instruction costs. Load/Store are the pipeline costs
	// of a hitting access; cache misses add the penalties below.
	ALU, Mul, Div int
	Load, Store   int
	Out           int // environment/output instruction

	// Control transfers. ReturnHit/Miss price a host return through the
	// RAS; IndirectHit/Miss price a host indirect jump through the BTB.
	BranchTaken, BranchNotTaken int
	DirectJump                  int
	CallDirect                  int
	ReturnHit, ReturnMiss       int
	IndirectHit, IndirectMiss   int

	// Costs of SDT-emitted helper code.
	FlagsSave, FlagsRestore int // spill/reload of condition flags
	CompareBranch           int // one inline compare-and-branch probe
	HashCompute             int // hash of a target address (shift/mask)
	TableAddr               int // address arithmetic for one table probe
	TableStore              int // updating a software table entry
	CtxSave, CtxRestore     int // one half of a full context switch
	MapProbe                int // translator-side lookup (beyond D-cache)
	TransBase, TransPerInst int // translating one fragment / one instruction

	// Memory hierarchy. Hitting accesses are priced by Load/Store (data)
	// and zero (instruction fetch overlaps); misses add the penalties.
	DMissPenalty, IMissPenalty int
	ICache, DCache             cache.Config

	// Predictor geometries. BTBL2HitPenalty is the extra cost of an
	// indirect transfer predicted by the BTB's second level (zero for
	// single-level models): the promoted prediction arrives later than a
	// first-level hit but far earlier than a mispredict redirect.
	BTB             predictor.BTBConfig
	RAS             predictor.RASConfig
	BTBL2HitPenalty int

	// Code layout: emitted host-code bytes per translated guest
	// instruction and per dispatch stub. These set the fragment cache's
	// I-cache footprint, which is what the sieve trades against the IBTC.
	CodeBytesPerInst int
	StubBytes        int

	// SuperOps are the fused multi-instruction sequences this host can
	// emit as single operations; superblock compilation peephole-rewrites
	// trace bodies through this table (see SuperOp). Empty disables
	// fusion for the model.
	SuperOps []SuperOp

	// Adaptive parameterizes adaptive per-site mechanism selection (the
	// "adaptive" entry in internal/ib): when a site's observed behaviour
	// crosses these thresholds its emitted lookup sequence is swapped by
	// re-translating the owning fragment. The thresholds are per-arch
	// because the crossover points depend on the relative costs of flag
	// spills, indirect mispredictions and translation work.
	Adaptive AdaptiveParams
}

// AdaptiveParams tunes the adaptive mechanism's per-site promotion state
// machine and prices its re-translations.
type AdaptiveParams struct {
	// PromoteExecs is how many executions a site must accumulate before
	// any tier change is considered (the observation window).
	PromoteExecs uint64
	// PolyTargets is the distinct-target count above which a site leaves
	// the inline tier for the IBTC tier.
	PolyTargets int
	// MegaTargets is the distinct-target count above which an IBTC-tier
	// site is promoted to the sieve tier. Must exceed PolyTargets.
	MegaTargets int
	// DemoteRun is the length of a run of consecutive same-target
	// executions after which a promoted site is demoted back to the
	// inline tier (the site has gone monomorphic again).
	DemoteRun uint64
	// RetransCycles is the charge per tier change: the translator work of
	// re-emitting the owning fragment with the new lookup sequence. It is
	// attributed to the translation category.
	RetransCycles uint64
	// MissBudget is the number of inline-tier misses a site may take
	// within one translation tenure (the counter resets on flush and on
	// tier change) before it is promoted regardless of its distinct-target
	// count. It catches thrashing sites the polymorphism rule cannot: a
	// return alternating between two callers never exceeds PolyTargets
	// distinct targets yet misses a single-slot compare on most
	// executions, and every such miss costs a full translator entry —
	// break-even against the IBTC probe sits at a miss rate of a few
	// percent, so the budget is a count, not a rate.
	MissBudget uint64
}

func (a AdaptiveParams) validate(model string) error {
	if a.PromoteExecs < 1 {
		return fmt.Errorf("hostarch: %s Adaptive.PromoteExecs = %d must be >= 1", model, a.PromoteExecs)
	}
	if a.PolyTargets < 1 {
		return fmt.Errorf("hostarch: %s Adaptive.PolyTargets = %d must be >= 1", model, a.PolyTargets)
	}
	if a.MegaTargets <= a.PolyTargets {
		return fmt.Errorf("hostarch: %s Adaptive.MegaTargets = %d must exceed PolyTargets = %d",
			model, a.MegaTargets, a.PolyTargets)
	}
	if a.DemoteRun < 1 {
		return fmt.Errorf("hostarch: %s Adaptive.DemoteRun = %d must be >= 1", model, a.DemoteRun)
	}
	if a.MissBudget < 1 {
		return fmt.Errorf("hostarch: %s Adaptive.MissBudget = %d must be >= 1", model, a.MissBudget)
	}
	return nil
}

// Validate reports whether every parameter is in a sane range.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("hostarch: model has no name")
	}
	nonneg := map[string]int{
		"ALU": m.ALU, "Mul": m.Mul, "Div": m.Div, "Load": m.Load, "Store": m.Store,
		"Out": m.Out, "BranchTaken": m.BranchTaken, "BranchNotTaken": m.BranchNotTaken,
		"DirectJump": m.DirectJump, "CallDirect": m.CallDirect,
		"ReturnHit": m.ReturnHit, "ReturnMiss": m.ReturnMiss,
		"IndirectHit": m.IndirectHit, "IndirectMiss": m.IndirectMiss,
		"FlagsSave": m.FlagsSave, "FlagsRestore": m.FlagsRestore,
		"CompareBranch": m.CompareBranch, "HashCompute": m.HashCompute,
		"TableAddr": m.TableAddr, "TableStore": m.TableStore,
		"CtxSave": m.CtxSave, "CtxRestore": m.CtxRestore, "MapProbe": m.MapProbe,
		"TransBase": m.TransBase, "TransPerInst": m.TransPerInst,
		"DMissPenalty": m.DMissPenalty, "IMissPenalty": m.IMissPenalty,
		"BTBL2HitPenalty": m.BTBL2HitPenalty,
	}
	for name, v := range nonneg {
		if v < 0 {
			return fmt.Errorf("hostarch: %s.%s = %d is negative", m.Name, name, v)
		}
	}
	if err := m.ICache.Validate(); err != nil {
		return fmt.Errorf("hostarch: %s I-cache: %w", m.Name, err)
	}
	if err := m.DCache.Validate(); err != nil {
		return fmt.Errorf("hostarch: %s D-cache: %w", m.Name, err)
	}
	if err := m.BTB.Validate(); err != nil {
		return fmt.Errorf("hostarch: %s BTB: %w", m.Name, err)
	}
	if err := m.RAS.Validate(); err != nil {
		return fmt.Errorf("hostarch: %s RAS: %w", m.Name, err)
	}
	if m.BTB.Levels == 1 && m.BTBL2HitPenalty != 0 {
		return fmt.Errorf("hostarch: %s BTBL2HitPenalty = %d but the BTB has one level", m.Name, m.BTBL2HitPenalty)
	}
	if m.CodeBytesPerInst <= 0 || m.StubBytes <= 0 {
		return fmt.Errorf("hostarch: %s code layout sizes must be positive", m.Name)
	}
	if err := m.Adaptive.validate(m.Name); err != nil {
		return err
	}
	return m.validateSuperOps()
}

// X86 returns the deep-pipeline, flags-architecture model.
func X86() *Model {
	return &Model{
		Name: "x86",
		ALU:  1, Mul: 4, Div: 24, Load: 1, Store: 1, Out: 2,
		BranchTaken: 2, BranchNotTaken: 1, DirectJump: 1, CallDirect: 2,
		ReturnHit: 2, ReturnMiss: 25, IndirectHit: 2, IndirectMiss: 25,
		FlagsSave: 9, FlagsRestore: 7,
		CompareBranch: 2, HashCompute: 2, TableAddr: 1, TableStore: 2,
		CtxSave: 100, CtxRestore: 100, MapProbe: 30,
		TransBase: 400, TransPerInst: 40,
		DMissPenalty: 18, IMissPenalty: 30,
		ICache:           cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4},
		DCache:           cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4},
		BTB:              predictor.DirectMapped(512),
		RAS:              predictor.FixedDepth(16),
		CodeBytesPerInst: 6, StubBytes: 16,
		SuperOps: x86SuperOpsTable,
		// Expensive flag spills and indirect mispredictions: tolerate more
		// distinct targets in the IBTC tier before paying for sieve chains
		// (every sieve probe saves eflags).
		Adaptive: AdaptiveParams{
			PromoteExecs: 16, PolyTargets: 2, MegaTargets: 16,
			DemoteRun: 64, RetransCycles: 300, MissBudget: 16,
		},
	}
}

// x86SuperOpsTable is the x86 fusion table, mined from the differential
// corpus (sdtfuzz -mine over 64 seeds, ~111k dynamic instructions). The
// tables are package-level and shared by every model copy — VM
// construction is allocation-sensitive — so they are read-only; a caller
// experimenting with custom fusions must assign a fresh slice, not edit
// in place. The top host-realizable n-grams and their dynamic counts:
//
//	lui+ori      8346   32-bit immediate formation -> mov imm32
//	lui+xori     3962   address formation ("la")   -> mov imm32
//	slli+add     3691   scaled index               -> lea
//	slli+add+lw  2063   scaled indexed load        -> mov r,[b+i*s]
//	add+lw       2063   base+index load            -> mov r,[b+i]
//	addi+sw      1077   push idiom (sp adjust+store) -> push
//
// The overall top raw pattern (add+xor+addi, 7134) is rejected: no modeled
// host retires three dependent ALU ops as one — fusion entries must map to
// a single host instruction or fused pair.
var x86SuperOpsTable = []SuperOp{
	{Name: "movimm", Ops: []isa.Op{isa.LUI, isa.ORI}, Cycles: 1, Bytes: 6},
	{Name: "movimmx", Ops: []isa.Op{isa.LUI, isa.XORI}, Cycles: 1, Bytes: 6},
	{Name: "lea", Ops: []isa.Op{isa.SLLI, isa.ADD}, Cycles: 1, Bytes: 6},
	{Name: "loadidx", Ops: []isa.Op{isa.SLLI, isa.ADD, isa.LW}, Cycles: 2, Bytes: 8},
	{Name: "loadbi", Ops: []isa.Op{isa.ADD, isa.LW}, Cycles: 1, Bytes: 6},
	{Name: "push", Ops: []isa.Op{isa.ADDI, isa.SW}, Cycles: 1, Bytes: 3},
}

// ARM returns a third calibration point between the two paper models: an
// embedded-class core with a short pipeline (cheap mispredictions), small
// predictors, modest caches — and a small nonzero flags cost, because ARM
// compare sequences can usually use a scratch condition field but not
// always. Not part of the paper's evaluation; useful for the
// cross-architecture experiments' robustness and available to every CLI
// via -arch arm (alias arm-like).
//
// Its BTB follows the organization reverse-engineered on real Arm cores: a
// tiny fully-probed first level (the "micro-BTB") backed by a larger
// set-associative second level with a hashed index, promotion on L2 hit,
// and a small extra cost for L2-predicted transfers. Its RAS checkpoints
// the top-of-stack pointer, so a mispredicted return does not consume the
// frame the next real return needs.
func ARM() *Model {
	return &Model{
		Name: "arm",
		ALU:  1, Mul: 3, Div: 20, Load: 1, Store: 1, Out: 2,
		BranchTaken: 1, BranchNotTaken: 1, DirectJump: 1, CallDirect: 1,
		ReturnHit: 1, ReturnMiss: 8, IndirectHit: 1, IndirectMiss: 8,
		FlagsSave: 2, FlagsRestore: 2,
		CompareBranch: 2, HashCompute: 2, TableAddr: 1, TableStore: 2,
		CtxSave: 70, CtxRestore: 70, MapProbe: 24,
		TransBase: 350, TransPerInst: 35,
		DMissPenalty: 22, IMissPenalty: 22,
		ICache: cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 2},
		DCache: cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 2},
		BTB: predictor.BTBConfig{
			Sets: 8, Ways: 4, // 32-entry micro-BTB
			Levels: 2,
			L2Sets: 64, L2Ways: 4, // 256-entry main BTB
			SiteShift: 2,
			Hash:      predictor.HashFib,
			Replace:   predictor.ReplaceLRU,
		},
		RAS:              predictor.RASConfig{Depth: 8, Overflow: predictor.OverflowWrap, Repair: predictor.RepairTop},
		BTBL2HitPenalty:  2,
		CodeBytesPerInst: 4, StubBytes: 12,
		SuperOps: armSuperOpsTable,
		// Cheap mispredictions and small caches: middle ground between the
		// two paper models.
		Adaptive: AdaptiveParams{
			PromoteExecs: 16, PolyTargets: 2, MegaTargets: 8,
			DemoteRun: 64, RetransCycles: 250, MissBudget: 16,
		},
	}
}

// armSuperOpsTable is the arm fusion table (same corpus mining and
// sharing rules as x86SuperOpsTable). Shifted-operand ALU and
// scaled-register addressing are the signature arm fusions; the immediate
// pairs model a movw/movt-style fused pair.
var armSuperOpsTable = []SuperOp{
	{Name: "movimm", Ops: []isa.Op{isa.LUI, isa.ORI}, Cycles: 1, Bytes: 4},
	{Name: "movimmx", Ops: []isa.Op{isa.LUI, isa.XORI}, Cycles: 1, Bytes: 4},
	{Name: "alushift", Ops: []isa.Op{isa.SLLI, isa.ADD}, Cycles: 1, Bytes: 4},
	{Name: "ldrscaled", Ops: []isa.Op{isa.SLLI, isa.ADD, isa.LW}, Cycles: 2, Bytes: 4},
}

// SPARC returns the shallow-pipeline, windowed-register model.
func SPARC() *Model {
	return &Model{
		Name: "sparc",
		ALU:  1, Mul: 5, Div: 36, Load: 2, Store: 2, Out: 2,
		BranchTaken: 1, BranchNotTaken: 1, DirectJump: 1, CallDirect: 1,
		ReturnHit: 1, ReturnMiss: 12, IndirectHit: 1, IndirectMiss: 12,
		FlagsSave: 0, FlagsRestore: 0,
		CompareBranch: 2, HashCompute: 2, TableAddr: 1, TableStore: 2,
		CtxSave: 160, CtxRestore: 160, MapProbe: 30,
		TransBase: 500, TransPerInst: 50,
		DMissPenalty: 26, IMissPenalty: 26,
		ICache:           cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Ways: 2},
		DCache:           cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Ways: 2},
		BTB:              predictor.DirectMapped(128),
		RAS:              predictor.FixedDepth(8),
		CodeBytesPerInst: 8, StubBytes: 16,
		SuperOps: sparcSuperOpsTable,
		// Flags are free, so sieve chains are cheap: promote to the sieve
		// tier at a low distinct-target count.
		Adaptive: AdaptiveParams{
			PromoteExecs: 16, PolyTargets: 2, MegaTargets: 4,
			DemoteRun: 64, RetransCycles: 350, MissBudget: 16,
		},
	}
}

// sparcSuperOpsTable is the sparc fusion table (same corpus mining and
// sharing rules as x86SuperOpsTable). SPARC has no scaled addressing modes
// and no shifted-operand ALU, so only the sethi+or immediate-formation
// pair fuses — fusion benefit is architecture-dependent, like everything
// else in the paper.
var sparcSuperOpsTable = []SuperOp{
	{Name: "sethior", Ops: []isa.Op{isa.LUI, isa.ORI}, Cycles: 1, Bytes: 8},
	{Name: "sethixor", Ops: []isa.Op{isa.LUI, isa.XORI}, Cycles: 1, Bytes: 8},
}

// Models returns the built-in models keyed by name.
func Models() map[string]*Model {
	return map[string]*Model{"x86": X86(), "sparc": SPARC(), "arm": ARM()}
}

// ByName returns a fresh copy of the named built-in model. Each model is
// also reachable under a "-like" alias ("x86-like", "sparc-like",
// "arm-like") — the models are calibrated flavours, not specific parts.
func ByName(name string) (*Model, error) {
	switch name {
	case "x86", "x86-like":
		return X86(), nil
	case "sparc", "sparc-like":
		return SPARC(), nil
	case "arm", "arm-like":
		return ARM(), nil
	}
	return nil, fmt.Errorf("hostarch: unknown model %q (want x86, sparc or arm)", name)
}
