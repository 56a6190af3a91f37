package ib

import (
	"fmt"
	"strconv"
	"strings"

	"sdt/internal/core"
	"sdt/internal/hostarch"
)

// Config is a parsed mechanism specification: the handler plus the two
// translation policies (fast returns, trace formation) that are core
// options rather than handlers, and the trace-formation knobs the "trace"
// component's parameters set.
type Config struct {
	Handler     core.IBHandler
	FastReturns bool
	Traces      bool
	// Trace-formation parameters ("trace[:threshold][:maxfrags][:nosuper]").
	// Zero values defer to the core defaults.
	TraceThreshold int
	MaxTraceFrags  int
	NoSuperOps     bool
	Spec           string // the normalized input spec
}

// Options builds core VM options from the parsed configuration.
func (c Config) Options(model *hostarch.Model) core.Options {
	return core.Options{
		Model:          model,
		Handler:        c.Handler,
		FastReturns:    c.FastReturns,
		Traces:         c.Traces,
		TraceThreshold: c.TraceThreshold,
		MaxTraceFrags:  c.MaxTraceFrags,
		NoSuperOps:     c.NoSuperOps,
	}
}

// Entry describes one registered mechanism family. The registry drives
// spec parsing, but it is also the enumeration surface tools build on: the
// differential oracle (internal/oracle) sweeps every entry's Sweep specs,
// so a new mechanism registered here is picked up by the equivalence
// harness with no further wiring.
type Entry struct {
	// Name is the canonical spec keyword.
	Name string
	// Aliases are accepted alternate keywords.
	Aliases []string
	// Summary is a one-line description for help output and docs.
	Summary string
	// Chained reports whether the mechanism requires a "+REST" fallback.
	Chained bool
	// Policy marks translation policies (fastret, trace) that change how
	// the VM translates rather than how lookups happen.
	Policy bool
	// Sweep lists canonical specs exercising the family's configuration
	// space at differential-test scale (small tables, so that collisions,
	// evictions and chain walks all happen on short programs). Every
	// entry here must parse.
	Sweep []string

	parse func(p *chainParser) (core.IBHandler, bool, error)
}

// registry holds every mechanism family in presentation order. To add a
// mechanism: implement core.IBHandler, append an Entry with a parse
// function and at least one Sweep spec, and the oracle sweep, sdtfuzz and
// the spec grammar all see it.
var registry = []*Entry{
	{
		Name:    "translator",
		Aliases: []string{"none", "naive"},
		Summary: "naive baseline: every IB context-switches into the translator",
		Sweep:   []string{"translator"},
		parse:   parseTranslator,
	},
	{
		Name:    "ibtc",
		Summary: "indirect branch translation cache: inline hash probe of a D-side table",
		Sweep: []string{
			"ibtc:16",
			"ibtc:16:private",
			"ibtc:16:sharedjump",
			"ibtc:64:fib:4way",
		},
		parse: parseIBTC,
	},
	{
		Name:    "sieve",
		Summary: "dispatch through compare-and-branch stub chains in the fragment cache",
		Sweep:   []string{"sieve:16", "sieve:1"},
		parse:   parseSieve,
	},
	{
		Name:    "inline",
		Summary: "inline caches: k predicted targets compared in the fragment",
		Chained: true,
		Sweep:   []string{"inline:2+ibtc:16", "inline:3:mru+translator"},
		parse:   parseInline,
	},
	{
		Name:    "adaptive",
		Summary: "per-site mechanism selection: inline -> IBTC -> sieve by observed polymorphism, with online re-translation",
		Sweep:   []string{"adaptive:16", "adaptive:64"},
		parse:   parseAdaptive,
	},
	{
		Name:    "retcache",
		Summary: "return cache: call-time-filled table probed by returns",
		Chained: true,
		Sweep:   []string{"retcache:16+ibtc:16"},
		parse:   parseRetCache,
	},
	{
		Name:    "fastret",
		Summary: "fast returns: hostized return addresses, host call/return pairs",
		Chained: true,
		Policy:  true,
		Sweep:   []string{"fastret+ibtc:16", "fastret+sieve:16"},
		parse:   parseFastRet,
	},
	{
		Name:    "trace",
		Summary: "NET traces compiled as superblocks, with speculative IB guards (leading component only)",
		Chained: true,
		Policy:  true,
		Sweep: []string{
			"trace+ibtc:16",
			"trace:3+ibtc:16",         // eager formation: traces carry most of the run
			"trace:3:nosuper+ibtc:16", // superblocks without super-op fusion (ablation)
			"trace:3:2+ibtc:16",       // minimum trace length: two-fragment superblocks
			"trace+retcache:16+sieve:16",
			"trace+fastret+inline:2+ibtc:16",
		},
		parse: parseMisplacedTrace,
	},
}

// byName indexes the registry by canonical name and alias; built in init
// to break the registry -> parse func -> parseChain -> byName cycle.
var byName = make(map[string]*Entry)

func init() {
	for _, e := range registry {
		byName[e.Name] = e
		for _, a := range e.Aliases {
			byName[a] = e
		}
	}
}

// Registered returns the mechanism registry in presentation order.
func Registered() []Entry {
	out := make([]Entry, len(registry))
	for i, e := range registry {
		out[i] = *e
	}
	return out
}

// SweepSpecs returns the union of every registry entry's Sweep specs in
// registry order, deduplicated. This is the mechanism axis of the
// differential oracle: every registered family appears, including the
// translation policies composed over base mechanisms.
func SweepSpecs() []string {
	var specs []string
	seen := make(map[string]bool)
	for _, e := range registry {
		for _, s := range e.Sweep {
			if !seen[s] {
				seen[s] = true
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// Parse builds a mechanism configuration from a textual spec, the syntax
// the CLIs and the benchmark harness use:
//
//	translator                          naive baseline
//	ibtc[:N][:flag...]                  IBTC, N entries (default 4096); flags:
//	                                    private, sharedjump, fib, 2way/4way/8way
//	sieve[:N]                           sieve, N buckets (default 1024)
//	adaptive[:N]                        per-site selection (inline/IBTC/sieve
//	                                    by observed polymorphism); N sizes
//	                                    the promoted tiers (default 4096)
//	inline[:K][:mru]+REST               K inline probes (default 1), then REST
//	retcache[:N]+REST                   return cache for returns, REST for the rest
//	fastret+REST                        fast returns, REST for the rest
//	trace[:T][:F][:nosuper]+REST        NET traces compiled as superblocks,
//	                                    REST as guard-miss path; T = hotness
//	                                    threshold (default 64), F = max
//	                                    fragments per trace (default 8),
//	                                    nosuper disables super-op fusion
//
// Components chain with "+": e.g. "trace:32+fastret+inline:2+ibtc:16384".
// At most one trace component is accepted, and only at the front.
func Parse(spec string) (Config, error) {
	cfg := Config{Spec: spec}
	parts := strings.Split(strings.TrimSpace(spec), "+")
	for len(parts) > 0 {
		head := strings.Split(strings.TrimSpace(parts[0]), ":")
		if head[0] != "trace" {
			break
		}
		if cfg.Traces {
			// A second trace component would silently overwrite the
			// first's threshold/frags/nosuper parameters.
			return cfg, fmt.Errorf("ib: duplicate %q component in %q", "trace", spec)
		}
		cfg.Traces = true
		if err := cfg.parseTraceArgs(head[1:]); err != nil {
			return cfg, err
		}
		parts = parts[1:]
	}
	if cfg.Traces && len(parts) == 0 {
		return cfg, fmt.Errorf("ib: %q needs a mechanism after '+'", "trace")
	}
	h, fast, err := parseChain(parts)
	if err != nil {
		return cfg, err
	}
	cfg.Handler, cfg.FastReturns = h, fast
	return cfg, nil
}

// parseTraceArgs consumes the ":"-separated parameters of one trace
// component: up to two positional integers (hotness threshold, then max
// fragments per trace) and the "nosuper" flag, which may appear anywhere
// among them without taking a position.
func (cfg *Config) parseTraceArgs(args []string) error {
	pos := 0
	for _, a := range args {
		if a == "nosuper" {
			cfg.NoSuperOps = true
			continue
		}
		v, err := strconv.Atoi(a)
		if err != nil {
			return fmt.Errorf("ib: bad trace parameter %q", a)
		}
		switch pos {
		case 0:
			if v < 1 {
				return fmt.Errorf("ib: trace threshold %d must be >= 1", v)
			}
			cfg.TraceThreshold = v
		case 1:
			if v < 2 {
				return fmt.Errorf("ib: trace max fragments %d must be >= 2", v)
			}
			cfg.MaxTraceFrags = v
		default:
			return fmt.Errorf("ib: too many trace parameters in %q", strings.Join(append([]string{"trace"}, args...), ":"))
		}
		pos++
	}
	return nil
}

// chainParser carries one component's parameters plus the unconsumed rest
// of the chain into an Entry's parse function.
type chainParser struct {
	name string   // keyword as written (canonical name or alias)
	head []string // ":"-split component; head[0] == name
	rest []string // remaining "+"-chained components
}

// intArg reads the integer parameter at pos, defaulting when absent.
func (p *chainParser) intArg(pos, def, min, max int, what string) (int, error) {
	if len(p.head) <= pos || p.head[pos] == "" {
		return def, nil
	}
	v, err := strconv.Atoi(p.head[pos])
	if err != nil || v < min || v > max {
		return 0, fmt.Errorf("ib: bad %s parameter %q", what, p.head[pos])
	}
	return v, nil
}

// fallback parses the required "+REST" continuation.
func (p *chainParser) fallback() (core.IBHandler, bool, error) {
	if len(p.rest) == 0 {
		return nil, false, fmt.Errorf("ib: %q needs a fallback mechanism after '+'", p.name)
	}
	return parseChain(p.rest)
}

// noFallback rejects a "+REST" continuation on terminal mechanisms.
func (p *chainParser) noFallback() error {
	if len(p.rest) != 0 {
		return fmt.Errorf("ib: %q does not take a fallback (got %q)", p.name, strings.Join(p.rest, "+"))
	}
	return nil
}

func parseChain(parts []string) (core.IBHandler, bool, error) {
	if len(parts) == 0 || parts[0] == "" {
		return nil, false, fmt.Errorf("ib: empty mechanism spec")
	}
	head := strings.Split(strings.TrimSpace(parts[0]), ":")
	e := byName[head[0]]
	if e == nil {
		return nil, false, fmt.Errorf("ib: unknown mechanism %q", head[0])
	}
	return e.parse(&chainParser{name: head[0], head: head, rest: parts[1:]})
}

func parseTranslator(p *chainParser) (core.IBHandler, bool, error) {
	if err := p.noFallback(); err != nil {
		return nil, false, err
	}
	if len(p.head) > 1 {
		return nil, false, fmt.Errorf("ib: translator takes no parameters")
	}
	return NewTranslator(), false, nil
}

func parseIBTC(p *chainParser) (core.IBHandler, bool, error) {
	n, err := p.intArg(1, 4096, 1, 1<<24, "ibtc")
	if err != nil {
		return nil, false, err
	}
	if err := p.noFallback(); err != nil {
		return nil, false, err
	}
	cfg := IBTCConfig{Entries: n}
	var flags []string
	if len(p.head) > 2 {
		flags = p.head[2:]
	}
	for _, flag := range flags {
		switch flag {
		case "private":
			cfg.Private = true
		case "sharedjump":
			cfg.SharedFinalJump = true
		case "fib":
			cfg.FibHash = true
		case "2way":
			cfg.Ways = 2
		case "4way":
			cfg.Ways = 4
		case "8way":
			cfg.Ways = 8
		default:
			return nil, false, fmt.Errorf("ib: unknown ibtc flag %q", flag)
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, false, err
	}
	return NewIBTC(cfg), false, nil
}

func parseAdaptive(p *chainParser) (core.IBHandler, bool, error) {
	n, err := p.intArg(1, 4096, 1, 1<<24, "adaptive")
	if err != nil {
		return nil, false, err
	}
	if err := p.noFallback(); err != nil {
		return nil, false, err
	}
	if err := checkPow2("adaptive", n); err != nil {
		return nil, false, err
	}
	return NewAdaptive(AdaptiveConfig{Entries: n}), false, nil
}

func parseSieve(p *chainParser) (core.IBHandler, bool, error) {
	n, err := p.intArg(1, 1024, 1, 1<<24, "sieve")
	if err != nil {
		return nil, false, err
	}
	if err := p.noFallback(); err != nil {
		return nil, false, err
	}
	if err := checkPow2("sieve", n); err != nil {
		return nil, false, err
	}
	return NewSieve(SieveConfig{Buckets: n}), false, nil
}

func parseInline(p *chainParser) (core.IBHandler, bool, error) {
	k, err := p.intArg(1, 1, 1, 64, "inline")
	if err != nil {
		return nil, false, err
	}
	mru := false
	if len(p.head) > 2 {
		if len(p.head) > 3 || p.head[2] != "mru" {
			return nil, false, fmt.Errorf("ib: unknown inline flag %q", strings.Join(p.head[2:], ":"))
		}
		mru = true
	}
	fb, fast, err := p.fallback()
	if err != nil {
		return nil, false, err
	}
	return NewInline(InlineConfig{Depth: k, MRU: mru, Fallback: fb}), fast, nil
}

func parseRetCache(p *chainParser) (core.IBHandler, bool, error) {
	n, err := p.intArg(1, 4096, 1, 1<<24, "retcache")
	if err != nil {
		return nil, false, err
	}
	if err := checkPow2("return cache", n); err != nil {
		return nil, false, err
	}
	other, fast, err := p.fallback()
	if err != nil {
		return nil, false, err
	}
	rc := NewRetCache(RetCacheConfig{Entries: n})
	return NewPerKind(rc, other, other), fast, nil
}

func parseFastRet(p *chainParser) (core.IBHandler, bool, error) {
	if len(p.head) > 1 {
		return nil, false, fmt.Errorf("ib: fastret takes no parameters")
	}
	h, _, err := p.fallback()
	if err != nil {
		return nil, false, err
	}
	return h, true, nil
}

// parseMisplacedTrace rejects "trace" anywhere but the front of a spec,
// where Parse consumes it as a policy prefix.
func parseMisplacedTrace(p *chainParser) (core.IBHandler, bool, error) {
	return nil, false, fmt.Errorf("ib: %q must be the leading component of a spec", p.name)
}
