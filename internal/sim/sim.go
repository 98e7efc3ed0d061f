// Package sim is the measurement engine of the reproduction: it assembles
// a (environment × translation-design × page-size) machine, drives a
// workload trace through TLB → walker → cache hierarchy, and collects the
// quantities the paper's evaluation reports — average page-walk latency,
// sequential reference counts, per-step walk breakdowns (Figure 16),
// register coverage, VM exits, and hypercalls.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"dmt/internal/cache"
	"dmt/internal/check"
	"dmt/internal/core"
	"dmt/internal/fault"
	"dmt/internal/mem"
	"dmt/internal/obs"
	"dmt/internal/tlb"
	"dmt/internal/workload"
)

// Environment selects the virtualization depth.
type Environment int

const (
	EnvNative Environment = iota
	EnvVirt
	EnvNested
)

func (e Environment) String() string {
	switch e {
	case EnvNative:
		return "native"
	case EnvVirt:
		return "virtualized"
	case EnvNested:
		return "nested"
	}
	return fmt.Sprintf("Environment(%d)", int(e))
}

// ParseEnvironment maps an environment name, as the CLIs accept it, to its
// Environment.
func ParseEnvironment(name string) (Environment, error) {
	switch name {
	case "native":
		return EnvNative, nil
	case "virt", "virtualized":
		return EnvVirt, nil
	case "nested":
		return EnvNested, nil
	}
	return 0, fmt.Errorf("sim: unknown environment %q (want native, virt, nested)", name)
}

// Design selects the translation design under test.
type Design string

// The designs of the evaluation: the vanilla baseline (radix walk native,
// hardware-assisted nested paging virtualized, shadow-over-nested for
// nested virtualization), shadow paging, DMT and pvDMT, the four
// comparison designs of §6.2, and the two related-work contenders the
// paper never ran head-to-head (Victima's L2-way TLB spill and Utopia's
// restrictive/flexible hybrid mapping).
const (
	DesignVanilla Design = "vanilla"
	DesignShadow  Design = "shadow"
	DesignDMT     Design = "dmt"
	DesignPvDMT   Design = "pvdmt"
	DesignECPT    Design = "ecpt"
	DesignFPT     Design = "fpt"
	DesignAgile   Design = "agile"
	DesignASAP    Design = "asap"
	DesignVictima Design = "victima"
	DesignUtopia  Design = "utopia"
)

// ParseDesign validates a design name against the registry (designs.go).
func ParseDesign(name string) (Design, error) {
	names := make([]string, len(allDesigns))
	for i, d := range allDesigns {
		if Design(name) == d {
			return d, nil
		}
		names[i] = string(d)
	}
	return "", fmt.Errorf("sim: unknown design %q (want %s)", name, strings.Join(names, ", "))
}

// Config describes one run.
type Config struct {
	Env      Environment
	Design   Design
	THP      bool
	Workload workload.Spec
	// WSBytes overrides the workload's scaled default working set.
	WSBytes uint64
	// Ops is the trace length.
	Ops int
	// Seed drives the trace generator.
	Seed int64
	// CacheScale divides every cache/TLB capacity (latencies unchanged),
	// keeping structure reach proportional to the scaled working sets
	// (DESIGN.md §6). Default 16.
	CacheScale int
	// TEARegisters overrides the DMT register-file size (0 = the paper's
	// 16); used by the register-count ablation.
	TEARegisters int
	// TEAMergeThreshold overrides the VMA-clustering bubble threshold
	// (0 = the paper's 2%; negative disables merging); used by the
	// merge-threshold ablation.
	TEAMergeThreshold float64
	// FragmentTarget, when positive, pre-fragments physical memory to
	// the given order-4 fragmentation index before the workload is laid
	// out (the §6.3 methodology).
	FragmentTarget float64
	// FaultPlan, when non-nil, injects the schedule's faults (TEA
	// migrations, register spills, allocation failures, page churn, huge
	// flips — internal/fault) as the trace advances.
	FaultPlan *fault.Plan
	// Verify re-translates every reference through the live page tables
	// (internal/check), asserting PA/size agreement, fallback-iff-miss
	// for DMT designs, and TEA structural invariants after fault events.
	Verify bool
	// Workers bounds how many shards simulate concurrently (default 1).
	// Workers only schedules; it never changes results — a run with any
	// worker count is bit-identical to the same run at Workers 1.
	Workers int
	// Shards decomposes the trace into per-shard sub-traces, each driven
	// through its own deterministic machine replica and merged
	// order-independently (DESIGN.md, "sharded determinism"). Default: 1
	// when Workers <= 1 (the classic serial run), else Workers. Results
	// are a function of Shards, not Workers.
	Shards int

	// traceSeed, when non-zero, overrides Seed for trace generation only;
	// the engine sets it per shard so machine construction (layout,
	// fragmentation) stays identical across replicas while each shard
	// draws a decorrelated reference stream.
	traceSeed int64
	// coldBuild bypasses the prototype cache, constructing every shard's
	// machine from scratch. Results are bit-identical either way; the
	// differential clone-equality tests set it to prove so.
	coldBuild bool
}

func (c Config) withDefaults() Config {
	if c.Ops == 0 {
		c.Ops = 200_000
	}
	if c.CacheScale == 0 {
		c.CacheScale = 16
	}
	if c.WSBytes == 0 {
		c.WSBytes = c.Workload.DefaultWS
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Shards == 0 {
		if c.Workers > 1 {
			c.Shards = c.Workers
		} else {
			c.Shards = 1
		}
	}
	return c
}

// Normalized returns the configuration with the engine's defaults applied
// — the form in which every result-determining field is explicit. Two
// configurations with equal normalized result-determining fields (Workers
// aside, which only schedules) produce bit-identical Results;
// CanonicalKey renders exactly this form.
func (c Config) Normalized() Config { return c.withDefaults() }

// CanonicalKey renders a normalized configuration's env, design, THP,
// workload, working set, cache scale, ops, seed, shards and Verify as one
// stable text line, led by a version tag that changes with the schema.
// Workers never changes results and is left out. The key also omits
// TEARegisters, TEAMergeThreshold, FragmentTarget and FaultPlan, so two
// configurations that differ only there share a key: a record keyed by it
// must either leave those at their zero values or widen the key first.
func CanonicalKey(cfg Config) string {
	cfg = cfg.Normalized()
	return fmt.Sprintf("v1 env=%s design=%s thp=%t wl=%s ws=%d scale=%d ops=%d seed=%d shards=%d verify=%t",
		cfg.Env, cfg.Design, cfg.THP, cfg.Workload.Name, cfg.WSBytes,
		cfg.CacheScale, cfg.Ops, cfg.Seed, cfg.Shards, cfg.Verify)
}

// genSeed is the seed driving this configuration's trace generator.
func (c Config) genSeed() int64 {
	if c.traceSeed != 0 {
		return c.traceSeed
	}
	return c.Seed
}

// StepAgg aggregates one architectural walk step across all walks.
type StepAgg struct {
	Label  string
	Cycles uint64
	Count  uint64
}

// Result is the measured outcome of a run.
type Result struct {
	Config Config

	Ops        int
	TLBMisses  uint64
	Walks      uint64
	WalkCycles uint64
	SeqRefs    uint64
	TotalRefs  uint64
	DataCycles uint64
	// Coverage is the fraction of walks served by DMT registers without
	// fallback, 1 for designs without registers (see RegisterCoverage).
	Coverage  float64
	Fallbacks uint64

	Hypercalls      uint64
	VMExits         uint64
	ShadowSyncs     uint64
	IsolationFaults uint64

	// PTEBytes is the design's translation-structure footprint.
	PTEBytes int

	// Fault-injection and verification outcome (zero unless enabled).
	FaultsApplied int
	FaultsSkipped int
	DemandFaults  uint64
	Checked       uint64
	Mismatches    uint64

	// WalkHist is the power-of-two-bucketed walk-latency histogram
	// (internal/obs): exact count/sum/extrema, quantiles within one bucket
	// of the true order statistic. Always collected — observing is one
	// array increment — and merged bucket-wise across shards.
	WalkHist *obs.Hist
	// Counters is the named-counter snapshot taken at Finish: TLB, PWC and
	// cache hit splits, walker-chain attribution (core.CounterSource),
	// hypervisor exits, fault and verification outcomes. Shard merging
	// sums per name.
	Counters obs.Counters

	breakdown map[string]*StepAgg

	// covHits/covTotal are the integer counters behind Coverage; shard
	// merging sums these so parallel coverage reproduces serial coverage
	// bit-exactly instead of averaging floats. covSet records whether the
	// design reports coverage at all (DMT family) — merged runs recompute
	// Coverage from the summed counters only when it does.
	covHits, covTotal uint64
	covSet            bool
}

// RegisterCoverage computes Coverage from the integer counters behind it:
// the fraction of walks the design's fast path served (DMT registers,
// Victima's spill ways, Utopia's RestSegs), and whether the design reports
// coverage at all. A design without such a path reads (1, false); a
// reporting design with no walks reads (0, true).
func (r *Result) RegisterCoverage() (float64, bool) {
	switch {
	case !r.covSet:
		return 1, false
	case r.covTotal == 0:
		return 0, true
	}
	return float64(r.covHits) / float64(r.covTotal), true
}

// AvgWalkCycles is the mean page-walk latency.
func (r *Result) AvgWalkCycles() float64 {
	if r.Walks == 0 {
		return 0
	}
	return float64(r.WalkCycles) / float64(r.Walks)
}

// AvgSeqRefs is the mean number of sequential references per walk.
func (r *Result) AvgSeqRefs() float64 {
	if r.Walks == 0 {
		return 0
	}
	return float64(r.SeqRefs) / float64(r.Walks)
}

// WalkPercentile returns the p-th percentile walk latency in cycles from
// the walk-latency histogram: the upper bound of the containing
// power-of-two bucket, clamped to the observed extrema (so p=0 and p=100
// are exact).
func (r *Result) WalkPercentile(p float64) uint64 {
	if r.WalkHist == nil {
		return 0
	}
	return r.WalkHist.Quantile(p)
}

// MissRatio is the TLB miss ratio of the trace.
func (r *Result) MissRatio() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.TLBMisses) / float64(r.Ops)
}

// Breakdown returns the per-step aggregation sorted by label (architectural
// step number first for nested walks).
func (r *Result) Breakdown() []StepAgg {
	out := make([]StepAgg, 0, len(r.breakdown))
	for _, a := range r.breakdown {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// recordingWalker decorates a walker with per-step aggregation, fall-back
// counting, and (when verifying) the differential oracle. It reads each
// walk's refs from the per-machine ref sink the whole walker chain streams
// into, which the MMU resets before every walk.
type recordingWalker struct {
	inner core.Walker
	res   *Result
	chk   *check.Checker
	sink  *core.RefSink

	// fast interns (step, level, dim) → aggregate so the hot path skips
	// refLabel's Sprintf (and its allocations) after the first encounter:
	// every label the walkers emit packs into 12 bits (labelIndex), so a
	// lookup is one array load.
	fast []*StepAgg
}

// labelFastSize bounds the packed label space: 3 bits of dimension code,
// 3 bits of level, 6 bits of step.
const labelFastSize = 1 << 12

// labelIndex packs a ref's identity into the fast-table index. The
// dimension set is closed over the walker implementations — native/guest/
// host/shadow radix dims, DMT's bare labels, and pvDMT's nested "L0"–"L2"
// step names — and walks stay under 64 steps (the five-level nested walk
// takes 35) at levels under 8, so a ref outside that space is a walker bug.
func labelIndex(ref *core.MemRef) int {
	var dim int
	switch ref.Dim {
	case "n":
		dim = 0
	case "g":
		dim = 1
	case "h":
		dim = 2
	case "s":
		dim = 3
	case "":
		dim = 4
	case "L0":
		dim = 5
	case "L1":
		dim = 6
	case "L2":
		dim = 7
	default:
		panic("sim: walk ref with an unknown dimension")
	}
	if uint(ref.Step) >= 64 || uint(ref.Level) >= 8 {
		panic("sim: walk ref step or level outside the label table")
	}
	return dim<<9 | ref.Level<<6 | ref.Step
}

func (w *recordingWalker) Walk(va mem.VAddr) core.WalkOutcome {
	out := w.inner.Walk(va)
	w.RecordWalk(va, &out)
	return out
}

// RecordWalk aggregates one walker invocation: the differential oracle,
// whole-walk counters, per-step label aggregation and the latency
// histogram. Walk calls it after the inner walk, so it runs before the TLB
// refill on both the scalar and the batched path.
func (w *recordingWalker) RecordWalk(va mem.VAddr, out *core.WalkOutcome) {
	if w.chk != nil {
		w.chk.CheckWalk(va, *out)
	}
	w.res.Walks++
	w.res.WalkCycles += uint64(out.Cycles)
	w.res.SeqRefs += uint64(out.SeqSteps)
	refs := w.sink.Refs()
	w.res.TotalRefs += uint64(len(refs))
	if out.Fallback {
		w.res.Fallbacks++
	}
	for i := range refs {
		ref := &refs[i]
		idx := labelIndex(ref)
		agg := w.fast[idx]
		if agg == nil {
			agg = w.intern(ref)
			w.fast[idx] = agg
		}
		agg.Cycles += uint64(ref.Cycles)
		agg.Count++
	}
	w.res.WalkHist.Observe(uint64(out.Cycles))
}

// intern resolves (or creates) the breakdown aggregate for ref's label;
// the formatting cost is paid once per distinct label per shard.
func (w *recordingWalker) intern(ref *core.MemRef) *StepAgg {
	label := refLabel(*ref)
	agg := w.res.breakdown[label]
	if agg == nil {
		agg = &StepAgg{Label: label}
		w.res.breakdown[label] = agg
	}
	return agg
}

func refLabel(ref core.MemRef) string {
	if ref.Step > 0 {
		return fmt.Sprintf("%02d %sL%d", ref.Step, ref.Dim, ref.Level)
	}
	if ref.Level > 0 {
		return fmt.Sprintf("%s L%d", ref.Dim, ref.Level)
	}
	return ref.Dim
}

// machine is the assembled simulation target wireMachine returns.
type machine struct {
	hier   *cache.Hierarchy
	walker core.Walker
	gen    workload.Gen
	// coverage returns the walker's raw hit/total counters (nil for
	// designs without a fast-path notion of coverage); results keep the
	// integers so shard merges stay bit-exact.
	coverage func() (hits, total uint64)
	footer   func(*Result) // copies counters (exits, footprints) at the end
	// sink is the ref buffer the whole walker chain streams into; the
	// MMU resets it before every walk.
	sink *core.RefSink

	// Fault/verification harness, filled by wireMachine.
	target     fault.Target         // handles the injector perturbs
	ref        check.Ref            // ground-truth translation (live PTs), set when verifying
	fastPath   func(mem.VAddr) bool // DMT fast-path reference, set by the design's wire
	sizeExact  bool                 // outcome size must equal reference size
	invariants func() []string      // TEA structural invariants
}

// Run executes one configuration and returns its measurements. The trace is
// decomposed into cfg.Shards deterministic sub-runs simulated by up to
// cfg.Workers goroutines and merged order-independently (engine.go); with
// the defaults (one shard, one worker) this is the classic serial run.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	parts, err := RunShards(cfg)
	if err != nil {
		return nil, err
	}
	return MergeShards(cfg, parts)
}

// scaledTLB divides the Table 3 TLB capacities by scale.
func scaledTLB(scale int) tlb.Config {
	cfg := tlb.DefaultConfig()
	cfg.L1Entries = maxInt(cfg.L1Ways, cfg.L1Entries/scale)
	cfg.L2Entries = maxInt(cfg.L2Ways, cfg.L2Entries/scale)
	// Keep entries divisible by ways.
	cfg.L1Entries -= cfg.L1Entries % cfg.L1Ways
	cfg.L2Entries -= cfg.L2Entries % cfg.L2Ways
	return cfg
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
