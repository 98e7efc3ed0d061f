package sim

import (
	"fmt"
	"sort"

	"dmt/internal/check"
	"dmt/internal/core"
	"dmt/internal/fault"
	"dmt/internal/mem"
	"dmt/internal/obs"
	"dmt/internal/shard"
	"dmt/internal/tlb"
)

// This file is the deterministic parallel execution engine. A run is
// decomposed into Config.Shards independent sub-runs; each shard owns a full
// machine replica (address space, TLB, caches, walker, injector, oracle) and
// drives a decorrelated slice of the trace through it. Shard results are
// pure functions of (Config, shard index), so any scheduling — serial, or a
// pool of Config.Workers goroutines — produces identical parts, and
// MergeShards combines them with commutative integer arithmetic. The
// determinism contract is spelled out in DESIGN.md ("sharded determinism")
// and enforced by TestDeterminism* in this package.

// Instance is one in-flight simulation: a machine plus the measurement
// harness, stepped one trace operation at a time. Benchmarks use it to move
// machine construction out of the timed region; the engine uses it as the
// unit of shard execution.
type Instance struct {
	cfg  Config
	m    *machine
	mmu  *core.MMU
	inj  *fault.Injector
	chk  *check.Checker
	res  *Result
	op   int
	ops  int
	done bool

	// Batched-walk state (DESIGN.md §11): the recording walker every miss
	// walks through, the span of addresses trace generation fills, and the
	// physical addresses the TLB probe of a hit run writes. Fixed-size and
	// allocated at assembly, so stepping allocates nothing and clone cost
	// stays independent of trace length.
	rec *recordingWalker
	vas []mem.VAddr
	pas []mem.PAddr
}

// NewInstance builds the machine for cfg and returns an unstarted instance
// covering the whole (unsharded) trace. Call Step until Ops is exhausted —
// or as many times as desired — then Finish.
func NewInstance(cfg Config) (*Instance, error) {
	return newShardInstance(cfg.withDefaults(), 0, 1)
}

// newShardInstance builds shard `s` of `shards` for an already-defaulted
// config: its slice of the op budget, a decorrelated trace seed, and a fault
// plan rescaled into shard-local op space. With shards == 1 everything is
// used verbatim, reproducing the classic serial run bit-exactly.
func newShardInstance(cfg Config, s, shards int) (*Instance, error) {
	scfg := cfg
	scfg.Ops = shard.Ops(cfg.Ops, s, shards)
	if shards > 1 {
		scfg.traceSeed = shard.Seed(cfg.Seed, s)
	}
	m, err := buildMachine(scfg)
	if err != nil {
		return nil, fmt.Errorf("sim: building %v/%v/%s: %w", cfg.Env, cfg.Design, cfg.Workload.Name, err)
	}
	return assembleInstance(cfg, scfg, m, s, shards)
}

// buildMachine returns a drivable machine for scfg. By default it clones
// from the prototype cache — every shard of a run shares one build, as do
// all runs whose build keys agree (the matrix workloads). cfg.coldBuild
// forces the from-scratch path, used by differential tests proving clones
// bit-identical to cold builds.
func buildMachine(scfg Config) (*machine, error) {
	if scfg.coldBuild {
		return coldBuild(scfg)
	}
	proto, err := cachedPrototype(scfg)
	if err != nil {
		return nil, err
	}
	return proto.wire(scfg)
}

// coldBuild constructs a machine from scratch without touching the cache.
func coldBuild(scfg Config) (*machine, error) {
	p, err := buildPrototype(scfg, buildVMStage)
	if err != nil {
		return nil, err
	}
	return wireMachine(scfg, p.spec, p.parts)
}

// assembleInstance wires the measurement harness (recorder, TLB, MMU,
// oracle, fault injector) around an already-built machine. cfg is the
// run-level config the Result reports; scfg is the shard-level config
// (sliced ops, per-shard trace seed) the instance executes.
func assembleInstance(cfg, scfg Config, m *machine, s, shards int) (*Instance, error) {
	res := &Result{Config: cfg, breakdown: map[string]*StepAgg{}, WalkHist: &obs.Hist{}}
	rec := &recordingWalker{
		inner: m.walker,
		res:   res,
		sink:  m.sink,
		fast:  make([]*StepAgg, labelFastSize),
	}
	dtlb, err := tlb.New(scaledTLB(cfg.CacheScale))
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	mmu := core.NewMMU(dtlb, rec, m.sink, 1)
	// Injected unmaps must shoot down stale TLB entries, as the kernel's
	// MMU-notifier path would.
	if m.target.AS != nil {
		m.target.AS.OnInvalidate(func(va mem.VAddr) { dtlb.Invalidate(va, 1) })
	}

	var chk *check.Checker
	if cfg.Verify {
		if m.ref == nil {
			return nil, fmt.Errorf("sim: verification not supported for %v/%v", cfg.Env, cfg.Design)
		}
		chk = check.New(check.Config{
			Ref:        m.ref,
			FastPath:   m.fastPath,
			SizeExact:  m.sizeExact,
			Invariants: m.invariants,
		})
		rec.chk = chk
	}
	var inj *fault.Injector
	if cfg.FaultPlan != nil {
		m.target.Hier = m.hier
		m.target.FlushTLB = dtlb.Flush
		plan := shardPlan(*cfg.FaultPlan, cfg.Ops, scfg.Ops, s, shards)
		inj = fault.New(plan, m.target)
	}
	return &Instance{
		cfg: cfg, m: m, mmu: mmu, inj: inj, chk: chk, res: res, ops: scfg.Ops, rec: rec,
		vas: make([]mem.VAddr, BatchOps),
		pas: make([]mem.PAddr, BatchOps),
	}, nil
}

// Ops returns the instance's op budget (the shard's slice of Config.Ops).
func (in *Instance) Ops() int { return in.ops }

// Step advances the trace by one operation: tick the fault injector,
// generate a reference, translate it (demand-faulting injected unmaps back
// in), and charge the data access.
func (in *Instance) Step() error {
	i := in.op
	if err := in.tick(i); err != nil {
		return err
	}
	va, _ := in.m.gen()
	pa, _, ok := in.mmu.Translate(va)
	if !ok && in.inj != nil && in.inj.Unmapped() > 0 {
		// Demand paging: the workload tripped over an injected unmap;
		// fault the pages back in and retry once.
		if err := in.inj.Refault(); err != nil {
			return fmt.Errorf("sim: refault at %#x (op %d): %w", uint64(va), i, err)
		}
		in.res.DemandFaults++
		pa, _, ok = in.mmu.Translate(va)
	}
	if !ok {
		return fmt.Errorf("sim: translation fault at %#x (op %d, %v/%v)", uint64(va), i, in.cfg.Env, in.cfg.Design)
	}
	if in.chk != nil {
		in.chk.CheckTranslate(va, pa)
	}
	in.res.DataCycles += uint64(in.m.hier.Access(pa))
	in.op++
	return nil
}

// tick fires the fault events due at op and, when one fired with the
// oracle armed, sweeps the TEA invariants. Step and StepBatch both call it
// before the op's translation.
func (in *Instance) tick(op int) error {
	if in.inj == nil {
		return nil
	}
	before := in.inj.Applied + in.inj.Skipped
	if err := in.inj.Tick(op); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if in.chk != nil && in.inj.Applied+in.inj.Skipped != before {
		in.chk.CheckInvariants()
	}
	return nil
}

// StepBatch advances the trace by up to n operations through the batched
// walk path (DESIGN.md §11) and returns how many completed. The batch is
// split into spans at fault-event boundaries — batchSpan sizes each span so
// its end never overshoots the injector's next trigger op, which makes one
// tick per span bit-identical to the scalar path's per-op tick (ticks
// between events are no-ops). Trace generation fills the span's address
// buffer, translate runs the span, and failed translations are
// demand-faulted back in and resumed exactly as Step does. n is clamped to
// both BatchOps and the remaining op budget.
func (in *Instance) StepBatch(n int) (int, error) {
	if n > BatchOps {
		n = BatchOps
	}
	if rem := in.ops - in.op; n > rem {
		n = rem
	}
	total := 0
	for total < n {
		i := in.op
		if err := in.tick(i); err != nil {
			return total, err
		}
		nextAt := 1 << 62
		if in.inj != nil {
			nextAt = in.inj.NextAt()
		}
		span := batchSpan(i, n-total, nextAt)
		vas := in.vas[:span]
		for k := range vas {
			vas[k], _ = in.m.gen()
		}
		for k := 0; k < span; {
			k += in.translate(vas[k:])
			if k >= span {
				break
			}
			// Op i+k failed to translate: demand paging, as in Step — fault
			// injected unmaps back in and retry that op once.
			va := vas[k]
			if in.inj != nil && in.inj.Unmapped() > 0 {
				if err := in.inj.Refault(); err != nil {
					in.op = i + k
					return total + k, fmt.Errorf("sim: refault at %#x (op %d): %w", uint64(va), i+k, err)
				}
				in.res.DemandFaults++
				if in.translate(vas[k:k+1]) == 1 {
					k++
					continue
				}
			}
			in.op = i + k
			return total + k, fmt.Errorf("sim: translation fault at %#x (op %d, %v/%v)", uint64(va), i+k, in.cfg.Env, in.cfg.Design)
		}
		in.op = i + span
		total += span
	}
	return total, nil
}

// translate runs the ops of one span in order — TLB probe; on a miss, walk
// and refill the TLB; verify; charge the data access — which is exactly
// MMU.Translate plus Step's epilogue per op, so a span of n ops is
// bit-identical to n scalar steps. It returns the number of completed ops.
// A short return means op vas[returned] failed to translate (out-of-sync
// page tables, e.g. an injected unmap): its TLB probe and walk have been
// charged, but no TLB refill or data access happened — the caller resolves
// the fault and resumes from that op, which is precisely Step's retry.
//
// Inside a run of consecutive TLB hits the per-op work decomposes into two
// independent state machines: the TLB probe touches only TLB state (LRU,
// promotion, hit counters) and the data access touches only hierarchy state
// (fills, LRU order, level counters) — and the checker reads neither. The
// loop therefore unzips each hit run's L,D,L,D,… interleave into one
// tlb.LookupBatch pass over the run followed by one cache.AccessBatch pass:
// every structure is driven by a tight per-structure loop with its metadata
// hot, and every counter, LRU order, and hit/miss outcome is bit-identical
// to the scalar interleave. The first miss ends the run (its walk touches
// the hierarchy, so it must stay ordered after the run's data accesses).
func (in *Instance) translate(vas []mem.VAddr) int {
	m, hier, chk := in.mmu, in.m.hier, in.chk
	n := len(vas)
	pas := in.pas[:n]
	for i := 0; i < n; {
		hits, missProbed := m.TLB.LookupBatch(vas[i:], m.ASID, pas[i:])
		m.Lookups += uint64(hits)
		if chk != nil {
			for k := i; k < i+hits; k++ {
				chk.CheckTranslate(vas[k], pas[k])
			}
		}
		in.res.DataCycles += hier.AccessBatch(pas[i : i+hits])
		i += hits
		if !missProbed {
			break
		}
		// Op i missed: its TLB probe is already charged (LookupBatch probed
		// it exactly once); walk, refill, and run its epilogue.
		va := vas[i]
		m.Lookups++
		m.Misses++
		m.Sink.Reset()
		out := in.rec.Walk(va)
		if !out.OK {
			return i
		}
		m.TLB.Insert(va, mem.AlignDownP(out.PA, out.Size.Bytes()), out.Size, m.ASID)
		if chk != nil {
			chk.CheckTranslate(va, out.PA)
		}
		in.res.DataCycles += uint64(hier.Access(out.PA))
		i++
	}
	return n
}

// batchSpan returns how many ops, starting at op, a span may run before the
// injector must tick again: the remaining limit, shortened so the span
// never crosses nextAt (the next fault event's trigger op). Pure integer
// arithmetic — FuzzBatchSpan exercises it directly — and always positive
// for a positive limit, so the batched loop cannot stall.
func batchSpan(op, limit, nextAt int) int {
	if limit < 1 {
		return 0
	}
	if nextAt <= op {
		// An overdue event (impossible after a Tick at op, but kept safe):
		// run a single op so the next span re-ticks immediately.
		return 1
	}
	if d := nextAt - op; d < limit {
		return d
	}
	return limit
}

// Finish drains the fault injector, runs the final invariant sweep, and
// seals the instance's Result.
func (in *Instance) Finish() (*Result, error) {
	if in.done {
		return in.res, nil
	}
	in.done = true
	res := in.res
	res.Ops = in.op
	if in.inj != nil {
		if err := in.inj.Drain(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		res.FaultsApplied = in.inj.Applied
		res.FaultsSkipped = in.inj.Skipped
	}
	c := in.counters()
	if in.chk != nil {
		in.chk.CheckInvariants()
		events := 0
		if in.inj != nil {
			events = in.inj.Events()
		}
		reconcile(in.chk, c, events)
		res.Checked = in.chk.Checked
		res.Mismatches = in.chk.Mismatched
		if err := in.chk.Err(); err != nil {
			return nil, fmt.Errorf("sim: %v/%v/%s: %w", in.cfg.Env, in.cfg.Design, in.cfg.Workload.Name, err)
		}
	}
	res.TLBMisses = in.mmu.Misses
	if in.m.coverage != nil {
		hits, total := in.m.coverage()
		res.covHits, res.covTotal, res.covSet = hits, total, true
	}
	res.Coverage, _ = res.RegisterCoverage()
	if in.m.footer != nil {
		in.m.footer(res)
	}
	in.sealObservability(res, c)
	return res, nil
}

// reconcile records a balance mismatch on chk for every counter identity
// c breaks. events is the fault plan's event count: each event is applied
// or skipped exactly once. The L2 and step-cycle identities are not here:
// ASAP's prefetches and Victima's probes reach the L2 without an L1D
// access, and a parallel-fetch walk's breakdown sums every probe, not only
// the one its latency was charged for (ROADMAP 4(b)).
func reconcile(chk *check.Checker, c obs.Counters, events int) {
	chk.CheckBalance("tlb.l1_hits + tlb.l2_hits + tlb.misses == mmu.lookups",
		c["tlb.l1_hits"]+c["tlb.l2_hits"]+c["tlb.misses"], c["mmu.lookups"])
	chk.CheckBalance("cache.l1d_hits + cache.l1d_misses == cache.accesses",
		c["cache.l1d_hits"]+c["cache.l1d_misses"], c["cache.accesses"])
	chk.CheckBalance("cache.llc_misses == cache.mem_fetches", c["cache.llc_misses"], c["cache.mem_fetches"])
	if _, faults := c["fault.applied"]; faults {
		chk.CheckBalance("fault.applied + fault.skipped == plan events",
			c["fault.applied"]+c["fault.skipped"], uint64(events))
	}
}

// counters reads the instance's machine and fault counters by name. It runs
// once, at Finish, so the walk hot path never formats a counter name.
func (in *Instance) counters() obs.Counters {
	c := obs.Counters{}
	if t := in.mmu.TLB; t != nil {
		c.Add("tlb.l1_hits", t.L1Hits)
		c.Add("tlb.l2_hits", t.L2Hits)
		c.Add("tlb.misses", t.Misses)
	}
	c.Add("mmu.lookups", in.mmu.Lookups)
	if h := in.m.hier; h != nil {
		c.Add("cache.l1d_hits", h.L1D.Hits)
		c.Add("cache.l1d_misses", h.L1D.Misses)
		c.Add("cache.l2_hits", h.L2.Hits)
		c.Add("cache.l2_misses", h.L2.Misses)
		c.Add("cache.llc_hits", h.LLC.Hits)
		c.Add("cache.llc_misses", h.LLC.Misses)
		c.Add("cache.accesses", h.Accesses)
		c.Add("cache.mem_fetches", h.MemFetches)
	}
	core.EmitChained(in.m.walker, c.Add)
	if in.inj != nil {
		c.Add("fault.applied", uint64(in.inj.Applied))
		c.Add("fault.skipped", uint64(in.inj.Skipped))
		c.Add("fault.refaults", uint64(in.inj.Refaults))
		c.Add("fault.demand", in.res.DemandFaults)
	}
	return c
}

// sealObservability adds the checker's and hypervisor's counters to c and
// snapshots c into the Result. Everything recorded here
// merges commutatively across shards (MergeShards) and is a pure function
// of (Config, shard) — cross-run machine state like prototype-cache warmth
// stays out (ReadBuildCacheStats reports it).
func (in *Instance) sealObservability(res *Result, c obs.Counters) {
	if in.chk != nil {
		c.Add("check.checked", res.Checked)
		c.Add("check.mismatches", res.Mismatches)
	}
	c.Add("hyp.vmexits", res.VMExits)
	c.Add("hyp.hypercalls", res.Hypercalls)
	c.Add("hyp.shadow_syncs", res.ShadowSyncs)
	c.Add("hyp.isolation_faults", res.IsolationFaults)
	res.Counters = c
}

// ShardResult pairs one shard's Result with its index so merge order never
// matters.
type ShardResult struct {
	Shard int
	Res   *Result
}

// BatchOps is the engine's walk-batch size: a shard steps its trace
// BatchOps operations per StepBatch call.
const BatchOps = 1024

// RunShards executes every shard of cfg — on up to cfg.Workers goroutines
// (internal/shard) — and returns the per-shard results. Each part depends
// only on (cfg, shard), never on scheduling, so callers may merge them in
// any order, and a failing run reports the lowest-shard failure at any
// worker count.
func RunShards(cfg Config) ([]ShardResult, error) {
	cfg = cfg.withDefaults()
	shards := cfg.Shards
	parts := make([]ShardResult, shards)
	err := shard.Run(shards, cfg.Workers, func(s int) error {
		res, err := runShard(cfg, s, shards)
		if err != nil {
			// The classic single-shard run keeps its historical error text.
			if shards > 1 {
				return fmt.Errorf("shard %d: %w", s, err)
			}
			return err
		}
		parts[s] = ShardResult{Shard: s, Res: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// runShard builds shard s of shards and steps it to the end of its trace.
func runShard(cfg Config, s, shards int) (*Result, error) {
	in, err := newShardInstance(cfg, s, shards)
	if err != nil {
		return nil, err
	}
	for in.op < in.ops {
		if _, err := in.StepBatch(BatchOps); err != nil {
			return nil, err
		}
	}
	return in.Finish()
}

// MergeShards combines per-shard results into the run's Result. The merge is
// a commutative fold: integer counters sum, breakdowns sum per label,
// coverage is recomputed from summed hit/total counters, structural
// footprints (PTEBytes) come from shard 0's replica. Parts may be supplied
// in any permutation. A single part is returned as-is, keeping the serial
// path bit-identical to the pre-sharding engine.
func MergeShards(cfg Config, parts []ShardResult) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sim: merge of zero shards")
	}
	sorted := make([]ShardResult, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	for i, p := range sorted {
		if p.Res == nil {
			return nil, fmt.Errorf("sim: merge: shard %d has no result", p.Shard)
		}
		if i > 0 && sorted[i-1].Shard == p.Shard {
			return nil, fmt.Errorf("sim: merge: duplicate shard %d", p.Shard)
		}
	}
	if len(sorted) == 1 {
		return sorted[0].Res, nil
	}

	cfg = cfg.withDefaults()
	out := &Result{Config: cfg, breakdown: map[string]*StepAgg{}, WalkHist: &obs.Hist{}, Counters: obs.Counters{}}
	for _, p := range sorted {
		r := p.Res
		out.Ops += r.Ops
		out.TLBMisses += r.TLBMisses
		out.Walks += r.Walks
		out.WalkCycles += r.WalkCycles
		out.SeqRefs += r.SeqRefs
		out.TotalRefs += r.TotalRefs
		out.DataCycles += r.DataCycles
		out.Fallbacks += r.Fallbacks
		out.Hypercalls += r.Hypercalls
		out.VMExits += r.VMExits
		out.ShadowSyncs += r.ShadowSyncs
		out.IsolationFaults += r.IsolationFaults
		out.FaultsApplied += r.FaultsApplied
		out.FaultsSkipped += r.FaultsSkipped
		out.DemandFaults += r.DemandFaults
		out.Checked += r.Checked
		out.Mismatches += r.Mismatches
		out.covHits += r.covHits
		out.covTotal += r.covTotal
		out.covSet = out.covSet || r.covSet
		out.WalkHist.Merge(r.WalkHist)
		out.Counters.Merge(r.Counters)
		for label, agg := range r.breakdown {
			dst := out.breakdown[label]
			if dst == nil {
				dst = &StepAgg{Label: label}
				out.breakdown[label] = dst
			}
			dst.Cycles += agg.Cycles
			dst.Count += agg.Count
		}
	}
	// Structural footprint: every shard builds an identical replica, so the
	// figure comes from one of them rather than summing copies.
	out.PTEBytes = sorted[0].Res.PTEBytes
	out.Coverage, _ = out.RegisterCoverage()
	return out, nil
}

// shardPlan rescales a fault plan into shard-local op space: event trigger
// points map proportionally onto the shard's shorter trace (every shard
// replays the full schedule against its own machine replica), and the
// plan's own RNG is decorrelated per shard. With one shard the plan is used
// verbatim.
func shardPlan(p fault.Plan, totalOps, ops, s, shards int) fault.Plan {
	if shards == 1 {
		return p
	}
	events := make([]fault.Event, len(p.Events))
	for i, e := range p.Events {
		at := e.At
		if totalOps > 0 {
			at = int(int64(e.At) * int64(ops) / int64(totalOps))
			// Clamp into the shard's op range: an event at the end of the
			// full trace (At == totalOps-1) scales to at == ops on shorter
			// shards, which would never fire in-trace — the injector would
			// only apply it in Drain, after the last walk, silently
			// weakening the schedule on every shard count > 1.
			if at >= ops {
				at = ops - 1
			}
			if at < 0 {
				at = 0
			}
		}
		e.At = at
		events[i] = e
	}
	return fault.Plan{Name: p.Name, Seed: shard.Seed(p.Seed, s), Events: events}
}
