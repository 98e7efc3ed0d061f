package main

import (
	"fmt"
	"runtime"
	"time"

	"dmt/internal/experiments"
	"dmt/internal/fault"
	"dmt/internal/sim"
	"dmt/internal/workload"
)

// The benchmark's fixed machine shape: every workload runs at this working
// set and cache scale (quick mode shrinks the working set only).
const (
	workingSet = 192 << 20
	quickWS    = 16 << 20
	cacheScale = 16
	oracleOps  = 10 * sim.BatchOps
	// minPasses is the fewest timed passes a run makes, so every cell's
	// median has at least this many samples.
	minPasses = 3
	// matrixShards pins figure-matrix's shard count. experiments.Options has
	// no Shards field and the engine sets Shards = Workers when Workers > 1,
	// so Workers is pinned to this value too; GOMAXPROCS then bounds how many
	// shards really run at once. Results and digests depend on Shards only.
	matrixShards = 2
)

// wdef is one benchmark workload.
type wdef struct {
	name string
	// spec and thp describe the cells' trace and, for every workload, the
	// layout the traced run's layer replay is built over.
	spec   func() workload.Spec
	thp    bool
	faults bool // run each cell under every fault.Suite plan with Verify on
	matrix bool // the figure matrix through experiments.Runner instead of cells
	// passOps is the per-cell op count (per plan with faults, per config in
	// the matrix) of one pass; a run makes as many passes as fit its
	// -seconds. Each is sized so a pass takes about three seconds on a
	// 2-CPU Xeon at 2.1 GHz, short enough that host slowdowns, which come
	// in bursts of a second or two, hit a cell in few of its passes.
	passOps  int
	quickOps int
}

var wdefs = []wdef{
	// Nearly every op misses the TLB: walkers, their cache accesses and the
	// histogram do the work.
	{name: "walk-gups4k", spec: workload.GUPS, passOps: 128 * sim.BatchOps, quickOps: 4 * sim.BatchOps},
	// Almost no op misses: the TLB and cache batch paths and trace generation
	// do the work, and a walker change should show no change.
	{name: "hit-btree-thp", spec: workload.BTree, thp: true, passOps: 1024 * sim.BatchOps, quickOps: 16 * sim.BatchOps},
	// Page-table writes and oracle checks beside translation.
	{name: "faults-redis-thp", spec: workload.Redis, thp: true, faults: true, passOps: 48 * sim.BatchOps, quickOps: 4 * sim.BatchOps},
	// What cmd/figures users wait for: cold builds, clones and shard merges.
	{name: "figure-matrix", spec: workload.GUPS, matrix: true, passOps: 48 * sim.BatchOps, quickOps: 4 * sim.BatchOps},
}

func findWorkload(name string) (*wdef, error) {
	for i := range wdefs {
		if wdefs[i].name == name {
			return &wdefs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// size is how much work one pass of a workload does.
type size struct {
	ws        uint64
	ops       int
	oracleOps int // per cell; 0 in the timed passes, which skip the oracle
	replayN   int // trace ops in each layer-replay stream
	sweepOps  int // per cell in figure-matrix's traced 21-cell sweep
}

func sizeFor(w *wdef, quick bool) size {
	if quick {
		return size{ws: quickWS, ops: w.quickOps, oracleOps: 2 * sim.BatchOps,
			replayN: 4 * sim.BatchOps, sweepOps: 2 * sim.BatchOps}
	}
	return size{ws: workingSet, ops: w.passOps, oracleOps: oracleOps,
		replayN: 64 * sim.BatchOps, sweepOps: 24 * sim.BatchOps}
}

// profile names a workload at a size; expected digests are kept per profile.
func (s size) profile(w *wdef) string {
	return fmt.Sprintf("%s/ops=%d/ws=%dMiB", w.name, s.ops, s.ws>>20)
}

// cell is one (environment × design) pair the simulator supports.
type cell struct {
	env    sim.Environment
	design sim.Design
}

var envNames = map[sim.Environment]string{sim.EnvNative: "native", sim.EnvVirt: "virt", sim.EnvNested: "nested"}

func (c cell) name() string { return envNames[c.env] + "." + string(c.design) }

func cellsOf(env sim.Environment, designs ...sim.Design) []cell {
	out := make([]cell, len(designs))
	for i, d := range designs {
		out[i] = cell{env, d}
	}
	return out
}

// allCells is every cell the simulator supports: 7 native, 10 virt, 4 nested.
var allCells = concat(
	cellsOf(sim.EnvNative, sim.DesignVanilla, sim.DesignDMT, sim.DesignECPT, sim.DesignFPT, sim.DesignASAP,
		sim.DesignVictima, sim.DesignUtopia),
	cellsOf(sim.EnvVirt, sim.DesignVanilla, sim.DesignShadow, sim.DesignDMT, sim.DesignPvDMT, sim.DesignECPT,
		sim.DesignFPT, sim.DesignAgile, sim.DesignASAP, sim.DesignVictima, sim.DesignUtopia),
	cellsOf(sim.EnvNested, sim.DesignVanilla, sim.DesignPvDMT, sim.DesignVictima, sim.DesignUtopia),
)

// matrixCells are the configs Fig 14 (DMT), Fig 15 and Table 5 (pvDMT
// against FPT, ECPT, Agile and ASAP) and Fig 17 (nested pvDMT) compare,
// each beside its vanilla baseline, on 4 KiB pages.
var matrixCells = concat(
	cellsOf(sim.EnvNative, sim.DesignVanilla, sim.DesignDMT),
	cellsOf(sim.EnvVirt, sim.DesignVanilla, sim.DesignPvDMT, sim.DesignFPT, sim.DesignECPT, sim.DesignAgile, sim.DesignASAP),
	cellsOf(sim.EnvNested, sim.DesignVanilla, sim.DesignPvDMT),
)

func concat(parts ...[]cell) []cell {
	var out []cell
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// pass is what one pass over a workload's cells measured and counted.
type pass struct {
	attempted, failed int64
	perCell           int64 // ops attempted per cell (per config in the matrix)
	failures          []string
	digests           map[string]string

	// Host times are at the reference speed (calib.go). These are sums of
	// the per-cell times below.
	wallNs, setupNs float64
	stepNs          float64 // inside StepBatch (Runner.Run in the matrix)
	stepOps         int64
	// liveHeap is the largest heap with one cell's machine resident.
	liveHeap uint64
	// refNs is every reference-kernel measurement, in ns per iteration.
	refNs []float64

	// Per cell (per config in the matrix), in run order.
	cellNames []string
	// cellSpans is each cell's host ns per op of every span, in trace
	// order; a config has one span, its Runner.Run.
	cellSpans                           [][]float64
	cellP50, cellP90                    []float64
	cellWallNs, cellStepNs, cellSetupNs []float64
	cellMiss                            []float64            // TLB miss ratio
	buildMs, cloneMs                    map[string][]float64 // per environment
	finishUs                            []float64
	cloneHits                           uint64

	// Counts summed over every timed Result.
	ops, lookups, misses, accesses, memFetches uint64
	walks, refs, walkCycles, checked           uint64
	faultEvents, mallocs                       uint64
	allocOps                                   int64 // ops the mallocs count covers
}

func newPass() *pass {
	return &pass{digests: map[string]string{}, buildMs: map[string][]float64{}, cloneMs: map[string][]float64{}}
}

// medianOf merges a run's timed passes. Every pass simulates the same ops,
// so span k of a cell is the same work in each: each span's time becomes
// its median over the passes, and a cell's p50 and p90 are taken over
// those; each cell's other host times become their medians over the
// passes, and the pass totals the sums of those medians. A burst of host
// load slows the spans that step through it in one pass; the medians leave
// it out as long as it hits a span in under half its passes. Counts,
// digests and the per-environment rows are the first pass's. Passes in
// which a cell failed are left out; their ops already count as failed.
func medianOf(ps []*pass) *pass {
	var full []*pass
	for _, p := range ps {
		if len(p.cellNames) == len(ps[0].cellNames) && len(p.failures) == 0 {
			full = append(full, p)
		}
	}
	if len(full) == 0 {
		return ps[0]
	}
	m := *full[0]
	xs := make([]float64, len(full))
	overPasses := func(get func(*pass) []float64) []float64 {
		out := make([]float64, len(get(full[0])))
		for i := range out {
			for j, p := range full {
				xs[j] = get(p)[i]
			}
			out[i] = median(xs)
		}
		return out
	}
	m.cellSpans = make([][]float64, len(m.cellNames))
	m.cellP50 = make([]float64, len(m.cellNames))
	m.cellP90 = make([]float64, len(m.cellNames))
	for i := range m.cellNames {
		m.cellSpans[i] = overPasses(func(p *pass) []float64 { return p.cellSpans[i] })
		m.cellP50[i], m.cellP90[i] = quantile(m.cellSpans[i], 0.5), quantile(m.cellSpans[i], 0.9)
	}
	m.cellWallNs = overPasses(func(p *pass) []float64 { return p.cellWallNs })
	m.cellStepNs = overPasses(func(p *pass) []float64 { return p.cellStepNs })
	m.cellSetupNs = overPasses(func(p *pass) []float64 { return p.cellSetupNs })
	m.wallNs, m.stepNs, m.setupNs = sum(m.cellWallNs), sum(m.cellStepNs), sum(m.cellSetupNs)
	m.refNs = nil
	for j, p := range full {
		xs[j] = float64(p.liveHeap)
		m.refNs = append(m.refNs, p.refNs...)
	}
	m.liveHeap = uint64(median(xs))
	return &m
}

func (p *pass) fail(name string, ops int64, err error) {
	p.failed += ops
	p.failures = append(p.failures, fmt.Sprintf("%s: %v", name, err))
}

func (p *pass) count(r *sim.Result) {
	p.ops += uint64(r.Ops)
	p.lookups += r.Counters["mmu.lookups"]
	p.misses += r.Counters["tlb.misses"]
	p.accesses += r.Counters["cache.accesses"]
	p.memFetches += r.Counters["cache.mem_fetches"]
	p.walks += r.Walks
	p.refs += r.TotalRefs
	p.walkCycles += r.WalkCycles
	p.checked += r.Checked
	p.faultEvents += uint64(r.FaultsApplied)
}

// heapAlloc is the heap in use, less the reference kernel's tables.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc - refBytes
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runCells builds, steps, finishes and releases each cell in turn. Each
// StepBatch call is one timed span of sim.BatchOps ops.
func runCells(w *wdef, sz size, cells []cell, seed int64, tr *tracer, parent int) *pass {
	p := newPass()
	for _, c := range cells {
		p.runCell(w, sz, c, seed, tr, parent)
	}
	return p
}

// addCell records one cell's measured host times scaled by f, the factor
// of the reference kernel runs around them (spans is scaled in place);
// only cells that ran to the end record them.
func (p *pass) addCell(name string, f float64, wallNs, stepNs, setupNs int64, spans []float64) {
	for i := range spans {
		spans[i] *= f
	}
	p.cellNames = append(p.cellNames, name)
	p.cellSpans = append(p.cellSpans, spans)
	p.cellP50 = append(p.cellP50, quantile(spans, 0.5))
	p.cellP90 = append(p.cellP90, quantile(spans, 0.9))
	p.cellWallNs = append(p.cellWallNs, f*float64(wallNs))
	p.cellStepNs = append(p.cellStepNs, f*float64(stepNs))
	p.cellSetupNs = append(p.cellSetupNs, f*float64(setupNs))
	p.wallNs += f * float64(wallNs)
	p.stepNs += f * float64(stepNs)
	p.setupNs += f * float64(setupNs)
}

// ref runs the reference kernel and keeps its measurement.
func (p *pass) ref() float64 {
	r := refNs()
	p.refNs = append(p.refNs, r)
	return r
}

func (p *pass) runCell(w *wdef, sz size, c cell, seed int64, tr *tracer, parent int) {
	name := c.name()
	cfg := sim.Config{Env: c.env, Design: c.design, THP: w.thp, Workload: w.spec(), WSBytes: sz.ws,
		Ops: sz.ops, Seed: seed, CacheScale: cacheScale}
	plans := []*fault.Plan{nil}
	if w.faults {
		cfg.Verify = true
		plans = plans[:0]
		for _, pl := range fault.Suite(sz.ops) {
			pl := pl
			plans = append(plans, &pl)
		}
	}
	attempted := int64(sz.ops * len(plans))
	p.attempted += attempted
	p.perCell = attempted
	id := tr.begin(parent, "bench.cell")
	defer tr.end(id)

	// Set-up: a cold build plus the first clone. The GC before it frees the
	// previous cell's machine, so one cell's garbage is not charged to the
	// next; the one after it keeps set-up garbage out of the step spans and
	// measures the live heap.
	runtime.GC()
	r0 := p.ref()
	t0 := time.Now()
	proto, err := sim.NewPrototype(cfg)
	t1 := time.Now()
	tr.add(id, "sim.NewPrototype", t0, t1)
	if err != nil {
		p.fail(name, attempted, err)
		return
	}
	first := cfg
	first.FaultPlan = plans[0]
	in, err := proto.NewInstance(first)
	t2 := time.Now()
	tr.add(id, "sim.NewInstance", t1, t2)
	if err != nil {
		p.fail(name, attempted, err)
		return
	}
	setupNs := t2.Sub(t0).Nanoseconds()
	runtime.GC()
	p.liveHeap = max(p.liveHeap, heapAlloc())

	samples := make([]float64, 0, len(plans)*(sz.ops/sim.BatchOps+1))
	var digests []string
	var lookups, misses uint64
	var stepNs int64
	var finishes []float64
	for i, plan := range plans {
		if i > 0 {
			pc := cfg
			pc.FaultPlan = plan
			t0 := time.Now()
			in, err = proto.NewInstance(pc)
			t1 := time.Now()
			tr.add(id, "sim.NewInstance", t0, t1)
			if err != nil {
				p.fail(name, attempted, err)
				return
			}
			setupNs += t1.Sub(t0).Nanoseconds()
		}
		// With Verify on, Finish fails on any oracle mismatch.
		res, ns, finishNs, err := p.step(in, tr, id, &samples)
		if err != nil {
			p.fail(name, attempted, err)
			return
		}
		stepNs += ns
		finishes = append(finishes, float64(finishNs))
		p.count(res)
		lookups += res.Counters["mmu.lookups"]
		misses += res.Counters["tlb.misses"]
		digests = append(digests, digest(res))
	}
	wallNs := time.Since(t0).Nanoseconds()
	f := scaleFor(r0, p.ref())
	p.addCell(name, f, wallNs, stepNs, setupNs, samples)
	env := envNames[c.env]
	p.buildMs[env] = append(p.buildMs[env], f*float64(t1.Sub(t0).Nanoseconds())/1e6)
	p.cloneMs[env] = append(p.cloneMs[env], f*float64(t2.Sub(t1).Nanoseconds())/1e6)
	for _, ns := range finishes {
		p.finishUs = append(p.finishUs, f*ns/1e3)
	}
	if len(digests) == 1 {
		p.digests[name] = digests[0]
	} else {
		p.digests[name] = combine(digests)
	}
	p.cellMiss = append(p.cellMiss, ratio(float64(misses), float64(lookups)))

	if sz.oracleOps > 0 {
		if err := verifyCell(proto, cfg, sz.oracleOps, tr, id); err != nil {
			p.fail(name, attempted, err)
		}
	}
}

// step drives an instance to the end of its trace, one timed sim.BatchOps
// span per call, and finishes it. Per-span host ns per op go to samples;
// it returns the summed span time and the Finish time.
func (p *pass) step(in *sim.Instance, tr *tracer, parent int, samples *[]float64) (*sim.Result, int64, int64, error) {
	tr.reserve(in.Ops()/sim.BatchOps + 2)
	// Allocations count from the second span on: the first sizes the
	// instance's lazily grown buffers.
	first, m0 := 0, uint64(0)
	done := 0
	var total int64
	for done < in.Ops() {
		if first == 0 && done > 0 {
			first, m0 = done, mallocs()
		}
		t0 := time.Now()
		n, err := in.StepBatch(sim.BatchOps)
		t1 := time.Now()
		tr.add(parent, "sim.StepBatch", t0, t1)
		if err != nil {
			return nil, 0, 0, err
		}
		if n == 0 {
			return nil, 0, 0, fmt.Errorf("no progress at op %d", done)
		}
		d := t1.Sub(t0).Nanoseconds()
		total += d
		p.stepOps += int64(n)
		done += n
		*samples = append(*samples, float64(d)/float64(n))
	}
	if first > 0 {
		p.mallocs += mallocs() - m0
		p.allocOps += int64(done - first)
	}
	t0 := time.Now()
	res, err := in.Finish()
	t1 := time.Now()
	tr.add(parent, "sim.Finish", t0, t1)
	return res, total, t1.Sub(t0).Nanoseconds(), err
}

// verifyCell runs a short untimed pass of the cell with the differential
// oracle re-translating every reference through the live page tables.
func verifyCell(proto *sim.Prototype, cfg sim.Config, ops int, tr *tracer, parent int) error {
	cfg.Ops, cfg.Verify, cfg.FaultPlan = ops, true, nil
	id := tr.begin(parent, "bench.verify")
	defer tr.end(id)
	t0 := time.Now()
	in, err := proto.NewInstance(cfg)
	tr.add(id, "sim.NewInstance", t0, time.Now())
	if err != nil {
		return err
	}
	for done := 0; done < ops; {
		t0 := time.Now()
		n, err := in.StepBatch(sim.BatchOps)
		tr.add(id, "sim.StepBatch", t0, time.Now())
		if err != nil {
			return fmt.Errorf("oracle pass: %w", err)
		}
		if n == 0 {
			return fmt.Errorf("oracle pass: no progress at op %d", done)
		}
		done += n
	}
	t0 = time.Now()
	res, err := in.Finish()
	tr.add(id, "sim.Finish", t0, time.Now())
	return oracleErr(res, err)
}

// oracleErr reports an oracle pass that failed (Finish fails on any
// mismatch) or checked nothing.
func oracleErr(res *sim.Result, err error) error {
	if err != nil {
		return fmt.Errorf("oracle pass: %w", err)
	}
	if res.Checked == 0 {
		return fmt.Errorf("oracle pass checked nothing")
	}
	return nil
}

// runMatrix runs the figure configs through one experiments.Runner, one
// config at a time so each Runner.Run time is that config's own latency,
// starting from an empty prototype cache. A config's wall, step and op
// times are all its Runner.Run time, which includes its build and clone.
func runMatrix(sz size, seed int64, tr *tracer, parent int) *pass {
	p := newPass()
	p.perCell = int64(sz.ops)
	sim.ResetBuildCache()
	r := experiments.NewRunner(experiments.Options{
		Ops: sz.ops, WSBytes: sz.ws, CacheScale: cacheScale, Seed: seed,
		Workloads: workload.All(), Parallel: 1, Workers: matrixShards,
	})
	for _, wl := range workload.All() {
		for _, c := range matrixCells {
			name := wl.Name + "." + c.name()
			p.attempted += int64(sz.ops)
			r0 := p.ref()
			b0 := sim.ReadBuildCacheStats()
			t0 := time.Now()
			res, err := r.Run(c.env, c.design, false, wl)
			t1 := time.Now()
			b1 := sim.ReadBuildCacheStats()
			tr.add(parent, "experiments.Runner.Run", t0, t1)
			d := t1.Sub(t0).Nanoseconds()
			p.cloneHits += b1.Hits - b0.Hits
			if err != nil {
				p.fail(name, int64(sz.ops), err)
				continue
			}
			p.addCell(name, scaleFor(r0, p.ref()), d, d, (b1.BuildNs-b0.BuildNs)+(b1.CloneNs-b0.CloneNs),
				[]float64{float64(d) / float64(res.Ops)})
			p.stepOps += int64(res.Ops)
			p.count(res)
			p.digests[name] = digest(res)
			if sz.oracleOps == 0 {
				continue
			}
			if err := verifyConfig(sim.Config{Env: c.env, Design: c.design, Workload: wl, WSBytes: sz.ws,
				Ops: sz.oracleOps, Seed: seed, CacheScale: cacheScale, Verify: true}, tr, parent); err != nil {
				p.fail(name, int64(sz.ops), err)
			}
		}
	}
	runtime.GC()
	p.liveHeap = heapAlloc()
	sim.ResetBuildCache()
	return p
}

// verifyConfig is verifyCell for a matrix config: it clones the prototype
// the Runner just left in the build cache.
func verifyConfig(cfg sim.Config, tr *tracer, parent int) error {
	t0 := time.Now()
	res, err := sim.Run(cfg)
	tr.add(parent, "sim.Run", t0, time.Now())
	return oracleErr(res, err)
}
