package sim

import (
	"fmt"
	"sync"
	"time"
)

// This file implements build-once, clone-many machine construction. A
// machine build (physical layout, address space, workload VMAs, TEA state,
// per-design translation structures) is a pure function of the
// build-relevant subset of Config, while the engine instantiates one
// machine per shard — so an 8-shard run used to pay the build eight times,
// and a figure matrix re-paid it for every (ops, verify, fault-plan)
// variation of the same machine. Prototypes snapshot the built substrate
// once; shards and repeated cells clone it structurally instead.

// buildKey is the build-relevant subset of Config: the fields the parts
// builders read. Trace-level fields (Ops, Workers, Shards, Verify,
// FaultPlan, traceSeed) never reach a parts builder and are deliberately
// excluded, so runs differing only in them share one prototype. Seed leaks
// into the build in exactly one place — pre-fragmentation — so it joins
// the key only when FragmentTarget is set.
type buildKey struct {
	env      Environment
	design   Design
	thp      bool
	workload string // Spec carries a func and is not map-comparable; Name identifies it
	ws       uint64
	scale    int
	teaRegs  int
	teaMerge float64
	frag     float64
	fragSeed int64
}

func buildKeyFor(cfg Config) buildKey {
	k := buildKey{
		env:      cfg.Env,
		design:   cfg.Design,
		thp:      cfg.THP,
		workload: cfg.Workload.Name,
		ws:       cfg.WSBytes,
		scale:    cfg.CacheScale,
		teaRegs:  cfg.TEARegisters,
		teaMerge: cfg.TEAMergeThreshold,
		frag:     cfg.FragmentTarget,
	}
	if cfg.FragmentTarget > 0 {
		k.fragSeed = cfg.Seed
	}
	return k
}

// Prototype is a built-once machine snapshot. It is never driven: every
// drivable machine is wired over a structural clone of its parts, and its
// parts are sealed before it is handed out, so concurrent NewInstance
// calls from shard workers only ever read it while each clone copies the
// chunks it writes (DESIGN.md §9).
type Prototype struct {
	cfg   Config
	spec  *envSpec
	parts *parts
}

// buildFailureHook, when non-nil, may veto a prototype build. Tests install
// it to simulate transient build failures (exhausted physical layouts,
// backend pressure) and prove they do not wedge the cache.
var buildFailureHook func(Config) error

// NewPrototype builds the substrate for cfg once, uncached and fully cold:
// a virtualized prototype backs its own guest RAM rather than cloning a
// cached VM stage. Most callers want the engine's transparent cache (just
// call Run); this entry point exists for benchmarks and tests that need to
// measure or isolate a single build.
func NewPrototype(cfg Config) (*Prototype, error) {
	p, err := buildPrototype(cfg.withDefaults(), buildVMStage)
	if err != nil {
		return nil, err
	}
	p.parts.seal()
	return p, nil
}

// buildPrototype builds the parts for cfg. A virt or nested machine starts
// from stage(stageKeyFor(cfg)), which must return a VM stage the caller
// owns: a fresh build on the cold path, a clone of the cached stage on the
// cached path.
func buildPrototype(cfg Config, stage func(stageKey) (*vmStage, error)) (*Prototype, error) {
	if buildFailureHook != nil {
		if err := buildFailureHook(cfg); err != nil {
			return nil, err
		}
	}
	spec, err := specFor(cfg.Env, cfg.Design)
	if err != nil {
		return nil, err
	}
	p, err := buildParts(cfg, spec, stage)
	if err != nil {
		return nil, err
	}
	return &Prototype{cfg: cfg, spec: spec, parts: p}, nil
}

// wire clones the prototype's parts and wires a drivable machine for cfg,
// which must agree with the prototype on every buildKey field (the engine
// guarantees this; Prototype.NewInstance checks it).
func (p *Prototype) wire(cfg Config) (*machine, error) {
	start := time.Now()
	c, err := p.parts.clone()
	if err != nil {
		return nil, err
	}
	m, err := wireMachine(cfg, p.spec, c)
	if err != nil {
		return nil, err
	}
	addCloneNs(time.Since(start).Nanoseconds())
	return m, nil
}

// NewInstance clones the prototype into a fresh, unstarted full-trace
// Instance for cfg. cfg may vary from the prototype's build config in
// trace-level fields only.
func (p *Prototype) NewInstance(cfg Config) (*Instance, error) {
	cfg = cfg.withDefaults()
	if buildKeyFor(cfg) != buildKeyFor(p.cfg) {
		return nil, fmt.Errorf("sim: config build-incompatible with prototype (%v/%v/%s)",
			p.cfg.Env, p.cfg.Design, p.cfg.Workload.Name)
	}
	m, err := p.wire(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: cloning %v/%v/%s: %w", cfg.Env, cfg.Design, cfg.Workload.Name, err)
	}
	return assembleInstance(cfg, cfg, m, 0, 1)
}

// BuildCacheStats summarizes prototype-cache behaviour: how many machine
// constructions were requested, how many were satisfied by cloning, and
// the cumulative nanoseconds spent building vs cloning.
type BuildCacheStats struct {
	Hits    uint64 // machine requests served by cloning a cached prototype
	Misses  uint64 // requests that had to build a prototype first
	BuildNs int64  // cumulative time inside parts builders, VM stages included
	CloneNs int64  // cumulative time cloning + wiring instances

	// StageHits and StageMisses count the VM stages the virt and nested
	// prototype builds above started from: cloned from a resident stage,
	// or built first. They are not machine requests and never enter Hits
	// or Misses.
	StageHits   uint64
	StageMisses uint64
}

// cacheEntry is one cache slot, holding a prototype (buildKey) or a VM
// stage (stageKey); once guarantees a single build per key even when
// shard workers race on a cold cache.
type cacheEntry struct {
	once  sync.Once
	proto *Prototype
	stage *vmStage
	err   error
}

// protoCacheCap bounds resident machines, prototypes and VM stages alike.
// A full figure matrix touches well under this many distinct machines at a
// time; LRU eviction keeps long-lived processes (test binaries running many
// configurations) from pinning every substrate ever built.
const protoCacheCap = 16

var protoCache = struct {
	mu      sync.Mutex
	entries map[any]*cacheEntry // keyed by buildKey or stageKey
	order   []any               // LRU: front is oldest
	stats   BuildCacheStats
}{entries: map[any]*cacheEntry{}}

// cachedPrototype returns the (possibly concurrently-built) prototype for
// cfg's build key, building it at most once per residency. A virt or
// nested build starts from a clone of the cached VM stage.
func cachedPrototype(cfg Config) (*Prototype, error) {
	key := buildKeyFor(cfg)
	e := lookup(key, &protoCache.stats.Hits, &protoCache.stats.Misses)
	e.once.Do(func() {
		start := time.Now()
		if e.proto, e.err = buildPrototype(cfg, cachedStage); e.err == nil {
			e.proto.parts.seal()
		}
		ns := time.Since(start).Nanoseconds()
		protoCache.mu.Lock()
		protoCache.stats.BuildNs += ns
		protoCache.mu.Unlock()
	})
	if e.err != nil {
		forget(key, e)
		return nil, e.err
	}
	return e.proto, nil
}

// cachedStage returns a clone of the VM stage for k, building the stage at
// most once per residency. The cached stage itself is never driven. Its
// build or clone time is charged to the prototype build that asked for
// it, inside BuildNs.
func cachedStage(k stageKey) (*vmStage, error) {
	e := lookup(k, &protoCache.stats.StageHits, &protoCache.stats.StageMisses)
	e.once.Do(func() {
		if e.stage, e.err = buildVMStage(k); e.err == nil {
			e.stage.seal()
		}
	})
	if e.err != nil {
		forget(k, e)
		return nil, e.err
	}
	return e.stage.clone()
}

// lookup returns key's entry, creating it on a miss and evicting the
// least recently used entries beyond protoCacheCap, and counts the hit or
// miss in the given stats field.
func lookup(key any, hits, misses *uint64) *cacheEntry {
	protoCache.mu.Lock()
	defer protoCache.mu.Unlock()
	if e, ok := protoCache.entries[key]; ok {
		*hits++
		touchLocked(key)
		return e
	}
	*misses++
	e := &cacheEntry{}
	protoCache.entries[key] = e
	protoCache.order = append(protoCache.order, key)
	for len(protoCache.order) > protoCacheCap {
		delete(protoCache.entries, protoCache.order[0])
		protoCache.order = protoCache.order[1:]
	}
	return e
}

// forget drops a failed entry. Errors are not memoized: a failed build must
// not poison its key for the life of the process. Concurrent waiters on
// the entry all observe the failure (they asked while it was in flight),
// but the entry is dropped so the next lookup re-probes the build —
// transient failures heal on retry instead of wedging every subsequent
// identical run.
func forget(key any, e *cacheEntry) {
	protoCache.mu.Lock()
	defer protoCache.mu.Unlock()
	if cur, ok := protoCache.entries[key]; ok && cur == e {
		delete(protoCache.entries, key)
		for i, k := range protoCache.order {
			if k == key {
				protoCache.order = append(protoCache.order[:i], protoCache.order[i+1:]...)
				break
			}
		}
	}
}

func touchLocked(key any) {
	for i, k := range protoCache.order {
		if k == key {
			protoCache.order = append(append(protoCache.order[:i:i], protoCache.order[i+1:]...), key)
			return
		}
	}
}

func addCloneNs(ns int64) {
	protoCache.mu.Lock()
	protoCache.stats.CloneNs += ns
	protoCache.mu.Unlock()
}

// ReadBuildCacheStats snapshots the cache counters.
func ReadBuildCacheStats() BuildCacheStats {
	protoCache.mu.Lock()
	defer protoCache.mu.Unlock()
	return protoCache.stats
}

// ResetBuildCache empties the prototype cache, VM stages included, and
// zeroes its counters. Tests use it to isolate cache behaviour; in-flight
// builds complete into their (now unreachable) entries harmlessly.
func ResetBuildCache() {
	protoCache.mu.Lock()
	defer protoCache.mu.Unlock()
	protoCache.entries = map[any]*cacheEntry{}
	protoCache.order = nil
	protoCache.stats = BuildCacheStats{}
}
