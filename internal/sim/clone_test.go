package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"dmt/internal/fault"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
	"dmt/internal/tea"
	"dmt/internal/virt"
	"dmt/internal/workload"
)

// These tests enforce the snapshot/clone contract (DESIGN.md §8): a machine
// cloned from a prototype is indistinguishable from one built from scratch
// — same Result, bit for bit, under every design, environment, fault plan,
// and verification mode — and driving a clone never leaks state back into
// the prototype or across to sibling clones. They carry "Determinism" in
// their names so CI's race-detector determinism job picks them up.

// TestDeterminismCloneEquality is the differential suite: for every
// (environment × design) cell, with and without a fault plan, with and
// without the verification oracle, a cache-served run (prototype + clones)
// must be bit-identical to a cold build.
func TestDeterminismCloneEquality(t *testing.T) {
	wl := detWorkload(t)
	suite := fault.Suite(detOps)
	if len(suite) == 0 {
		t.Fatal("empty fault suite")
	}
	churn := &suite[0]

	ResetBuildCache()
	for _, env := range []Environment{EnvNative, EnvVirt, EnvNested} {
		for _, d := range Designs(env) {
			for _, plan := range []*fault.Plan{nil, churn} {
				for _, verify := range []bool{false, true} {
					name := fmt.Sprintf("%v/%s/verify=%v", env, d, verify)
					if plan != nil {
						name += "/" + plan.Name
					}
					t.Run(name, func(t *testing.T) {
						cfg := detConfig(env, d, plan)
						cfg.Workload = wl
						cfg.Verify = verify
						cfg.Workers = 2 // schedule shards concurrently too

						cold := cfg
						cold.coldBuild = true
						want, err := Run(cold)
						if err != nil {
							t.Fatal(err)
						}
						got, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						requireEqualResults(t, want, got)

						// A second cached run clones the same resident
						// prototype — including one the first run's fault
						// plan already exercised clones of.
						again, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						requireEqualResults(t, want, again)
					})
				}
			}
		}
	}
	stats := ReadBuildCacheStats()
	if stats.Misses == 0 || stats.Hits == 0 {
		t.Fatalf("cache not exercised: %+v", stats)
	}
	// Every cell ran 4 shards twice from the cache; hits must dwarf builds.
	if stats.Hits < stats.Misses {
		t.Fatalf("expected hit-dominated cache, got %+v", stats)
	}
}

// TestDeterminismCloneIsolation is the aliasing audit: for every
// environment × design at a small working set, two goroutines each drive
// clones of one prototype through all six fault plans (TEA migrations,
// unmaps, huge-page flips, register spills, allocation pressure) at once.
// The prototype's parts must hash the same before and after, the two
// goroutines' results must agree plan by plan, and a clone minted after
// the runs must still match a from-scratch build — i.e. nothing a driven
// clone did (hook callbacks, TLB shootdowns, arena writes, copy-on-write
// chunk copies, backend allocation) reached the prototype they share.
func TestDeterminismCloneIsolation(t *testing.T) {
	wl := detWorkload(t)
	var plans []*fault.Plan
	for _, p := range fault.Suite(detOps) {
		p := p
		plans = append(plans, &p)
	}

	for _, env := range []Environment{EnvNative, EnvVirt, EnvNested} {
		for _, d := range Designs(env) {
			t.Run(fmt.Sprintf("%v/%s", env, d), func(t *testing.T) {
				cfg := detConfig(env, d, nil)
				cfg.Workload = wl
				cfg.WSBytes = 16 << 20
				cfg.Shards = 1
				cfg.Workers = 1

				proto, err := NewPrototype(cfg)
				if err != nil {
					t.Fatal(err)
				}
				before := partsHash(proto.parts)
				runClone := func(plan *fault.Plan) (*Result, error) {
					c := cfg
					c.FaultPlan = plan
					in, err := proto.NewInstance(c)
					if err != nil {
						return nil, err
					}
					for i := 0; i < in.Ops(); i++ {
						if err := in.Step(); err != nil {
							return nil, err
						}
					}
					return in.Finish()
				}
				var results [2][]*Result
				errs := make(chan error, 2)
				for g := range results {
					go func() {
						for _, plan := range plans {
							res, err := runClone(plan)
							if err != nil {
								errs <- fmt.Errorf("%s: %w", plan.Name, err)
								return
							}
							results[g] = append(results[g], res)
						}
						errs <- nil
					}()
				}
				for range results {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
				if after := partsHash(proto.parts); after != before {
					t.Fatalf("prototype parts changed under driven clones: hash %#x, was %#x", after, before)
				}
				for i, plan := range plans {
					t.Run(plan.Name, func(t *testing.T) { requireEqualResults(t, results[0][i], results[1][i]) })
				}

				// The prototype must also still match a from-scratch build.
				c := cfg
				c.FaultPlan = plans[0]
				cold := c
				cold.coldBuild = true
				want, err := Run(cold)
				if err != nil {
					t.Fatal(err)
				}
				got, err := runClone(plans[0])
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, want, got)
			})
		}
	}
}

// partsHash digests what a driven clone could disturb in the parts it was
// cloned from: every allocator's frame kinds, free blocks and statistics;
// every address space's VMAs, page-table nodes and reverse map; the TEA
// managers and exit counters; and the design structures, read through
// their lookups at every mapped page.
func partsHash(p *parts) uint64 {
	h := fnv.New64a()
	add := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	addf := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	lookups := func(as *kernel.AddressSpace, lookup func(mem.VAddr) (mem.PAddr, mem.PageSize, bool)) {
		for _, v := range as.VMAs() {
			for _, pg := range v.PresentPages() {
				pa, size, ok := lookup(pg.VA)
				addf("%x %x %d %v;", pg.VA, pa, size, ok)
			}
		}
	}

	spaces := []*kernel.AddressSpace{p.as}
	var vms []*virt.VM
	if p.hyp != nil {
		add(p.hyp.Hypercalls, p.hyp.VMExits, p.hyp.ShadowSyncs, p.hyp.IsolationFaults)
		vms = append(vms, p.vm)
		if p.l1 != nil {
			vms = append(vms, p.l1)
		}
		for _, vm := range vms {
			spaces = append(spaces, vm.HostAS)
		}
	}
	allocs := map[*phys.Allocator]bool{}
	for _, as := range spaces {
		a := as.Phys
		if !allocs[a] {
			allocs[a] = true
			addf("%+v %d %v;", a.Stats, a.FreeFrames(), a.FreeBlockCounts())
		}
		addf("%d %d %d %d %d;", as.Faults, as.THPMapped, as.MMapCalls, as.MergedVMAs, as.PT.Mapped)
		for f := 0; f < a.TotalFrames(); f++ {
			pa := a.Base() + mem.PAddr(f)<<mem.PageShift4K
			va, size, ok := as.ReverseMap(pa)
			add(uint64(a.FrameKind(pa)), uint64(va), uint64(size), boolBit(ok))
		}
		for _, v := range as.VMAs() {
			add(uint64(v.Start), uint64(v.End), uint64(v.PopulatedPages()))
		}
		lookups(as, as.PT.Lookup)
		hashNodes(as.Pool, add)
	}
	if p.spt != nil {
		hashNodes(p.spt.Pool(), add)
	}
	mgrs := []*tea.Manager{p.mgr}
	for _, vm := range vms {
		mgrs = append(mgrs, vm.HostTEA)
	}
	for _, m := range mgrs {
		if m != nil {
			addf("%+v %+v;", m.Registers(), m.Stats)
			for _, mp := range m.Mappings() {
				add(uint64(mp.Start), uint64(mp.End))
			}
		}
	}
	if p.sys != nil {
		lookups(p.as, p.sys.Lookup)
	}
	if p.ft != nil {
		lookups(p.as, p.ft.Lookup)
	}
	if p.seg != nil {
		lookups(p.as, p.seg.Lookup)
	}
	if p.hsys != nil {
		lookups(p.vm.HostAS, p.hsys.Lookup)
	}
	if p.hft != nil {
		lookups(p.vm.HostAS, p.hft.Lookup)
	}
	return h.Sum64()
}

// hashNodes adds every live node of a page-table pool: level, base and
// all 512 entries, in frame order.
func hashNodes(pool *pagetable.Pool, add func(...uint64)) {
	pool.CountNodes(func(n *pagetable.Node) bool {
		add(uint64(n.Level), uint64(n.Base))
		for i := 0; i < mem.EntriesPerNode; i++ {
			add(uint64(n.Entry(i)))
		}
		return false
	})
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestMulticoreSmokeClonedShards is the CI multicore smoke: a 4-worker run
// must actually take the cloned-shard path — one prototype build, every
// other shard machine minted by cloning — and still produce the same result
// as a serial cold-build run. CI runs it explicitly (and under -race via
// the package test run) so a scheduling or cache regression that silently
// reverts shards to cold builds fails the build rather than just slowing it.
func TestMulticoreSmokeClonedShards(t *testing.T) {
	wl := detWorkload(t)
	cfg := detConfig(EnvVirt, DesignPvDMT, nil)
	cfg.Workload = wl
	cfg.Workers = 4 // withDefaults: Shards = Workers = 4
	cfg.Shards = 0

	ResetBuildCache()
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := ReadBuildCacheStats()
	if stats.Misses != 1 {
		t.Fatalf("expected exactly one prototype build for one configuration, got %+v", stats)
	}
	if stats.Hits < 3 {
		t.Fatalf("cloned-shard path not exercised: want >=3 cache hits for 4 shards, got %+v", stats)
	}

	cold := cfg
	cold.coldBuild = true
	cold.Workers = 1
	cold.Shards = 4 // results are a function of Shards, not Workers
	want, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, want, got)
}

// TestDeterminismCloneCostIndependentOfOps pins the snapshot property the
// clone benchmarks rely on: instantiating from a prototype does work
// proportional to the machine, never to the trace length. Allocation
// counts are scheduler-independent, so the assertion is exact.
func TestDeterminismCloneCostIndependentOfOps(t *testing.T) {
	wl := detWorkload(t)
	cfg := detConfig(EnvNative, DesignDMT, nil)
	cfg.Workload = wl
	cfg.Verify = false
	cfg.Shards = 1

	proto, err := NewPrototype(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocsAt := func(ops int) float64 {
		c := cfg
		c.Ops = ops
		// Start each measurement from a collected heap: a GC landing inside
		// one window but not the other empties fmt's internal pools and
		// shows up as a spurious one-alloc difference.
		runtime.GC()
		return testing.AllocsPerRun(3, func() {
			if _, err := proto.NewInstance(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocsAt(detOps), allocsAt(100*detOps)
	if short != long {
		t.Fatalf("clone cost scales with trace length: %v allocs at %d ops, %v at %d",
			short, detOps, long, 100*detOps)
	}
}

// TestDeterminismStageReuse is the differential suite for VM-stage reuse:
// every virt and nested design, THP off and on, for two workloads at one
// working set, runs from the cache in an order where later configs clone
// the VM stage an earlier config built. Each cached Result must equal its
// cold build, and no derived build may reach back into a cached stage:
// pvDMT, ECPT, FPT and Utopia allocate machine or host memory in their
// design layer, so a stage shared by reference would show it here.
func TestDeterminismStageReuse(t *testing.T) {
	wls := []workload.Spec{detWorkload(t)}
	redis, err := workload.ByName("Redis")
	if err != nil {
		t.Fatal(err)
	}
	wls = append(wls, redis)

	ResetBuildCache()
	defer ResetBuildCache()
	seen := map[stageKey]*vmStage{}
	before := map[stageKey]string{}
	for _, thp := range []bool{false, true} {
		for _, env := range []Environment{EnvVirt, EnvNested} {
			for _, d := range Designs(env) {
				for _, wl := range wls {
					cfg := detConfig(env, d, nil)
					cfg.THP = thp
					cfg.Workload = wl
					cfg.Shards = 1
					t.Run(fmt.Sprintf("%v/%s/thp=%v/%s", env, d, thp, wl.Name), func(t *testing.T) {
						got, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						cold := cfg
						cold.coldBuild = true
						want, err := Run(cold)
						if err != nil {
							t.Fatal(err)
						}
						requireEqualResults(t, want, got)
					})
					k := stageKeyFor(cfg.withDefaults())
					if _, ok := seen[k]; !ok {
						st := residentStage(t, k)
						seen[k] = st
						before[k] = stageFingerprint(st)
					}
				}
			}
		}
	}
	for k, st := range seen {
		if after := stageFingerprint(st); after != before[k] {
			t.Errorf("stage %+v changed under derived builds:\nbefore %s\nafter  %s", k, before[k], after)
		}
		fresh, err := buildVMStage(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := stageFingerprint(fresh); want != before[k] {
			t.Errorf("stage %+v differs from a fresh build:\ncached %s\nfresh  %s", k, before[k], want)
		}
	}
	// Two environments × host DMT on/off × THP off/on; every other config
	// cloned one of them.
	stats := ReadBuildCacheStats()
	if stats.StageMisses != 8 || len(seen) != 8 {
		t.Fatalf("want 8 stage builds for 8 shapes, got %d (%d shapes): %+v", stats.StageMisses, len(seen), stats)
	}
	if stats.StageHits+stats.StageMisses != stats.Misses {
		t.Fatalf("every prototype build must take exactly one stage: %+v", stats)
	}
}

// residentStage returns the cached VM stage for k.
func residentStage(t *testing.T, k stageKey) *vmStage {
	t.Helper()
	protoCache.mu.Lock()
	defer protoCache.mu.Unlock()
	e, ok := protoCache.entries[k]
	if !ok || e.stage == nil {
		t.Fatalf("no resident stage for %+v", k)
	}
	return e.stage
}

// stageFingerprint summarizes what a derived build could disturb in a VM
// stage: every allocator's statistics, free frames and audit, the host
// tables' node counts and mapped leaves, and the exit accounting.
func stageFingerprint(s *vmStage) string {
	audit := func(err error) string {
		if err != nil {
			return err.Error()
		}
		return "ok"
	}
	fp := fmt.Sprintf("machine{%+v free=%d audit=%s} exits{%d %d %d %d}",
		s.hyp.MachinePhys.Stats, s.hyp.MachinePhys.FreeFrames(), audit(s.hyp.MachinePhys.Audit()),
		s.hyp.Hypercalls, s.hyp.VMExits, s.hyp.ShadowSyncs, s.hyp.IsolationFaults)
	for _, vm := range []*virt.VM{s.l1, s.vm} {
		if vm == nil {
			continue
		}
		fp += fmt.Sprintf(" %s{guest{%+v free=%d audit=%s} host{nodes=%d mapped=%v}}",
			vm.Name, vm.GuestPhys.Stats, vm.GuestPhys.FreeFrames(), audit(vm.GuestPhys.Audit()),
			vm.HostAS.Pool.NodeCount(), vm.HostAS.PT.Mapped)
	}
	return fp
}
