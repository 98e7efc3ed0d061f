package main

import (
	"fmt"
	"time"

	"dmt/internal/cache"
	"dmt/internal/check"
	"dmt/internal/core"
	"dmt/internal/fault"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/obs"
	"dmt/internal/phys"
	"dmt/internal/sim"
	"dmt/internal/tea"
	"dmt/internal/tlb"
	"dmt/internal/virt"
	"dmt/internal/workload"
)

// ledger is the layer replay's cost per call, in host ns unless named
// otherwise.
type ledger struct {
	walkNs map[string]float64 // keyed by the walker's span name

	genNs, lookupNs, insertNs  float64
	accessBatchNs, accessNs    float64
	observeNs, checkNs, tickUs float64
	layoutMs                   float64
}

// scale takes every host time in the ledger to the reference speed.
func (l *ledger) scale(f float64) {
	for k := range l.walkNs {
		l.walkNs[k] *= f
	}
	for _, v := range []*float64{&l.genNs, &l.lookupNs, &l.insertNs, &l.accessBatchNs, &l.accessNs,
		&l.observeNs, &l.checkNs, &l.tickUs, &l.layoutMs} {
		*v *= f
	}
}

// replayCells are the cells whose walkers the replay times directly, with
// the metric each feeds.
var replayCells = []struct {
	cell         cell
	span, metric string
}{
	{cell{sim.EnvNative, sim.DesignVanilla}, "core.radix.Walk", "core.radix.walk_ns"},
	{cell{sim.EnvNative, sim.DesignDMT}, "core.dmt.Walk", "core.dmt.walk_ns"},
	{cell{sim.EnvVirt, sim.DesignVanilla}, "virt.nested.Walk", "virt.nested.walk_ns"},
	{cell{sim.EnvVirt, sim.DesignPvDMT}, "virt.pvdmt.Walk", "virt.pvdmt.walk_ns"},
}

// timed runs prep (untimed) and then body, reps times, one span per body,
// and returns the median host ns per item.
func timed(tr *tracer, parent int, name string, reps, items int, prep, body func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		body()
		t1 := time.Now()
		tr.add(parent, name, t0, t1)
		xs[i] = float64(t1.Sub(t0).Nanoseconds()) / float64(items)
	}
	return median(xs)
}

// engineTLB is the engine's TLB: Table 3 capacities divided by the cache
// scale, kept divisible by the ways.
func engineTLB() tlb.Config {
	cfg := tlb.DefaultConfig()
	cfg.L1Entries = max(cfg.L1Ways, cfg.L1Entries/cacheScale)
	cfg.L2Entries = max(cfg.L2Ways, cfg.L2Entries/cacheScale)
	cfg.L1Entries -= cfg.L1Entries % cfg.L1Ways
	cfg.L2Entries -= cfg.L2Entries % cfg.L2Ways
	return cfg
}

func newHier() *cache.Hierarchy {
	h, err := cache.NewHierarchy(cache.ScaledConfig(cacheScale))
	if err != nil {
		panic(err) // the scaled Table 3 geometry is a constant of this program
	}
	return h
}

// replay times each layer on its own over one trace of the workload: the
// walkers with the TLB bypassed, and the TLB, cache, histogram, oracle and
// fault injector replaying that trace's VA/PA stream. Machines are built
// from the layers' public constructors over a workload.Spec.Build layout,
// the way the engine builds them.
func replay(w *wdef, sz size, seed int64, reps int, tr *tracer, parent int) (*ledger, error) {
	id := tr.begin(parent, "bench.replay")
	defer tr.end(id)
	l := &ledger{walkNs: map[string]float64{}}
	n := sz.replayN

	// Native layout with DMT's TEA hooks, as the engine builds it.
	t0 := time.Now()
	pa := phys.New(0, int((uint64(float64(sz.ws)*1.35)+256<<20)>>mem.PageShift4K))
	t1 := time.Now()
	as, err := kernel.NewAddressSpace(pa, kernel.Config{THP: w.thp, ASID: 1})
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	flaky := fault.NewFlakyBackend(tea.NewPhysBackend(pa))
	mgr := tea.NewManager(as, flaky, tea.DefaultConfig(w.thp))
	as.SetHooks(mgr)
	t3 := time.Now()
	built, err := w.spec().Build(as, sz.ws)
	t4 := time.Now()
	if err != nil {
		return nil, err
	}
	tr.add(id, "phys.New", t0, t1)
	tr.add(id, "kernel.NewAddressSpace", t1, t2)
	tr.add(id, "tea.NewManager", t2, t3)
	tr.add(id, "workload.Build", t3, t4)
	l.layoutMs = float64(t2.Sub(t1).Nanoseconds()+t4.Sub(t3).Nanoseconds()) / 1e6

	vas := make([]mem.VAddr, n)
	var gen workload.Gen
	l.genNs = timed(tr, id, "workload.Gen", reps, n, func() { gen = built.NewGen(seed) }, func() {
		for i := range vas {
			vas[i], _ = gen()
		}
	})
	pas := make([]mem.PAddr, n)
	bases := make([]mem.PAddr, n)
	sizes := make([]mem.PageSize, n)
	t0 = time.Now()
	for i, va := range vas {
		p, s, ok := as.PT.Lookup(va)
		if !ok {
			return nil, fmt.Errorf("replay: %#x unmapped", uint64(va))
		}
		pas[i], bases[i], sizes[i] = p, mem.AlignDownP(p, s.Bytes()), s
	}
	tr.add(id, "pagetable.Lookup", t0, time.Now())

	cycles := make([]uint64, n)
	timeWalker := func(name string, wk core.Walker, sink *core.RefSink) error {
		bad := 0
		pass := func() {
			for i, va := range vas {
				sink.Reset()
				out := wk.Walk(va)
				cycles[i] = uint64(out.Cycles)
				if !out.OK {
					bad++
				}
			}
		}
		pass() // warm the walker's caches and the hierarchy
		l.walkNs[name] = timed(tr, id, name, reps, n, nil, pass)
		if bad > 0 {
			return fmt.Errorf("replay: %s failed %d walks", name, bad)
		}
		return nil
	}

	sink := &core.RefSink{}
	radix := core.NewRadixWalker(as.PT, newHier(), tlb.NewPWCScaled(cacheScale), 1)
	radix.Sink = sink
	if err := timeWalker("core.radix.Walk", radix, sink); err != nil {
		return nil, err
	}
	radixCycles := append([]uint64(nil), cycles...)
	dh := newHier()
	fallback := core.NewRadixWalker(as.PT, dh, tlb.NewPWCScaled(cacheScale), 1)
	fallback.Sink = sink
	dmt := core.NewDMTWalker(mgr, as.Pool, dh, fallback)
	dmt.Sink = sink
	if err := timeWalker("core.dmt.Walk", dmt, sink); err != nil {
		return nil, err
	}

	var tl *tlb.TLB
	freshTLB := func() {
		var err error
		if tl, err = tlb.New(engineTLB()); err != nil {
			panic(err) // derived from the constant Table 3 geometry
		}
	}
	scratch := make([]mem.PAddr, n)
	misses := 0
	lookup := timed(tr, id, "tlb.LookupBatch", reps, n, freshTLB, func() {
		misses = 0
		for i := 0; i < n; {
			hits, missed := tl.LookupBatch(vas[i:], 1, scratch[i:])
			i += hits
			if missed {
				tl.Insert(vas[i], bases[i], sizes[i], 1)
				misses++
				i++
			}
		}
	})
	l.insertNs = timed(tr, id, "tlb.Insert", reps, n, freshTLB, func() {
		for i, va := range vas {
			tl.Insert(va, bases[i], sizes[i], 1)
		}
	})
	// The lookup loop also refilled every miss; charge those to Insert.
	l.lookupNs = lookup - float64(misses)/float64(n)*l.insertNs

	var h *cache.Hierarchy
	freshHier := func() { h = newHier() }
	l.accessBatchNs = timed(tr, id, "cache.AccessBatch", reps, n, freshHier, func() {
		for i := 0; i < n; i += sim.BatchOps {
			h.AccessBatch(pas[i:min(i+sim.BatchOps, n)])
		}
	})
	l.accessNs = timed(tr, id, "cache.Access", reps, n, freshHier, func() {
		for _, p := range pas {
			h.Access(p)
		}
	})

	var hist obs.Hist
	l.observeNs = timed(tr, id, "obs.ObserveBatch", reps, n, func() { hist = obs.Hist{} }, func() {
		for i := 0; i < n; i += sim.BatchOps {
			hist.ObserveBatch(radixCycles[i:min(i+sim.BatchOps, n)])
		}
	})

	var chk *check.Checker
	l.checkNs = timed(tr, id, "check.CheckTranslate", reps, n,
		func() { chk = check.New(check.Config{Ref: as.PT.Lookup, SizeExact: true}) },
		func() {
			for i, va := range vas {
				chk.CheckTranslate(va, pas[i])
			}
		})
	if err := chk.Err(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	if err := replayVirt(w, sz, tr, id, timeWalker); err != nil {
		return nil, err
	}

	// Fault ticks go last: they rewrite the native layout.
	tgt := fault.Target{AS: as, Hot: built.Major[0], Mgr: mgr, Backend: flaky, Hier: dh}
	var tickNs int64
	applied := 0
	for _, plan := range fault.Suite(n) {
		inj := fault.New(plan, tgt)
		for at := inj.NextAt(); at < 1<<62; at = inj.NextAt() {
			t0 := time.Now()
			err := inj.Tick(at)
			t1 := time.Now()
			tr.add(id, "fault.Tick", t0, t1)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			tickNs += t1.Sub(t0).Nanoseconds()
		}
		applied += inj.Applied
	}
	l.tickUs = ratio(float64(tickNs), float64(applied)) / 1e3
	return l, nil
}

// replayVirt builds the virtualized layout the engine gives pvDMT (host DMT
// armed, guest TEAs through the hypercall backend) and times the nested and
// pvDMT walkers over the same trace (the workload lays the guest out at the
// native addresses).
func replayVirt(w *wdef, sz size, tr *tracer, parent int, timeWalker func(string, core.Walker, *core.RefSink) error) error {
	guestRAM := uint64(mem.AlignUp(mem.VAddr(uint64(float64(sz.ws)*1.3)+256<<20), mem.PageBytes2M))
	machineFrames := int((uint64(float64(guestRAM)*1.25) + 384<<20) >> mem.PageShift4K)
	t0 := time.Now()
	hyp, err := virt.NewHypervisor(machineFrames, cache.ScaledConfig(cacheScale))
	t1 := time.Now()
	if err != nil {
		return err
	}
	vm, err := hyp.NewVM(virt.VMConfig{Name: "vm0", RAMBytes: guestRAM, HostTHP: w.thp, HostDMT: true,
		ASID: 100, PvTEAWindowBytes: 64 << 20})
	t2 := time.Now()
	if err != nil {
		return err
	}
	guest, err := vm.NewGuestProcess(w.thp, 1)
	t3 := time.Now()
	if err != nil {
		return err
	}
	gmgr := tea.NewManager(guest, virt.NewHypercallBackend(vm), tea.DefaultConfig(w.thp))
	guest.SetHooks(gmgr)
	t4 := time.Now()
	if _, err := w.spec().Build(guest, sz.ws); err != nil {
		return err
	}
	t5 := time.Now()
	tr.add(parent, "virt.NewHypervisor", t0, t1)
	tr.add(parent, "virt.NewVM", t1, t2)
	tr.add(parent, "virt.NewGuestProcess", t2, t3)
	tr.add(parent, "tea.NewManager", t3, t4)
	tr.add(parent, "workload.Build", t4, t5)

	newNested := func(h *cache.Hierarchy, sink *core.RefSink) *virt.NestedWalker {
		nw := virt.NewNestedWalker(guest.PT, vm.HostAS.PT, h, 1)
		nw.GuestPWC = tlb.NewPWCScaled(cacheScale)
		nw.HostPWC = tlb.NewPWCScaled(cacheScale)
		nw.Nested = tlb.NewNestedCacheSized(38 / cacheScale)
		nw.Sink = sink
		return nw
	}
	sink := &core.RefSink{}
	if err := timeWalker("virt.nested.Walk", newNested(newHier(), sink), sink); err != nil {
		return err
	}
	h := newHier()
	pv := virt.NewPvDMTWalker(vm, gmgr, guest.Pool, h, newNested(h, sink))
	pv.Sink = sink
	return timeWalker("virt.pvdmt.Walk", pv, sink)
}
