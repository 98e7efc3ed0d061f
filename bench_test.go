// Root benchmark harness: one benchmark per table and figure of the
// paper's evaluation (DESIGN.md §4 maps each to its experiment), plus the
// §6.3 overhead microbenchmarks, design ablations, and per-design walk
// throughput benchmarks.
//
// Each figure/table benchmark runs a scaled-down instance of the experiment
// and reports the headline quantities through b.ReportMetric; the full-size
// numbers come from cmd/figures (see EXPERIMENTS.md).
package dmt

import (
	"testing"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/experiments"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/perfmodel"
	"dmt/internal/phys"
	"dmt/internal/sim"
	"dmt/internal/stats"
	"dmt/internal/tea"
	"dmt/internal/tlb"
	"dmt/internal/virt"
	"dmt/internal/workload"
)

// benchOps and benchWS size the per-iteration experiment instances.
const (
	benchOps = 60_000
	benchWS  = 192 << 20
)

func benchRunner(wls ...workload.Spec) *experiments.Runner {
	if len(wls) == 0 {
		wls = []workload.Spec{workload.GUPS(), workload.Redis(), workload.Graph500()}
	}
	return experiments.NewRunner(experiments.Options{
		Ops: benchOps, WSBytes: benchWS, CacheScale: 16, Seed: 11, Workloads: wls,
	})
}

func benchCfg(env sim.Environment, d sim.Design, thp bool, wl workload.Spec) sim.Config {
	return sim.Config{
		Env: env, Design: d, THP: thp, Workload: wl,
		WSBytes: benchWS, Ops: benchOps, Seed: 11, CacheScale: 16,
	}
}

func mustRun(b *testing.B, cfg sim.Config) *sim.Result {
	b.Helper()
	r, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func mustGeo(b *testing.B, xs []float64) float64 {
	b.Helper()
	g, err := stats.GeoMean(xs)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func mustHier(b *testing.B, cfg cache.HierarchyConfig) *cache.Hierarchy {
	b.Helper()
	h, err := cache.NewHierarchy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func mustHyp(b *testing.B, frames int, cfg cache.HierarchyConfig) *virt.Hypervisor {
	b.Helper()
	h, err := virt.NewHypervisor(frames, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func mustTLB(b *testing.B, cfg tlb.Config) *tlb.TLB {
	b.Helper()
	t, err := tlb.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// ---- Tables and figures ----

// BenchmarkTable1_VMACharacteristics regenerates the Table 1 layout
// statistics for the seven benchmarks.
func BenchmarkTable1_VMACharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var covs float64
		for _, s := range workload.All() {
			as, err := kernel.NewAddressSpace(phys.New(0, 1<<17), kernel.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Build(as, 256<<20); err != nil {
				b.Fatal(err)
			}
			st := workload.ComputeVMAStats(workload.RegionsOf(as))
			covs += float64(st.Cov99)
		}
		b.ReportMetric(covs/7, "avg-99%-cov-VMAs")
	}
}

// BenchmarkFig4_TranslationOverhead regenerates the motivation figure:
// vanilla translation overhead in native, virtualized, and nested setups.
func BenchmarkFig4_TranslationOverhead(b *testing.B) {
	wl := workload.GUPS()
	for i := 0; i < b.N; i++ {
		nat := mustRun(b, benchCfg(sim.EnvNative, sim.DesignVanilla, false, wl))
		virt := mustRun(b, benchCfg(sim.EnvVirt, sim.DesignVanilla, false, wl))
		nested := mustRun(b, benchCfg(sim.EnvNested, sim.DesignVanilla, false, wl))
		b.ReportMetric(nat.AvgWalkCycles(), "native-walk-cyc")
		b.ReportMetric(virt.AvgWalkCycles(), "virt-walk-cyc")
		b.ReportMetric(nested.AvgWalkCycles(), "nested-walk-cyc")
	}
}

// BenchmarkFig5_SpecVMACDF regenerates the SPEC VMA-characteristic CDFs.
func BenchmarkFig5_SpecVMACDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var medians [2]float64
		for j, year := range []int{2006, 2017} {
			var cls []float64
			for _, wl := range workload.SpecCorpus(year) {
				cls = append(cls, float64(workload.ComputeVMAStats(wl.Regions).Clusters))
			}
			medians[j] = stats.Percentile(cls, 50)
		}
		b.ReportMetric(medians[0], "spec06-median-clusters")
		b.ReportMetric(medians[1], "spec17-median-clusters")
	}
}

// BenchmarkFig14_NativeSpeedup regenerates the native page-walk speedups of
// DMT over the vanilla radix walker (4K pages).
func BenchmarkFig14_NativeSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		var pw []float64
		for _, wl := range r.Options().Workloads {
			ratio, err := r.WalkRatio(sim.EnvNative, sim.DesignDMT, false, wl)
			if err != nil {
				b.Fatal(err)
			}
			pw = append(pw, 1/ratio)
		}
		b.ReportMetric(mustGeo(b, pw), "dmt-pw-speedup")
	}
}

// BenchmarkFig15_VirtSpeedup regenerates the virtualized speedups of pvDMT
// over nested paging (the headline 1.58x of the paper, 4K pages).
func BenchmarkFig15_VirtSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		var pw, app []float64
		for _, wl := range r.Options().Workloads {
			ratio, err := r.WalkRatio(sim.EnvVirt, sim.DesignPvDMT, false, wl)
			if err != nil {
				b.Fatal(err)
			}
			calib, err := perfmodel.Get(wl.Name)
			if err != nil {
				b.Fatal(err)
			}
			pw = append(pw, 1/ratio)
			app = append(app, calib.AppSpeedupVirt(ratio))
		}
		b.ReportMetric(mustGeo(b, pw), "pvdmt-pw-speedup")
		b.ReportMetric(mustGeo(b, app), "pvdmt-app-speedup")
	}
}

// BenchmarkFig16_WalkBreakdown regenerates the per-PTE breakdown of the
// nested walk and reports the share of the two last-level fetches — the
// fraction pvDMT keeps (66% in the paper's Redis 4K breakdown).
func BenchmarkFig16_WalkBreakdown(b *testing.B) {
	wl := workload.Redis()
	for i := 0; i < b.N; i++ {
		res := mustRun(b, benchCfg(sim.EnvVirt, sim.DesignVanilla, false, wl))
		var leafCycles uint64
		for _, s := range res.Breakdown() {
			if s.Label == "20 gL1" || s.Label == "24 hL1" {
				leafCycles += s.Cycles
			}
		}
		b.ReportMetric(100*float64(leafCycles)/float64(res.WalkCycles), "leaf-share-%")
	}
}

// BenchmarkFig17_NestedSpeedup regenerates nested virtualization: pvDMT's
// application speedup over the shadow-compressed nested-KVM baseline.
func BenchmarkFig17_NestedSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		var app []float64
		for _, wl := range r.Options().Workloads {
			ratio, err := r.WalkRatio(sim.EnvNested, sim.DesignPvDMT, false, wl)
			if err != nil {
				b.Fatal(err)
			}
			calib, err := perfmodel.Get(wl.Name)
			if err != nil {
				b.Fatal(err)
			}
			app = append(app, calib.AppSpeedupNested(ratio))
		}
		b.ReportMetric(mustGeo(b, app), "pvdmt-nested-app-speedup")
	}
}

// BenchmarkTable5_SpeedupVsDesigns reports pvDMT's geomean page-walk
// speedup over each comparison design in a virtualized setup.
func BenchmarkTable5_SpeedupVsDesigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		for _, other := range []sim.Design{sim.DesignFPT, sim.DesignECPT, sim.DesignAgile, sim.DesignASAP} {
			var ratios []float64
			for _, wl := range r.Options().Workloads {
				ours, err := r.Run(sim.EnvVirt, sim.DesignPvDMT, false, wl)
				if err != nil {
					b.Fatal(err)
				}
				theirs, err := r.Run(sim.EnvVirt, other, false, wl)
				if err != nil {
					b.Fatal(err)
				}
				ratios = append(ratios, theirs.AvgWalkCycles()/ours.AvgWalkCycles())
			}
			b.ReportMetric(mustGeo(b, ratios), "pvdmt-over-"+string(other))
		}
	}
}

// BenchmarkTable6_SequentialRefs verifies the sequential-reference counts
// of Table 6 in the simulator.
func BenchmarkTable6_SequentialRefs(b *testing.B) {
	wl := workload.GUPS()
	for i := 0; i < b.N; i++ {
		dmtNat := mustRun(b, benchCfg(sim.EnvNative, sim.DesignDMT, false, wl))
		pvVirt := mustRun(b, benchCfg(sim.EnvVirt, sim.DesignPvDMT, false, wl))
		pvNested := mustRun(b, benchCfg(sim.EnvNested, sim.DesignPvDMT, false, wl))
		b.ReportMetric(dmtNat.AvgSeqRefs(), "dmt-native-refs")
		b.ReportMetric(pvVirt.AvgSeqRefs(), "pvdmt-virt-refs")
		b.ReportMetric(pvNested.AvgSeqRefs(), "pvdmt-nested-refs")
	}
}

// ---- §6.3 overhead microbenchmarks ----

// BenchmarkOverhead_TEAAllocation measures the simulated kernel work of
// allocating a 50 MB TEA through the hypercall path. The VM is recreated
// periodically because the pv-TEA window is consumed monotonically (gTEA
// IDs are never reused, §4.5.1).
func BenchmarkOverhead_TEAAllocation(b *testing.B) {
	frames := 50 << 20 >> mem.PageShift4K
	var hyp *virt.Hypervisor
	var vm *virt.VM
	remake := func() {
		hyp = mustHyp(b, 1<<19, cache.DefaultConfig())
		var err error
		vm, err = hyp.NewVM(virt.VMConfig{Name: "vm", RAMBytes: 256 << 20, ASID: 1, PvTEAWindowBytes: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
	}
	remake()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		region, err := vm.AllocPvTEA(frames)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		hyp.MachinePhys.FreeContig(region.FetchBase, region.Frames)
		if (i+1)%16 == 0 {
			remake()
		}
		b.StartTimer()
	}
}

// BenchmarkOverhead_Hypercall measures the per-call overhead of the
// KVM_HC_ALLOC_TEA path with a minimal (single-frame) TEA. The VM is
// recreated periodically as the window is consumed.
func BenchmarkOverhead_Hypercall(b *testing.B) {
	var hyp *virt.Hypervisor
	var vm *virt.VM
	remake := func() {
		hyp = mustHyp(b, 1<<19, cache.DefaultConfig())
		var err error
		vm, err = hyp.NewVM(virt.VMConfig{Name: "vm", RAMBytes: 128 << 20, ASID: 1, PvTEAWindowBytes: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
	}
	remake()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		region, err := vm.AllocPvTEA(1)
		if err != nil {
			b.Fatal(err)
		}
		hyp.MachinePhys.FreeContig(region.FetchBase, region.Frames)
		if (i+1)%200000 == 0 {
			b.StopTimer()
			remake()
			b.StartTimer()
		}
	}
}

// BenchmarkOverhead_PageTableMemory reports DMT's translation-structure
// memory overhead over the vanilla page tables (§6.3: <2.5%).
func BenchmarkOverhead_PageTableMemory(b *testing.B) {
	wl := workload.GUPS()
	for i := 0; i < b.N; i++ {
		base := mustRun(b, benchCfg(sim.EnvNative, sim.DesignVanilla, false, wl))
		d := mustRun(b, benchCfg(sim.EnvNative, sim.DesignDMT, false, wl))
		b.ReportMetric(100*(float64(d.PTEBytes)/float64(base.PTEBytes)-1), "pt-mem-overhead-%")
	}
}

// ---- ablations (DESIGN.md §5) ----

// BenchmarkAblation_RegisterCount sweeps the DMT register-file size on the
// Redis layout (six disjoint major VMAs, Table 1) with clustering disabled
// so each VMA needs its own register: coverage climbs with the register
// count until all six majors fit, supporting the paper's choice of 16.
func BenchmarkAblation_RegisterCount(b *testing.B) {
	wl := workload.Redis()
	for _, regs := range []int{1, 2, 4, 8, 16} {
		regs := regs
		b.Run(benchName("regs", regs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(sim.EnvNative, sim.DesignDMT, false, wl)
				cfg.TEARegisters = regs
				cfg.TEAMergeThreshold = -1
				res := mustRun(b, cfg)
				b.ReportMetric(res.Coverage*100, "coverage-%")
				b.ReportMetric(res.AvgWalkCycles(), "walk-cyc")
			}
		})
	}
}

// BenchmarkAblation_MergeThreshold sweeps the VMA-clustering bubble
// threshold (the paper's t, default 2%) on Memcached.
func BenchmarkAblation_MergeThreshold(b *testing.B) {
	wl := workload.Memcached()
	for _, t := range []float64{-1, 0.005, 0.02, 0.08} {
		t := t
		b.Run(benchName("t%", int(t*1000)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(sim.EnvNative, sim.DesignDMT, false, wl)
				cfg.TEAMergeThreshold = t
				res := mustRun(b, cfg)
				b.ReportMetric(res.Coverage*100, "coverage-%")
			}
		})
	}
}

// BenchmarkAblation_Fragmentation runs DMT with physical memory
// pre-fragmented to index 0.99 (the §6.3 methodology): TEA allocation falls
// back to mapping splits, and coverage/latency show the cost.
func BenchmarkAblation_Fragmentation(b *testing.B) {
	wl := workload.GUPS()
	for _, frag := range []float64{0, 0.99} {
		frag := frag
		b.Run(benchName("fragx100", int(frag*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(sim.EnvNative, sim.DesignDMT, false, wl)
				cfg.FragmentTarget = frag
				res := mustRun(b, cfg)
				b.ReportMetric(res.Coverage*100, "coverage-%")
				b.ReportMetric(res.AvgWalkCycles(), "walk-cyc")
			}
		})
	}
}

func benchName(prefix string, v int) string {
	if v < 0 {
		return prefix + "=off"
	}
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// ---- walk-throughput microbenchmarks ----

// walkBench drives b.N translations through a pre-built machine via the
// sim.Instance API: construction stays outside the timed region, so ns/op
// and allocs/op measure the walk hot path alone. The driver is the engine's
// own batched loop (StepBatch, DESIGN.md §12), so these numbers measure
// exactly the path production runs take.
func walkBench(b *testing.B, env sim.Environment, d sim.Design) {
	cfg := benchCfg(env, d, false, workload.GUPS())
	cfg.Ops = b.N
	in, err := sim.NewInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n, err := in.StepBatch(sim.BatchOps)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no progress")
		}
		done += n
	}
	b.StopTimer()
	if _, err := in.Finish(); err != nil {
		b.Fatal(err)
	}
}

// One cell per walker design (DESIGN.md §12): the seven native designs,
// the five virt designs not already covered by a native cell, and the
// nested pvDMT configuration. Together they pin the walk hot path of all
// twelve designs in BENCH_sim.json and under CI's alloc gate.
func BenchmarkWalk_NativeVanilla(b *testing.B) { walkBench(b, sim.EnvNative, sim.DesignVanilla) }
func BenchmarkWalk_NativeDMT(b *testing.B)     { walkBench(b, sim.EnvNative, sim.DesignDMT) }
func BenchmarkWalk_NativeECPT(b *testing.B)    { walkBench(b, sim.EnvNative, sim.DesignECPT) }
func BenchmarkWalk_NativeFPT(b *testing.B)     { walkBench(b, sim.EnvNative, sim.DesignFPT) }
func BenchmarkWalk_NativeASAP(b *testing.B)    { walkBench(b, sim.EnvNative, sim.DesignASAP) }
func BenchmarkWalk_NativeVictima(b *testing.B) { walkBench(b, sim.EnvNative, sim.DesignVictima) }
func BenchmarkWalk_NativeUtopia(b *testing.B)  { walkBench(b, sim.EnvNative, sim.DesignUtopia) }
func BenchmarkWalk_VirtVanilla(b *testing.B)   { walkBench(b, sim.EnvVirt, sim.DesignVanilla) }
func BenchmarkWalk_VirtShadow(b *testing.B)    { walkBench(b, sim.EnvVirt, sim.DesignShadow) }
func BenchmarkWalk_VirtDMT(b *testing.B)       { walkBench(b, sim.EnvVirt, sim.DesignDMT) }
func BenchmarkWalk_VirtPvDMT(b *testing.B)     { walkBench(b, sim.EnvVirt, sim.DesignPvDMT) }
func BenchmarkWalk_VirtAgile(b *testing.B)     { walkBench(b, sim.EnvVirt, sim.DesignAgile) }
func BenchmarkWalk_NestedPvDMT(b *testing.B)   { walkBench(b, sim.EnvNested, sim.DesignPvDMT) }

// BenchmarkFetcher_DirectWalk measures the raw DMT fetcher in isolation
// (no trace generation, warm TLB bypassed).
func BenchmarkFetcher_DirectWalk(b *testing.B) {
	pa := phys.New(0, 1<<17)
	as, err := kernel.NewAddressSpace(pa, kernel.Config{ASID: 1})
	if err != nil {
		b.Fatal(err)
	}
	mgr := tea.NewManager(as, tea.NewPhysBackend(pa), tea.DefaultConfig(false))
	as.SetHooks(mgr)
	heap, err := as.MMap(0x40000000, 128<<20, kernel.VMAHeap, "heap")
	if err != nil {
		b.Fatal(err)
	}
	if err := as.Populate(heap); err != nil {
		b.Fatal(err)
	}
	hier := mustHier(b, cache.ScaledConfig(16))
	radix := core.NewRadixWalker(as.PT, hier, tlb.NewPWCScaled(16), 1)
	dmt := core.NewDMTWalker(mgr, as.Pool, hier, radix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := heap.Start + mem.VAddr((uint64(i)*0x9e3779b97f4a7c15)%(heap.Size()-8))
		out := dmt.Walk(va)
		if !out.OK {
			b.Fatal("walk failed")
		}
	}
}

// BenchmarkAblation_FiveLevelTables contrasts translation depth scaling
// (§2.1.1): the baseline 2D walk grows from 24 to 35 references when page
// tables grow from four to five levels, while pvDMT stays at two.
func BenchmarkAblation_FiveLevelTables(b *testing.B) {
	for _, levels := range []int{mem.Levels4, mem.Levels5} {
		levels := levels
		b.Run(benchName("levels", levels), func(b *testing.B) {
			hyp := mustHyp(b, 1<<17, cache.ScaledConfig(16))
			vm, err := hyp.NewVM(virt.VMConfig{
				Name: "vm", RAMBytes: 128 << 20, ASID: 7, PTLevels: levels,
				HostDMT: true, PvTEAWindowBytes: 16 << 20,
			})
			if err != nil {
				b.Fatal(err)
			}
			guest, err := vm.NewGuestProcessCfg(kernel.Config{ASID: 1, Levels: levels})
			if err != nil {
				b.Fatal(err)
			}
			gmgr := tea.NewManager(guest, virt.NewHypercallBackend(vm), tea.DefaultConfig(false))
			guest.SetHooks(gmgr)
			heap, err := guest.MMap(0x40000000, 64<<20, kernel.VMAHeap, "heap")
			if err != nil {
				b.Fatal(err)
			}
			if err := guest.Populate(heap); err != nil {
				b.Fatal(err)
			}
			baseline := virt.NewNestedWalker(guest.PT, vm.HostAS.PT, hyp.Hier, 7)
			baseline.DisableMMUCaches()
			pv := virt.NewPvDMTWalker(vm, gmgr, guest.Pool, hyp.Hier, baseline)
			var baseRefs, pvRefs float64
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va := heap.Start + mem.VAddr((uint64(i)*0x9e3779b97f4a7c15)%(heap.Size()-8))
				baseRefs += float64(baseline.Walk(va).SeqSteps)
				pvRefs += float64(pv.Walk(va).SeqSteps)
				n++
			}
			b.ReportMetric(baseRefs/float64(n), "baseline-refs")
			b.ReportMetric(pvRefs/float64(n), "pvdmt-refs")
		})
	}
}

// BenchmarkAblation_OnDemandTEA contrasts the §7 on-demand TEA policy with
// the default eager allocation on a sparse mmap (1 GiB mapped, 16 MiB
// touched): reservation shrinks by an order of magnitude while touched
// pages keep single-fetch translation.
func BenchmarkAblation_OnDemandTEA(b *testing.B) {
	for _, onDemand := range []bool{false, true} {
		onDemand := onDemand
		name := "eager"
		if onDemand {
			name = "ondemand"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pa := phys.New(0, 1<<19)
				as, err := kernel.NewAddressSpace(pa, kernel.Config{})
				if err != nil {
					b.Fatal(err)
				}
				cfg := tea.DefaultConfig(false)
				cfg.OnDemand = onDemand
				mgr := tea.NewManager(as, tea.NewPhysBackend(pa), cfg)
				as.SetHooks(mgr)
				v, err := as.MMap(0x40000000, 1<<30, kernel.VMAFile, "bigfile")
				if err != nil {
					b.Fatal(err)
				}
				for off := mem.VAddr(0); off < 16<<20; off += mem.PageBytes4K {
					if _, err := as.Touch(v.Start+off, false); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(mgr.Stats.FramesLive)*4, "tea-KiB")
			}
		})
	}
}

// BenchmarkCtxSwitch_RegisterReload measures the raw cost of the DMT
// register reload a context switch adds (§4.1) relative to walk work.
func BenchmarkCtxSwitch_RegisterReload(b *testing.B) {
	pa := phys.New(0, 1<<17)
	as, err := kernel.NewAddressSpace(pa, kernel.Config{ASID: 1})
	if err != nil {
		b.Fatal(err)
	}
	mgr := tea.NewManager(as, tea.NewPhysBackend(pa), tea.DefaultConfig(false))
	as.SetHooks(mgr)
	heap, err := as.MMap(0x40000000, 64<<20, kernel.VMAHeap, "heap")
	if err != nil {
		b.Fatal(err)
	}
	if err := as.Populate(heap); err != nil {
		b.Fatal(err)
	}
	hier := mustHier(b, cache.ScaledConfig(16))
	radix := core.NewRadixWalker(as.PT, hier, tlb.NewPWCScaled(16), 1)
	d := core.NewDMTWalker(mgr, as.Pool, hier, radix)
	mmu := core.NewMMU(mustTLB(b, tlb.DefaultConfig()), d, 1)
	sched := core.NewScheduler(mmu, &core.Task{Name: "p", Walker: d, ASID: 1, UsesDMT: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Switch()
		va := heap.Start + mem.VAddr((uint64(i)*0x9e3779b97f4a7c15)%(heap.Size()-8))
		if _, ok := sched.Translate(va); !ok {
			b.Fatal("translate failed")
		}
	}
	b.ReportMetric(float64(sched.SwitchCycles)/float64(sched.SwitchCycles+sched.AccessCycles)*100, "reload-share-%")
}

// --- Machine construction: cold builds versus prototype clones -----------
//
// BenchmarkBuild_* times a full from-scratch instantiation — substrate
// build plus wiring, the cost every shard used to pay; BenchmarkClone_*
// times minting the same drivable instance from a prebuilt prototype, what
// shards pay now. Both produce a ready-to-step Instance, so their ratio is
// the snapshot win, recorded in BENCH_sim.json's build section and gated by
// cmd/benchcheck. Clone cost is trace-length-independent —
// TestDeterminismCloneCostIndependentOfOps pins that property exactly.

func buildBench(b *testing.B, env sim.Environment, d sim.Design) {
	cfg := benchCfg(env, d, false, workload.GUPS())
	cfg.ColdBuild = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewInstance(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func cloneBench(b *testing.B, env sim.Environment, d sim.Design) {
	cfg := benchCfg(env, d, false, workload.GUPS())
	proto, err := sim.NewPrototype(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.NewInstance(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild_Native(b *testing.B) { buildBench(b, sim.EnvNative, sim.DesignDMT) }
func BenchmarkBuild_Virt(b *testing.B)   { buildBench(b, sim.EnvVirt, sim.DesignPvDMT) }
func BenchmarkBuild_Nested(b *testing.B) { buildBench(b, sim.EnvNested, sim.DesignPvDMT) }

func BenchmarkClone_Native(b *testing.B) { cloneBench(b, sim.EnvNative, sim.DesignDMT) }
func BenchmarkClone_Virt(b *testing.B)   { cloneBench(b, sim.EnvVirt, sim.DesignPvDMT) }
func BenchmarkClone_Nested(b *testing.B) { cloneBench(b, sim.EnvNested, sim.DesignPvDMT) }
