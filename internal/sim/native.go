package sim

import (
	"math/rand"

	"fmt"

	"dmt/internal/baseline/asap"
	"dmt/internal/baseline/ecpt"
	"dmt/internal/baseline/fpt"
	"dmt/internal/baseline/utopia"
	"dmt/internal/baseline/victima"
	"dmt/internal/cache"
	"dmt/internal/check"
	"dmt/internal/core"
	"dmt/internal/fault"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
	"dmt/internal/tea"
	"dmt/internal/tlb"
	"dmt/internal/workload"
)

// frames computes an allocator size: the working set plus headroom for
// page tables, TEAs, hash tables, and allocator slack.
func frames(ws uint64, slack float64, extra uint64) int {
	return int((uint64(float64(ws)*slack) + extra) >> mem.PageShift4K)
}

// teaConfig derives the TEA-manager configuration with ablation overrides.
func teaConfig(cfg Config) tea.Config {
	t := tea.DefaultConfig(cfg.THP)
	if cfg.TEARegisters > 0 {
		t.Registers = cfg.TEARegisters
	}
	if cfg.TEAMergeThreshold != 0 {
		t.MergeThreshold = cfg.TEAMergeThreshold
	}
	return t
}

func ecptSizes(thp bool) []mem.PageSize {
	if thp {
		return []mem.PageSize{mem.Size4K, mem.Size2M}
	}
	return []mem.PageSize{mem.Size4K}
}

// buildECPTSystem creates and syncs the per-size cuckoo tables from the
// current page-table contents of as, allocating from pa. Used both at parts
// build time and by the wire-time Resync closures (which rebuild against an
// instance's own allocator/address space after mapping mutations).
func buildECPTSystem(cfg Config, pa *phys.Allocator, as *kernel.AddressSpace) (*ecpt.System, error) {
	sys, err := ecpt.NewSystem(pa, ecptSizes(cfg.THP), int(cfg.WSBytes>>mem.PageShift4K)/ecpt.GroupPages)
	if err != nil {
		return nil, err
	}
	if err := sys.Sync(as); err != nil {
		return nil, err
	}
	return sys, nil
}

// buildFPTTable creates and syncs a flattened table from as, allocating
// from pa. Shared by parts build and Resync, like buildECPTSystem.
func buildFPTTable(pa *phys.Allocator, as *kernel.AddressSpace) (*fpt.Table, error) {
	t, err := fpt.New(pa)
	if err != nil {
		return nil, err
	}
	if err := t.Sync(as); err != nil {
		return nil, err
	}
	return t, nil
}

// buildUtopiaSeg creates and syncs Utopia's RestSegs from as, allocating
// storage from alloc (machine memory under virtualization). resolve is the
// host-dimension composition (nil native). Shared by parts build and
// Resync, like buildECPTSystem.
func buildUtopiaSeg(alloc *phys.Allocator, as *kernel.AddressSpace, ws uint64, resolve func(mem.PAddr) (mem.PAddr, bool)) (*utopia.Seg, error) {
	seg, err := utopia.NewSeg(alloc, ws)
	if err != nil {
		return nil, err
	}
	if err := seg.Sync(as, resolve); err != nil {
		return nil, err
	}
	return seg, nil
}

// nativeParts is the cloneable substrate of a native machine: everything
// whose construction cost the prototype cache amortizes. Walkers, TLBs,
// sinks, and trace generators are NOT parts — they are created fresh per
// instance by wireNative, so nothing here may alias a driven machine.
type nativeParts struct {
	pa    *phys.Allocator
	as    *kernel.AddressSpace
	mgr   *tea.Manager        // DMT only
	flaky *fault.FlakyBackend // DMT only
	built *workload.Built     // immutable after build; shared across clones
	hier  *cache.Hierarchy
	sys   *ecpt.System   // ECPT only
	ft    *fpt.Table     // FPT only
	vic   *victima.Store // Victima only
	seg   *utopia.Seg    // Utopia only
}

// buildNativeParts lays out the native substrate: physical zone (optionally
// pre-fragmented), address space, TEA manager, workload VMAs, cache
// hierarchy, and any design-specific translation structures. It reads only
// the build-relevant Config fields (those in buildKey) — trace-level fields
// (Ops, seeds, verification) must not influence the result, or the
// prototype cache would conflate distinct machines.
func buildNativeParts(cfg Config) (*nativeParts, error) {
	headroom := 1.35
	if cfg.FragmentTarget > 0 {
		headroom = 2.9 // fragmentation pins roughly half the zone
	}
	pa := phys.New(0, frames(cfg.WSBytes, headroom, 256<<20))
	if cfg.FragmentTarget > 0 {
		pa.Fragment(rand.New(rand.NewSource(cfg.Seed)), 4, cfg.FragmentTarget)
	}
	as, err := kernel.NewAddressSpace(pa, kernel.Config{THP: cfg.THP, ASID: 1})
	if err != nil {
		return nil, err
	}
	p := &nativeParts{pa: pa, as: as}

	// DMT's TEA hooks must observe VMA creation, so install them before
	// the workload lays out its VMAs. The flaky wrapper stays transparent
	// until a fault schedule arms it.
	if cfg.Design == DesignDMT {
		p.flaky = fault.NewFlakyBackend(tea.NewPhysBackend(pa))
		p.mgr = tea.NewManager(as, p.flaky, teaConfig(cfg))
		as.SetHooks(p.mgr)
	}

	p.built, err = cfg.Workload.Build(as, cfg.WSBytes)
	if err != nil {
		return nil, err
	}

	p.hier, err = cache.NewHierarchy(cache.ScaledConfig(cfg.CacheScale))
	if err != nil {
		return nil, err
	}
	switch cfg.Design {
	case DesignECPT:
		if p.sys, err = buildECPTSystem(cfg, pa, as); err != nil {
			return nil, err
		}
	case DesignFPT:
		if p.ft, err = buildFPTTable(pa, as); err != nil {
			return nil, err
		}
	case DesignVictima:
		if p.vic, err = victima.NewStore(pa, p.hier.Config().L2); err != nil {
			return nil, err
		}
	case DesignUtopia:
		if p.seg, err = buildUtopiaSeg(pa, as, cfg.WSBytes, nil); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// clone snapshots the parts: an independent allocator/address-space pair,
// re-bound TEA manager over a fresh backend (compaction counts carried
// over so footers match a cold build), warm cache hierarchy, and per-design
// translation structures. The workload's Built is shared — its generators
// capture sizes at NewGen time and read only immutable VMA bases.
func (p *nativeParts) clone() (*nativeParts, error) {
	pa := p.pa.Clone()
	as := p.as.Clone(pa)
	c := &nativeParts{pa: pa, as: as, built: p.built, hier: p.hier.Clone()}
	if p.mgr != nil {
		pb := tea.NewPhysBackend(pa)
		if old, ok := p.flaky.Inner.(*tea.PhysBackend); ok {
			pb.Compactions = old.Compactions
		}
		c.flaky = fault.NewFlakyBackend(pb)
		mgr, err := p.mgr.Clone(as, c.flaky)
		if err != nil {
			return nil, err
		}
		c.mgr = mgr
	}
	if p.sys != nil {
		c.sys = p.sys.Clone(pa)
	}
	if p.ft != nil {
		c.ft = p.ft.Clone(pa)
	}
	if p.vic != nil {
		c.vic = p.vic.Clone()
	}
	if p.seg != nil {
		c.seg = p.seg.Clone()
	}
	return c, nil
}

// wireNative assembles a drivable machine over the given parts (fresh from
// buildNativeParts or a clone): walkers, walk caches, ref sink, fault
// target, and trace generator are all created here, never cloned, so every
// closure binds to exactly this instance's substrate.
func wireNative(cfg Config, p *nativeParts) (*machine, error) {
	pa, as, hier := p.pa, p.as, p.hier
	radix := core.NewRadixWalker(as.PT, hier, tlb.NewPWCScaled(cfg.CacheScale), as.ASID())

	m := &machine{hier: hier, gen: p.built.NewGen(cfg.genSeed())}
	m.target = fault.Target{AS: as, Mgr: p.mgr, Backend: p.flaky}
	if len(p.built.Major) > 0 {
		hot, ok := as.FindVMA(p.built.Major[0].Start)
		if !ok {
			return nil, fmt.Errorf("hot VMA missing at %#x", uint64(p.built.Major[0].Start))
		}
		m.target.Hot = hot
	}
	m.ref = as.PT.Lookup
	m.sizeExact = true
	switch cfg.Design {
	case DesignVanilla:
		m.sink = &core.RefSink{}
		radix.Sink = m.sink
		m.walker = radix
		m.footer = func(r *Result) { r.PTEBytes = as.Pool.NodeCount() * mem.PageBytes4K }
	case DesignDMT:
		d := core.NewDMTWalker(p.mgr, as.Pool, hier, radix)
		m.sink = &core.RefSink{}
		d.Sink = m.sink
		radix.Sink = m.sink // fallback walks share the chain's buffer
		m.walker = d
		m.coverage = d.CoverageCounts
		m.fastPath = d.Probe
		m.invariants = check.TEAInvariants(p.mgr, as)
		m.footer = func(r *Result) {
			r.PTEBytes = as.Pool.NodeCount() * mem.PageBytes4K
		}
	case DesignECPT:
		m.sink = &core.RefSink{}
		w := &ecpt.Walker{Sys: p.sys, Hier: hier, Sink: m.sink}
		m.walker = w
		// The hash tables are a one-shot sync of the page tables; mapping
		// mutations must rebuild them or stale entries would mistranslate.
		m.target.Resync = func() error {
			sys, err := buildECPTSystem(cfg, pa, as)
			if err != nil {
				return err
			}
			w.Sys = sys
			return nil
		}
		m.footer = func(r *Result) { r.PTEBytes = w.Sys.Table(mem.Size4K).FootprintBytes() }
	case DesignFPT:
		m.sink = &core.RefSink{}
		w := &fpt.Walker{T: p.ft, Hier: hier, Sink: m.sink}
		m.walker = w
		m.target.Resync = func() error {
			t, err := buildFPTTable(pa, as)
			if err != nil {
				return err
			}
			w.T = t
			return nil
		}
		m.footer = func(r *Result) { r.PTEBytes = w.T.FootprintBytes() }
	case DesignASAP:
		var steps []pagetable.Step
		var refs []core.MemRef
		src := asap.LastTwoLevelSource(func(va mem.VAddr) []core.MemRef {
			refs = refs[:0]
			walk := as.PT.WalkInto(va, steps[:0])
			steps = walk.Steps
			for _, s := range walk.Steps {
				refs = append(refs, core.MemRef{Addr: s.Addr, Level: s.Level})
			}
			return refs
		})
		m.sink = &core.RefSink{}
		radix.Sink = m.sink
		m.walker = &asap.Walker{Inner: radix, Hier: hier, Source: src, MemLatency: hier.Config().MemLatency}
		m.footer = func(r *Result) { r.PTEBytes = as.Pool.NodeCount() * mem.PageBytes4K }
	case DesignVictima:
		m.sink = &core.RefSink{}
		radix.Sink = m.sink
		w := victima.NewWalker(p.vic, hier, radix, m.sink)
		m.walker = w
		m.coverage = w.CoverageCounts
		// Spilled translations cache PT contents outside the TLB, so
		// mapping mutations must drop them like a TLB shootdown would.
		m.target.Resync = func() error {
			w.Flush()
			return nil
		}
		m.footer = func(r *Result) { r.PTEBytes = as.Pool.NodeCount() * mem.PageBytes4K }
	case DesignUtopia:
		m.sink = &core.RefSink{}
		radix.Sink = m.sink
		w := &utopia.Walker{Seg: p.seg, Hier: hier, Fallback: radix, Sink: m.sink}
		m.walker = w
		m.coverage = w.CoverageCounts
		// The RestSegs are a one-shot sync of the page tables; mapping
		// mutations must rebuild them or stale entries would mistranslate.
		m.target.Resync = func() error {
			seg, err := buildUtopiaSeg(pa, as, cfg.WSBytes, nil)
			if err != nil {
				return err
			}
			w.Seg = seg
			return nil
		}
		m.footer = func(r *Result) {
			r.PTEBytes = as.Pool.NodeCount()*mem.PageBytes4K + w.Seg.FootprintBytes()
		}
	default:
		return nil, fmt.Errorf("design %q not available natively", cfg.Design)
	}
	return m, nil
}
