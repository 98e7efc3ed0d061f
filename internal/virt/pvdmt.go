package virt

import (
	"fmt"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/tea"
)

// PvLevel is one stage of the pvDMT translation chain (§3.1, §3.2): a TEA
// register file translating this level's addresses to the next level's,
// the page-table pool holding the PTE contents, and — for paravirtualized
// levels — the gTEA table that both resolves fetch addresses back to node
// addresses and enforces isolation (§4.5.2).
type PvLevel struct {
	Name string
	Mgr  *tea.Manager
	Pool *pagetable.Pool
	// Table is nil for levels whose TEAs live directly in machine memory
	// (the innermost host level); otherwise fetch addresses are machine
	// addresses validated and translated through the gTEA table.
	Table *GTEATable
}

// PvDMTWalker is paravirtualized DMT: exactly one memory reference per
// virtualization level — two for single-level virtualization (Figure 8),
// three for nested virtualization (Figure 9). All TEAs are contiguous in
// machine physical memory, so every fetch address is a machine address and
// no intermediate translation is needed.
type PvDMTWalker struct {
	Levels   []PvLevel
	Hier     *cache.Hierarchy
	Hyp      *Hypervisor
	Fallback core.Walker
	// Sink collects refs for the whole fetch+fallback chain (share it
	// with Fallback).
	Sink *core.RefSink

	RegisterHits  uint64
	FallbackWalks uint64
}

// EmitCounters implements core.CounterSource: the paravirtual fetcher's
// hit/fallback split, each level's TEA-manager activity, then the nested
// baseline it falls back to.
func (w *PvDMTWalker) EmitCounters(emit func(name string, value uint64)) {
	emit("pvdmt.register_hits", w.RegisterHits)
	emit("pvdmt.fallback_walks", w.FallbackWalks)
	for i, lvl := range w.Levels {
		if lvl.Mgr == nil {
			continue
		}
		prefix := fmt.Sprintf("pvdmt.l%d.tea.", i)
		s := &lvl.Mgr.Stats
		emit(prefix+"migrations", s.Migrations)
		emit(prefix+"splits", s.Splits)
		emit(prefix+"alloc_failures", s.AllocFailures)
	}
	if w.Fallback != nil {
		core.EmitChained(w.Fallback, emit)
	}
}

// Walk implements core.Walker.
func (w *PvDMTWalker) Walk(va mem.VAddr) core.WalkOutcome {
	out := core.WalkOutcome{Cycles: core.FetchLogicCycles}
	addr := uint64(va) // current address in the current level's space
	var size mem.PageSize
	for li := range w.Levels {
		lv := &w.Levels[li]
		reg := lv.Mgr.Lookup(mem.VAddr(addr))
		if reg == nil {
			return w.fallback(va, out)
		}
		g := core.FetchGroup{Sink: w.Sink}
		next := uint64(0)
		found := false
		for _, s := range core.FetchSizes {
			if !reg.Covered[s] {
				continue
			}
			fetchAddr := reg.PTEAddrAt(s, mem.VAddr(addr))
			nodeAddr := fetchAddr
			if lv.Table != nil {
				var err error
				nodeAddr, err = lv.Table.Resolve(reg.GTEAID[s], fetchAddr)
				if err != nil {
					// Out-of-bounds or invalid gTEA ID: the hardware
					// raises a page fault in the host (§4.5.2).
					w.Hyp.IsolationFaults++
					return out
				}
			}
			lat := w.Hier.Access(fetchAddr)
			pte, ok := lv.Pool.ReadPTE(nodeAddr)
			match := ok && core.LeafValid(pte, s)
			g.Add(core.MemRef{Addr: fetchAddr, Cycles: lat, Level: s.LeafLevel(), Dim: lv.Name}, match)
			if match {
				next = uint64(pte.Frame()) + mem.PageOffset(mem.VAddr(addr), s)
				if li == 0 {
					size = s
				}
				found = true
			}
		}
		g.Commit(&out)
		if !found {
			return w.fallback(va, out)
		}
		addr = next
	}
	out.PA = mem.PAddr(addr)
	out.Size = size
	out.OK = true
	w.RegisterHits++
	return out
}

// fallback counts one fallback walk and hands va to the nested walker.
func (w *PvDMTWalker) fallback(va mem.VAddr, partial core.WalkOutcome) core.WalkOutcome {
	w.FallbackWalks++
	return core.WalkFallback(w.Fallback, va, partial)
}

// CoverageCounts returns the walks served without fallback and all walks
// (see core.DMTWalker.CoverageCounts).
func (w *PvDMTWalker) CoverageCounts() (hits, total uint64) {
	return w.RegisterHits, w.RegisterHits + w.FallbackWalks
}

var _ core.Walker = (*PvDMTWalker)(nil)

// NewPvDMTWalker assembles the single-level pvDMT chain: the guest process
// level (gTEAs machine-contiguous via hypercall) followed by the host level.
func NewPvDMTWalker(vm *VM, guestMgr *tea.Manager, guestPool *pagetable.Pool, h *cache.Hierarchy, fallback core.Walker) *PvDMTWalker {
	return &PvDMTWalker{
		Levels: []PvLevel{
			{Name: "g", Mgr: guestMgr, Pool: guestPool, Table: vm.GTEA},
			{Name: "h", Mgr: vm.HostTEA, Pool: vm.HostAS.Pool},
		},
		Hier:     h,
		Hyp:      vm.Hyp,
		Fallback: fallback,
	}
}

// NewPvDMTNestedWalker assembles the three-level chain of Figure 9 for a
// process in an L2 guest: L2VA → L2PA → L1PA → L0PA, one fetch per level.
func NewPvDMTNestedWalker(l2 *VM, guestMgr *tea.Manager, guestPool *pagetable.Pool, h *cache.Hierarchy, fallback core.Walker) *PvDMTWalker {
	return &PvDMTWalker{
		Levels: []PvLevel{
			{Name: "L2", Mgr: guestMgr, Pool: guestPool, Table: l2.GTEA},
			{Name: "L1", Mgr: l2.HostTEA, Pool: l2.HostAS.Pool, Table: l2.Parent.GTEA},
			{Name: "L0", Mgr: l2.Parent.HostTEA, Pool: l2.Parent.HostAS.Pool},
		},
		Hier:     h,
		Hyp:      l2.Hyp,
		Fallback: fallback,
	}
}
