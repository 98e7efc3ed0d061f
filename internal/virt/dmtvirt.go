package virt

import (
	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/tea"
)

// DMTVirtWalker is DMT applied to a virtualized environment *without*
// paravirtualization (§3.1, §4.5): three sequential memory references.
//
//  1. The gVMA-to-gTEA register yields the guest-physical address of the
//     gPTE; the hVMA-to-hTEA register yields the hPTE that locates the
//     gPTE's page in machine memory (fetch 1).
//  2. Fetch the gPTE itself (fetch 2), obtaining the data page's gPA.
//  3. Fetch the hPTE of the data page via the host register (fetch 3).
type DMTVirtWalker struct {
	Guest     *tea.Manager
	GuestPool *pagetable.Pool
	Host      *tea.Manager
	HostPool  *pagetable.Pool
	Hier      *cache.Hierarchy
	Fallback  core.Walker
	// Sink collects refs for the whole fetch+fallback chain (share it
	// with Fallback).
	Sink *core.RefSink

	RegisterHits  uint64
	FallbackWalks uint64
}

// EmitCounters implements core.CounterSource: the three-fetch fast path's
// hit/fallback split, both TEA managers' structural activity, and the
// nested baseline it falls back to.
func (w *DMTVirtWalker) EmitCounters(emit func(name string, value uint64)) {
	emit("dmtvirt.register_hits", w.RegisterHits)
	emit("dmtvirt.fallback_walks", w.FallbackWalks)
	if w.Guest != nil {
		s := &w.Guest.Stats
		emit("dmtvirt.guest.tea.migrations", s.Migrations)
		emit("dmtvirt.guest.tea.splits", s.Splits)
		emit("dmtvirt.guest.tea.alloc_failures", s.AllocFailures)
	}
	if w.Host != nil {
		s := &w.Host.Stats
		emit("dmtvirt.host.tea.migrations", s.Migrations)
		emit("dmtvirt.host.tea.splits", s.Splits)
		emit("dmtvirt.host.tea.alloc_failures", s.AllocFailures)
	}
	if w.Fallback != nil {
		core.EmitChained(w.Fallback, emit)
	}
}

// Walk implements core.Walker.
func (w *DMTVirtWalker) Walk(gva mem.VAddr) core.WalkOutcome {
	greg := w.Guest.Lookup(gva)
	if greg == nil {
		return w.fallback(gva, core.WalkOutcome{})
	}
	out := core.WalkOutcome{Cycles: core.FetchLogicCycles}

	// Candidate gPTE locations, one per covered guest page size.
	type cand struct {
		size    mem.PageSize
		gpteGPA mem.PAddr
		machine mem.PAddr
		ok      bool
	}
	var cands [3]cand
	nc := 0
	for _, s := range core.FetchSizes {
		if greg.Covered[s] {
			cands[nc] = cand{size: s, gpteGPA: greg.PTEAddrAt(s, gva)}
			nc++
		}
	}
	if nc == 0 {
		return w.fallback(gva, out)
	}

	// Fetch 1 (parallel across candidates): host PTE locating each gPTE.
	g := core.FetchGroup{Sink: w.Sink}
	for i := 0; i < nc; i++ {
		m, ok := w.hostFetch(cands[i].gpteGPA, &g)
		cands[i].machine, cands[i].ok = m, ok
	}
	g.Commit(&out)

	// Fetch 2 (parallel): the gPTEs themselves.
	g = core.FetchGroup{Sink: w.Sink}
	var dataGPA mem.PAddr
	var guestSize mem.PageSize
	found := false
	for _, c := range cands[:nc] {
		if !c.ok {
			continue
		}
		lat := w.Hier.Access(c.machine)
		pte, ok := w.GuestPool.ReadPTE(c.gpteGPA)
		match := ok && core.LeafValid(pte, c.size)
		g.Add(core.MemRef{Addr: c.machine, Cycles: lat, Level: c.size.LeafLevel(), Dim: "g"}, match)
		if match {
			dataGPA = pte.Frame() + mem.PAddr(mem.PageOffset(gva, c.size))
			guestSize = c.size
			found = true
		}
	}
	g.Commit(&out)
	if !found {
		return w.fallback(gva, out)
	}

	// Fetch 3: host PTE of the data page.
	g = core.FetchGroup{Sink: w.Sink}
	mData, ok := w.hostFetch(dataGPA, &g)
	g.Commit(&out)
	if !ok {
		return w.fallback(gva, out)
	}
	out.PA = mData
	out.Size = guestSize
	out.OK = true
	w.RegisterHits++
	return out
}

// hostFetch performs one host-side DMT fetch: locate the hPTE of gpa via
// the hVMA-to-hTEA register, access it, and return the machine address the
// hPTE maps gpa to. Refs are added to g (the caller's parallel group).
func (w *DMTVirtWalker) hostFetch(gpa mem.PAddr, g *core.FetchGroup) (mem.PAddr, bool) {
	hreg := w.Host.Lookup(mem.VAddr(gpa))
	if hreg == nil {
		return 0, false
	}
	for _, s := range core.FetchSizes {
		if !hreg.Covered[s] {
			continue
		}
		hpteAddr := hreg.PTEAddrAt(s, mem.VAddr(gpa))
		lat := w.Hier.Access(hpteAddr)
		pte, ok := w.HostPool.ReadPTE(hpteAddr)
		match := ok && core.LeafValid(pte, s)
		g.Add(core.MemRef{Addr: hpteAddr, Cycles: lat, Level: s.LeafLevel(), Dim: "h"}, match)
		if match {
			return pte.Frame() + mem.PAddr(mem.PageOffset(mem.VAddr(gpa), s)), true
		}
	}
	return 0, false
}

// fallback counts one fallback walk and hands gva to the nested walker.
func (w *DMTVirtWalker) fallback(gva mem.VAddr, partial core.WalkOutcome) core.WalkOutcome {
	w.FallbackWalks++
	return core.WalkFallback(w.Fallback, gva, partial)
}

// CoverageCounts returns the raw hit/total counters behind the walker's
// coverage fraction (see core.DMTWalker.CoverageCounts).
func (w *DMTVirtWalker) CoverageCounts() (hits, total uint64) {
	return w.RegisterHits, w.RegisterHits + w.FallbackWalks
}

var _ core.Walker = (*DMTVirtWalker)(nil)
