package virt

import (
	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/tea"
)

// fetchGroup accumulates one parallel fan-out of PTE fetches (§4.4). The
// group counts as one sequential step whose critical path is the fetch
// that produced the valid leaf (the fetcher proceeds on first valid
// return); only when nothing matches must it wait for the slowest probe.
// With a sink installed refs stream straight into the shared buffer;
// otherwise they collect in the group's own slice (legacy allocation).
type fetchGroup struct {
	sink    *core.RefSink
	cycles  int // critical path: the matched fetch
	slowest int
	last    int // cycles of the most recently added ref
	matched bool
	refs    []core.MemRef // used only when sink is nil
}

// reset prepares a (reusable) group for one fan-out.
func (g *fetchGroup) reset(sink *core.RefSink) {
	*g = fetchGroup{sink: sink, refs: g.refs[:0]}
}

func (g *fetchGroup) add(r core.MemRef) {
	g.last = r.Cycles
	if g.sink != nil {
		g.sink.Append(r)
	} else {
		g.refs = append(g.refs, r)
	}
	if r.Cycles > g.slowest {
		g.slowest = r.Cycles
	}
}

// markMatched records that the most recently added ref carried the valid
// leaf.
func (g *fetchGroup) markMatched() {
	g.matched = true
	if g.last > g.cycles {
		g.cycles = g.last
	}
}

func (g *fetchGroup) commit(out *core.WalkOutcome) {
	if g.sink == nil {
		out.Refs = append(out.Refs, g.refs...)
	}
	if g.matched {
		out.Cycles += g.cycles
	} else {
		out.Cycles += g.slowest
	}
	out.SeqSteps++
}

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
	// Sink, when set, collects refs for the whole fetch+fallback chain
	// (share it with Fallback); outcomes then alias the sink's buffer.
	Sink *core.RefSink

	RegisterHits  uint64
	FallbackWalks uint64

	g fetchGroup // per-walker scratch, reused across fan-outs
}

// pvSizes is the §4.4 fan-out probe order.
var pvSizes = [...]mem.PageSize{mem.Size4K, mem.Size2M, mem.Size1G}

// Name implements core.Walker.
func (w *DMTVirtWalker) Name() string { return "DMT-virt" }

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
	for _, s := range pvSizes {
		if greg.Covered[s] {
			cands[nc] = cand{size: s, gpteGPA: greg.PTEAddrAt(s, gva)}
			nc++
		}
	}
	if nc == 0 {
		return w.fallback(gva, out)
	}

	// Fetch 1 (parallel across candidates): host PTE locating each gPTE.
	g := &w.g
	g.reset(w.Sink)
	for i := 0; i < nc; i++ {
		m, ok := w.hostFetch(cands[i].gpteGPA, g)
		cands[i].machine, cands[i].ok = m, ok
	}
	g.commit(&out)

	// Fetch 2 (parallel): the gPTEs themselves.
	g.reset(w.Sink)
	var dataGPA mem.PAddr
	var guestSize mem.PageSize
	found := false
	for _, c := range cands[:nc] {
		if !c.ok {
			continue
		}
		r := w.Hier.Access(c.machine)
		g.add(core.MemRef{Addr: c.machine, Cycles: r.Cycles, Served: r.Served, Level: c.size.LeafLevel(), Dim: "g"})
		pte, ok := w.GuestPool.ReadPTE(c.gpteGPA)
		if ok && pteLeafValid(pte, c.size) {
			dataGPA = pte.Frame() + mem.PAddr(mem.PageOffset(gva, c.size))
			guestSize = c.size
			found = true
			g.markMatched()
		}
	}
	g.commit(&out)
	if !found {
		return w.fallback(gva, out)
	}

	// Fetch 3: host PTE of the data page.
	g.reset(w.Sink)
	mData, ok := w.hostFetch(dataGPA, g)
	g.commit(&out)
	if !ok {
		return w.fallback(gva, out)
	}
	out.PA = mData
	out.Size = guestSize
	out.OK = true
	w.RegisterHits++
	if w.Sink != nil {
		out.Refs = w.Sink.Refs()
	}
	return out
}

// Probe reports whether the three-fetch fast path would serve gva, without
// touching the cache hierarchy or any statistics.
func (w *DMTVirtWalker) Probe(gva mem.VAddr) bool {
	greg := w.Guest.Lookup(gva)
	if greg == nil {
		return false
	}
	for _, s := range pvSizes {
		if !greg.Covered[s] {
			continue
		}
		gpteGPA := greg.PTEAddrAt(s, gva)
		if _, ok := w.hostProbe(gpteGPA); !ok {
			continue
		}
		pte, ok := w.GuestPool.ReadPTE(gpteGPA)
		if !ok || !pteLeafValid(pte, s) {
			continue
		}
		dataGPA := pte.Frame() + mem.PAddr(mem.PageOffset(gva, s))
		if _, ok := w.hostProbe(dataGPA); ok {
			return true
		}
	}
	return false
}

// hostProbe is hostFetch without cache accesses or ref accounting.
func (w *DMTVirtWalker) hostProbe(gpa mem.PAddr) (mem.PAddr, bool) {
	hreg := w.Host.Lookup(mem.VAddr(gpa))
	if hreg == nil {
		return 0, false
	}
	for _, s := range pvSizes {
		if !hreg.Covered[s] {
			continue
		}
		pte, ok := w.HostPool.ReadPTE(hreg.PTEAddrAt(s, mem.VAddr(gpa)))
		if ok && pteLeafValid(pte, s) {
			return pte.Frame() + mem.PAddr(mem.PageOffset(mem.VAddr(gpa), s)), true
		}
	}
	return 0, false
}

// hostFetch performs one host-side DMT fetch: locate the hPTE of gpa via
// the hVMA-to-hTEA register, access it, and return the machine address the
// hPTE maps gpa to. Refs are added to g (the caller's parallel group).
func (w *DMTVirtWalker) hostFetch(gpa mem.PAddr, g *fetchGroup) (mem.PAddr, bool) {
	hreg := w.Host.Lookup(mem.VAddr(gpa))
	if hreg == nil {
		return 0, false
	}
	for _, s := range pvSizes {
		if !hreg.Covered[s] {
			continue
		}
		hpteAddr := hreg.PTEAddrAt(s, mem.VAddr(gpa))
		r := w.Hier.Access(hpteAddr)
		g.add(core.MemRef{Addr: hpteAddr, Cycles: r.Cycles, Served: r.Served, Level: s.LeafLevel(), Dim: "h"})
		pte, ok := w.HostPool.ReadPTE(hpteAddr)
		if ok && pteLeafValid(pte, s) {
			g.markMatched()
			return pte.Frame() + mem.PAddr(mem.PageOffset(mem.VAddr(gpa), s)), true
		}
	}
	return 0, false
}

func (w *DMTVirtWalker) fallback(gva mem.VAddr, partial core.WalkOutcome) core.WalkOutcome {
	w.FallbackWalks++
	fb := w.Fallback.Walk(gva)
	fb.Cycles += partial.Cycles
	if w.Sink != nil {
		// The shared sink already holds prefix + fallback refs in order.
		fb.Refs = w.Sink.Refs()
	} else {
		fb.Refs = mergeRefs(partial.Refs, fb.Refs)
	}
	fb.SeqSteps += partial.SeqSteps
	fb.Fallback = true
	return fb
}

// CoverageCounts returns the raw hit/total counters behind the walker's
// coverage fraction (see core.DMTWalker.CoverageCounts).
func (w *DMTVirtWalker) CoverageCounts() (hits, total uint64) {
	return w.RegisterHits, w.RegisterHits + w.FallbackWalks
}

// mergeRefs concatenates the fast-path prefix and fallback refs into a
// fresh slice: appending to the prefix in place could hand the caller a
// view into a backing array later clobbered by another fallback reusing
// the same prefix capacity.
func mergeRefs(prefix, fb []core.MemRef) []core.MemRef {
	merged := make([]core.MemRef, 0, len(prefix)+len(fb))
	merged = append(merged, prefix...)
	return append(merged, fb...)
}

func pteLeafValid(pte mem.PTE, s mem.PageSize) bool {
	if !pte.Present() {
		return false
	}
	if s == mem.Size4K {
		return !pte.Huge()
	}
	return pte.Huge()
}

var _ core.Walker = (*DMTVirtWalker)(nil)
