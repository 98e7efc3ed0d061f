package core

import (
	"dmt/internal/cache"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/tea"
)

// FetchLogicCycles is the fixed cost of the DMT fetcher's register filter
// and address arithmetic (Figure 10): a register CAM match plus two adds,
// modelled at one cycle like a PWC probe.
const FetchLogicCycles = 1

// DMTWalker is the native DMT fetcher (§3, §4.1): on a TLB miss it matches
// the VA against the VMA-to-TEA registers; on a match it computes the
// last-level PTE address arithmetically (Figure 7) and fetches it with a
// single memory reference. VAs not covered by any register — and fetches
// that find no valid leaf (e.g. during TEA migration, P-bit clear) — fall
// back to the legacy x86 walker.
type DMTWalker struct {
	Mgr      *tea.Manager
	Pool     *pagetable.Pool
	Hier     *cache.Hierarchy
	Fallback Walker
	// Dim labels refs in breakdowns.
	Dim string
	// Sink collects refs for the whole fetch+fallback chain (share it
	// with Fallback).
	Sink *RefSink

	// Stats
	RegisterHits   uint64
	FallbackWalks  uint64
	ParallelFetch2 uint64 // walks that fanned out to two TEAs (§4.4)
}

// FetchSizes is the §4.4 fan-out probe order, shared by every DMT-family
// fetcher.
var FetchSizes = [...]mem.PageSize{mem.Size4K, mem.Size2M, mem.Size1G}

// NewDMTWalker builds the native DMT design over the TEA manager's
// register file, with the given fallback walker (normally a RadixWalker on
// the same page table).
func NewDMTWalker(mgr *tea.Manager, pool *pagetable.Pool, h *cache.Hierarchy, fallback Walker) *DMTWalker {
	return &DMTWalker{Mgr: mgr, Pool: pool, Hier: h, Fallback: fallback, Dim: "n"}
}

// EmitCounters implements CounterSource: the fetcher's register-file hit
// attribution plus the TEA manager's structural activity (migrations,
// splits, allocation failures — what the fault injector perturbs), then
// the fallback chain's own counters.
func (w *DMTWalker) EmitCounters(emit func(name string, value uint64)) {
	emit("dmt.register_hits", w.RegisterHits)
	emit("dmt.fallback_walks", w.FallbackWalks)
	emit("dmt.parallel_fetch2", w.ParallelFetch2)
	if w.Mgr != nil {
		s := &w.Mgr.Stats
		emit("tea.created", s.Created)
		emit("tea.deleted", s.Deleted)
		emit("tea.merges", s.Merges)
		emit("tea.splits", s.Splits)
		emit("tea.migrations", s.Migrations)
		emit("tea.alloc_failures", s.AllocFailures)
	}
	if w.Fallback != nil {
		EmitChained(w.Fallback, emit)
	}
}

// Walk implements Walker.
func (w *DMTWalker) Walk(va mem.VAddr) WalkOutcome {
	reg := w.Mgr.Lookup(va)
	if reg == nil {
		w.FallbackWalks++
		return WalkFallback(w.Fallback, va, WalkOutcome{})
	}
	out := WalkOutcome{Cycles: FetchLogicCycles}
	// Huge-page support (§4.4): issue one fetch per covered page size in
	// parallel; exactly one TEA holds a valid leaf, and the fetcher
	// proceeds as soon as it returns — non-leaf/invalid returns never gate
	// it.
	g := FetchGroup{Sink: w.Sink}
	fanout := 0
	for _, s := range FetchSizes {
		if !reg.Covered[s] {
			continue
		}
		fanout++
		pteAddr := reg.PTEAddrAt(s, va)
		lat := w.Hier.Access(pteAddr)
		pte, ok := w.Pool.ReadPTE(pteAddr)
		match := ok && LeafValid(pte, s)
		g.Add(MemRef{Addr: pteAddr, Cycles: lat, Level: s.LeafLevel(), Dim: w.Dim}, match)
		if match {
			out.PA = pte.Frame() + mem.PAddr(mem.PageOffset(va, s))
			out.Size = s
			out.OK = true
		}
	}
	g.Commit(&out)
	if fanout > 1 {
		w.ParallelFetch2++
	}
	if !out.OK {
		// No valid leaf in any TEA (unfaulted page, migration window):
		// the request falls back to the x86 page table walker (§4.1),
		// whose refs follow the probes' in the shared sink.
		w.FallbackWalks++
		return WalkFallback(w.Fallback, va, out)
	}
	w.RegisterHits++
	return out
}

// LeafValid reports whether pte is a valid leaf for page size s: base pages
// must not carry the PS bit; huge pages must (so a non-leaf L2 entry read
// from the 2M TEA is rejected, §4.4).
func LeafValid(pte mem.PTE, s mem.PageSize) bool {
	if !pte.Present() {
		return false
	}
	if s == mem.Size4K {
		return !pte.Huge()
	}
	return pte.Huge()
}

// CoverageCounts returns the walks the DMT fetcher served without fallback
// and all walks; hits/total is the register coverage of §6.1's 99+% claim.
// Shard results merge these integers so parallel runs reproduce serial
// coverage bit-exactly.
func (w *DMTWalker) CoverageCounts() (hits, total uint64) {
	return w.RegisterHits, w.RegisterHits + w.FallbackWalks
}

var _ Walker = (*DMTWalker)(nil)
