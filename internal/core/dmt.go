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
	// Sink, when set, collects refs for the whole fetch+fallback chain
	// (share it with Fallback); outcomes then alias the sink's buffer.
	Sink *RefSink

	// Stats
	RegisterHits   uint64
	FallbackWalks  uint64
	ParallelFetch2 uint64 // walks that fanned out to two TEAs (§4.4)
}

// fetchSizes is the §4.4 fan-out probe order.
var fetchSizes = [...]mem.PageSize{mem.Size4K, mem.Size2M, mem.Size1G}

// NewDMTWalker builds the native DMT design over the TEA manager's
// register file, with the given fallback walker (normally a RadixWalker on
// the same page table).
func NewDMTWalker(mgr *tea.Manager, pool *pagetable.Pool, h *cache.Hierarchy, fallback Walker) *DMTWalker {
	return &DMTWalker{Mgr: mgr, Pool: pool, Hier: h, Fallback: fallback, Dim: "n"}
}

// Name implements Walker.
func (w *DMTWalker) Name() string { return "DMT" }

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
		out := w.Fallback.Walk(va)
		out.Fallback = true
		return out
	}
	out := WalkOutcome{Cycles: FetchLogicCycles}
	// Huge-page support (§4.4): issue one fetch per covered page size in
	// parallel; exactly one TEA holds a valid leaf. The group counts as a
	// single sequential step whose critical path is the *valid* leaf's
	// line latency — the fetcher proceeds as soon as a fetch returns a
	// valid leaf of its size; non-leaf/invalid returns never gate it.
	groupCycles := 0 // latency of the valid leaf (fallback: slowest probe)
	slowest := 0
	fanout := 0
	for _, s := range fetchSizes {
		if !reg.Covered[s] {
			continue
		}
		fanout++
		pteAddr := reg.PTEAddrAt(s, va)
		r := w.Hier.Access(pteAddr)
		ref := MemRef{Addr: pteAddr, Cycles: r.Cycles, Served: r.Served, Level: s.LeafLevel(), Dim: w.Dim}
		if w.Sink != nil {
			w.Sink.Append(ref)
		} else {
			out.Refs = append(out.Refs, ref)
		}
		if r.Cycles > slowest {
			slowest = r.Cycles
		}
		pte, ok := w.Pool.ReadPTE(pteAddr)
		if !ok || !leafValid(pte, s) {
			continue
		}
		out.PA = pte.Frame() + mem.PAddr(mem.PageOffset(va, s))
		out.Size = s
		out.OK = true
		groupCycles = r.Cycles
	}
	if !out.OK {
		groupCycles = slowest // absence is known only when all return
	}
	out.Cycles += groupCycles
	out.SeqSteps = 1
	if fanout > 1 {
		w.ParallelFetch2++
	}
	if !out.OK {
		// No valid leaf in any TEA (unfaulted page, migration window):
		// the request falls back to the x86 page table walker (§4.1).
		w.FallbackWalks++
		fb := w.Fallback.Walk(va)
		fb.Cycles += out.Cycles
		if w.Sink != nil {
			// The shared sink already holds prefix + fallback refs in order.
			fb.Refs = w.Sink.Refs()
		} else {
			// Merge into a fresh slice: appending to out.Refs could hand the
			// caller a view into a backing array later clobbered by another
			// fallback reusing the same prefix capacity.
			merged := make([]MemRef, 0, len(out.Refs)+len(fb.Refs))
			merged = append(merged, out.Refs...)
			fb.Refs = append(merged, fb.Refs...)
		}
		fb.SeqSteps += out.SeqSteps
		fb.Fallback = true
		return fb
	}
	w.RegisterHits++
	if w.Sink != nil {
		out.Refs = w.Sink.Refs()
	}
	return out
}

// leafValid reports whether pte is a valid leaf for page size s: base pages
// must not carry the PS bit; huge pages must (so a non-leaf L2 entry read
// from the 2M TEA is rejected, §4.4).
func leafValid(pte mem.PTE, s mem.PageSize) bool {
	if !pte.Present() {
		return false
	}
	if s == mem.Size4K {
		return !pte.Huge()
	}
	return pte.Huge()
}

// Probe reports whether the DMT fast path would serve va — a register
// matches and one of its TEAs holds a valid leaf — without touching the
// cache hierarchy or any statistics. The differential checker uses it to
// assert that Walk falls back exactly when the fast path cannot serve.
func (w *DMTWalker) Probe(va mem.VAddr) bool {
	reg := w.Mgr.Lookup(va)
	if reg == nil {
		return false
	}
	for _, s := range fetchSizes {
		if !reg.Covered[s] {
			continue
		}
		if pte, ok := w.Pool.ReadPTE(reg.PTEAddrAt(s, va)); ok && leafValid(pte, s) {
			return true
		}
	}
	return false
}

// Coverage returns the fraction of walks served by the DMT fetcher without
// fallback (the 99+% claim of §6.1).
func (w *DMTWalker) Coverage() float64 {
	total := w.RegisterHits + w.FallbackWalks
	if total == 0 {
		return 0
	}
	return float64(w.RegisterHits) / float64(total)
}

// CoverageCounts returns the raw hit/total counters behind Coverage; shard
// results merge these integers so parallel runs reproduce serial coverage
// bit-exactly.
func (w *DMTWalker) CoverageCounts() (hits, total uint64) {
	return w.RegisterHits, w.RegisterHits + w.FallbackWalks
}

var _ Walker = (*DMTWalker)(nil)
