package core

import (
	"dmt/internal/cache"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/tlb"
)

// RadixWalker is the baseline x86 sequential page-table walker (§2.1.1,
// Figure 1) with the Table 3 page-walk caches: on a TLB miss it probes the
// PWC for the deepest skip, then fetches the remaining levels one by one
// through the cache hierarchy.
type RadixWalker struct {
	PT   *pagetable.Table
	Hier *cache.Hierarchy
	PWC  *tlb.PWC
	ASID uint16
	// Dim labels this walker's refs in breakdowns ("n" by default).
	Dim string
	// Sink receives this walker's refs (see RefSink).
	Sink *RefSink

	Walks uint64

	steps []pagetable.Step // per-walker scratch, reused across walks
}

// NewRadixWalker builds the baseline walker.
func NewRadixWalker(pt *pagetable.Table, h *cache.Hierarchy, pwc *tlb.PWC, asid uint16) *RadixWalker {
	return &RadixWalker{PT: pt, Hier: h, PWC: pwc, ASID: asid, Dim: "n"}
}

// Walk implements Walker.
func (w *RadixWalker) Walk(va mem.VAddr) WalkOutcome {
	w.Walks++
	full := w.PT.WalkInto(va, w.steps[:0])
	w.steps = full.Steps[:0]
	out := WalkOutcome{PA: full.PA, Size: full.Size, OK: full.OK}

	steps := full.Steps
	if w.PWC != nil {
		out.Cycles += tlb.PWCLatency
		if _, nextLevel, ok := w.PWC.Lookup(va, w.ASID); ok {
			// Skip the steps above nextLevel; the PWC hands us the node
			// to read next.
			for i, s := range steps {
				if s.Level <= nextLevel {
					steps = steps[i:]
					break
				}
			}
		}
	}
	for _, s := range steps {
		lat := w.Hier.Access(s.Addr)
		w.Sink.Append(MemRef{Addr: s.Addr, Cycles: lat, Level: s.Level, Dim: w.Dim})
		out.Cycles += lat
		out.SeqSteps++
	}
	if w.PWC != nil && full.OK {
		w.refillPWC(va, full.Steps)
	}
	return out
}

// EmitCounters implements CounterSource. The dim qualifier separates
// multiple radix walkers in one machine (e.g. the shadow-table walker's
// "s" dimension from a native "n" walker).
func (w *RadixWalker) EmitCounters(emit func(name string, value uint64)) {
	emit("radix."+w.Dim+".walks", w.Walks)
	if w.PWC != nil {
		emit("radix."+w.Dim+".pwc_hits", w.PWC.Hits)
		emit("radix."+w.Dim+".pwc_misses", w.PWC.Misses)
	}
}

// refillPWC installs skip entries for the internal levels traversed: after
// fetching the level-L entry we know the physical base of the level-(L-1)
// node, which is what a PWC entry at level L records.
func (w *RadixWalker) refillPWC(va mem.VAddr, steps []pagetable.Step) {
	for i := 0; i+1 < len(steps); i++ {
		child := mem.AlignDownP(steps[i+1].Addr, mem.PageBytes4K)
		w.PWC.Insert(va, steps[i].Level, child, w.ASID)
	}
}

var _ Walker = (*RadixWalker)(nil)
