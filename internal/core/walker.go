// Package core defines the translation-design abstraction shared by every
// walker in the reproduction and implements the two native designs: the
// baseline x86 radix walker (Figure 1) and the DMT fetcher (Figures 7/10).
//
// A Walker is invoked on a TLB miss and issues PTE fetches through the
// simulated cache hierarchy, recording each one in its RefSink; the walk
// latency is the sum of the sequential fetch latencies (parallel fetches —
// DMT's multi-size fan-out, ECPT's cuckoo ways — are one FetchGroup each)
// plus any fixed logic cost (PWC probes, hash computation).
package core

import (
	"dmt/internal/mem"
)

// MemRef records one PTE fetch of a walk.
type MemRef struct {
	Addr   mem.PAddr
	Cycles int
	// Level is the page-table level fetched (1–5), when meaningful.
	Level int
	// Dim distinguishes dimensions of nested walks: "n" native, "g"
	// guest, "h" host, "s" shadow, "L2"/"L1"/"L0" for nested virt.
	Dim string
	// Step is the 1-based position in the paper's step numbering (e.g.
	// Figure 2's 1..24 for a nested walk).
	Step int
}

// WalkOutcome is the result of one translation walk.
type WalkOutcome struct {
	PA   mem.PAddr
	Size mem.PageSize
	OK   bool

	// Cycles is the total walk latency. The memory references issued
	// (including parallel ones) are in the walker's RefSink.
	Cycles int
	// SeqSteps counts *sequential* dependency steps: a group of parallel
	// fetches counts once (Table 6's metric).
	SeqSteps int
	// Fallback reports that an accelerated design fell back to the
	// legacy x86 walker for this translation.
	Fallback bool
}

// Walker is one address-translation design.
type Walker interface {
	// Walk translates va, charging PTE fetches to the memory hierarchy.
	Walk(va mem.VAddr) WalkOutcome
}

// WalkFallback walks va with fb after a fast path gave up with partial:
// the fallback's refs follow the fast path's in the shared sink, and its
// latency and sequential steps add to theirs.
func WalkFallback(fb Walker, va mem.VAddr, partial WalkOutcome) WalkOutcome {
	out := fb.Walk(va)
	out.Cycles += partial.Cycles
	out.SeqSteps += partial.SeqSteps
	out.Fallback = true
	return out
}

// CounterSource is implemented by walkers that export named counters to
// the observability layer (internal/obs): per-design walk counts, PWC and
// register-file hit attribution, fallback and prefetch statistics. Emit is
// invoked once per run when the instance finishes — never on the walk hot
// path — so implementations may format names freely. A walker owning an
// inner or fallback walker emits that walker's counters too, so the
// simulation harness only queries the top of the chain.
type CounterSource interface {
	EmitCounters(emit func(name string, value uint64))
}

// EmitChained forwards to w's EmitCounters when it exports counters; the
// helper keeps fallback-chain emission one line at every call site.
func EmitChained(w Walker, emit func(name string, value uint64)) {
	if cs, ok := w.(CounterSource); ok {
		cs.EmitCounters(emit)
	}
}
