package core

import (
	"dmt/internal/mem"
	"dmt/internal/tlb"
)

// MMU is the translation front-end: the TLB backed by one translation
// design. TLB hits cost nothing beyond the pipelined lookup; misses invoke
// the walker and install the result (Figure 10's flow).
type MMU struct {
	TLB    *tlb.TLB
	Walker Walker
	// Sink is the walker chain's RefSink. The MMU resets it before every
	// walk, so after a miss it holds that walk's refs alone; the engine's
	// batch loop (sim.Instance.StepBatch) resets it the same way.
	Sink *RefSink
	ASID uint16

	// Stats
	Lookups uint64
	Misses  uint64
}

// NewMMU builds an MMU over walker w recording into sink.
func NewMMU(t *tlb.TLB, w Walker, sink *RefSink, asid uint16) *MMU {
	return &MMU{TLB: t, Walker: w, Sink: sink, ASID: asid}
}

// Translate resolves va, returning the physical address and the translation
// overhead in cycles (zero on a TLB hit).
func (m *MMU) Translate(va mem.VAddr) (mem.PAddr, int, bool) {
	m.Lookups++
	if pa, _, ok := m.TLB.Lookup(va, m.ASID); ok {
		return pa, 0, true
	}
	m.Misses++
	m.Sink.Reset()
	out := m.Walker.Walk(va)
	if !out.OK {
		return 0, out.Cycles, false
	}
	m.TLB.Insert(va, mem.AlignDownP(out.PA, out.Size.Bytes()), out.Size, m.ASID)
	return out.PA, out.Cycles, true
}
