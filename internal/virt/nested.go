package virt

import (
	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/tlb"
)

// NestedWalker is hardware-assisted two-dimensional translation (§2.1.2,
// Figure 2): on a TLB miss it walks the guest page table gL4→gL1, and every
// guest-dimension access first resolves the guest-physical address of the
// PTE through the host page table hL4→hL1, producing up to 24 sequential
// memory references for 4-level tables. Guest-dimension skips come from the
// guest PWC; host-dimension skips from the host PWC and the nested
// translation cache (Table 3).
//
// The same walker implements the nested-virtualization baseline by handing
// it the L2 process table as the guest dimension and the compressed shadow
// table (L2PA→L0PA, Figure 3) as the host dimension, and agile paging's
// lower levels by resuming it below the shadowed ones (WalkFrom).
type NestedWalker struct {
	GuestPT  *pagetable.Table // gVA → gPA, nodes at guest-physical addresses
	HostPT   *pagetable.Table // gPA → machine PA, nodes at machine addresses
	Hier     *cache.Hierarchy
	GuestPWC *tlb.PWC
	HostPWC  *tlb.PWC
	Nested   *tlb.NestedCache
	ASID     uint16
	// Sink collects refs across the 2D walk (see core.RefSink).
	Sink *core.RefSink

	Walks uint64

	gsteps, hsteps []pagetable.Step // per-walker scratch, reused across walks
}

// NewNestedWalker builds the 2D walker for a single-level setup.
func NewNestedWalker(guestPT, hostPT *pagetable.Table, h *cache.Hierarchy, asid uint16) *NestedWalker {
	return &NestedWalker{
		GuestPT:  guestPT,
		HostPT:   hostPT,
		Hier:     h,
		GuestPWC: tlb.NewPWC(),
		HostPWC:  tlb.NewPWC(),
		Nested:   tlb.NewNestedCache(),
		ASID:     asid,
	}
}

// EmitCounters implements core.CounterSource: the 2D walk count plus every
// MMU-cache hit split the walker consults (guest/host PWC, nested cache).
func (w *NestedWalker) EmitCounters(emit func(name string, value uint64)) {
	emit("nested.walks", w.Walks)
	if w.GuestPWC != nil {
		emit("nested.guest_pwc_hits", w.GuestPWC.Hits)
		emit("nested.guest_pwc_misses", w.GuestPWC.Misses)
	}
	if w.HostPWC != nil {
		emit("nested.host_pwc_hits", w.HostPWC.Hits)
		emit("nested.host_pwc_misses", w.HostPWC.Misses)
	}
	if w.Nested != nil {
		emit("nested.ncache_hits", w.Nested.Hits)
		emit("nested.ncache_misses", w.Nested.Misses)
	}
}

// Walk implements core.Walker.
func (w *NestedWalker) Walk(gva mem.VAddr) core.WalkOutcome {
	w.Walks++
	out := core.WalkOutcome{Cycles: tlb.PWCLatency}
	full := w.GuestPT.WalkInto(gva, w.gsteps[:0])
	w.gsteps = full.Steps[:0]
	w.walk2D(gva, full, w.GuestPWC.Skip(gva, w.ASID, full.Steps), true, &out)
	return out
}

// WalkFrom is the 2D walk resumed at the guest node at level, adding to
// out: agile paging's nested lower levels below its shadowed switch point.
// It does not probe the guest PWC, and its refs carry no step numbers
// (Step 0), since Figure 2's numbering counts from the guest root.
func (w *NestedWalker) WalkFrom(node *pagetable.Node, level int, gva mem.VAddr, out *core.WalkOutcome) {
	g := w.GuestPT.WalkFrom(node, level, gva, w.gsteps[:0])
	w.gsteps = g.Steps[:0]
	w.walk2D(gva, g, g.Steps, false, out)
}

// walk2D fetches the guest steps still to walk of the guest walk g, each
// after resolving its guest-physical address through the host dimension,
// then refills the guest PWC and resolves the data gPA. Numbered refs
// carry the *architectural* step numbers of Figure 2 — e.g. for 4-level
// tables, guest level gl contributes steps (4-gl)*5+1 .. (4-gl)*5+5 — so
// skipped steps simply have zero counts in breakdowns.
func (w *NestedWalker) walk2D(gva mem.VAddr, g pagetable.WalkResult, steps []pagetable.Step, numbered bool, out *core.WalkOutcome) {
	L, H := w.GuestPT.Levels(), w.HostPT.Levels()
	for _, s := range steps {
		base := (L - s.Level) * (H + 1)
		mAddr, ok := w.resolveHost(s.Addr, out, base, numbered)
		if !ok {
			return
		}
		lat := w.Hier.Access(mAddr)
		ref := core.MemRef{Addr: mAddr, Cycles: lat, Level: s.Level, Dim: "g"}
		if numbered {
			ref.Step = base + H + 1
		}
		w.Sink.Append(ref)
		out.Cycles += lat
		out.SeqSteps++
	}
	if !g.OK {
		return
	}
	w.GuestPWC.Refill(gva, w.ASID, g.Steps)
	// Final host dimension: translate the data gPA (steps 21–24).
	mData, ok := w.resolveHost(g.PA, out, L*(H+1), numbered)
	if !ok {
		return
	}
	// The combined translation is only as coarse as the guest leaf: the
	// host side may be coarser, and the guest size is conservative.
	out.PA, out.Size, out.OK = mData, g.Size, true
}

// resolveHost translates a guest-physical address to a machine address,
// charging host-dimension PTE fetches. The nested cache short-circuits
// page-granular repeats.
func (w *NestedWalker) resolveHost(gpa mem.PAddr, out *core.WalkOutcome, base int, numbered bool) (mem.PAddr, bool) {
	if w.Nested != nil {
		if m, ok := w.Nested.Lookup(gpa); ok {
			out.Cycles += tlb.PWCLatency
			return m, true
		}
	}
	full := w.HostPT.WalkInto(mem.VAddr(gpa), w.hsteps[:0])
	w.hsteps = full.Steps[:0]
	out.Cycles += tlb.PWCLatency
	H := w.HostPT.Levels()
	for _, s := range w.HostPWC.Skip(mem.VAddr(gpa), w.ASID, full.Steps) {
		lat := w.Hier.Access(s.Addr)
		ref := core.MemRef{Addr: s.Addr, Cycles: lat, Level: s.Level, Dim: "h"}
		if numbered {
			ref.Step = base + (H - s.Level) + 1
		}
		w.Sink.Append(ref)
		out.Cycles += lat
		out.SeqSteps++
	}
	if !full.OK {
		return 0, false
	}
	w.HostPWC.Refill(mem.VAddr(gpa), w.ASID, full.Steps)
	if w.Nested != nil {
		w.Nested.Insert(gpa, full.PA)
	}
	return full.PA, true
}

// DisableMMUCaches drops the guest/host PWCs and the nested cache, exposing
// the architectural worst case (24 sequential references, Figure 2); used
// to verify Table 6.
func (w *NestedWalker) DisableMMUCaches() {
	w.GuestPWC, w.HostPWC, w.Nested = nil, nil, nil
}

var _ core.Walker = (*NestedWalker)(nil)
