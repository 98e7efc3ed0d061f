package check

import (
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/tea"
	"dmt/internal/virt"
)

// TEALevel is one register-file stage of a DMT-family fast path, judged
// from the page tables rather than through the walker's fetches: the
// stage's TEA manager, the page table its TEAs hold the leaves of, and —
// on paravirtualized stages — the gTEA table that maps fetch addresses
// back to node addresses (§4.5.2).
type TEALevel struct {
	Mgr  *tea.Manager
	PT   *pagetable.Table
	GTEA *virt.GTEATable
}

// Serves reports whether the stage's fast path can translate addr: a
// register matches it, PT maps it with a page size the register covers,
// and the TEA slot the register computes for that size lies in the page
// of the leaf node PT actually uses. It returns addr's translation and the
// address of its leaf PTE in PT's address space.
func (l TEALevel) Serves(addr mem.VAddr) (pa, pte mem.PAddr, ok bool) {
	reg := l.Mgr.Lookup(addr)
	if reg == nil {
		return 0, 0, false
	}
	pa, s, ok := l.PT.Lookup(addr)
	if !ok || !reg.Covered[s] {
		return 0, 0, false
	}
	pte = reg.PTEAddrAt(s, addr)
	if l.GTEA != nil {
		var err error
		if pte, err = l.GTEA.Resolve(reg.GTEAID[s], pte); err != nil {
			return 0, 0, false
		}
	}
	leaf := l.PT.NodeForLevel(addr, s.LeafLevel())
	if leaf == nil || mem.AlignDownP(pte, mem.PageBytes4K) != leaf.Base {
		return 0, 0, false
	}
	return pa, pte, true
}

// Chain is the DMT and pvDMT fast path as a Config.FastPath: va is
// serveable when each stage in turn serves the previous stage's
// translation — one stage natively, two under virtualization, three
// nested (Figures 7–9).
func Chain(levels ...TEALevel) func(va mem.VAddr) bool {
	return func(va mem.VAddr) bool {
		for _, l := range levels {
			pa, _, ok := l.Serves(va)
			if !ok {
				return false
			}
			va = mem.VAddr(pa)
		}
		return true
	}
}

// VirtChain is DMT-virt's three-fetch fast path (§4.5) as a
// Config.FastPath: the guest stage serves gva, and the host stage serves
// both the guest PTE's guest-physical address and the data page's.
func VirtChain(guest, host TEALevel) func(gva mem.VAddr) bool {
	return func(gva mem.VAddr) bool {
		gpa, gpte, ok := guest.Serves(gva)
		if !ok {
			return false
		}
		if _, _, ok := host.Serves(mem.VAddr(gpte)); !ok {
			return false
		}
		_, _, ok = host.Serves(mem.VAddr(gpa))
		return ok
	}
}
