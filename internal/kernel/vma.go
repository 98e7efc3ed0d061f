// Package kernel models the OS memory-management layer the paper modifies
// (DMT-Linux, §4.6): Virtual Memory Areas, per-process address spaces with
// mmap/munmap/grow/shrink, demand paging, transparent huge pages, and the
// hook points (mmap_region / __vma_adjust analogues) through which the TEA
// manager observes VMA lifecycle events and controls the placement of
// leaf-level page-table nodes.
package kernel

import (
	"fmt"

	"dmt/internal/mem"
)

// VMAKind classifies a VMA by the data section it represents (§2.3).
type VMAKind uint8

const (
	VMACode VMAKind = iota
	VMAData
	VMAHeap
	VMAStack
	VMAFile // memory-mapped file
	VMALib  // dynamically linked library
	VMAAnon
)

func (k VMAKind) String() string {
	switch k {
	case VMACode:
		return "code"
	case VMAData:
		return "data"
	case VMAHeap:
		return "heap"
	case VMAStack:
		return "stack"
	case VMAFile:
		return "file"
	case VMALib:
		return "lib"
	case VMAAnon:
		return "anon"
	}
	return fmt.Sprintf("VMAKind(%d)", uint8(k))
}

// VMA is a contiguous region of a process's virtual address space with
// uniform protection (§2.3). Start and End are page-aligned; End is
// exclusive.
type VMA struct {
	Start mem.VAddr
	End   mem.VAddr
	Kind  VMAKind
	Name  string

	// state tracks populated pages (leaf mappings) with one byte per
	// 4 KiB page, indexed by (va-Start)>>12, in chunks allocated on the
	// first fault they take and shared copy-on-write with clones. The
	// encoding packs the leaf size and the residency flag (see
	// pageState); a page-indexed array keeps the fault path free of map
	// churn and makes present-page iteration ordered and allocation-free.
	// Pages at or beyond End are always absent: Shrink unmaps them.
	state     mem.Chunked[pageState]
	populated int
}

// pageState is the per-page encoding: 0 means absent, otherwise the low
// bits hold the mapped leaf size + 1 and pageResident marks frames owned
// by an external party (e.g. host-allocated gTEA pages mapped into a
// guest, §4.5.1) that must not be returned to this allocator on unmap.
type pageState uint8

const (
	pageAbsent   pageState = 0
	pageResident pageState = 0x80
)

func (v *VMA) pageIndex(base mem.VAddr) int { return int((base - v.Start) >> mem.PageShift4K) }

// pageAt returns the leaf size recorded at the page base, if populated.
func (v *VMA) pageAt(base mem.VAddr) (mem.PageSize, bool) {
	if base < v.Start || base >= v.End {
		return 0, false
	}
	s := v.state.Get(v.pageIndex(base)) &^ pageResident
	if s == pageAbsent {
		return 0, false
	}
	return mem.PageSize(s - 1), true
}

// isResident reports whether the page's frame is externally owned.
func (v *VMA) isResident(base mem.VAddr) bool {
	if base < v.Start || base >= v.End {
		return false
	}
	return v.state.Get(v.pageIndex(base))&pageResident != 0
}

// setPresent records a populated leaf at the page base.
func (v *VMA) setPresent(base mem.VAddr, size mem.PageSize, resident bool) {
	slot := v.state.Mut(v.pageIndex(base))
	if *slot == pageAbsent {
		v.populated++
	}
	s := pageState(size) + 1
	if resident {
		s |= pageResident
	}
	*slot = s
}

// setPresentRun records n populated 4 KiB pages from base, as n
// setPresent(…, mem.Size4K, false) calls would, one chunk span at a time.
func (v *VMA) setPresentRun(base mem.VAddr, n int) {
	for i := v.pageIndex(base); n > 0; {
		span := v.state.MutSpan(i, n)
		for j, s := range span {
			if s == pageAbsent {
				v.populated++
			}
			span[j] = pageState(mem.Size4K) + 1
		}
		i, n = i+len(span), n-len(span)
	}
}

// clearPresent removes the record of a populated leaf.
func (v *VMA) clearPresent(base mem.VAddr) {
	if base < v.Start || base >= v.End {
		return
	}
	if i := v.pageIndex(base); v.state.Get(i) != pageAbsent {
		v.state.Set(i, pageAbsent)
		v.populated--
	}
}

// forEachPresent visits every populated page in ascending address order,
// stopping at and returning fn's first error. The callback may unmap the
// page it is handed (but no other).
func (v *VMA) forEachPresent(fn func(base mem.VAddr, size mem.PageSize) error) error {
	for i, n := 0, v.Pages(); i < n; {
		span := v.state.Span(i, n-i)
		if span == nil { // a chunk no fault ever wrote
			i += mem.ChunkLen - i%mem.ChunkLen
			continue
		}
		for j, s := range span {
			if s &^= pageResident; s != pageAbsent {
				if err := fn(v.Start+mem.VAddr(i+j)<<mem.PageShift4K, mem.PageSize(s-1)); err != nil {
					return err
				}
			}
		}
		i += len(span)
	}
	return nil
}

// PresentSize returns the leaf size mapped at the (page-aligned) address,
// if any — the exported read-side view of the population state.
func (v *VMA) PresentSize(base mem.VAddr) (mem.PageSize, bool) { return v.pageAt(base) }

// ResidentAt reports whether the page at the (page-aligned) address is
// backed by an externally-owned frame — one that teardown will unmap but
// not free. Frame-accounting oracles need this to know which present pages
// count against this space's allocator.
func (v *VMA) ResidentAt(base mem.VAddr) bool { return v.isResident(base) }

// Size returns the VMA length in bytes.
func (v *VMA) Size() uint64 { return uint64(v.End - v.Start) }

// Contains reports whether va falls inside the VMA.
func (v *VMA) Contains(va mem.VAddr) bool { return va >= v.Start && va < v.End }

// Pages returns the number of 4 KiB pages spanned.
func (v *VMA) Pages() int { return int(v.Size() >> mem.PageShift4K) }

// PopulatedPages returns the number of populated leaf mappings.
func (v *VMA) PopulatedPages() int { return v.populated }

// PresentPage is one populated leaf mapping of a VMA.
type PresentPage struct {
	VA   mem.VAddr
	Size mem.PageSize
}

// PresentPages returns a snapshot of the populated pages sorted by
// address, for callers that pick among them or change the space while they
// iterate. Builds that only read leaves use AddressSpace.ForEachLeaf.
func (v *VMA) PresentPages() []PresentPage {
	out := make([]PresentPage, 0, v.populated)
	_ = v.forEachPresent(func(base mem.VAddr, size mem.PageSize) error {
		out = append(out, PresentPage{VA: base, Size: size})
		return nil
	})
	return out
}

func (v *VMA) String() string {
	return fmt.Sprintf("%s [%#x,%#x) %s", v.Name, uint64(v.Start), uint64(v.End), v.Kind)
}

// MMHooks is the interface through which DMT-Linux's TEA machinery observes
// VMA lifecycle events (§4.2) and directs leaf page-table-node placement
// into TEAs (§4.3). A nil hook set yields vanilla behaviour.
type MMHooks interface {
	// VMACreated fires after a VMA is inserted (mmap_region analogue).
	VMACreated(v *VMA)
	// VMAResized fires after a VMA grows or shrinks (__vma_adjust).
	VMAResized(v *VMA, oldStart, oldEnd mem.VAddr)
	// VMADeleted fires after a VMA's translations are torn down but
	// before it leaves the VMA list (munmap).
	VMADeleted(v *VMA)
	// PlaceNode is consulted when a new leaf-level page-table node is
	// needed for va at the given level (1 for 4K leaves, 2 for 2M). A
	// false return falls back to the buddy allocator.
	PlaceNode(level int, va mem.VAddr) (mem.PAddr, bool)
	// OwnsNode reports whether a node frame belongs to a TEA (and thus
	// must not be returned to the buddy allocator individually).
	OwnsNode(pa mem.PAddr) bool
}
