package check

import (
	"fmt"
	"sort"

	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/tea"
)

// TEAInvariants builds an Invariants probe over a TEA manager and the
// address space it manages. It asserts the structural properties the
// register-file and TEA design rely on:
//
//  1. Every present register mirrors exactly one mapping: its bounds lie
//     inside the mapping, each covered size points at that mapping's
//     size-region (fetch base and cover VA agree), and no covered size is
//     mid-migration (the §4.6.1 P-bit discipline).
//  2. PTE-address arithmetic stays inside the owning TEA: for boundary VAs
//     of every covered register/size, PTEAddr lands within the region's
//     fetch window.
//  3. TEA node regions of distinct size-regions never overlap unless they
//     deliberately share one backing region (refcounted sharing, §4.3).
//  4. PlaceNode and OwnsNode agree: a leaf node placed for a populated
//     page lies in a TEA the manager claims to own, in the slot the
//     mapping's arithmetic dictates.
//
// Pass a nil as to skip the PlaceNode probes (e.g. when the address space
// is not hook-managed by mgr).
func TEAInvariants(mgr *tea.Manager, as *kernel.AddressSpace) func() []string {
	return func() []string {
		var bad []string
		bad = append(bad, registerInvariants(mgr)...)
		bad = append(bad, regionOverlapInvariants(mgr)...)
		if as != nil && !mgr.Config().OnDemand {
			bad = append(bad, placementInvariants(mgr, as)...)
		}
		return bad
	}
}

func findMapping(mgr *tea.Manager, base, limit mem.VAddr) *tea.Mapping {
	for _, mp := range mgr.Mappings() {
		if mp.Start <= base && limit <= mp.End {
			return mp
		}
	}
	return nil
}

func registerInvariants(mgr *tea.Manager) []string {
	var bad []string
	present := 0
	for i, r := range mgr.Registers() {
		if !r.Present {
			continue
		}
		present++
		mp := findMapping(mgr, r.Base, r.Limit)
		if mp == nil {
			bad = append(bad, fmt.Sprintf("register %d [%#x,%#x) matches no mapping", i, uint64(r.Base), uint64(r.Limit)))
			continue
		}
		if r.Base != mp.Start {
			bad = append(bad, fmt.Sprintf("register %d base %#x != mapping start %#x", i, uint64(r.Base), uint64(mp.Start)))
		}
		regions := map[mem.PageSize]tea.RegionInfo{}
		for _, ri := range mp.SizeRegions() {
			regions[ri.Size] = ri
		}
		anyCovered := false
		for _, s := range core.FetchSizes {
			if !r.Covered[s] {
				continue
			}
			anyCovered = true
			ri, ok := regions[s]
			if !ok {
				bad = append(bad, fmt.Sprintf("register %d covers %v but mapping has no %v region", i, s, s))
				continue
			}
			if ri.Migrating {
				bad = append(bad, fmt.Sprintf("register %d covers %v of a migrating region (P-bit must be clear)", i, s))
			}
			if r.FetchBase[s] != ri.Region.FetchBase || r.CoverVA[s] != ri.CoverVA {
				bad = append(bad, fmt.Sprintf("register %d %v fetch/cover (%#x,%#x) != region (%#x,%#x)",
					i, s, uint64(r.FetchBase[s]), uint64(r.CoverVA[s]), uint64(ri.Region.FetchBase), uint64(ri.CoverVA)))
				continue
			}
			// PTE arithmetic containment at the register's VA boundaries.
			end := r.Limit
			if ri.CoveredEnd < end {
				end = ri.CoveredEnd
			}
			pteAddr := r.PTEAddr(s)
			for _, va := range []mem.VAddr{r.Base, end - 1} {
				if va < r.Base {
					continue
				}
				addr := pteAddr(va)
				lo := ri.Region.FetchBase
				hi := lo + mem.PAddr(uint64(ri.Region.Frames)<<mem.PageShift4K)
				if addr < lo || addr >= hi {
					bad = append(bad, fmt.Sprintf("register %d %v PTEAddr(%#x)=%#x outside TEA [%#x,%#x)",
						i, s, uint64(va), uint64(addr), uint64(lo), uint64(hi)))
				}
			}
		}
		if !anyCovered {
			bad = append(bad, fmt.Sprintf("register %d present but covers no size", i))
		}
	}
	if present > len(mgr.Mappings()) {
		bad = append(bad, fmt.Sprintf("%d registers present for %d mappings", present, len(mgr.Mappings())))
	}
	return bad
}

// regionOverlapInvariants asserts each leaf PTE slot belongs to exactly one
// TEA per size: node-side intervals of distinct size-regions must be
// disjoint unless they are the same deliberately shared backing region.
func regionOverlapInvariants(mgr *tea.Manager) []string {
	type span struct {
		lo, hi mem.PAddr
		shared int
		owner  string
	}
	var spans []span
	add := func(mp *tea.Mapping, ri tea.RegionInfo, r tea.Region, tag string) {
		if r.Frames == 0 {
			return
		}
		spans = append(spans, span{
			lo:     r.NodeBase,
			hi:     r.NodeBase + mem.PAddr(uint64(r.Frames)<<mem.PageShift4K),
			shared: ri.SharedRefs,
			owner:  fmt.Sprintf("mapping [%#x,%#x) %v %s", uint64(mp.Start), uint64(mp.End), ri.Size, tag),
		})
	}
	for _, mp := range mgr.Mappings() {
		for _, ri := range mp.SizeRegions() {
			add(mp, ri, ri.Region, "")
			if ri.Migrating {
				add(mp, ri, ri.MigrateTo, "(migration target)")
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	var bad []string
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if b.lo >= a.hi {
			continue
		}
		if a.lo == b.lo && a.hi == b.hi && a.shared > 1 && b.shared > 1 {
			continue // one refcounted region backing both mappings
		}
		bad = append(bad, fmt.Sprintf("TEA overlap: %s [%#x,%#x) vs %s [%#x,%#x)",
			a.owner, uint64(a.lo), uint64(a.hi), b.owner, uint64(b.lo), uint64(b.hi)))
	}
	return bad
}

// placementInvariants probes PlaceNode/OwnsNode agreement on boundary
// populated pages of each VMA.
func placementInvariants(mgr *tea.Manager, as *kernel.AddressSpace) []string {
	var bad []string
	for _, v := range as.VMAs() {
		pages := v.PresentPages()
		if len(pages) == 0 {
			continue
		}
		for _, p := range []kernel.PresentPage{pages[0], pages[len(pages)/2], pages[len(pages)-1]} {
			level := 1
			if p.Size == mem.Size2M {
				level = 2
			} else if p.Size != mem.Size4K {
				continue
			}
			pa, ok := mgr.PlaceNode(level, p.VA)
			if !ok {
				continue // buddy-placed (no TEA for this size) — legal
			}
			if !mgr.OwnsNode(pa) {
				bad = append(bad, fmt.Sprintf("PlaceNode(%d, %#x)=%#x not owned by any TEA", level, uint64(p.VA), uint64(pa)))
			}
		}
	}
	return bad
}
