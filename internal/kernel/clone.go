package kernel

import "dmt/internal/phys"

// Clone returns a deep structural copy of the address space on top of an
// independently-cloned physical allocator (pa must be as.Phys.Clone(), made
// by the caller so substrate and address space stay consistent): the VMA
// list, page table, reverse map, and fault statistics are duplicated frame-
// for-frame, so translations — including the physical PTE addresses the DMT
// fetcher computes — are identical on both copies until they diverge.
//
// Hooks and invalidation callbacks are deliberately dropped: they close over
// the prototype's TEA manager and TLBs. The owner re-installs its own
// (tea.Manager.Clone calls SetHooks; the engine re-registers OnInvalidate
// per instance), mirroring NewAddressSpace's contract that hooks exist
// before they are needed. The clone registers itself as pa's relocator —
// every allocator in the simulator backs exactly one address space.
func (as *AddressSpace) Clone(pa *phys.Allocator) *AddressSpace {
	c := &AddressSpace{
		Phys:       pa,
		cfg:        as.cfg,
		Faults:     as.Faults,
		THPMapped:  as.THPMapped,
		MMapCalls:  as.MMapCalls,
		MergedVMAs: as.MergedVMAs,
	}
	c.vmas = make([]*VMA, len(as.vmas))
	for i, v := range as.vmas {
		c.vmas[i] = v.clone()
	}
	c.rmap = as.rmap.clone()
	c.PT = as.PT.Clone(c.allocNode, c.freeNode)
	c.Pool = c.PT.Pool()
	pa.SetRelocator(c)
	return c
}

// clone value-copies the VMA, duplicating its page-state slice.
func (v *VMA) clone() *VMA {
	c := *v
	if v.state != nil {
		c.state = append([]pageState(nil), v.state...)
	}
	return &c
}

func (r *rmapTable) clone() rmapTable {
	return rmapTable{frames: r.frames.Clone()}
}
