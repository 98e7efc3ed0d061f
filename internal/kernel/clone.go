package kernel

import "dmt/internal/phys"

// Clone returns a structural copy of the address space on top of an
// independently-cloned physical allocator (pa must be as.Phys.Clone(), made
// by the caller so substrate and address space stay consistent): the VMA
// list, page table, reverse map, and fault statistics are duplicated frame-
// for-frame, so translations — including the physical PTE addresses the DMT
// fetcher computes — are identical on both copies until they diverge. The
// reverse map, the frame index and the VMAs' page state share their chunks
// copy-on-write (mem.Chunked).
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
	// One backing array for every VMA: workloads like Memcached map
	// over a thousand, and a clone should not allocate each.
	vmas := make([]VMA, len(as.vmas))
	c.vmas = make([]*VMA, len(as.vmas))
	for i, v := range as.vmas {
		vmas[i] = *v
		vmas[i].state = v.state.Clone()
		c.vmas[i] = &vmas[i]
	}
	c.rmap = as.rmap.clone()
	c.PT = as.PT.Clone(c.allocNode, c.freeNode)
	c.Pool = c.PT.Pool()
	pa.SetRelocator(c)
	return c
}

// Seal makes the address space read-only for cloning (see
// mem.Chunked.Seal): its page table, reverse map and VMA page state may
// then be cloned from many goroutines at once. The allocator is sealed by
// its owner.
func (as *AddressSpace) Seal() {
	as.PT.Seal()
	as.rmap.frames.Seal()
	for _, v := range as.vmas {
		v.state.Seal()
	}
}

func (r *rmapTable) clone() rmapTable {
	return rmapTable{frames: r.frames.Clone()}
}
