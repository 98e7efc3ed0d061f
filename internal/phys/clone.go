package phys

// Clone returns a structurally-identical deep copy of the allocator: the
// block map, free lists, owner classes, and statistics are duplicated so
// allocation on the clone and the original diverge independently but start
// from the same state. The relocator is deliberately NOT copied — it points
// at the owning address space, and the clone's owner must re-register its
// own via SetRelocator (kernel.AddressSpace.Clone does) or migration would
// rewrite the prototype's page tables.
func (a *Allocator) Clone() *Allocator {
	c := &Allocator{
		base:       a.base,
		frames:     a.frames,
		blockOrder: append([]int8(nil), a.blockOrder...),
		kind:       append([]Kind(nil), a.kind...),
		freeFrames: a.freeFrames,
		Stats:      a.Stats,
	}
	for o := range a.freeStacks {
		c.freeStacks[o] = append([]uint32(nil), a.freeStacks[o]...)
	}
	return c
}
