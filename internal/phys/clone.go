package phys

// Clone returns a structurally-identical copy of the allocator: the frame
// state, free stacks, owner classes, and statistics start from the same
// state and diverge independently, the frame state and the free stacks
// sharing their chunks copy-on-write (mem.Chunked). The relocator is
// deliberately NOT copied — it points at the owning address space, and the
// clone's owner must re-register its own via SetRelocator
// (kernel.AddressSpace.Clone does) or migration would rewrite the
// prototype's page tables.
func (a *Allocator) Clone() *Allocator {
	c := &Allocator{
		base:       a.base,
		frames:     a.frames,
		state:      a.state.Clone(),
		freeFrames: a.freeFrames,
		Stats:      a.Stats,
	}
	for o := range a.freeStacks {
		s := &a.freeStacks[o]
		c.freeStacks[o] = stack{s: s.s.Clone(), n: s.n}
	}
	return c
}

// Seal makes the allocator read-only for cloning (see mem.Chunked.Seal):
// it may then be cloned from many goroutines at once.
func (a *Allocator) Seal() {
	a.state.Seal()
	for o := range a.freeStacks {
		a.freeStacks[o].s.Seal()
	}
}
