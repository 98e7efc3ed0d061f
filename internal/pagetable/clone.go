package pagetable

// Clone copies the table into a fresh Pool, preserving every node's
// physical placement (clones translate identically, PTE addresses included)
// while sharing no arena storage with the original. Nodes hold no
// references: a PTE names its child by frame, and the frame index maps that
// frame to an arena-relative nodeID. So the copy is a flat memcpy of the
// slots in use, with the frame index shared copy-on-write (mem.Chunked), no
// recursive traversal and no pointer rewriting, and clone bytes follow the
// live nodes, not the slab size, the highest node frame, or the tree shape.
// The slabs stay an eager copy: Agile, TEA and the overhead census cache
// *Node pointers, which a copy-on-write slab would leave pointing at the
// prototype's nodes. The placement callbacks are NOT copied: they close
// over the prototype's allocator and TEA manager, so the caller must
// supply replacements bound to the cloned substrate
// (kernel.AddressSpace.Clone passes its own allocNode/freeNode). Nor is
// the span memo: its entries point into t's slabs, so the clone starts
// with none.
func (t *Table) Clone(alloc NodeAllocFunc, free NodeFreeFunc) *Table {
	return &Table{
		pool:   t.pool.clone(),
		levels: t.levels,
		root:   t.root,
		alloc:  alloc,
		free:   free,
		gen:    t.gen,
		Mapped: t.Mapped,
	}
}

// Seal makes the table read-only for cloning (see mem.Chunked.Seal): its
// frame index may then be cloned from many goroutines at once. A walk
// fills the span memo, a write, so Seal drops the memo and the sealed
// table's walks start from the root.
func (t *Table) Seal() {
	t.pool.index.Seal()
	t.memo, t.sealed = nil, true
}

// clone copies the pool: the slots ever handed out, the freelist, and the
// frame index. The clone's slabs are carved from one arena allocation, each
// capped at slabNodes so none can ever grow into its neighbour; slots past
// the high-water mark are never written, so they are left to make's zeroing
// rather than copied. nodeIDs are arena-relative, so they remain valid
// verbatim in the copy; released slots are zeroed at release time, so
// copying them leaks nothing.
func (p *Pool) clone() *Pool {
	c := &Pool{used: p.used, index: p.index.Clone()}
	arena := make([]Node, len(p.slabs)*slabNodes)
	c.slabs = make([][]Node, len(p.slabs))
	for i, s := range p.slabs {
		lo := i * slabNodes
		ns := arena[lo : lo+slabNodes : lo+slabNodes]
		copy(ns, s[:min(slabNodes, p.used-lo)])
		c.slabs[i] = ns
	}
	if len(p.free) > 0 {
		c.free = make([]nodeID, len(p.free))
		copy(c.free, p.free)
	}
	return c
}
