package fpt

import "dmt/internal/phys"

// Clone copies the flattened table onto an already-cloned allocator, the
// leaf PTEs shared copy-on-write (mem.Chunked). Root and leaf
// regions keep their physical bases (slot addresses — and hence cache
// behaviour — are identical on both copies); future leaf allocations on
// the clone draw from alloc only.
func (t *Table) Clone(alloc *phys.Allocator) *Table {
	c := &Table{
		alloc:    alloc,
		rootBase: t.rootBase,
		leaves:   make(map[int]*leafNode, len(t.leaves)),
	}
	for idx, n := range t.leaves {
		c.leaves[idx] = &leafNode{base: n.base, ptes: n.ptes.Clone()}
	}
	return c
}

// Seal makes the table read-only for cloning (see mem.Chunked.Seal): it
// may then be cloned from many goroutines at once.
func (t *Table) Seal() {
	for _, n := range t.leaves {
		n.ptes.Seal()
	}
}
