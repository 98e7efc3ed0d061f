package ecpt

import (
	"dmt/internal/mem"
	"dmt/internal/phys"
)

// Clone copies the cuckoo table onto an already-cloned allocator, the ways
// shared copy-on-write (mem.Chunked). Regions stay at the same physical
// bases, so probe addresses — and hence cache behaviour — are identical on
// both copies. Future resizes on the clone allocate from alloc only.
func (t *Table) Clone(alloc *phys.Allocator) *Table {
	c := &Table{
		size:    t.size,
		slots:   t.slots,
		bases:   t.bases,
		alloc:   alloc,
		seeds:   t.seeds,
		groups:  t.groups,
		count:   t.count,
		pending: append([]entry(nil), t.pending...),
		Resizes: t.Resizes,
	}
	for w := range t.ways {
		c.ways[w] = t.ways[w].Clone()
	}
	return c
}

// Clone copies every per-size table onto the cloned allocator.
func (s *System) Clone(alloc *phys.Allocator) *System {
	c := &System{
		sizes: append([]mem.PageSize(nil), s.sizes...),
	}
	for sz, t := range s.tables {
		if t != nil {
			c.tables[sz] = t.Clone(alloc)
		}
	}
	return c
}

// Seal makes every per-size table read-only for cloning (see
// mem.Chunked.Seal): the system may then be cloned from many goroutines at
// once.
func (s *System) Seal() {
	for _, t := range s.tables {
		if t != nil {
			for w := range t.ways {
				t.ways[w].Seal()
			}
		}
	}
}
