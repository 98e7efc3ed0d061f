package pagetable

import "dmt/internal/mem"

// Cursor holds one 2 MiB span of a table resolved down to its level-1
// node, so a run of 4 KiB lookups and maps inside the span costs one walk
// from the root to level 2 instead of one full walk per page. The eager
// builders (kernel Populate, the shadow-table builders) sweep address
// ranges in ascending order and so touch up to 512 PTEs per walk.
//
// Map through the cursor keeps it current. A 4 KiB map into
// a span whose level-1 node exists is a direct slot write with Table.Map's
// exact bits and bookkeeping; every other map (one that needs a new node,
// or a huge leaf) goes through Table.Map, so nodes are allocated in the
// same order and placed by the same policy as without the cursor, and the
// cursor re-resolves on its next use. Mutating the table any other way —
// Map, Unmap or RelocateNode on the Table itself — requires Reset before
// the cursor is used again: an Unmap can release the cached node.
type Cursor struct {
	t        *Table
	span     mem.VAddr // 2 MiB-aligned base of the resolved span
	resolved bool
	leaf     *Node        // the span's level-1 node, or nil
	huge     mem.PTE      // the huge leaf covering the span when leaf is nil, or 0
	hugeSize mem.PageSize // huge's page size
}

// Cursor returns a cursor over t with no span resolved.
func (t *Table) Cursor() Cursor { return Cursor{t: t} }

// Reset forgets the resolved span, so the next call walks again.
func (c *Cursor) Reset() { c.resolved = false }

// seek resolves the span containing va, walking from the root only when va
// lies outside the span already resolved.
func (c *Cursor) seek(va mem.VAddr) {
	if !c.resolved || mem.AlignDown(va, mem.PageBytes2M) != c.span {
		c.resolve(va)
	}
}

// resolve walks from the root to va's level-2 entry.
func (c *Cursor) resolve(va mem.VAddr) {
	c.span, c.resolved, c.leaf, c.huge = mem.AlignDown(va, mem.PageBytes2M), true, nil, 0
	var up [mem.Levels5 - 1]mem.PAddr
	node, level := c.t.descend(va, &up)
	if level == 1 {
		c.leaf = node
		return
	}
	// descend stops above level 1 only at an absent or a huge entry.
	if pte := node.entries[mem.Index(va, level)]; pte.Present() {
		c.huge, c.hugeSize = pte, mem.PageSize(level-1)
	}
}

// Lookup is Table.Lookup through the cursor.
func (c *Cursor) Lookup(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	c.seek(va)
	if c.leaf != nil {
		pte := c.leaf.entries[mem.Index(va, 1)]
		if !pte.Present() {
			return 0, 0, false
		}
		return pte.Frame() + mem.PAddr(mem.PageOffset(va, mem.Size4K)), mem.Size4K, true
	}
	if c.huge != 0 {
		return c.huge.Frame() + mem.PAddr(mem.PageOffset(va, c.hugeSize)), c.hugeSize, true
	}
	return 0, 0, false
}

// SpanMapped reports whether any leaf maps an address in va's 2 MiB span.
// The one walk to level 2 answers for all 512 pages: the span is mapped
// exactly when it has a huge leaf or a level-1 node, because a level-1
// node always holds a live entry (Map fills the node it creates, and Unmap
// releases a node once its last entry goes).
func (c *Cursor) SpanMapped(va mem.VAddr) bool {
	c.seek(va)
	return c.leaf != nil || c.huge != 0
}

// Map is Table.Map through the cursor.
func (c *Cursor) Map(va mem.VAddr, pa mem.PAddr, size mem.PageSize, flags mem.PTE) error {
	if size == mem.Size4K {
		c.seek(va)
		if c.leaf != nil {
			if (uint64(va)|uint64(pa))&(mem.PageBytes4K-1) != 0 {
				return checkAligned(va, pa, size)
			}
			return c.t.install(c.leaf, mem.Index(va, 1), pa, size, flags)
		}
	}
	c.resolved = false
	return c.t.Map(va, pa, size, flags)
}

// AbsentRun returns how many consecutive 4 KiB slots from va hold no entry
// in va's level-1 node, stopping at end or at the span's end, whichever
// comes first. It is 0 when the span has no level-1 node.
func (c *Cursor) AbsentRun(va, end mem.VAddr) int {
	c.seek(va)
	if c.leaf == nil {
		return 0
	}
	if spanEnd := c.span + mem.PageBytes2M; end > spanEnd {
		end = spanEnd
	}
	first := mem.Index(va, 1)
	i, last := first, first+int((end-va)>>mem.PageShift4K)
	for i < last && !c.leaf.entries[i].Present() {
		i++
	}
	return i - first
}

// MapRun maps pas[i] at va + i·4 KiB with flags, writing the entries and
// bookkeeping that len(pas) 4 KiB Map calls would. The slots must be ones
// AbsentRun(va, …) counted, and every pas[i] 4 KiB-aligned.
func (c *Cursor) MapRun(va mem.VAddr, pas []mem.PAddr, flags mem.PTE) {
	c.seek(va)
	first := mem.Index(va, 1)
	slots := c.leaf.entries[first : first+len(pas)]
	for i, pa := range pas {
		slots[i] = mem.MakePTE(pa, flags)
	}
	c.leaf.live += len(pas)
	c.t.Mapped[mem.Size4K] += len(pas)
	c.t.gen++
}
