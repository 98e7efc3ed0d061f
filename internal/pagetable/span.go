package pagetable

import "dmt/internal/mem"

// spanMemoSize is the span memo's entry count, a power of two: a span's
// number (va>>21) picks its entry by its low bits, so 512 entries hold
// 1 GiB of consecutive spans without a conflict.
const spanMemoSize = 512

// spanMemo is a table's direct-mapped memo of root-to-span descents. A
// 2D walk re-walks the host table once per guest level and once for the
// data gPA, and the addresses it charges change only when Gen does; one
// entry covers a whole 2 MiB span, so it serves every 4 KiB page under one
// leaf node, the random data gPAs included.
//
// An entry is valid only while its tag matches and its gen equals the
// table's: every write that could move a memoized node or address (a new
// or pruned node, a relocation, a freed slot recycled) advances Gen, so a
// PTE write costs nothing here and no entry is ever cleared. A/D updates
// leave Gen alone, and the memo holds no PTE, only nodes and PTE
// addresses: walks read every PTE from its node.
type spanMemo [spanMemoSize]spanEntry

// spanEntry is one memoized descent (64 bytes, so the memo is 32 KiB).
type spanEntry struct {
	tag uint64 // the span's last byte, never 0; 0 in an entry never filled
	gen uint64 // the table's Gen at the fill
	// node is the deepest node every walk in the span shares: the
	// level-1 node, or the node at level 2 or above whose entry for the
	// span is absent or a huge leaf.
	node  *Node
	level int
	// up holds the PTE addresses fetched above node, the root's first.
	up [mem.Levels5 - 1]mem.PAddr
}

// spanOf returns the valid memo entry for va's span, filling it on a
// miss, or nil once the table is sealed.
func (t *Table) spanOf(va mem.VAddr) *spanEntry {
	if t.memo == nil {
		if t.sealed {
			return nil
		}
		t.memo = new(spanMemo)
	}
	tag := uint64(va) | (mem.PageBytes2M - 1)
	e := &t.memo[uint64(va)>>mem.PageShift2M%spanMemoSize]
	if e.tag != tag || e.gen != t.gen {
		e.node, e.level = t.descend(va, &e.up)
		e.tag, e.gen = tag, t.gen
	}
	return e
}

// descend walks from the root along va's path to the deepest node that
// every address in va's 2 MiB span shares, and returns it with its level:
// the level-1 node, or the first node whose entry for va is absent or a
// huge leaf. It records the address of each PTE fetched on the way in up,
// the root's first. The span memo's fills and Cursor.resolve both use it.
func (t *Table) descend(va mem.VAddr, up *[mem.Levels5 - 1]mem.PAddr) (*Node, int) {
	pool := t.pool
	node, level := pool.node(t.root), t.levels
	for ; level > 1; level-- {
		idx := mem.Index(va, level)
		pte := node.entries[idx]
		if !pte.Present() || pte.Huge() {
			break
		}
		up[t.levels-level] = node.EntryAddr(idx)
		node = pool.child(pte)
	}
	return node, level
}
