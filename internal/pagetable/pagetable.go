// Package pagetable implements x86-64-style radix page tables with
// physically-placed nodes, the foundation both for the legacy sequential
// walker (Figure 1) and for DMT's direct fetch.
//
// Every page-table node occupies a real (simulated) physical frame, so each
// PTE has a concrete physical address: the legacy walker's per-level fetches
// and the DMT fetcher's arithmetically-computed fetch hit the *same* PTE
// words, which is the paper's no-copy property (§3) — no extra coherence or
// TLB shootdowns are needed because there is only one copy of each PTE.
//
// Node placement is pluggable: the default policy takes frames from the
// buddy allocator (scattering last-level nodes the way vanilla Linux does),
// while the TEA-aware policy used by DMT-Linux places each last-level node
// at its designated slot inside a TEA (§4.3).
package pagetable

import (
	"errors"
	"fmt"

	"dmt/internal/mem"
)

// ErrNotMapped is returned by Walk for an absent translation.
var ErrNotMapped = errors.New("pagetable: not mapped")

// ErrAlreadyMapped is returned by Map when a conflicting entry exists.
var ErrAlreadyMapped = errors.New("pagetable: already mapped")

// NodeAllocFunc decides the physical placement of a new page-table node for
// the given level and the virtual address being mapped.
type NodeAllocFunc func(level int, va mem.VAddr) (mem.PAddr, error)

// NodeFreeFunc releases a node frame when its last entry is cleared.
type NodeFreeFunc func(level int, pa mem.PAddr)

// nodeID addresses a Node inside its Pool's slab arena: 0 is the null
// reference, id−1 is the global slot index (slab = slot>>slabShift, offset =
// slot&slabMask). The frame index maps each node's base frame to its nodeID,
// and that is the only parent→child record: a walk follows a present,
// non-huge PTE's frame through the index, as the hardware walker follows
// the PTE. IDs — not pointers — are what the index stores, which is what
// lets Clone copy a table as flat slab memcpys with no pointer rewriting.
type nodeID int32

const (
	slabShift = 4
	slabNodes = 1 << slabShift // nodes per slab (~64 KiB of arena each)
	slabMask  = slabNodes - 1
)

// Node is one 4 KiB page-table page (512 entries) plus a small header.
// Nodes live in their Pool's slab arena; a node's children are the nodes
// its present, non-huge entries name by frame (Pool.child).
type Node struct {
	Level   int
	Base    mem.PAddr
	entries [mem.EntriesPerNode]mem.PTE
	live    int
}

// Entry returns the PTE at idx.
func (n *Node) Entry(idx int) mem.PTE { return n.entries[idx] }

// EntryAddr returns the physical address of the PTE at idx.
func (n *Node) EntryAddr(idx int) mem.PAddr {
	return n.Base + mem.PAddr(idx*mem.PTEBytes)
}

// Pool owns the slab arena holding one address space's page-table nodes and
// indexes them by their base frame, giving physical-address PTE reads to
// components (the DMT fetcher) that compute PTE locations arithmetically
// rather than walking.
//
// Storage is arena-backed: nodes live in small fixed-size contiguous slabs
// and are addressed by nodeID, so node creation is a slot bump (no per-node
// heap allocation), a walk descends by following each PTE's frame through
// the frame index, and Clone is a flat copy of the slabs in use. Slab
// backing arrays are append-only and never reallocate, so *Node pointers
// handed out (NodeAt, NodeForLevel) stay valid for the Pool's lifetime.
// Released slots are zeroed and recycled through a freelist, bounding arena
// growth under map/unmap churn.
//
// The frame index is a mem.FrameMap: it sits on the walk hot path (every
// descent, and every DMT fetch's PTE read, goes through it) and stays free
// of map operations for simulated physical memory, while its storage — and
// a clone's copy of it — follows the 2 MiB chunks holding nodes, not the
// highest node frame.
type Pool struct {
	slabs [][]Node             // fixed-size slabs; backing arrays never reallocate
	used  int                  // slots ever handed out (arena high-water mark)
	free  []nodeID             // recycled slots, zeroed on release
	index mem.FrameMap[nodeID] // base frame → node
}

// NewPool creates an empty node pool.
func NewPool() *Pool { return &Pool{} }

// node resolves a non-null nodeID to its slab slot.
func (p *Pool) node(id nodeID) *Node {
	slot := int(id) - 1
	return &p.slabs[slot>>slabShift][slot&slabMask]
}

// child returns the node that pte, a present, non-huge entry of an
// upper-level node, points to. Callers check Present and Huge first: an
// absent entry's frame is 0, and a node may sit at PA 0.
func (p *Pool) child(pte mem.PTE) *Node {
	return p.node(p.index.Get(pte.Frame()))
}

// allocSlot hands out an arena slot: a recycled one when available (already
// zeroed by release), else the next slot of the last slab, growing the
// arena by one slab when full. Appending to slabs never moves existing slab
// backing arrays, so outstanding *Node pointers stay valid.
func (p *Pool) allocSlot() nodeID {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	if p.used>>slabShift == len(p.slabs) {
		p.slabs = append(p.slabs, make([]Node, slabNodes))
	}
	p.used++
	return nodeID(p.used)
}

// release returns a node's slot to the freelist, zeroed so the next
// allocation (and every slab copy a Clone takes) starts from a blank node.
func (p *Pool) release(id nodeID) {
	n := p.node(id)
	p.index.Delete(n.Base)
	*n = Node{}
	p.free = append(p.free, id)
}

// NodeAt returns the node based at the frame containing pa.
func (p *Pool) NodeAt(pa mem.PAddr) (*Node, bool) {
	if id := p.index.Get(pa); id != 0 {
		return p.node(id), true
	}
	return nil, false
}

// ReadPTE reads the PTE word stored at physical address pa, which must lie
// inside a registered page-table node. The second result reports whether a
// node covers pa — a miss models the machine consuming arbitrary memory as
// a PTE, which the isolation checks of §4.5.2 are designed to prevent.
func (p *Pool) ReadPTE(pa mem.PAddr) (mem.PTE, bool) {
	n, ok := p.NodeAt(pa)
	if !ok {
		return 0, false
	}
	idx := int(pa-n.Base) / mem.PTEBytes
	return n.entries[idx], true
}

// NodeCount returns the number of live page-table nodes (×4 KiB gives the
// page-table memory footprint reported in §6.3).
func (p *Pool) NodeCount() int { return p.index.Len() }

// CountNodes returns how many live nodes satisfy pred (e.g. how many are
// placed inside TEAs, for the §6.3 memory-overhead accounting).
func (p *Pool) CountNodes(pred func(*Node) bool) int {
	n := 0
	p.index.Range(func(_ mem.PAddr, id nodeID) {
		if pred(p.node(id)) {
			n++
		}
	})
	return n
}

// Table is one radix page table (4- or 5-level). Each Table owns its Pool
// exclusively (the arena Clone copies the whole pool, so sharing one pool
// between tables would clone strangers' nodes too).
type Table struct {
	pool   *Pool
	levels int
	root   nodeID
	alloc  NodeAllocFunc
	free   NodeFreeFunc
	// gen counts the PTE writes that changed a translation or a node's
	// placement; SetAccessed leaves it alone (see Gen).
	gen uint64
	// memo is the span memo (span.go), allocated on the first walk;
	// sealed disables it.
	memo   *spanMemo
	sealed bool

	// Mapped counts live leaf entries per page size.
	Mapped [3]int
}

// New creates a table with the given depth (mem.Levels4 or mem.Levels5).
// The root node is allocated immediately.
func New(pool *Pool, levels int, alloc NodeAllocFunc, free NodeFreeFunc) (*Table, error) {
	if levels != mem.Levels4 && levels != mem.Levels5 {
		return nil, fmt.Errorf("pagetable: unsupported depth %d", levels)
	}
	t := &Table{pool: pool, levels: levels, alloc: alloc, free: free}
	root, err := t.newNode(levels, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// Levels returns the table depth.
func (t *Table) Levels() int { return t.levels }

// Gen returns the table's structural generation. It advances at every PTE
// write that changes a translation or a node's placement — every such write
// is in this package, because Node.entries is unexported — and never goes
// back, so while Gen is unchanged every Lookup and Walk result is too. A/D
// bit updates (SetAccessed) change no translation and do not advance it.
func (t *Table) Gen() uint64 { return t.gen }

// RootPA returns the physical address of the root node (the CR3 analogue).
func (t *Table) RootPA() mem.PAddr { return t.pool.node(t.root).Base }

// Pool returns the node pool backing this table.
func (t *Table) Pool() *Pool { return t.pool }

func (t *Table) newNode(level int, va mem.VAddr) (nodeID, error) {
	pa, err := t.alloc(level, va)
	if err != nil {
		return 0, err
	}
	if !mem.IsAligned(uint64(pa), mem.PageBytes4K) {
		return 0, fmt.Errorf("pagetable: node placement %#x unaligned", uint64(pa))
	}
	if t.pool.index.Get(pa) != 0 {
		return 0, fmt.Errorf("pagetable: node placement %#x already in use", uint64(pa))
	}
	id := t.pool.allocSlot()
	n := t.pool.node(id)
	n.Level, n.Base = level, pa
	t.pool.index.Set(pa, id)
	return id, nil
}

// Map installs a translation va→pa of the given page size. Intermediate
// nodes are created as needed; va and pa must be size-aligned. When a node
// allocation fails part-way down, the nodes this call created are unlinked
// and freed, so a failed Map leaves the table as it found it.
func (t *Table) Map(va mem.VAddr, pa mem.PAddr, size mem.PageSize, flags mem.PTE) error {
	if err := checkAligned(va, pa, size); err != nil {
		return err
	}
	leaf := size.LeafLevel()
	node := t.pool.node(t.root)
	var made [mem.Levels5]nodeID // nodes this call created, top-down
	nmade := 0
	var top *Node // the existing node the first created one hangs off
	for level := t.levels; level > leaf; level-- {
		idx := mem.Index(va, level)
		pte := node.entries[idx]
		if pte.Huge() {
			return ErrAlreadyMapped // huge leaf blocks this subtree
		}
		if pte.Present() {
			node = t.pool.child(pte)
			continue
		}
		id, err := t.newNode(level-1, va)
		if err != nil {
			t.discard(top, va, made[:nmade])
			return err
		}
		if nmade == 0 {
			top = node
		}
		made[nmade] = id
		nmade++
		child := t.pool.node(id)
		node.entries[idx] = mem.MakePTE(child.Base, 0)
		node.live++
		t.gen++
		node = child
	}
	return t.install(node, mem.Index(va, leaf), pa, size, flags)
}

// discard undoes the node creation of a failed Map: it clears top's entry
// for va, which points at made[0], and releases the made chain bottom-up as
// Unmap's prune would.
func (t *Table) discard(top *Node, va mem.VAddr, made []nodeID) {
	if len(made) == 0 {
		return
	}
	top.entries[mem.Index(va, t.pool.node(made[0]).Level+1)] = 0
	top.live--
	t.gen++
	for i := len(made) - 1; i >= 0; i-- {
		n := t.pool.node(made[i])
		level, base := n.Level, n.Base
		t.pool.release(made[i])
		if t.free != nil {
			t.free(level, base)
		}
	}
}

func checkAligned(va mem.VAddr, pa mem.PAddr, size mem.PageSize) error {
	if !mem.IsAligned(uint64(va), size.Bytes()) || !mem.IsAligned(uint64(pa), size.Bytes()) {
		return fmt.Errorf("pagetable: unaligned %v mapping va=%#x pa=%#x", size, uint64(va), uint64(pa))
	}
	return nil
}

// install writes the size leaf for pa into slot idx of its leaf-level node.
func (t *Table) install(node *Node, idx int, pa mem.PAddr, size mem.PageSize, flags mem.PTE) error {
	if node.entries[idx].Present() {
		return ErrAlreadyMapped
	}
	if size != mem.Size4K {
		flags |= mem.PTEHuge
	}
	node.entries[idx] = mem.MakePTE(pa, flags)
	node.live++
	t.Mapped[size]++
	t.gen++
	return nil
}

// Unmap removes the translation of va with the given page size. Emptied
// intermediate nodes are released (except the root).
func (t *Table) Unmap(va mem.VAddr, size mem.PageSize) error {
	leaf := size.LeafLevel()
	var path [mem.Levels5]*Node
	node := t.pool.node(t.root)
	for level := t.levels; level > leaf; level-- {
		path[level-1] = node
		pte := node.entries[mem.Index(va, level)]
		if !pte.Present() || pte.Huge() {
			return ErrNotMapped
		}
		node = t.pool.child(pte)
	}
	idx := mem.Index(va, leaf)
	if pte := node.entries[idx]; !pte.Present() || (leaf > 1 && !pte.Huge()) {
		return ErrNotMapped // absent, or a pointer to a node rather than a leaf
	}
	node.entries[idx] = 0
	node.live--
	t.Mapped[size]--
	t.gen++
	// Prune empty nodes bottom-up, recycling each freed node's arena slot.
	for level := leaf; level < t.levels && node.live == 0; level++ {
		parent := path[level]
		parent.entries[mem.Index(va, level+1)] = 0
		parent.live--
		t.gen++
		freedLevel, freedBase := node.Level, node.Base
		t.pool.release(t.pool.index.Get(freedBase))
		if t.free != nil {
			t.free(freedLevel, freedBase)
		}
		node = parent
	}
	return nil
}

// Step records one PTE fetch of a sequential walk.
type Step struct {
	Level int
	Addr  mem.PAddr
}

// WalkResult describes a completed (or faulted) walk.
type WalkResult struct {
	Steps []Step
	PTE   mem.PTE
	PA    mem.PAddr
	Size  mem.PageSize
	OK    bool
}

// Walk performs a full sequential walk from the root (Figure 1), recording
// the physical address of every PTE fetched.
func (t *Table) Walk(va mem.VAddr) WalkResult {
	return t.WalkInto(va, make([]Step, 0, t.levels))
}

// WalkInto is Walk with a caller-provided step buffer (pass steps[:0] of a
// per-walker scratch slice), keeping the walk hot path allocation-free.
// The steps above va's span come from the span memo, so the result is the
// root walk's, step for step, without descending the upper levels again.
func (t *Table) WalkInto(va mem.VAddr, steps []Step) WalkResult {
	e := t.spanOf(va)
	if e == nil {
		return t.WalkFrom(t.pool.node(t.root), t.levels, va, steps)
	}
	for i, addr := range e.up[:t.levels-e.level] {
		steps = append(steps, Step{Level: t.levels - i, Addr: addr})
	}
	return t.WalkFrom(e.node, e.level, va, steps)
}

// WalkFrom resumes a walk at the given node and level — this is how a
// page-walk-cache hit skips upper levels.
func (t *Table) WalkFrom(node *Node, level int, va mem.VAddr, steps []Step) WalkResult {
	pool := t.pool
	for {
		idx := mem.Index(va, level)
		steps = append(steps, Step{Level: level, Addr: node.EntryAddr(idx)})
		pte := node.entries[idx]
		if !pte.Present() {
			return WalkResult{Steps: steps}
		}
		if level == 1 || pte.Huge() {
			size := mem.PageSize(level - 1)
			return WalkResult{
				Steps: steps,
				PTE:   pte,
				PA:    pte.Frame() + mem.PAddr(mem.PageOffset(va, size)),
				Size:  size,
				OK:    true,
			}
		}
		node = pool.child(pte)
		level--
	}
}

// NodeForLevel returns the node that a walk for va reaches at the given
// level, or nil when absent; used to service PWC refills.
func (t *Table) NodeForLevel(va mem.VAddr, level int) *Node {
	node := t.pool.node(t.root)
	for l := t.levels; l > level; l-- {
		pte := node.entries[mem.Index(va, l)]
		if !pte.Present() || pte.Huge() {
			return nil
		}
		node = t.pool.child(pte)
	}
	return node
}

// Lookup resolves va without recording steps (OS-side helper; also the
// checker's reference translation, so it must not allocate). Like
// WalkInto, it starts below va's span through the span memo.
func (t *Table) Lookup(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	pool := t.pool
	node, level := pool.node(t.root), t.levels
	if e := t.spanOf(va); e != nil {
		node, level = e.node, e.level
	}
	for ; ; level-- {
		idx := mem.Index(va, level)
		pte := node.entries[idx]
		if !pte.Present() {
			return 0, 0, false
		}
		if level == 1 || pte.Huge() {
			size := mem.PageSize(level - 1)
			return pte.Frame() + mem.PAddr(mem.PageOffset(va, size)), size, true
		}
		node = pool.child(pte)
	}
}

// SetAccessed sets the A (and optionally D) bit on the leaf PTE mapping va,
// modelling the hardware walker's A/D updates. It reports whether a leaf
// was found.
func (t *Table) SetAccessed(va mem.VAddr, write bool) bool {
	node, idx, ok := t.leafSlot(va)
	if !ok {
		return false
	}
	node.entries[idx] = node.entries[idx].WithAccessed(write)
	return true
}

func (t *Table) leafSlot(va mem.VAddr) (*Node, int, bool) {
	node := t.pool.node(t.root)
	for level := t.levels; ; level-- {
		idx := mem.Index(va, level)
		pte := node.entries[idx]
		if !pte.Present() {
			return nil, 0, false
		}
		if level == 1 || pte.Huge() {
			return node, idx, true
		}
		node = t.pool.child(pte)
	}
}

// LeafPTE returns the leaf PTE mapping va.
func (t *Table) LeafPTE(va mem.VAddr) (mem.PTE, bool) {
	node, idx, ok := t.leafSlot(va)
	if !ok {
		return 0, false
	}
	return node.entries[idx], true
}

// RelocateL1 moves the last-level node that maps va to a new physical
// placement, preserving its entries — the mechanism behind gradual TEA
// migration (§4.3). The old frame is reported to the free callback.
func (t *Table) RelocateL1(va mem.VAddr, newBase mem.PAddr) error {
	return t.RelocateNode(va, 1, newBase)
}

// RelocateNode moves the level-`level` node on va's walk path to a new
// physical placement, rewriting the parent entry. Entries are preserved,
// so translations are unaffected; only the fetch address changes.
func (t *Table) RelocateNode(va mem.VAddr, level int, newBase mem.PAddr) error {
	if !mem.IsAligned(uint64(newBase), mem.PageBytes4K) {
		return errors.New("pagetable: unaligned relocation target")
	}
	if level < 1 || level >= t.levels {
		return fmt.Errorf("pagetable: cannot relocate level-%d node", level)
	}
	if t.pool.index.Get(newBase) != 0 {
		return fmt.Errorf("pagetable: relocation target %#x occupied", uint64(newBase))
	}
	parent := t.NodeForLevel(va, level+1)
	if parent == nil {
		return ErrNotMapped
	}
	idx := mem.Index(va, level+1)
	pte := parent.entries[idx]
	if !pte.Present() || pte.Huge() {
		return ErrNotMapped
	}
	id := t.pool.index.Get(pte.Frame())
	node := t.pool.node(id)
	old := node.Base
	t.pool.index.Delete(old)
	node.Base = newBase
	t.pool.index.Set(newBase, id)
	parent.entries[idx] = mem.MakePTE(newBase, 0)
	t.gen++
	if t.free != nil {
		t.free(level, old)
	}
	return nil
}
