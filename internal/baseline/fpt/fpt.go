// Package fpt implements Flattened Page Tables (Park et al., ASPLOS'22),
// the paper's §6.2.1 comparison point that merges adjacent radix levels:
// L4 with L3 and L2 with L1, so a native walk takes two sequential memory
// references and a virtualized two-dimensional walk takes eight.
//
// Each flattened node is a physically-contiguous 2 MiB + 4 KiB region:
// 2^18 base-page PTEs indexed by VA[29:12] plus a 512-entry huge-page array
// indexed by VA[29:21] (so 2 MiB mappings also resolve in two references,
// probed in parallel with the base-page slot).
package fpt

import (
	"fmt"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
)

const (
	// flatBits is the number of VA bits consumed per flattened level.
	flatBits = 18
	// flatEntries is the fan-out of a flattened node.
	flatEntries = 1 << flatBits
	// leafFrames is the size of one flattened leaf node: 2 MiB of 4K
	// PTEs plus one frame of 2M PTEs.
	leafFrames = flatEntries*mem.PTEBytes/mem.PageBytes4K + 1
	// hugeArrayOffset is the byte offset of the 2M-PTE array.
	hugeArrayOffset = flatEntries * mem.PTEBytes
)

func rootIndex(va mem.VAddr) int { return int(uint64(va)>>30) & (flatEntries - 1) }
func leafIndex(va mem.VAddr) int { return int(uint64(va)>>12) & (flatEntries - 1) }
func hugeIndex(va mem.VAddr) int { return int(uint64(va)>>21) & 511 }

// Table is one flattened page table. The root is only its physical
// region: walkers charge its slots (RootSlot) and resolve through leaves,
// keyed by root index. Each leaf's PTEs live in a mem.Chunked array: its
// storage follows the 4 KiB pieces of it that hold entries, and a clone
// shares them copy-on-write.
type Table struct {
	alloc    *phys.Allocator
	rootBase mem.PAddr
	leaves   map[int]*leafNode
}

// leafNode is one flattened leaf, laid out as in memory: the 4K PTEs at
// [0, flatEntries), then the 2M PTEs.
type leafNode struct {
	base mem.PAddr
	ptes mem.Chunked[mem.PTE]
}

func (n *leafNode) pte4k(va mem.VAddr) mem.PTE { return n.ptes.Get(leafIndex(va)) }
func (n *leafNode) pte2m(va mem.VAddr) mem.PTE { return n.ptes.Get(flatEntries + hugeIndex(va)) }

// New creates an empty flattened table; the merged L4L3 root occupies a
// contiguous 2 MiB region.
func New(alloc *phys.Allocator) (*Table, error) {
	rootFrames := flatEntries * mem.PTEBytes / mem.PageBytes4K
	base, err := alloc.AllocContig(rootFrames, phys.KindPageTable)
	if err != nil {
		return nil, fmt.Errorf("fpt: root allocation: %w", err)
	}
	return &Table{alloc: alloc, rootBase: base, leaves: map[int]*leafNode{}}, nil
}

func (t *Table) leafFor(va mem.VAddr, create bool) (*leafNode, error) {
	idx := rootIndex(va)
	if n, ok := t.leaves[idx]; ok {
		return n, nil
	}
	if !create {
		return nil, nil
	}
	base, err := t.alloc.AllocContig(leafFrames, phys.KindPageTable)
	if err != nil {
		return nil, fmt.Errorf("fpt: leaf allocation: %w", err)
	}
	n := &leafNode{base: base}
	t.leaves[idx] = n
	return n, nil
}

// Map installs va→pa at the given page size (4K or 2M; 1G pages resolve at
// the root level and are unsupported in this reproduction's workloads).
func (t *Table) Map(va mem.VAddr, pa mem.PAddr, size mem.PageSize) error {
	n, err := t.leafFor(va, true)
	if err != nil {
		return err
	}
	switch size {
	case mem.Size4K:
		n.ptes.Set(leafIndex(va), mem.MakePTE(pa, mem.PTEWritable))
	case mem.Size2M:
		n.ptes.Set(flatEntries+hugeIndex(va), mem.MakePTE(pa, mem.PTEWritable|mem.PTEHuge))
	default:
		return fmt.Errorf("fpt: unsupported page size %v", size)
	}
	return nil
}

// Lookup resolves va (content only).
func (t *Table) Lookup(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	n, _ := t.leafFor(va, false)
	if n == nil {
		return 0, 0, false
	}
	if pte := n.pte2m(va); pte.Present() {
		return pte.Frame() + mem.PAddr(mem.PageOffset(va, mem.Size2M)), mem.Size2M, true
	}
	if pte := n.pte4k(va); pte.Present() {
		return pte.Frame() + mem.PAddr(mem.PageOffset(va, mem.Size4K)), mem.Size4K, true
	}
	return 0, 0, false
}

// RootSlot returns the physical address of the root entry for va.
func (t *Table) RootSlot(va mem.VAddr) mem.PAddr {
	return t.rootBase + mem.PAddr(rootIndex(va)*mem.PTEBytes)
}

// LeafSlots returns the physical addresses probed at the leaf level: the
// 4K slot and the 2M slot (parallel probe).
func (t *Table) LeafSlots(va mem.VAddr) (slot4k, slot2m mem.PAddr, ok bool) {
	n, _ := t.leafFor(va, false)
	if n == nil {
		return 0, 0, false
	}
	return n.base + mem.PAddr(leafIndex(va)*mem.PTEBytes),
		n.base + hugeArrayOffset + mem.PAddr(hugeIndex(va)*mem.PTEBytes), true
}

// leafMatch reports which leaf probe holds the valid entry for va:
// 0 for the 4K slot, 1 for the 2M slot, -1 when unmapped.
func (t *Table) leafMatch(va mem.VAddr) int {
	n, _ := t.leafFor(va, false)
	if n == nil {
		return -1
	}
	if n.pte2m(va).Present() {
		return 1
	}
	if n.pte4k(va).Present() {
		return 0
	}
	return -1
}

// Sync mirrors every present leaf mapping of as.
func (t *Table) Sync(as *kernel.AddressSpace) error { return as.ForEachLeaf(t.Map) }

// FootprintBytes reports the table's physical footprint (root + leaves).
func (t *Table) FootprintBytes() int {
	return flatEntries*mem.PTEBytes + len(t.leaves)*leafFrames*mem.PageBytes4K
}

// Walker is native FPT: two sequential references (root, then the leaf
// probes in parallel).
type Walker struct {
	T    *Table
	Hier *cache.Hierarchy
	// Sink receives the walk's PTE fetches (see core.RefSink).
	Sink *core.RefSink

	Walks uint64
}

// EmitCounters implements core.CounterSource.
func (w *Walker) EmitCounters(emit func(name string, value uint64)) {
	emit("fpt.walks", w.Walks)
}

// Walk implements core.Walker.
func (w *Walker) Walk(va mem.VAddr) core.WalkOutcome {
	w.Walks++
	out := core.WalkOutcome{}
	resolve(w.T, va, w.Hier, w.Sink, "n", &out)
	out.PA, out.Size, out.OK = w.T.Lookup(va)
	return out
}

// resolve charges one walk of t for va: the root fetch, then — when va has
// a leaf node — the leaf's parallel 4K/2M probes.
func resolve(t *Table, va mem.VAddr, hier *cache.Hierarchy, sink *core.RefSink, dim string, out *core.WalkOutcome) {
	root := t.RootSlot(va)
	lat := hier.Access(root)
	sink.Append(core.MemRef{Addr: root, Cycles: lat, Level: 3, Dim: dim})
	out.Cycles += lat
	out.SeqSteps++
	g := core.FetchGroup{Sink: sink}
	if leafProbes(t, va, hier, dim, &g) {
		g.Commit(out)
	}
}

// leafProbes adds the 4K and 2M leaf probes for va to g, reporting false
// (and adding none) when va has no leaf node. The probes resolve on the
// valid entry's return; the other probe never gates the walk.
func leafProbes(t *Table, va mem.VAddr, hier *cache.Hierarchy, dim string, g *core.FetchGroup) bool {
	s4, s2, ok := t.LeafSlots(va)
	if !ok {
		return false
	}
	match := t.leafMatch(va)
	for i, slot := range [2]mem.PAddr{s4, s2} {
		lat := hier.Access(slot)
		g.Add(core.MemRef{Addr: slot, Cycles: lat, Level: 1, Dim: dim}, i == match)
	}
	return true
}

var _ core.Walker = (*Walker)(nil)

// VirtWalker is FPT in a virtualized environment: a two-dimensional walk
// over a guest flattened table (in guest-physical memory) and a host
// flattened table (in machine memory): 2×(2+1)+2 = 8 sequential references.
type VirtWalker struct {
	Guest *Table // gVA → gPA, slots at guest-physical addresses
	Host  *Table // gPA → machine, slots at machine addresses
	Hier  *cache.Hierarchy
	// Sink receives the walk's PTE fetches (see core.RefSink).
	Sink *core.RefSink

	Walks uint64
}

// EmitCounters implements core.CounterSource.
func (w *VirtWalker) EmitCounters(emit func(name string, value uint64)) {
	emit("fpt_virt.walks", w.Walks)
}

// Walk implements core.Walker.
func (w *VirtWalker) Walk(gva mem.VAddr) core.WalkOutcome {
	w.Walks++
	out := core.WalkOutcome{}
	// Guest root fetch (host-resolved first).
	if !w.guestFetch(gva, [2]mem.PAddr{w.Guest.RootSlot(gva)}, 1, &out) {
		return out
	}
	// Guest leaf fetch: parallel 4K/2M probes, each host-resolved.
	s4, s2, ok := w.Guest.LeafSlots(gva)
	if !ok {
		return out
	}
	if !w.guestFetch(gva, [2]mem.PAddr{s4, s2}, 2, &out) {
		return out
	}
	dataGPA, size, ok := w.Guest.Lookup(gva)
	if !ok {
		return out
	}
	// Final host resolution of the data gPA.
	m, ok := w.hostResolve(dataGPA, &out)
	if !ok {
		return out
	}
	out.PA, out.Size, out.OK = m, size, true
	return out
}

// guestFetch host-resolves the first n guest slots and fetches the guest
// entries. The host resolutions of parallel guest probes overlap: one
// host-root group, one host-leaf group, one guest-fetch group — three
// sequential steps regardless of the probe fan-out, so a full virtualized
// walk costs 3+3+2 = 8 sequential references as the paper reports (Table 6).
func (w *VirtWalker) guestFetch(guestVA mem.VAddr, slots [2]mem.PAddr, n int, out *core.WalkOutcome) bool {
	// Host root probes for every slot (parallel; every root gates).
	g := core.FetchGroup{Sink: w.Sink}
	for _, s := range slots[:n] {
		root := w.Host.RootSlot(mem.VAddr(s))
		lat := w.Hier.Access(root)
		g.Add(core.MemRef{Addr: root, Cycles: lat, Level: 3, Dim: "h"}, true)
	}
	g.Commit(out)
	// Host leaf probes for every slot (parallel; the valid entry's line
	// is the critical path per slot, the slowest valid chain gates the
	// group).
	g = core.FetchGroup{Sink: w.Sink}
	var machines [2]mem.PAddr
	for mi, s := range slots[:n] {
		if !leafProbes(w.Host, mem.VAddr(s), w.Hier, "h", &g) {
			return false
		}
		m, _, ok := w.Host.Lookup(mem.VAddr(s))
		if !ok {
			return false
		}
		machines[mi] = m
	}
	g.Commit(out)
	// Guest entry fetches (parallel; the valid guest entry resolves the
	// group). For the root call there is one slot (always the match); for
	// the leaf call slot 0 is the 4K probe and slot 1 the 2M probe.
	g = core.FetchGroup{Sink: w.Sink}
	match := 0
	if n > 1 {
		match = w.Guest.leafMatch(guestVA)
	}
	for i, m := range machines[:n] {
		lat := w.Hier.Access(m)
		g.Add(core.MemRef{Addr: m, Cycles: lat, Dim: "g"}, i == match)
	}
	g.Commit(out)
	return true
}

// hostResolve walks the host flattened table for gpa: two sequential refs.
func (w *VirtWalker) hostResolve(gpa mem.PAddr, out *core.WalkOutcome) (mem.PAddr, bool) {
	resolve(w.Host, mem.VAddr(gpa), w.Hier, w.Sink, "h", out)
	m, _, ok := w.Host.Lookup(mem.VAddr(gpa))
	return m, ok
}

var _ core.Walker = (*VirtWalker)(nil)
