// Package agile implements Agile Paging (Gandhi et al., ISCA'16), the
// §6.2.1 comparison point that starts a virtualized walk in a shadow page
// table for the upper radix levels and switches to nested paging for the
// lower levels, trading fewer memory references against shadow-sync VM
// exits for the (rarely-changing) upper levels.
package agile

import (
	"fmt"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
	"dmt/internal/virt"
)

// SwitchLevel is the level at which the walk switches from shadow to
// nested mode: levels above it are shadowed (fetched directly from machine
// memory), levels at or below walk nested. Agile paging adapts the switch
// point per page-table subtree; for the evaluated workloads — whose upper
// tables are created once at initialization and never change — the policy
// converges to shadowing L4..L2 and walking only the last level nested.
// Huge-page subtrees (whose leaves live at L2) switch one level higher.
const SwitchLevel = 1

// Mirror is the shadowed upper portion: machine-resident mirror nodes of
// the guest's L4/L3 levels whose switch-point entries hold the
// guest-physical address of the guest L2 node.
type Mirror struct {
	nodes map[mem.PAddr]*mirrorNode // by machine base
	root  *mirrorNode
	alloc *phys.Allocator
	// Syncs counts shadow-synchronized entries (each costs a VM exit
	// when it happens at runtime).
	Syncs uint64
}

type mirrorNode struct {
	level   int
	base    mem.PAddr
	entries [mem.EntriesPerNode]mem.PAddr // child machine base or switch-point gPA
	present [mem.EntriesPerNode]bool
	// nestedAt records, for switch-point entries, the guest level the
	// nested walk resumes at (SwitchLevel normally; SwitchLevel+1 for
	// huge-page subtrees whose leaves are one level higher).
	nestedAt [mem.EntriesPerNode]uint8
}

// BuildMirror constructs the shadowed upper levels for every mapped region
// of the guest process.
func BuildMirror(vm *virt.VM, guest *kernel.AddressSpace) (*Mirror, error) {
	m := &Mirror{nodes: map[mem.PAddr]*mirrorNode{}, alloc: vm.Hyp.MachinePhys}
	root, err := m.newNode(guest.PT.Levels())
	if err != nil {
		return nil, err
	}
	m.root = root
	// The switch-point entry covers a whole 2 MiB span, so only a span's
	// first leaf can change the mirror: every later one finds its path
	// and its switch point present.
	span := ^mem.VAddr(0)
	err = guest.ForEachLeaf(func(va mem.VAddr, _ mem.PAddr, _ mem.PageSize) error {
		if s := mem.AlignDown(va, mem.PageBytes2M); s != span {
			span = s
			return m.syncPath(guest, va)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Mirror) newNode(level int) (*mirrorNode, error) {
	base, err := m.alloc.AllocFrame(phys.KindPageTable)
	if err != nil {
		return nil, err
	}
	n := &mirrorNode{level: level, base: base}
	m.nodes[base] = n
	return n, nil
}

// syncPath mirrors the upper levels of the walk for va, recording the
// switch-point guest node's gPA (the L1 node, or the L2 node for
// huge-page subtrees).
func (m *Mirror) syncPath(guest *kernel.AddressSpace, va mem.VAddr) error {
	node := m.root
	for level := guest.PT.Levels(); level > SwitchLevel; level-- {
		idx := mem.Index(va, level)
		if level-1 == SwitchLevel {
			target, nestedAt := guest.PT.NodeForLevel(va, SwitchLevel), uint8(SwitchLevel)
			if target == nil {
				// Huge-page subtree: switch at the level whose node
				// holds the huge leaf.
				target, nestedAt = guest.PT.NodeForLevel(va, SwitchLevel+1), uint8(SwitchLevel+1)
			}
			if target == nil {
				return nil
			}
			if !node.present[idx] {
				node.entries[idx] = target.Base // switch point: gPA
				node.present[idx] = true
				node.nestedAt[idx] = nestedAt
				m.Syncs++
			}
			return nil
		}
		if !node.present[idx] {
			child, err := m.newNode(level - 1)
			if err != nil {
				return err
			}
			node.entries[idx] = child.base
			node.present[idx] = true
			m.Syncs++
		}
		node = m.nodes[node.entries[idx]]
		if node == nil {
			return fmt.Errorf("agile: broken mirror at level %d", level)
		}
	}
	return nil
}

// walkUpper fetches the shadowed levels, returning the switch-point guest
// node gPA and the level the nested walk resumes at.
func (m *Mirror) walkUpper(va mem.VAddr, hier *cache.Hierarchy, sink *core.RefSink, out *core.WalkOutcome) (mem.PAddr, int, bool) {
	node := m.root
	for level := node.level; level > SwitchLevel; level-- {
		idx := mem.Index(va, level)
		addr := node.base + mem.PAddr(idx*mem.PTEBytes)
		lat := hier.Access(addr)
		sink.Append(core.MemRef{Addr: addr, Cycles: lat, Level: level, Dim: "s"})
		out.Cycles += lat
		out.SeqSteps++
		if !node.present[idx] {
			return 0, 0, false
		}
		if level-1 == SwitchLevel {
			return node.entries[idx], int(node.nestedAt[idx]), true
		}
		node = m.nodes[node.entries[idx]]
	}
	return 0, 0, false
}

// Walker is the agile-paging translation: shadowed upper levels, then the
// nested walker's 2D walk for the lower levels (4–24 references depending
// on caching, Table 6).
type Walker struct {
	Mirror *Mirror
	// Nested walks the levels below the switch point. Its host PWC and
	// nested cache are agile's; its guest PWC goes unprobed, and its
	// hierarchy and sink serve the shadowed levels too.
	Nested *virt.NestedWalker

	Walks uint64
}

// NewWalker builds the agile walker over the nested walker nw.
func NewWalker(m *Mirror, nw *virt.NestedWalker) *Walker {
	return &Walker{Mirror: m, Nested: nw}
}

// EmitCounters implements core.CounterSource: walk count, shadow-mirror
// sync activity, and the host-dimension MMU-cache splits.
func (w *Walker) EmitCounters(emit func(name string, value uint64)) {
	emit("agile.walks", w.Walks)
	if w.Mirror != nil {
		emit("agile.mirror_syncs", w.Mirror.Syncs)
	}
	if w.Nested.HostPWC != nil {
		emit("agile.host_pwc_hits", w.Nested.HostPWC.Hits)
		emit("agile.host_pwc_misses", w.Nested.HostPWC.Misses)
	}
	if w.Nested.Nested != nil {
		emit("agile.ncache_hits", w.Nested.Nested.Hits)
		emit("agile.ncache_misses", w.Nested.Nested.Misses)
	}
}

// Walk implements core.Walker.
func (w *Walker) Walk(gva mem.VAddr) core.WalkOutcome {
	w.Walks++
	out := core.WalkOutcome{}
	nw := w.Nested
	switchGPA, nestedAt, ok := w.Mirror.walkUpper(gva, nw.Hier, nw.Sink, &out)
	if !ok {
		return out
	}
	// Nested portion: walk the remaining guest level(s) from the switch-
	// point node, host-resolving every guest PTE fetch.
	if gnode, ok := nw.GuestPT.Pool().NodeAt(switchGPA); ok {
		nw.WalkFrom(gnode, nestedAt, gva, &out)
	}
	return out
}

var _ core.Walker = (*Walker)(nil)
