package pagetable

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"dmt/internal/mem"
	"dmt/internal/phys"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New(NewPool(), mem.Levels4, BumpAlloc(0x100000), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestNodeIsOnePage pins a node to one page of PTEs plus a small header:
// children are found through the frame index, so no per-node child array
// rides beside the entries in every slab, cold build and clone.
func TestNodeIsOnePage(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > mem.NodeBytes+64 {
		t.Fatalf("Node is %d bytes, want at most %d", got, mem.NodeBytes+64)
	}
}

func TestMapWalkRoundTrip(t *testing.T) {
	tbl := newTestTable(t)
	va, pa := mem.VAddr(0x7f12_3456_7000), mem.PAddr(0xabc000)
	if err := tbl.Map(va, pa, mem.Size4K, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	r := tbl.Walk(va + 0x123)
	if !r.OK {
		t.Fatal("walk faulted on mapped address")
	}
	if r.PA != pa+0x123 {
		t.Fatalf("PA = %#x, want %#x", uint64(r.PA), uint64(pa+0x123))
	}
	if len(r.Steps) != 4 {
		t.Fatalf("4-level walk took %d steps, want 4", len(r.Steps))
	}
	for i, s := range r.Steps {
		if s.Level != 4-i {
			t.Fatalf("step %d at level %d, want %d", i, s.Level, 4-i)
		}
	}
}

func TestWalkUnmappedFaults(t *testing.T) {
	tbl := newTestTable(t)
	if r := tbl.Walk(0x1000); r.OK {
		t.Fatal("walk of empty table succeeded")
	}
	// Map one page; a neighbour in the same L1 node must still fault but
	// take the full 4 steps (present intermediate levels).
	if err := tbl.Map(0x2000, 0x9000, mem.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	r := tbl.Walk(0x3000)
	if r.OK || len(r.Steps) != 4 {
		t.Fatalf("neighbour fault: ok=%v steps=%d, want fault after 4 steps", r.OK, len(r.Steps))
	}
}

func TestHugePageWalkLengths(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.Map(0x4000_0000, 0x8000_0000, mem.Size1G, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x8020_0000, 0x4020_0000, mem.Size2M, 0); err != nil {
		t.Fatal(err)
	}
	r1g := tbl.Walk(0x4000_1234)
	if !r1g.OK || len(r1g.Steps) != 2 || r1g.Size != mem.Size1G {
		t.Fatalf("1G walk: ok=%v steps=%d size=%v", r1g.OK, len(r1g.Steps), r1g.Size)
	}
	if r1g.PA != 0x8000_1234 {
		t.Fatalf("1G PA = %#x", uint64(r1g.PA))
	}
	r2m := tbl.Walk(0x8020_5678)
	if !r2m.OK || len(r2m.Steps) != 3 || r2m.Size != mem.Size2M {
		t.Fatalf("2M walk: ok=%v steps=%d size=%v", r2m.OK, len(r2m.Steps), r2m.Size)
	}
	if r2m.PA != 0x4020_5678 {
		t.Fatalf("2M PA = %#x", uint64(r2m.PA))
	}
}

func TestFiveLevelWalk(t *testing.T) {
	tbl, err := New(NewPool(), mem.Levels5, BumpAlloc(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	va := mem.VAddr(1)<<52 | 0x1000
	if err := tbl.Map(va, 0xf000, mem.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	r := tbl.Walk(va)
	if !r.OK || len(r.Steps) != 5 {
		t.Fatalf("5-level walk: ok=%v steps=%d, want 5", r.OK, len(r.Steps))
	}
}

func TestDoubleMapRejected(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.Map(0x1000, 0x2000, mem.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x1000, 0x3000, mem.Size4K, 0); err != ErrAlreadyMapped {
		t.Fatalf("remap err = %v, want ErrAlreadyMapped", err)
	}
	// Mapping a 4K page under an existing 1G leaf must also fail.
	if err := tbl.Map(0x4000_0000, 0, mem.Size1G, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x4000_0000, 0x5000, mem.Size4K, 0); err != ErrAlreadyMapped {
		t.Fatalf("map under huge leaf err = %v, want ErrAlreadyMapped", err)
	}
}

func TestUnmapPrunesNodes(t *testing.T) {
	pool := NewPool()
	freed := map[mem.PAddr]bool{}
	tbl, err := New(pool, mem.Levels4, BumpAlloc(0), func(level int, pa mem.PAddr) { freed[pa] = true })
	if err != nil {
		t.Fatal(err)
	}
	before := pool.NodeCount()
	if err := tbl.Map(0x1000, 0x2000, mem.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if pool.NodeCount() != before+3 {
		t.Fatalf("mapping created %d nodes, want 3", pool.NodeCount()-before)
	}
	if err := tbl.Unmap(0x1000, mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if pool.NodeCount() != before {
		t.Fatalf("unmap left %d nodes, want %d", pool.NodeCount(), before)
	}
	if len(freed) != 3 {
		t.Fatalf("free callback saw %d nodes, want 3", len(freed))
	}
	if r := tbl.Walk(0x1000); r.OK {
		t.Fatal("walk succeeded after unmap")
	}
}

// TestMapFailureLeavesNoNodes pins the rollback of a Map whose node
// allocation fails part-way down: the allocator fails on its 4th call
// (root, L3, L2 succeed; L1 fails), so the intermediate L3 and L2 nodes
// must be unlinked, freed and dropped from the frame index, leaving only
// the root.
func TestMapFailureLeavesNoNodes(t *testing.T) {
	a := &frameAlloc{next: 0x100000, failIn: 4}
	var freed []mem.PAddr
	tbl, err := New(NewPool(), mem.Levels4, a.alloc, func(level int, pa mem.PAddr) {
		freed = append(freed, pa)
		a.release(level, pa)
	})
	if err != nil {
		t.Fatal(err)
	}
	va := mem.VAddr(0x7f12_3456_7000)
	if err := tbl.Map(va, 0xabc000, mem.Size4K, 0); !errors.Is(err, errOutOfFrames) {
		t.Fatalf("Map with a failing allocator = %v, want %v", err, errOutOfFrames)
	}
	if n := tbl.Pool().NodeCount(); n != 1 {
		t.Fatalf("NodeCount = %d after the failed Map, want 1 (the root)", n)
	}
	if len(freed) != 2 {
		t.Fatalf("failed Map freed %d node frames, want 2 (L3 and L2)", len(freed))
	}
	for _, pa := range freed {
		if _, ok := tbl.Pool().NodeAt(pa); ok {
			t.Fatalf("released frame %#x still in the frame index", uint64(pa))
		}
	}
	if tbl.NodeForLevel(va, 3) != nil {
		t.Fatal("root still points at a released L3 node")
	}
	// The table is as it was: the same Map succeeds once frames are back.
	if err := tbl.Map(va, 0xabc000, mem.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if pa, _, ok := tbl.Lookup(va); !ok || pa != 0xabc000 {
		t.Fatalf("Lookup after the retried Map = %#x %v", uint64(pa), ok)
	}
}

func TestUnmapNotMapped(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.Unmap(0x5000, mem.Size4K); err != ErrNotMapped {
		t.Fatalf("err = %v, want ErrNotMapped", err)
	}
}

func TestReadPTEPhysical(t *testing.T) {
	pool := NewPool()
	tbl, err := New(pool, mem.Levels4, BumpAlloc(0x400000), nil)
	if err != nil {
		t.Fatal(err)
	}
	va, pa := mem.VAddr(0x7000), mem.PAddr(0xdead000)
	if err := tbl.Map(va, pa, mem.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	r := tbl.Walk(va)
	leafAddr := r.Steps[len(r.Steps)-1].Addr
	pte, ok := pool.ReadPTE(leafAddr)
	if !ok {
		t.Fatal("ReadPTE missed a registered node")
	}
	if pte.Frame() != pa {
		t.Fatalf("ReadPTE frame = %#x, want %#x", uint64(pte.Frame()), uint64(pa))
	}
	if _, ok := pool.ReadPTE(0xffff_f000); ok {
		t.Fatal("ReadPTE of unregistered memory must miss")
	}
}

func TestWalkFromSkipsLevels(t *testing.T) {
	tbl := newTestTable(t)
	va := mem.VAddr(0x12345000)
	if err := tbl.Map(va, 0x99000, mem.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	l1 := tbl.NodeForLevel(va, 1)
	if l1 == nil {
		t.Fatal("L1 node missing")
	}
	r := tbl.WalkFrom(l1, 1, va, nil)
	if !r.OK || len(r.Steps) != 1 {
		t.Fatalf("PWC-skipped walk: ok=%v steps=%d, want 1", r.OK, len(r.Steps))
	}
	if r.PA != 0x99000 {
		t.Fatalf("PA = %#x", uint64(r.PA))
	}
}

func TestSetAccessedDirty(t *testing.T) {
	tbl := newTestTable(t)
	va := mem.VAddr(0x1000)
	if err := tbl.Map(va, 0x2000, mem.Size4K, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	if !tbl.SetAccessed(va, false) {
		t.Fatal("SetAccessed failed on mapped page")
	}
	pte, _ := tbl.LeafPTE(va)
	if !pte.Accessed() || pte.Dirty() {
		t.Fatal("read access must set A only")
	}
	tbl.SetAccessed(va, true)
	pte, _ = tbl.LeafPTE(va)
	if !pte.Dirty() {
		t.Fatal("write access must set D")
	}
}

func TestRelocateL1PreservesTranslation(t *testing.T) {
	pool := NewPool()
	tbl, err := New(pool, mem.Levels4, BumpAlloc(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	va := mem.VAddr(0x7f00_0000_0000)
	for i := 0; i < 8; i++ {
		if err := tbl.Map(va+mem.VAddr(i)<<12, mem.PAddr(0x1000*(i+1)), mem.Size4K, 0); err != nil {
			t.Fatal(err)
		}
	}
	oldLeaf := tbl.Walk(va).Steps[3].Addr
	newBase := mem.PAddr(0x800000)
	if err := tbl.RelocateL1(va, newBase); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r := tbl.Walk(va + mem.VAddr(i)<<12)
		if !r.OK || r.PA != mem.PAddr(0x1000*(i+1)) {
			t.Fatalf("translation %d broken after relocation", i)
		}
		if got := r.Steps[3].Addr; mem.AlignDownP(got, mem.PageBytes4K) != newBase {
			t.Fatalf("leaf PTE still fetched from %#x, want inside %#x", uint64(got), uint64(newBase))
		}
	}
	if _, ok := pool.ReadPTE(oldLeaf); ok {
		t.Fatal("old node still registered after relocation")
	}
}

func TestPhysAllocIntegration(t *testing.T) {
	a := phys.New(0, 4096)
	pool := NewPool()
	tbl, err := New(pool, mem.Levels4, PhysAlloc(a), PhysFree(a))
	if err != nil {
		t.Fatal(err)
	}
	free0 := a.FreeFrames()
	if err := tbl.Map(0x1000, 0x2000, mem.Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if a.FreeFrames() != free0-3 {
		t.Fatalf("page-table frames not taken from buddy allocator")
	}
	if err := tbl.Unmap(0x1000, mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if a.FreeFrames() != free0 {
		t.Fatalf("page-table frames not returned to buddy allocator")
	}
}

// Property: for random sets of mappings, every mapped page walks to its
// frame and every unmapped probe faults.
func TestMapWalkProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		tbl, err := New(NewPool(), mem.Levels4, BumpAlloc(1<<40), nil)
		if err != nil {
			return false
		}
		mapped := map[mem.VAddr]mem.PAddr{}
		for i, s := range seeds {
			va := mem.VAddr(uint64(s)) << 12
			pa := mem.PAddr(uint64(i+1)) << 12
			if _, dup := mapped[va]; dup {
				continue
			}
			if tbl.Map(va, pa, mem.Size4K, 0) != nil {
				return false
			}
			mapped[va] = pa
		}
		for va, pa := range mapped {
			r := tbl.Walk(va)
			if !r.OK || r.PA != pa {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
