package pagetable

import (
	"runtime"
	"testing"

	"dmt/internal/mem"
)

// The arena-clone contract (DESIGN.md §9): Clone copies the slab arena, so
// the clone and its parent must share no mutable storage — mutating either
// side's tables (map, unmap, relocate) must never show through on the other,
// even though the copy is flat slab memcpys rather than a tree walk.

// snapshot captures everything a translation consumer can observe for a VA:
// the resolved PA and the exact PTE fetch addresses of a full walk.
type snapshot struct {
	pa    mem.PAddr
	ok    bool
	steps []Step
}

func snap(t *Table, va mem.VAddr) snapshot {
	r := t.Walk(va)
	s := snapshot{pa: r.PA, ok: r.OK}
	s.steps = append(s.steps, r.Steps...)
	return s
}

func requireSnap(t *testing.T, tbl *Table, va mem.VAddr, want snapshot, side string) {
	t.Helper()
	got := snap(tbl, va)
	if got.ok != want.ok || got.pa != want.pa {
		t.Fatalf("%s: walk(%#x) = (%#x, %v), want (%#x, %v)",
			side, uint64(va), uint64(got.pa), got.ok, uint64(want.pa), want.ok)
	}
	if len(got.steps) != len(want.steps) {
		t.Fatalf("%s: walk(%#x) took %d steps, want %d", side, uint64(va), len(got.steps), len(want.steps))
	}
	for i := range got.steps {
		if got.steps[i] != want.steps[i] {
			t.Fatalf("%s: walk(%#x) step %d = %+v, want %+v", side, uint64(va), i, got.steps[i], want.steps[i])
		}
	}
}

func TestCloneDoesNotAliasParentSlabs(t *testing.T) {
	parent := newTestTable(t)
	vas := []mem.VAddr{0x7f00_0000_0000, 0x7f00_0020_0000, 0x10_0000_0000}
	for i, va := range vas {
		if err := parent.Map(va, mem.PAddr(0x40_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	if err := parent.Map(0x7f10_0000_0000, 0x8000_0000, mem.Size2M, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	huge := mem.VAddr(0x7f10_0000_0000)

	before := make(map[mem.VAddr]snapshot)
	for _, va := range append(vas, huge) {
		before[va] = snap(parent, va)
	}
	parentNodes := parent.Pool().NodeCount()

	clone := parent.Clone(BumpAlloc(0x8000000), nil)
	for _, va := range append(vas, huge) {
		requireSnap(t, clone, va, before[va], "fresh clone")
	}
	if got := clone.Pool().NodeCount(); got != parentNodes {
		t.Fatalf("clone NodeCount = %d, want %d", got, parentNodes)
	}

	// Mutate the clone every way a table can change: a new mapping (arena
	// slot allocation), an unmap that prunes nodes (slot release), a PTE
	// flag update, and a node relocation (index rewrite).
	if err := clone.Map(0x7f20_0000_0000, 0x50_000000, mem.Size4K, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	if err := clone.Unmap(vas[2], mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if !clone.SetAccessed(vas[0], true) {
		t.Fatal("SetAccessed missed a mapped leaf")
	}
	if err := clone.RelocateL1(vas[1], 0x9000000); err != nil {
		t.Fatal(err)
	}

	// The parent must be bit-identical to its pre-clone snapshots.
	for _, va := range append(vas, huge) {
		requireSnap(t, parent, va, before[va], "parent after clone mutation")
	}
	if got := parent.Pool().NodeCount(); got != parentNodes {
		t.Fatalf("parent NodeCount = %d after clone mutation, want %d", got, parentNodes)
	}
	if pte, ok := parent.LeafPTE(vas[0]); !ok || pte.Accessed() {
		t.Fatalf("parent leaf PTE for %#x picked up the clone's A-bit: %v %v", uint64(vas[0]), pte, ok)
	}
	if _, ok := parent.Pool().NodeAt(0x9000000); ok {
		t.Fatal("parent pool indexes the clone's relocated node")
	}

	// And the reverse: parent mutations must not leak into the clone.
	cloneSnap := make(map[mem.VAddr]snapshot)
	for _, va := range []mem.VAddr{vas[0], vas[1], huge, 0x7f20_0000_0000} {
		cloneSnap[va] = snap(clone, va)
	}
	if err := parent.Unmap(vas[0], mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if err := parent.Map(0x7f30_0000_0000, 0x60_000000, mem.Size4K, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	for va, want := range cloneSnap {
		requireSnap(t, clone, va, want, "clone after parent mutation")
	}
	if r := clone.Walk(0x7f30_0000_0000); r.OK {
		t.Fatal("parent's new mapping leaked into the clone")
	}
}

// TestCloneAfterChurnCopiesFreelist pins the slot-recycling half of the
// contract: a table that has unmapped (releasing arena slots) clones with
// the freelist intact, so parent and clone recycle independently and new
// nodes on one side never alias the other's arena.
func TestCloneAfterChurnCopiesFreelist(t *testing.T) {
	parent := newTestTable(t)
	for i := 0; i < 8; i++ {
		va := mem.VAddr(0x7f00_0000_0000 + uint64(i)<<30)
		if err := parent.Map(va, mem.PAddr(0x40_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		va := mem.VAddr(0x7f00_0000_0000 + uint64(i)<<30)
		if err := parent.Unmap(va, mem.Size4K); err != nil {
			t.Fatal(err)
		}
	}
	keep := mem.VAddr(0x7f00_0000_0000 + 5<<30)
	before := snap(parent, keep)

	clone := parent.Clone(BumpAlloc(0x8000000), nil)
	// Both sides refill the recycled slots independently.
	for i := 0; i < 4; i++ {
		va := mem.VAddr(0x7e00_0000_0000 + uint64(i)<<30)
		if err := clone.Map(va, mem.PAddr(0x70_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		va := mem.VAddr(0x7d00_0000_0000 + uint64(i)<<30)
		if err := parent.Map(va, mem.PAddr(0x50_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	requireSnap(t, parent, keep, before, "parent after churn refill")
	requireSnap(t, clone, keep, before, "clone after churn refill")
	if r := parent.Walk(0x7e00_0000_0000); r.OK {
		t.Fatal("clone's refill mapping leaked into the parent")
	}
	if r := clone.Walk(0x7d00_0000_0000); r.OK {
		t.Fatal("parent's refill mapping leaked into the clone")
	}
}

// TestCloneMultiSlabChurnDoesNotAlias runs the no-aliasing contract on a
// table whose arena spans several slabs and whose freelist holds slots from
// more than one of them, so the clone's per-slab copy, its high-water
// bound and its freelist all matter.
func TestCloneMultiSlabChurnDoesNotAlias(t *testing.T) {
	parent := newTestTable(t)
	// Each VA sits in its own 1 GiB region: a level-2 and a level-1 node
	// apiece, so 40 of them need 82 nodes, six 16-node slabs.
	va := func(i int) mem.VAddr { return mem.VAddr(0x7f00_0000_0000 + uint64(i)<<30) }
	const n = 40
	for i := 0; i < n; i++ {
		if err := parent.Map(va(i), mem.PAddr(0x40_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	if slabs := len(parent.Pool().slabs); slabs < 4 {
		t.Fatalf("precondition: arena spans %d slabs, want at least 4", slabs)
	}
	// Churn: release every third region's nodes, spread over all slabs.
	for i := 0; i < n; i += 3 {
		if err := parent.Unmap(va(i), mem.Size4K); err != nil {
			t.Fatal(err)
		}
	}
	if len(parent.Pool().free) == 0 {
		t.Fatal("precondition: churn left no recycled slots")
	}
	before := make(map[mem.VAddr]snapshot)
	for i := 0; i < n; i++ {
		before[va(i)] = snap(parent, va(i))
	}
	parentNodes := parent.Pool().NodeCount()

	clone := parent.Clone(BumpAlloc(0x8000000), nil)
	for i := 0; i < n; i++ {
		requireSnap(t, clone, va(i), before[va(i)], "fresh clone")
	}
	if got := clone.Pool().NodeCount(); got != parentNodes {
		t.Fatalf("clone NodeCount = %d, want %d", got, parentNodes)
	}

	// The clone refills the recycled slots, grows past the high-water
	// mark, unmaps, relocates and sets A bits.
	for i := 0; i < n; i += 3 {
		if err := clone.Map(va(i)+0x20_0000, mem.PAddr(0x50_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < n+20; i++ {
		if err := clone.Map(va(i), mem.PAddr(0x60_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	if err := clone.Unmap(va(1), mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if err := clone.RelocateL1(va(2), 0x9000000); err != nil {
		t.Fatal(err)
	}
	if !clone.SetAccessed(va(4), true) {
		t.Fatal("SetAccessed missed a mapped leaf")
	}
	for i := 0; i < n; i++ {
		requireSnap(t, parent, va(i), before[va(i)], "parent after clone mutation")
	}
	if got := parent.Pool().NodeCount(); got != parentNodes {
		t.Fatalf("parent NodeCount = %d after clone mutation, want %d", got, parentNodes)
	}
	if pte, _ := parent.LeafPTE(va(4)); pte.Accessed() {
		t.Fatal("parent leaf picked up the clone's A bit")
	}
	if _, ok := parent.Pool().NodeAt(0x9000000); ok {
		t.Fatal("parent pool indexes the clone's relocated node")
	}
	for i := 0; i < n; i += 3 {
		if r := parent.Walk(va(i) + 0x20_0000); r.OK {
			t.Fatalf("clone's refill of region %d leaked into the parent", i)
		}
	}
	for i := n; i < n+20; i++ {
		if r := parent.Walk(va(i)); r.OK {
			t.Fatalf("clone's new region %d leaked into the parent", i)
		}
	}

	// And the reverse: the parent refills its own freelist.
	cloneSnap := make(map[mem.VAddr]snapshot)
	for i := 0; i < n+20; i++ {
		cloneSnap[va(i)] = snap(clone, va(i))
		cloneSnap[va(i)+0x20_0000] = snap(clone, va(i)+0x20_0000)
	}
	for i := 0; i < n; i += 3 {
		if err := parent.Map(va(i)+0x40_0000, mem.PAddr(0x70_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	if err := parent.Unmap(va(5), mem.Size4K); err != nil {
		t.Fatal(err)
	}
	for v, want := range cloneSnap {
		requireSnap(t, clone, v, want, "clone after parent mutation")
	}
}

// cloneAllocBytes returns the average heap bytes one Clone of tbl
// allocates.
func cloneAllocBytes(tbl *Table) uint64 {
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		_ = tbl.Clone(nil, nil)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / rounds
}

// TestCloneBytesFollowLiveState pins clone cost to live state: a 4-node
// table whose nodes sit near frame 200K (where the simulated workloads put
// them) clones in under 96 KiB — one slab of 4 KiB nodes; the frame index
// is shared until the clone writes it — with nothing sized by the highest
// node frame.
func TestCloneBytesFollowLiveState(t *testing.T) {
	tbl, err := New(NewPool(), mem.Levels4, BumpAlloc(0x3200_0000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x7f00_0000_0000, 0x40_000000, mem.Size4K, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Pool().NodeCount(); got != 4 {
		t.Fatalf("precondition: %d nodes, want 4", got)
	}
	if got := cloneAllocBytes(tbl); got >= 96<<10 {
		t.Fatalf("cloning a 4-node table allocates %d bytes, want under 96 KiB", got)
	}
}
