package check_test

import (
	"testing"

	"dmt/internal/cache"
	"dmt/internal/check"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
	"dmt/internal/tea"
	"dmt/internal/tlb"
)

// TestCheckWalkRecordsFallbackBothWays drives the fallback-iff-miss
// assertion in both directions: a walk that falls back although the fast
// path can serve, and one served fast although it cannot. Walks that agree
// with the fast-path reference record nothing.
func TestCheckWalkRecordsFallbackBothWays(t *testing.T) {
	const fast, slow = mem.VAddr(0x1000), mem.VAddr(0x2000)
	c := check.New(check.Config{
		Ref:      func(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) { return mem.PAddr(va), mem.Size4K, true },
		FastPath: func(va mem.VAddr) bool { return va == fast },
	})
	walk := func(va mem.VAddr, fallback bool) {
		c.CheckWalk(va, core.WalkOutcome{PA: mem.PAddr(va), Size: mem.Size4K, OK: true, Fallback: fallback})
	}
	walk(fast, false)
	walk(slow, true)
	walk(fast, true)
	walk(slow, false)
	if c.Checked != 4 || c.Mismatched != 2 {
		t.Fatalf("checked %d, mismatched %d; want 4 and 2", c.Checked, c.Mismatched)
	}
	for i, va := range []mem.VAddr{fast, slow} {
		if m := c.Recorded[i]; m.Kind != "fallback" || m.VA != va {
			t.Errorf("mismatch %d = %v, want a fallback mismatch at %#x", i, m, uint64(va))
		}
	}
	if c.Err() == nil {
		t.Fatal("Err is nil after fallback mismatches")
	}
}

// TestServesFollowsLeafPlacement checks the native fast-path reference
// against the DMT walker: a populated page whose leaf node sits in its TEA
// slot is served, and once that node is relocated out of the TEA (the
// state an evacuation leaves, §4.3) Serves refuses it and the walker falls
// back at the same VA, still translating it correctly.
func TestServesFollowsLeafPlacement(t *testing.T) {
	pa := phys.New(0, 1<<16)
	as, err := kernel.NewAddressSpace(pa, kernel.Config{ASID: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr := tea.NewManager(as, tea.NewPhysBackend(pa), tea.DefaultConfig(false))
	as.SetHooks(mgr)
	heap, err := as.MMap(0x4000_0000, 16<<20, kernel.VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Populate(heap); err != nil {
		t.Fatal(err)
	}
	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sink := &core.RefSink{}
	radix := core.NewRadixWalker(as.PT, hier, tlb.NewPWC(), as.ASID())
	radix.Sink = sink
	dmt := core.NewDMTWalker(mgr, as.Pool, hier, radix)
	dmt.Sink = sink
	lvl := check.TEALevel{Mgr: mgr, PT: as.PT}

	moved := heap.Start + 5*mem.PageBytes4K + 0x123
	kept := heap.Start + 3*mem.PageBytes2M + 0x456 // another leaf node
	for _, va := range []mem.VAddr{moved, kept} {
		want, _, _ := as.PT.Lookup(va)
		if got, _, ok := lvl.Serves(va); !ok || got != want {
			t.Fatalf("before relocation: Serves(%#x) = %#x, %v; want %#x, true", uint64(va), uint64(got), ok, uint64(want))
		}
		if out := dmt.Walk(va); out.Fallback || out.PA != want {
			t.Fatalf("before relocation: walk of %#x fell back=%v, PA=%#x", uint64(va), out.Fallback, uint64(out.PA))
		}
	}

	target, err := as.AllocNodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := as.PT.RelocateNode(moved, mem.Size4K.LeafLevel(), target); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := lvl.Serves(moved); ok {
		t.Fatal("Serves accepts a VA whose leaf node left its TEA slot")
	}
	want, _, _ := as.PT.Lookup(moved)
	if out := dmt.Walk(moved); !out.Fallback || !out.OK || out.PA != want {
		t.Fatalf("walk of the relocated page: fallback=%v ok=%v PA=%#x; want a fallback to %#x", out.Fallback, out.OK, uint64(out.PA), uint64(want))
	}
	if _, _, ok := lvl.Serves(kept); !ok {
		t.Fatal("relocating one leaf node stopped Serves for another")
	}
	if out := dmt.Walk(kept); out.Fallback {
		t.Fatal("relocating one leaf node made the walker fall back for another")
	}
}
