package pagetable

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dmt/internal/mem"
)

// TestSpanMemoIs32KiB pins the memo's footprint per walked table: 512
// entries of 64 bytes.
func TestSpanMemoIs32KiB(t *testing.T) {
	if got := unsafe.Sizeof(spanMemo{}); got > 32<<10 {
		t.Fatalf("span memo is %d bytes, want at most %d", got, 32<<10)
	}
}

// spanTestVAs maps a 4 KiB page in each of 64 spans, a 2 MiB leaf and a
// 1 GiB leaf into tbl, and returns an address in each of them plus three
// in spans with no leaf. Spans 0–31 and 32–63 lie 1 GiB apart, so each
// pair shares a memo entry and walks keep refilling it.
func spanTestVAs(t *testing.T, tbl *Table) []mem.VAddr {
	t.Helper()
	var vas []mem.VAddr
	for i := range 64 {
		span := uint64(i%32) + uint64(i/32)*spanMemoSize
		va := mem.VAddr(0x7f00_0000_0000 + span<<mem.PageShift2M + uint64(i%8)<<mem.PageShift4K)
		if err := tbl.Map(va, mem.PAddr(0x4000_0000+uint64(i)<<mem.PageShift4K), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va+0x123)
	}
	if err := tbl.Map(0x7f10_0000_0000, 0x8000_0000, mem.Size2M, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x40_0000_0000, 0x1_0000_0000, mem.Size1G, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	return append(vas, 0x7f10_0000_1234, 0x40_1234_5678, // the huge leaves
		0x7f00_0000_0000+32<<mem.PageShift2M, // a span beside a level-1 node
		0x7f20_0000_0000,                     // no level-2 node
		0x1000_0000_0000)                     // no level-3 node
}

// A clone starts with no memo, and its walks never reach the source's
// nodes: after the source's memo is full, the source remaps and marks
// every page, and the clone must still see the table as it was cloned.
func TestCloneWalksNeverReachSourceNodes(t *testing.T) {
	src := newTestTable(t)
	vas := spanTestVAs(t, src)
	want := make([]WalkResult, len(vas))
	for i, va := range vas {
		want[i] = src.Walk(va)
		want[i].Steps = slices.Clone(want[i].Steps)
	}
	clone := src.Clone(BumpAlloc(0x800000), nil)
	if clone.memo != nil {
		t.Fatal("clone carries the source's span memo")
	}
	for _, va := range vas {
		clone.Lookup(va) // fill the clone's memo before the source changes
	}
	for i, va := range vas[:64] {
		base := mem.AlignDown(va, mem.PageBytes4K)
		if err := src.Unmap(base, mem.Size4K); err != nil {
			t.Fatal(err)
		}
		if err := src.Map(base, mem.PAddr(0x9000_0000+uint64(i)<<mem.PageShift4K), mem.Size4K, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, va := range vas {
		src.SetAccessed(va, true)
		src.Walk(va)
	}
	for i, va := range vas {
		got := clone.Walk(va)
		if !slices.Equal(got.Steps, want[i].Steps) || got.PTE != want[i].PTE || got.PA != want[i].PA || got.Size != want[i].Size || got.OK != want[i].OK {
			t.Fatalf("clone walk(%#x) = %+v, want %+v as cloned", uint64(va), got, want[i])
		}
		requireRootWalk(t, clone, va)
	}
	for _, e := range clone.memo {
		if e.tag == 0 {
			continue
		}
		if n, ok := clone.pool.NodeAt(e.node.Base); !ok || n != e.node {
			t.Fatalf("clone memo entry for span %#x holds a node outside the clone's pool", e.tag)
		}
	}
}

// A sealed table walks from the root without a memo, so walks on it race
// neither each other nor Clone. Run under -race.
func TestSealedTableConcurrentWalksAndClones(t *testing.T) {
	tbl := newTestTable(t)
	vas := spanTestVAs(t, tbl)
	want := make([]WalkResult, len(vas))
	for i, va := range vas {
		want[i] = tbl.Walk(va)
		want[i].Steps = slices.Clone(want[i].Steps)
	}
	tbl.Seal()
	if tbl.memo != nil {
		t.Fatal("Seal kept the span memo")
	}
	const goroutines, rounds = 4, 50
	errs := make(chan string, 2*goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(2)
		go func() {
			defer wg.Done()
			steps := make([]Step, 0, mem.Levels5)
			for r := range rounds {
				i := (g + r) % len(vas)
				got := tbl.WalkInto(vas[i], steps[:0])
				pa, size, ok := tbl.Lookup(vas[i])
				if !slices.Equal(got.Steps, want[i].Steps) || got.PA != want[i].PA || pa != want[i].PA || size != want[i].Size || ok != want[i].OK {
					errs <- "sealed walk disagrees with the walk before Seal"
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for range rounds / 10 {
				c := tbl.Clone(BumpAlloc(0x800000), nil)
				if pa, _, _ := c.Lookup(vas[g]); pa != want[g].PA {
					errs <- "clone of a sealed table translates differently"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if tbl.memo != nil {
		t.Fatal("walks on a sealed table filled a span memo")
	}
}
