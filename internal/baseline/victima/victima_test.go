package victima

import (
	"testing"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
)

func setup(t *testing.T, thp bool) (*kernel.AddressSpace, *kernel.VMA, *cache.Hierarchy, *Walker) {
	t.Helper()
	a := phys.New(0, 1<<15)
	as, err := kernel.NewAddressSpace(a, kernel.Config{THP: thp})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := as.MMap(0x40000000, 16<<20, kernel.VMAHeap, "heap")
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(a, hier.Config().L2)
	if err != nil {
		t.Fatal(err)
	}
	sink := &core.RefSink{}
	inner := core.NewRadixWalker(as.PT, hier, nil, 0)
	inner.Sink = sink
	return as, v, hier, NewWalker(store, hier, inner, sink)
}

// walk resets sink, walks va with w, and returns the outcome with a copy
// of the refs the walk recorded: the caller owns the sink and resets it
// before each walk, as the simulation engine does.
func walk(sink *core.RefSink, w core.Walker, va mem.VAddr) (core.WalkOutcome, []core.MemRef) {
	sink.Reset()
	out := w.Walk(va)
	return out, append([]core.MemRef(nil), sink.Refs()...)
}

func TestSpillHitAfterFill(t *testing.T) {
	as, v, hier, w := setup(t, false)
	va := v.Start + 0x3042
	first, _ := walk(w.Sink, w, va)
	if !first.OK || w.SpillHits != 0 || w.Fills != 1 {
		t.Fatalf("cold walk: OK=%v spill_hits=%d fills=%d", first.OK, w.SpillHits, w.Fills)
	}
	second, _ := walk(w.Sink, w, va)
	if !second.OK || w.SpillHits != 1 {
		t.Fatalf("warm walk: OK=%v spill_hits=%d", second.OK, w.SpillHits)
	}
	if want := hier.Config().L2.LatencyRT; second.Cycles != want {
		t.Fatalf("spill hit cost %d cycles, want one L2 round-trip (%d)", second.Cycles, want)
	}
	if second.SeqSteps != 1 {
		t.Fatalf("spill hit took %d sequential steps, want 1", second.SeqSteps)
	}
	pa, size, ok := as.PT.Lookup(va)
	if !ok || second.PA != pa || second.Size != size {
		t.Fatalf("spill hit = (%#x, %v), page tables say (%#x, %v)", second.PA, second.Size, pa, size)
	}
}

func TestDataTrafficEvictionDropsSpilledTranslations(t *testing.T) {
	_, v, hier, w := setup(t, false)
	va := v.Start + 0x8000
	walk(w.Sink, w, va)
	// Stream data lines through the hierarchy: four L2 capacities of
	// distinct addresses force the spill block out of the shared LRU array.
	l2 := hier.Config().L2
	for off := 0; off < 4*l2.SizeBytes; off += mem.CacheLineBytes {
		hier.Access(mem.PAddr(1<<30 + off))
	}
	out, _ := walk(w.Sink, w, va)
	if !out.OK {
		t.Fatal("post-eviction walk failed")
	}
	if w.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (data traffic must drop the block)", w.Evictions)
	}
	if w.SpillHits != 0 {
		t.Fatalf("spill_hits = %d after eviction, want 0", w.SpillHits)
	}
}

func TestFlushDropsSpilledState(t *testing.T) {
	_, v, _, w := setup(t, false)
	va := v.Start + 0x11000
	walk(w.Sink, w, va)
	w.Flush()
	out, _ := walk(w.Sink, w, va)
	if !out.OK {
		t.Fatal("post-flush walk failed")
	}
	if w.SpillHits != 0 || w.Misses != 2 {
		t.Fatalf("after flush: spill_hits=%d misses=%d, want 0 and 2", w.SpillHits, w.Misses)
	}
}

func Test2MLeafReconstructedFromSpillEntry(t *testing.T) {
	as, v, _, w := setup(t, true)
	// An offset deep inside a 2 MiB page: the 4 KiB-granule spill entry
	// records the true leaf size, so the hit must rebuild the exact PA.
	va := v.Start + 5<<12 + 0x123
	first, _ := walk(w.Sink, w, va)
	if !first.OK {
		t.Fatal("cold walk failed")
	}
	if first.Size != mem.Size2M {
		t.Skipf("THP populate did not map 2M pages (got %v)", first.Size)
	}
	second, _ := walk(w.Sink, w, va)
	if w.SpillHits != 1 {
		t.Fatalf("spill_hits = %d, want 1", w.SpillHits)
	}
	pa, size, ok := as.PT.Lookup(va)
	if !ok || second.PA != pa || second.Size != size {
		t.Fatalf("spill hit = (%#x, %v), page tables say (%#x, %v)", second.PA, second.Size, pa, size)
	}
}

// TestColdMissRecordsProbeThenInnerWalk pins the ref path of a spill miss:
// the shared sink holds the spill-block probe followed by exactly the
// inner radix walk's fetches, and the outcome counts one sequential step
// per ref (no PWC, so 1 + 4).
func TestColdMissRecordsProbeThenInnerWalk(t *testing.T) {
	as, v, hier, w := setup(t, false)
	va := v.Start + 0x5123
	out, refs := walk(w.Sink, w, va)
	if !out.OK || w.Misses != 1 {
		t.Fatalf("cold walk: OK=%v misses=%d", out.OK, w.Misses)
	}
	steps := as.PT.Walk(va).Steps
	if len(refs) != 1+len(steps) || out.SeqSteps != len(refs) {
		t.Fatalf("cold miss recorded %d refs over %d steps, want %d over %d (probe + radix walk)",
			len(refs), out.SeqSteps, 1+len(steps), 1+len(steps))
	}
	// A cold miss probes way 0 of va's spill set.
	tag := uint64(va) >> blockShift
	probe := w.Store.BlockAddr(int(tag%uint64(w.Store.sets)), 0)
	if refs[0].Addr != probe || refs[0].Cycles != hier.Config().L2.LatencyRT {
		t.Fatalf("first ref is not the spill-block probe at %#x: %+v", probe, refs[0])
	}
	for i, s := range steps {
		if got := refs[1+i]; got.Addr != s.Addr || got.Level != s.Level {
			t.Fatalf("ref %d = %+v, want the radix fetch of level %d at %#x", 1+i, got, s.Level, s.Addr)
		}
	}
}
