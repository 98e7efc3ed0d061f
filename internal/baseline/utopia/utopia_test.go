package utopia

import (
	"testing"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
)

func setup(t *testing.T) (*kernel.AddressSpace, *kernel.VMA, *cache.Hierarchy, *Seg) {
	t.Helper()
	a := phys.New(0, 1<<15)
	as, err := kernel.NewAddressSpace(a, kernel.Config{})
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
	seg, err := NewSeg(a, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Sync(as, nil); err != nil {
		t.Fatal(err)
	}
	return as, v, hier, seg
}

func TestSyncLookupMatchesPageTables(t *testing.T) {
	as, v, _, seg := setup(t)
	if seg.Restrictive == 0 {
		t.Fatal("Sync admitted no pages")
	}
	hits := 0
	for off := uint64(0); off < v.Size(); off += mem.PageBytes4K {
		va := v.Start + mem.VAddr(off) + 0x77
		pa, size, ok := seg.Lookup(va)
		if !ok {
			continue
		}
		hits++
		wpa, wsize, wok := as.PT.Lookup(va)
		if !wok || pa != wpa || size != wsize {
			t.Fatalf("%#x: RestSeg says (%#x, %v), page tables say (%#x, %v, %v)",
				va, pa, size, wpa, wsize, wok)
		}
	}
	if hits == 0 {
		t.Fatal("no RestSeg hits across the whole VMA")
	}
}

func TestSetOverflowStaysFlexible(t *testing.T) {
	r := &restSeg{
		sets:   1,
		shift:  mem.PageShift4K,
		tags:   make([]uint64, segWays),
		frames: make([]mem.PAddr, segWays),
	}
	for i := 0; i < segWays; i++ {
		if !r.insert(mem.VAddr(i)<<mem.PageShift4K, mem.PAddr(i)<<mem.PageShift4K) {
			t.Fatalf("insert %d rejected with free ways", i)
		}
	}
	if r.insert(mem.VAddr(segWays)<<mem.PageShift4K, 0x1000) {
		t.Fatal("insert into a full set succeeded; the page must stay flexible")
	}
	// Re-inserting a resident tag updates in place rather than overflowing.
	if !r.insert(0, 0x9000) {
		t.Fatal("re-insert of a resident tag rejected")
	}
	if pa, ok := r.lookup(0); !ok || pa != 0x9000 {
		t.Fatalf("lookup after re-insert = (%#x, %v), want (0x9000, true)", pa, ok)
	}
}

func TestResolveContigRequiresMachineContiguity(t *testing.T) {
	identity := func(pa mem.PAddr) (mem.PAddr, mem.PageSize, bool) { return pa + 0x100000, mem.Size4K, true }
	base, ok := resolveContig(identity, 0x200000, mem.Size2M)
	if !ok || base != 0x300000 {
		t.Fatalf("contiguous resolve = (%#x, %v), want (0x300000, true)", base, ok)
	}
	scattered := func(pa mem.PAddr) (mem.PAddr, mem.PageSize, bool) {
		if pa >= 0x200000+mem.PageBytes4K {
			return pa + 0x40000000, mem.Size4K, true // second half backed elsewhere
		}
		return pa + 0x100000, mem.Size4K, true
	}
	if _, ok := resolveContig(scattered, 0x200000, mem.Size2M); ok {
		t.Fatal("non-contiguous machine backing admitted as restrictive")
	}
	if _, ok := resolveContig(identity, 0x5000, mem.Size4K); !ok {
		t.Fatal("4K page needs no contiguity beyond its own frame")
	}
}

// A host leaf as large as the guest page maps all of it, so resolveContig
// resolves the page once instead of once per 4 KiB piece.
func TestResolveContigTrustsALargeHostLeaf(t *testing.T) {
	for _, leaf := range []mem.PageSize{mem.Size2M, mem.Size1G} {
		calls := 0
		resolve := func(pa mem.PAddr) (mem.PAddr, mem.PageSize, bool) {
			calls++
			return pa + 0x40000000, leaf, true
		}
		base, ok := resolveContig(resolve, 0x200000, mem.Size2M)
		if !ok || base != 0x40200000 || calls != 1 {
			t.Fatalf("%v host leaf: resolve = (%#x, %v) in %d calls, want (0x40200000, true) in 1", leaf, base, ok, calls)
		}
	}
}

// newWalker wires a Utopia walker over seg with a PWC-less radix fallback,
// both recording into one sink.
func newWalker(as *kernel.AddressSpace, hier *cache.Hierarchy, seg *Seg) *Walker {
	sink := &core.RefSink{}
	fb := core.NewRadixWalker(as.PT, hier, nil, 0)
	fb.Sink = sink
	return &Walker{Seg: seg, Hier: hier, Fallback: fb, Sink: sink}
}

// walk resets sink, walks va with w, and returns the outcome with a copy
// of the refs the walk recorded: the caller owns the sink and resets it
// before each walk, as the simulation engine does.
func walk(sink *core.RefSink, w core.Walker, va mem.VAddr) (core.WalkOutcome, []core.MemRef) {
	sink.Reset()
	out := w.Walk(va)
	return out, append([]core.MemRef(nil), sink.Refs()...)
}

// hitAndMiss returns the first restrictive and the first flexible page of v.
func hitAndMiss(t *testing.T, v *kernel.VMA, seg *Seg) (hitVA, missVA mem.VAddr) {
	t.Helper()
	for off := uint64(0); off < v.Size(); off += mem.PageBytes4K {
		va := v.Start + mem.VAddr(off)
		if _, _, ok := seg.Lookup(va); ok && hitVA == 0 {
			hitVA = va
		} else if !ok && missVA == 0 {
			missVA = va
		}
	}
	if hitVA == 0 || missVA == 0 {
		t.Fatalf("need both a restrictive and a flexible page (hit=%#x miss=%#x)", hitVA, missVA)
	}
	return hitVA, missVA
}

func TestWalkerHitIsOneProbeGroupAndMissFallsBack(t *testing.T) {
	as, v, hier, seg := setup(t)
	w := newWalker(as, hier, seg)
	hitVA, missVA := hitAndMiss(t, v, seg)
	out, refs := walk(w.Sink, w, hitVA)
	if !out.OK || out.Fallback || out.SeqSteps != 1 || len(refs) != 2 {
		t.Fatalf("RestSeg hit: OK=%v fallback=%v steps=%d refs=%d, want true/false/1/2",
			out.OK, out.Fallback, out.SeqSteps, len(refs))
	}
	if pa, _, _ := as.PT.Lookup(hitVA); out.PA != pa {
		t.Fatalf("hit PA %#x, page tables say %#x", out.PA, pa)
	}
	out, _ = walk(w.Sink, w, missVA)
	if !out.OK || !out.Fallback {
		t.Fatalf("flexible page: OK=%v fallback=%v, want true/true", out.OK, out.Fallback)
	}
	if pa, _, _ := as.PT.Lookup(missVA); out.PA != pa {
		t.Fatalf("fallback PA %#x, page tables say %#x", out.PA, pa)
	}
	if w.SegHits != 1 || w.Misses != 1 {
		t.Fatalf("seg_hits=%d misses=%d, want 1 and 1", w.SegHits, w.Misses)
	}
}

// TestMissRecordsProbesThenFallbackWalk pins the ref path of a flexible
// page: the shared sink holds the two RestSeg set probes followed by
// exactly the fallback radix walk's fetches.
func TestMissRecordsProbesThenFallbackWalk(t *testing.T) {
	as, v, hier, seg := setup(t)
	w := newWalker(as, hier, seg)
	_, missVA := hitAndMiss(t, v, seg)
	out, refs := walk(w.Sink, w, missVA)
	steps := as.PT.Walk(missVA).Steps
	if len(refs) != 2+len(steps) || out.SeqSteps != 1+len(steps) {
		t.Fatalf("miss recorded %d refs over %d steps, want %d over %d (probe pair + radix walk)",
			len(refs), out.SeqSteps, 2+len(steps), 1+len(steps))
	}
	s4, s2 := seg.Slots(missVA)
	if refs[0].Addr != s4 || refs[1].Addr != s2 {
		t.Fatalf("first refs %#x %#x, want the RestSeg set lines %#x %#x", refs[0].Addr, refs[1].Addr, s4, s2)
	}
	for i, s := range steps {
		if got := refs[2+i]; got.Addr != s.Addr || got.Level != s.Level {
			t.Fatalf("ref %d = %+v, want the radix fetch of level %d at %#x", 2+i, got, s.Level, s.Addr)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	_, v, _, seg := setup(t)
	c := seg.Clone()
	var va mem.VAddr
	for off := uint64(0); off < v.Size(); off += mem.PageBytes4K {
		if _, _, ok := seg.Lookup(v.Start + mem.VAddr(off)); ok {
			va = v.Start + mem.VAddr(off)
			break
		}
	}
	if va == 0 {
		t.Fatal("no restrictive page to test with")
	}
	// Mutating the original must not leak into the clone.
	for i := range seg.seg4k.tags {
		seg.seg4k.tags[i] = 0
	}
	if _, _, ok := seg.Lookup(va); ok {
		t.Fatal("original still resolves after wipe")
	}
	if _, _, ok := c.Lookup(va); !ok {
		t.Fatal("clone lost its entries when the original was wiped")
	}
}
