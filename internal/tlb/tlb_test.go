package tlb

import (
	"testing"
	"testing/quick"

	"dmt/internal/mem"
	"dmt/internal/pagetable"
)

func mustTLB(t testing.TB, cfg Config) *TLB {
	t.Helper()
	tl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestLookupMissThenHit(t *testing.T) {
	tl := mustTLB(t, DefaultConfig())
	va := mem.VAddr(0x7f00_0000_1234)
	if _, _, ok := tl.Lookup(va, 1); ok {
		t.Fatal("cold TLB must miss")
	}
	tl.Insert(va, 0xabc000, mem.Size4K, 1)
	pa, size, ok := tl.Lookup(va, 1)
	if !ok || size != mem.Size4K {
		t.Fatalf("lookup after insert: ok=%v size=%v", ok, size)
	}
	if pa != 0xabc000+mem.PAddr(uint64(va)&0xfff) {
		t.Fatalf("pa = %#x, offset not preserved", uint64(pa))
	}
}

func TestASIDIsolation(t *testing.T) {
	tl := mustTLB(t, DefaultConfig())
	va := mem.VAddr(0x4000_0000)
	tl.Insert(va, 0x111000, mem.Size4K, 1)
	if _, _, ok := tl.Lookup(va, 2); ok {
		t.Fatal("entry leaked across ASIDs")
	}
}

func TestHugePageHit(t *testing.T) {
	tl := mustTLB(t, DefaultConfig())
	base := mem.VAddr(0x4020_0000) // 2 MiB aligned
	tl.Insert(base, 0x8000_0000, mem.Size2M, 3)
	// Any address in the same 2 MiB page must hit, with the offset carried.
	va := base + 0x1234f
	pa, size, ok := tl.Lookup(va, 3)
	if !ok || size != mem.Size2M {
		t.Fatalf("2M lookup: ok=%v size=%v", ok, size)
	}
	if pa != 0x8000_0000+0x1234f {
		t.Fatalf("pa = %#x, want %#x", uint64(pa), uint64(0x8000_0000+0x1234f))
	}
}

func TestInvalidate(t *testing.T) {
	tl := mustTLB(t, DefaultConfig())
	va := mem.VAddr(0x1000)
	tl.Insert(va, 0x2000, mem.Size4K, 0)
	tl.Invalidate(va, 0)
	if _, _, ok := tl.Lookup(va, 0); ok {
		t.Fatal("entry survived Invalidate")
	}
}

func TestFlush(t *testing.T) {
	tl := mustTLB(t, DefaultConfig())
	for i := 0; i < 16; i++ {
		tl.Insert(mem.VAddr(i)<<12, mem.PAddr(i)<<12, mem.Size4K, 0)
	}
	tl.Flush()
	for i := 0; i < 16; i++ {
		if _, _, ok := tl.Lookup(mem.VAddr(i)<<12, 0); ok {
			t.Fatal("entry survived Flush")
		}
	}
}

func TestSTLBPromotion(t *testing.T) {
	tl := mustTLB(t, Config{L1Entries: 4, L1Ways: 4, L2Entries: 64, L2Ways: 4})
	// Insert 16 entries; the tiny L1 retains at most 4, the rest only in L2.
	for i := 0; i < 16; i++ {
		tl.Insert(mem.VAddr(i)<<12, mem.PAddr(0x100+i)<<12, mem.Size4K, 0)
	}
	hitsBefore := tl.L2Hits
	found := 0
	for i := 0; i < 16; i++ {
		if _, _, ok := tl.Lookup(mem.VAddr(i)<<12, 0); ok {
			found++
		}
	}
	if found != 16 {
		t.Fatalf("only %d/16 entries retained in two-level TLB", found)
	}
	if tl.L2Hits == hitsBefore {
		t.Fatal("expected some lookups to be served by the STLB")
	}
}

func TestCapacityEviction(t *testing.T) {
	cfg := DefaultConfig()
	tl := mustTLB(t, cfg)
	n := cfg.L2Entries * 4
	for i := 0; i < n; i++ {
		tl.Insert(mem.VAddr(i)<<12, mem.PAddr(i)<<12, mem.Size4K, 0)
	}
	misses := 0
	for i := 0; i < n; i++ {
		if _, _, ok := tl.Lookup(mem.VAddr(i)<<12, 0); !ok {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("4x-capacity working set must evict entries")
	}
}

// Property: after inserting any translation, an immediate lookup returns
// exactly the inserted frame with the page offset preserved.
func TestInsertLookupProperty(t *testing.T) {
	tl := mustTLB(t, DefaultConfig())
	f := func(rawVA, rawPA uint64, sizeSel uint8, asid uint16) bool {
		size := mem.PageSize(sizeSel % 3)
		va := mem.VAddr(rawVA & ((1 << 48) - 1))
		pa := mem.AlignDownP(mem.PAddr(rawPA&((1<<46)-1)), size.Bytes())
		tl.Insert(va, pa, size, asid)
		got, gotSize, ok := tl.Lookup(va, asid)
		if !ok {
			return false
		}
		// A lookup may be served by a different-size entry inserted
		// earlier for an overlapping page; accept only exact matches
		// when the sizes agree.
		if gotSize != size {
			return true
		}
		return got == pa+mem.PAddr(mem.PageOffset(va, size))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPWCDeepestSkipWins(t *testing.T) {
	p := NewPWC()
	va := mem.VAddr(0x7f3a_b5c6_d7e8)
	p.Insert(va, 4, 0x1000, 0) // after L4: L3 node at 0x1000
	p.Insert(va, 3, 0x2000, 0) // after L3: L2 node at 0x2000
	p.Insert(va, 2, 0x3000, 0) // after L2: L1 node at 0x3000
	node, next, ok := p.Lookup(va, 0)
	if !ok || next != 1 || node != 0x3000 {
		t.Fatalf("Lookup = (%#x, %d, %v), want deepest skip to L1 node", uint64(node), next, ok)
	}
}

func TestPWCPrefixSharing(t *testing.T) {
	p := NewPWC()
	va1 := mem.VAddr(0x7f3a_b5c6_d7e8)
	va2 := va1 + mem.PageBytes4K // same L2-level prefix, different L1 index
	p.Insert(va1, 2, 0x3000, 0)
	node, next, ok := p.Lookup(va2, 0)
	if !ok || next != 1 || node != 0x3000 {
		t.Fatal("PWC must hit for addresses sharing the VA[47:21] prefix")
	}
	va3 := va1 + mem.PageBytes2M // different L2-level prefix
	if _, _, ok := p.Lookup(va3, 0); ok {
		t.Fatal("PWC must miss across 2 MiB prefix boundaries when only L2 cached")
	}
}

// TestPWCSkipRefill checks the walkers' probe/refill pair: a refill from a
// full walk lets the next walk of the same 2 MiB span skip to its L1 step,
// walks elsewhere skip only the steps their shared prefix covers,
// and a nil PWC skips nothing.
func TestPWCSkipRefill(t *testing.T) {
	va := mem.VAddr(0x7f3a_b5c6_d7e8)
	steps := []pagetable.Step{{Level: 4, Addr: 0x1008}, {Level: 3, Addr: 0x2010}, {Level: 2, Addr: 0x3018}, {Level: 1, Addr: 0x4020}}
	var none *PWC
	if got := none.Skip(va, 0, steps); len(got) != 4 {
		t.Fatalf("nil PWC skipped to %v", got)
	}
	none.Refill(va, 0, steps)
	p := NewPWC()
	if got := p.Skip(va, 0, steps); len(got) != 4 || p.Misses != 1 {
		t.Fatalf("cold PWC skipped to %v (misses %d)", got, p.Misses)
	}
	p.Refill(va, 0, steps)
	if got := p.Skip(va+mem.PageBytes4K, 0, steps); len(got) != 1 || got[0].Level != 1 || p.Hits != 1 {
		t.Fatalf("same-span walk skipped to %v (hits %d), want the L1 step", got, p.Hits)
	}
	if node, next, ok := p.Lookup(va, 0); !ok || next != 1 || node != 0x4000 {
		t.Fatalf("refilled L2 entry = (%#x, %d, %v), want the L1 node at 0x4000", uint64(node), next, ok)
	}
	if got := p.Skip(va+mem.PageBytes2M, 0, steps); len(got) != 2 || got[0].Level != 2 {
		t.Fatalf("next-span walk skipped to %v, want from the L2 step", got)
	}
	if got := p.Skip(va+mem.PageBytes1G, 0, steps); len(got) != 3 || got[0].Level != 3 {
		t.Fatalf("next-1GiB walk skipped to %v, want from the L3 step", got)
	}
}

func TestNestedCache(t *testing.T) {
	n := NewNestedCache()
	if _, ok := n.Lookup(0x5000); ok {
		t.Fatal("cold nested cache must miss")
	}
	n.Insert(0x5000, 0x9000)
	hpa, ok := n.Lookup(0x5123)
	if !ok || hpa != 0x9123 {
		t.Fatalf("nested lookup = (%#x, %v), want 0x9123 within same page", uint64(hpa), ok)
	}
	n.Flush()
	if _, ok := n.Lookup(0x5000); ok {
		t.Fatal("entry survived Flush")
	}
}
