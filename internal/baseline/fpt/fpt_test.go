package fpt

import (
	"testing"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
)

func TestMapLookup(t *testing.T) {
	a := phys.New(0, 1<<14)
	tbl, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x40001000, 0xabc000, mem.Size4K); err != nil {
		t.Fatal(err)
	}
	pa, size, ok := tbl.Lookup(0x40001234)
	if !ok || size != mem.Size4K || pa != 0xabc234 {
		t.Fatalf("lookup = (%#x, %v, %v)", uint64(pa), size, ok)
	}
	if _, _, ok := tbl.Lookup(0x40002000); ok {
		t.Fatal("phantom mapping")
	}
	if err := tbl.Map(0x80200000, 0x40200000, mem.Size2M); err != nil {
		t.Fatal(err)
	}
	pa, size, ok = tbl.Lookup(0x80234567)
	if !ok || size != mem.Size2M || pa != 0x40234567 {
		t.Fatalf("2M lookup = (%#x, %v, %v)", uint64(pa), size, ok)
	}
}

// walk resets sink, walks va with w, and returns the outcome with a copy
// of the refs the walk recorded: the caller owns the sink and resets it
// before each walk, as the simulation engine does.
func walk(sink *core.RefSink, w core.Walker, va mem.VAddr) (core.WalkOutcome, []core.MemRef) {
	sink.Reset()
	out := w.Walk(va)
	return out, append([]core.MemRef(nil), sink.Refs()...)
}

func TestNativeWalkerTwoSteps(t *testing.T) {
	a := phys.New(0, 1<<15)
	as, err := kernel.NewAddressSpace(a, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := as.MMap(0x40000000, 8<<20, kernel.VMAHeap, "heap")
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	tbl, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Sync(as); err != nil {
		t.Fatal(err)
	}
	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := &Walker{T: tbl, Hier: hier, Sink: &core.RefSink{}}
	va := v.Start + 0x7123
	out, refs := walk(w.Sink, w, va)
	if !out.OK {
		t.Fatal("FPT walk failed")
	}
	if out.SeqSteps != 2 {
		t.Fatalf("FPT seq steps = %d, want 2 (Table 6)", out.SeqSteps)
	}
	// The root fetch, then the 4K and 2M leaf probes in parallel.
	s4, s2, _ := tbl.LeafSlots(va)
	if len(refs) != 3 || refs[0].Addr != tbl.RootSlot(va) || refs[1].Addr != s4 || refs[2].Addr != s2 {
		t.Fatalf("FPT refs = %+v, want root %#x then leaf probes %#x %#x", refs, tbl.RootSlot(va), s4, s2)
	}
	pa, _, _ := as.PT.Lookup(va)
	if out.PA != pa {
		t.Fatal("FPT PA mismatch")
	}
}

func TestSlotAddressesDistinct(t *testing.T) {
	a := phys.New(0, 1<<14)
	tbl, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x40000000, 0x1000, mem.Size4K); err != nil {
		t.Fatal(err)
	}
	s4, s2, ok := tbl.LeafSlots(0x40000000)
	if !ok || s4 == s2 {
		t.Fatal("leaf slots must be distinct")
	}
	root := tbl.RootSlot(0x40000000)
	if root == s4 || root == s2 {
		t.Fatal("root slot collides with leaf slots")
	}
	// Root slots of addresses 1 GiB apart must differ.
	if tbl.RootSlot(0x40000000) == tbl.RootSlot(0x40000000+1<<30) {
		t.Fatal("root index ignores VA[47:30]")
	}
}

func TestFootprint(t *testing.T) {
	a := phys.New(0, 1<<15)
	tbl, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	base := tbl.FootprintBytes()
	if base != flatEntries*mem.PTEBytes {
		t.Fatalf("empty footprint = %d", base)
	}
	if err := tbl.Map(0x40000000, 0x1000, mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if tbl.FootprintBytes() <= base {
		t.Fatal("leaf allocation not reflected in footprint")
	}
}
