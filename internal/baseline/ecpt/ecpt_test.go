package ecpt

import (
	"math/rand"
	"testing"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
)

func TestInsertLookupRemove(t *testing.T) {
	a := phys.New(0, 1<<14)
	tbl, err := NewTable(mem.Size4K, 512, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := tbl.Insert(i*7, mem.MakePTE(mem.PAddr(i)<<12, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 100; i++ {
		pte, ok := tbl.Lookup(i * 7)
		if !ok || pte.Frame() != mem.PAddr(i)<<12 {
			t.Fatalf("lookup %d: ok=%v frame=%#x", i, ok, uint64(pte.Frame()))
		}
	}
	if _, ok := tbl.Lookup(3); ok {
		t.Fatal("phantom entry")
	}
	tbl.Remove(7)
	if _, ok := tbl.Lookup(7); ok {
		t.Fatal("entry survived Remove")
	}
	if tbl.Count() != 99 {
		t.Fatalf("count = %d, want 99", tbl.Count())
	}
}

func TestElasticResize(t *testing.T) {
	a := phys.New(0, 1<<15)
	tbl, err := NewTable(mem.Size4K, 256, a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := map[uint64]mem.PAddr{}
	for i := 0; i < 5000; i++ {
		vpn := rng.Uint64() >> 20
		if _, dup := want[vpn]; dup {
			continue
		}
		pa := mem.PAddr(uint64(i+1)) << 12
		if err := tbl.Insert(vpn, mem.MakePTE(pa, 0)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		want[vpn] = pa
	}
	if tbl.Resizes == 0 {
		t.Fatal("expected elastic resizes under load")
	}
	for vpn, pa := range want {
		pte, ok := tbl.Lookup(vpn)
		if !ok || pte.Frame() != pa {
			t.Fatalf("post-resize lookup %#x failed", vpn)
		}
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

func TestNativeWalkerSingleStep(t *testing.T) {
	a := phys.New(0, 1<<15)
	as, err := kernel.NewAddressSpace(a, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := as.MMap(0x40000000, 8<<20, kernel.VMAHeap, "heap")
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(a, []mem.PageSize{mem.Size4K}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Sync(as); err != nil {
		t.Fatal(err)
	}
	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := &Walker{Sys: sys, Hier: hier, Sink: &core.RefSink{}}
	va := v.Start + 0x5123
	out, refs := walk(w.Sink, w, va)
	if !out.OK {
		t.Fatal("ECPT walk failed")
	}
	if out.SeqSteps != 1 {
		t.Fatalf("ECPT seq steps = %d, want 1 (Table 6)", out.SeqSteps)
	}
	if len(refs) != Ways {
		t.Fatalf("refs = %d, want %d parallel ways", len(refs), Ways)
	}
	pa, _, _ := as.PT.Lookup(va)
	if out.PA != pa {
		t.Fatal("ECPT PA mismatch")
	}
	if out.Cycles < HashCycles {
		t.Fatal("hash cost not charged")
	}
}

func TestNativeWalkerTHPFanout(t *testing.T) {
	a := phys.New(0, 1<<15)
	as, err := kernel.NewAddressSpace(a, kernel.Config{THP: true})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := as.MMap(0x40000000, 16<<20, kernel.VMAHeap, "heap")
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(a, []mem.PageSize{mem.Size4K, mem.Size2M}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Sync(as); err != nil {
		t.Fatal(err)
	}
	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := &Walker{Sys: sys, Hier: hier, Sink: &core.RefSink{}}
	out, refs := walk(w.Sink, w, v.Start+0x212345)
	if !out.OK || out.Size != mem.Size2M {
		t.Fatalf("THP ECPT: ok=%v size=%v", out.OK, out.Size)
	}
	if out.SeqSteps != 1 || len(refs) != 2*Ways {
		t.Fatalf("THP ECPT: steps=%d refs=%d, want 1 step with %d parallel", out.SeqSteps, len(refs), 2*Ways)
	}
}
