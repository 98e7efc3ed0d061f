package asap

import (
	"testing"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
	"dmt/internal/tlb"
)

func setup(t *testing.T) (*kernel.AddressSpace, *kernel.VMA, *cache.Hierarchy) {
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
	return as, v, hier
}

// newRadix is core.NewRadixWalker recording into a fresh sink.
func newRadix(as *kernel.AddressSpace, hier *cache.Hierarchy, pwc *tlb.PWC) *core.RadixWalker {
	w := core.NewRadixWalker(as.PT, hier, pwc, 0)
	w.Sink = &core.RefSink{}
	return w
}

// walk resets sink, walks va with w, and returns the outcome with a copy
// of the refs the walk recorded: the caller owns the sink and resets it
// before each walk, as the simulation engine does.
func walk(sink *core.RefSink, w core.Walker, va mem.VAddr) (core.WalkOutcome, []core.MemRef) {
	sink.Reset()
	out := w.Walk(va)
	return out, append([]core.MemRef(nil), sink.Refs()...)
}

func oracle(as *kernel.AddressSpace) AddrSource {
	return LastTwoLevelSource(func(va mem.VAddr) []core.MemRef {
		var refs []core.MemRef
		for _, s := range as.PT.Walk(va).Steps {
			refs = append(refs, core.MemRef{Addr: s.Addr, Level: s.Level})
		}
		return refs
	})
}

func TestASAPStillFourReferences(t *testing.T) {
	as, v, hier := setup(t)
	inner := newRadix(as, hier, nil) // no PWC: isolate prefetch effect
	w := &Walker{Inner: inner, Hier: hier, Source: oracle(as)}
	out, refs := walk(inner.Sink, w, v.Start+0x5123)
	if !out.OK {
		t.Fatal("walk failed")
	}
	if out.SeqSteps != 4 || len(refs) != 4 {
		t.Fatalf("ASAP took %d seq steps / %d refs, want 4/4 (prefetching does not shorten the walk)", out.SeqSteps, len(refs))
	}
	if w.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
}

func TestASAPLowersLatencyVsColdRadix(t *testing.T) {
	as, v, hier := setup(t)
	inner := newRadix(as, hier, nil)
	w := &Walker{Inner: inner, Hier: hier, Source: oracle(as)}
	// Pick a VA whose prefetch hash hits for both levels.
	var va mem.VAddr
	for off := uint64(0); off < v.Size(); off += 1 << 12 {
		cand := v.Start + mem.VAddr(off)
		if hit(cand, 0) && hit(cand, 1) {
			va = cand
			break
		}
	}
	if va == 0 {
		t.Fatal("no fully-hitting VA found")
	}
	pref, _ := walk(inner.Sink, w, va)

	as2, v2, hier2 := setup(t)
	cold := newRadix(as2, hier2, nil)
	out2, _ := walk(cold.Sink, cold, v2.Start+(va-v.Start))
	if pref.Cycles >= out2.Cycles {
		t.Fatalf("prefetched walk (%d cyc) not faster than cold walk (%d cyc)", pref.Cycles, out2.Cycles)
	}
}

func TestASAPConsumesBandwidth(t *testing.T) {
	as, v, hier := setup(t)
	inner := newRadix(as, hier, tlb.NewPWC())
	w := &Walker{Inner: inner, Hier: hier, Source: oracle(as)}
	before := hier.MemFetches
	walk(inner.Sink, w, v.Start)
	if hier.MemFetches <= before {
		t.Fatal("prefetches consumed no memory bandwidth")
	}
}

func TestASAPAccuracyIsDeterministic(t *testing.T) {
	hits := 0
	for i := 0; i < 10000; i++ {
		if hit(mem.VAddr(i)<<12, 0) {
			hits++
		}
	}
	frac := float64(hits) / 10000
	if frac < Accuracy-0.05 || frac > Accuracy+0.05 {
		t.Fatalf("hit fraction %.3f far from accuracy %.2f", frac, Accuracy)
	}
	// Determinism: same VA, same result.
	if hit(0x1234000, 1) != hit(0x1234000, 1) {
		t.Fatal("hit() nondeterministic")
	}
}
