package agile

import (
	"slices"
	"testing"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/tea"
	"dmt/internal/virt"
)

func setup(t *testing.T, thp bool) (*virt.VM, *kernel.AddressSpace, *kernel.VMA, *virt.Hypervisor) {
	t.Helper()
	hyp, err := virt.NewHypervisor(1<<16, cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vm, err := hyp.NewVM(virt.VMConfig{Name: "vm", RAMBytes: 64 << 20, HostTHP: thp, ASID: 9})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := vm.NewGuestProcess(thp, 1)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := guest.MMap(0x40000000, 16<<20, kernel.VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Populate(heap); err != nil {
		t.Fatal(err)
	}
	return vm, guest, heap, hyp
}

// newWalker is NewWalker over a fresh nested walker recording into a
// fresh sink.
func newWalker(m *Mirror, guest *kernel.AddressSpace, vm *virt.VM) *Walker {
	nw := virt.NewNestedWalker(guest.PT, vm.HostAS.PT, vm.Hyp.Hier, 1)
	nw.Sink = &core.RefSink{}
	return NewWalker(m, nw)
}

// walk resets sink, walks va with w, and returns the outcome with a copy
// of the refs the walk recorded: the caller owns the sink and resets it
// before each walk, as the simulation engine does.
func walk(sink *core.RefSink, w core.Walker, va mem.VAddr) (core.WalkOutcome, []core.MemRef) {
	sink.Reset()
	out := w.Walk(va)
	return out, append([]core.MemRef(nil), sink.Refs()...)
}

func TestAgileWalkCorrectness(t *testing.T) {
	vm, guest, heap, _ := setup(t, false)
	m, err := BuildMirror(vm, guest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Syncs == 0 {
		t.Fatal("mirror recorded no shadow syncs")
	}
	w := newWalker(m, guest, vm)
	for off := uint64(0); off < heap.Size(); off += 251 << 12 {
		va := heap.Start + mem.VAddr(off)
		out, _ := walk(w.Nested.Sink, w, va)
		if !out.OK {
			t.Fatalf("agile walk faulted at %#x", uint64(va))
		}
		gpa, _, _ := guest.PT.Lookup(va)
		want, _ := vm.MachineAddr(gpa)
		if out.PA != want {
			t.Fatalf("agile PA %#x != truth %#x", uint64(out.PA), uint64(want))
		}
	}
}

func TestAgileRefCountBetweenShadowAndNested(t *testing.T) {
	vm, guest, heap, _ := setup(t, false)
	m, err := BuildMirror(vm, guest)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(m, guest, vm)
	out, refs := walk(w.Nested.Sink, w, heap.Start+0x3123)
	// Cold agile walk: 3 shadow + 1 guest level host-resolved (≤5) +
	// final host walk (≤4): between 4 (all cached) and 12 — inside the
	// paper's 4–24 span.
	if out.SeqSteps < 4 || out.SeqSteps > 12 {
		t.Fatalf("agile refs = %d, want within [4,12] (Table 6: 4-24)", out.SeqSteps)
	}
	if len(refs) != out.SeqSteps {
		t.Fatalf("agile recorded %d refs over %d sequential steps, want one each", len(refs), out.SeqSteps)
	}
	// Shadowed upper levels contribute exactly 3 "s" refs (L4..L2).
	shadow := 0
	for _, r := range refs {
		if r.Dim == "s" {
			shadow++
		}
	}
	if shadow != 3 {
		t.Fatalf("shadow refs = %d, want 3 (L4..L2 shadowed)", shadow)
	}
}

func TestAgileCheaperThanNestedColdButPricierThanPvDMT(t *testing.T) {
	vm, guest, heap, hyp := setup(t, false)
	m, err := BuildMirror(vm, guest)
	if err != nil {
		t.Fatal(err)
	}
	agile := newWalker(m, guest, vm)
	nested := virt.NewNestedWalker(guest.PT, vm.HostAS.PT, hyp.Hier, 2)
	nested.DisableMMUCaches()
	nested.Sink = agile.Nested.Sink
	va := heap.Start + 0x9123
	aout, _ := walk(agile.Nested.Sink, agile, va)
	hyp.Hier.Flush()
	nout, _ := walk(nested.Sink, nested, va)
	if aout.SeqSteps >= nout.SeqSteps {
		t.Fatalf("agile (%d refs) not cheaper than uncached nested (%d refs)", aout.SeqSteps, nout.SeqSteps)
	}
	_ = tea.DefaultRegisters // keep import symmetry with other baseline tests
}

// TestAgileCounterSet pins agile's counters to its own six names: the
// nested walker it runs on emits nothing under agile, and counter names
// enter the seed-11 digests.
func TestAgileCounterSet(t *testing.T) {
	vm, guest, heap, _ := setup(t, false)
	m, err := BuildMirror(vm, guest)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(m, guest, vm)
	walk(w.Nested.Sink, w, heap.Start)
	var got []string
	core.EmitChained(w, func(name string, _ uint64) { got = append(got, name) })
	want := []string{
		"agile.walks", "agile.mirror_syncs",
		"agile.host_pwc_hits", "agile.host_pwc_misses",
		"agile.ncache_hits", "agile.ncache_misses",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("agile counters %v, want %v", got, want)
	}
}
