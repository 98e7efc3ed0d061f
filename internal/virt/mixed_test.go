package virt

import (
	"testing"

	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
	"dmt/internal/tea"
)

// TestMixedPageSizesAcrossDimensions checks the 2D walker when the guest
// uses 4K pages but the host backs RAM with 2M mappings (the common KVM
// deployment): walk depth shortens on the host side only and the combined
// translation stays correct at 4K granularity.
func TestMixedPageSizesAcrossDimensions(t *testing.T) {
	hyp := mustHyp(t, 1<<16)
	vm, err := hyp.NewVM(VMConfig{Name: "vm", RAMBytes: 64 << 20, HostTHP: true, ASID: 3})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := vm.NewGuestProcess(false /* guest 4K */, 1)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := guest.MMap(0x40000000, 8<<20, kernel.VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Populate(heap); err != nil {
		t.Fatal(err)
	}
	w := newNested(guest.PT, vm.HostAS.PT, hyp.Hier, 3)
	w.DisableMMUCaches()
	out, _ := walk(w.Sink, w, heap.Start+0x6123)
	if !out.OK {
		t.Fatal("mixed walk faulted")
	}
	if out.Size != mem.Size4K {
		t.Fatalf("combined size = %v, want guest granularity 4K", out.Size)
	}
	// 4 guest levels x (3-level host walks + fetch) + 3 final = 19.
	if out.SeqSteps != 19 {
		t.Fatalf("mixed 2D walk took %d refs, want 19 (host walks are 3-deep under 2M backing)", out.SeqSteps)
	}
	gpa, _, _ := guest.PT.Lookup(heap.Start + 0x6123)
	want, _ := vm.MachineAddr(gpa)
	if out.PA != want {
		t.Fatal("mixed walk PA mismatch")
	}
}

// TestPvDMTGuest4KHost2M checks pvDMT with asymmetric page sizes: guest 4K
// TEAs, host 2M TEAs — still exactly two references.
func TestPvDMTGuest4KHost2M(t *testing.T) {
	hyp := mustHyp(t, 1<<16)
	vm, err := hyp.NewVM(VMConfig{
		Name: "vm", RAMBytes: 64 << 20, HostTHP: true, HostDMT: true,
		ASID: 3, PvTEAWindowBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := vm.NewGuestProcess(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	gmgr := tea.NewManager(guest, NewHypercallBackend(vm), tea.DefaultConfig(false))
	guest.SetHooks(gmgr)
	heap, err := guest.MMap(0x40000000, 8<<20, kernel.VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Populate(heap); err != nil {
		t.Fatal(err)
	}
	fb := newNested(guest.PT, vm.HostAS.PT, hyp.Hier, 3)
	w := newPv(vm, gmgr, guest.Pool, hyp.Hier, fb)
	out, _ := walk(w.Sink, w, heap.Start+0x2123)
	if !out.OK || out.Fallback {
		t.Fatalf("asymmetric pvDMT: ok=%v fallback=%v", out.OK, out.Fallback)
	}
	if out.SeqSteps != 2 {
		t.Fatalf("asymmetric pvDMT took %d refs, want 2", out.SeqSteps)
	}
	gpa, _, _ := guest.PT.Lookup(heap.Start + 0x2123)
	want, _ := vm.MachineAddr(gpa)
	if out.PA != want {
		t.Fatal("asymmetric pvDMT PA mismatch")
	}
}

// TestHypercallWindowExhaustion verifies graceful failure when the pv-TEA
// window runs out: the hypercall reports ErrNoTEA and the manager's
// mapping creation degrades to the fallback path instead of corrupting
// state.
func TestHypercallWindowExhaustion(t *testing.T) {
	hyp := mustHyp(t, 1<<16)
	vm, err := hyp.NewVM(VMConfig{
		Name: "vm", RAMBytes: 64 << 20, HostDMT: true,
		ASID: 3, PvTEAWindowBytes: 2 << 20, // tiny window: 512 TEA frames
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, fail := 0, 0
	for i := 0; i < 8; i++ {
		if _, err := vm.AllocPvTEA(128); err != nil {
			fail++
		} else {
			ok++
		}
	}
	if ok != 4 || fail != 4 {
		t.Fatalf("window exhaustion: ok=%d fail=%d, want 4/4", ok, fail)
	}
	// A guest whose TEA allocations all fail must still run correctly
	// via the legacy walker (coverage 0, correctness preserved).
	guest, err := vm.NewGuestProcess(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	gmgr := tea.NewManager(guest, NewHypercallBackend(vm), tea.DefaultConfig(false))
	guest.SetHooks(gmgr)
	heap, err := guest.MMap(0x40000000, 4<<20, kernel.VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Populate(heap); err != nil {
		t.Fatal(err)
	}
	fb := newNested(guest.PT, vm.HostAS.PT, hyp.Hier, 3)
	w := newPv(vm, gmgr, guest.Pool, hyp.Hier, fb)
	out, _ := walk(w.Sink, w, heap.Start+0x1123)
	if !out.OK {
		t.Fatal("translation must still succeed via fallback")
	}
	gpa, _, _ := guest.PT.Lookup(heap.Start + 0x1123)
	want, _ := vm.MachineAddr(gpa)
	if out.PA != want {
		t.Fatal("fallback PA mismatch")
	}
}

// TestMapResident verifies the vm_insert_pages analogue: resident frames
// are not returned to the address space's allocator on unmap.
func TestMapResident(t *testing.T) {
	hyp := mustHyp(t, 1<<16)
	vm, err := hyp.NewVM(VMConfig{Name: "vm", RAMBytes: 32 << 20, ASID: 3, PvTEAWindowBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	hostFree := hyp.MachinePhys.FreeFrames()
	region, err := vm.AllocPvTEA(16)
	if err != nil {
		t.Fatal(err)
	}
	used := hostFree - hyp.MachinePhys.FreeFrames()
	if used < 16 || used > 20 {
		t.Fatalf("host frames consumed = %d, want 16 TEA frames (+ a few host PT nodes)", used)
	}
	// The window mapping resolves every page to the host region.
	for i := 0; i < region.Frames; i++ {
		gpa := region.NodeBase + mem.PAddr(i<<mem.PageShift4K)
		m, ok := vm.MachineAddr(gpa)
		if !ok || m != region.FetchBase+mem.PAddr(i<<mem.PageShift4K) {
			t.Fatalf("window page %d resolves to %#x", i, uint64(m))
		}
	}
}

// TestCrossVMGTEAIsolation verifies that a register forged to carry another
// VM's gTEA ID cannot read that VM's TEAs: IDs resolve only against the
// owning VM's table (per-VM gTEA tables, §4.5.2), and out-of-table IDs
// fault.
func TestCrossVMGTEAIsolation(t *testing.T) {
	hyp := mustHyp(t, 1<<17)
	mkVM := func(name string, asid uint16) (*VM, *kernel.AddressSpace, *tea.Manager, *kernel.VMA) {
		vm, err := hyp.NewVM(VMConfig{Name: name, RAMBytes: 64 << 20, HostDMT: true, ASID: asid, PvTEAWindowBytes: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		guest, err := vm.NewGuestProcess(false, 1)
		if err != nil {
			t.Fatal(err)
		}
		mgr := tea.NewManager(guest, NewHypercallBackend(vm), tea.DefaultConfig(false))
		guest.SetHooks(mgr)
		heap, err := guest.MMap(0x40000000, 8<<20, kernel.VMAHeap, "heap")
		if err != nil {
			t.Fatal(err)
		}
		if err := guest.Populate(heap); err != nil {
			t.Fatal(err)
		}
		return vm, guest, mgr, heap
	}
	vm1, _, mgr1, _ := mkVM("vm1", 10)
	vm2, _, _, _ := mkVM("vm2", 20)

	// vm1's TEA region resolves in vm1's table...
	reg := mgr1.Registers()[0]
	fetch := reg.PTEAddr(mem.Size4K)(reg.Base)
	if _, err := vm1.GTEA.Resolve(reg.GTEAID[mem.Size4K], fetch); err != nil {
		t.Fatalf("own-table resolve failed: %v", err)
	}
	// ...but the same (ID, address) against vm2's table must fault:
	// either the ID is out of range or the bounds don't contain vm1's
	// machine region.
	if gpa, err := vm2.GTEA.Resolve(reg.GTEAID[mem.Size4K], fetch); err == nil {
		// The only non-fault outcome allowed is a *different* region of
		// vm2's own (no cross-VM leakage of vm1's PTE bytes): the
		// resolved gPA must not map back to vm1's machine region.
		m, ok := vm2.MachineAddr(gpa)
		if ok && m == fetch {
			t.Fatal("vm2's table resolved vm1's TEA bytes — cross-VM leak")
		}
	}
}

// TestNoCopyCoherenceThroughMigration verifies the §3 no-copy property end
// to end: when the host migrates the machine frame backing a guest page
// (rewriting the hPTE in place), the very next pvDMT walk observes the new
// frame — there is no stale TEA-side copy to invalidate.
func TestNoCopyCoherenceThroughMigration(t *testing.T) {
	hyp := mustHyp(t, 1<<16)
	vm, err := hyp.NewVM(VMConfig{
		Name: "vm", RAMBytes: 64 << 20, HostDMT: true,
		ASID: 5, PvTEAWindowBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := vm.NewGuestProcess(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	gmgr := tea.NewManager(guest, NewHypercallBackend(vm), tea.DefaultConfig(false))
	guest.SetHooks(gmgr)
	heap, err := guest.MMap(0x40000000, 8<<20, kernel.VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Populate(heap); err != nil {
		t.Fatal(err)
	}
	fb := newNested(guest.PT, vm.HostAS.PT, hyp.Hier, 5)
	w := newPv(vm, gmgr, guest.Pool, hyp.Hier, fb)

	va := heap.Start + 0x4123
	before, _ := walk(w.Sink, w, va)
	if !before.OK {
		t.Fatal("initial walk failed")
	}
	// Host-side migration of the machine frame backing this guest page.
	oldFrame := mem.AlignDownP(before.PA, mem.PageBytes4K)
	newFrame, err := hyp.MachinePhys.AllocFrame(phys.KindMovable)
	if err != nil {
		t.Fatal(err)
	}
	if !vm.HostAS.Relocate(oldFrame, newFrame) {
		t.Fatal("host refused to migrate the frame")
	}
	after, _ := walk(w.Sink, w, va)
	if !after.OK || after.Fallback {
		t.Fatal("post-migration walk failed")
	}
	if mem.AlignDownP(after.PA, mem.PageBytes4K) != newFrame {
		t.Fatalf("pvDMT still sees the old frame %#x (want %#x): stale copy!",
			uint64(after.PA), uint64(newFrame))
	}
	// And the guest-side analogue: the guest migrates a guest-physical
	// frame; the gPTE is rewritten in the TEA-resident node, visible at
	// the next fetch.
	gOld, _, _ := guest.PT.Lookup(va)
	gOldFrame := mem.AlignDownP(gOld, mem.PageBytes4K)
	gNew, err := vm.GuestPhys.AllocFrame(phys.KindMovable)
	if err != nil {
		t.Fatal(err)
	}
	if !guest.Relocate(gOldFrame, gNew) {
		t.Fatal("guest refused to migrate the frame")
	}
	final, _ := walk(w.Sink, w, va)
	wantMachine, ok := vm.MachineAddr(gNew + mem.PAddr(mem.PageOffset(va, mem.Size4K)))
	if !ok {
		t.Fatal("new guest frame unbacked")
	}
	if !final.OK || final.PA != wantMachine {
		t.Fatalf("pvDMT PA %#x after guest migration, want %#x", uint64(final.PA), uint64(wantMachine))
	}
}
