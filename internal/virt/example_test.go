package virt_test

import (
	"fmt"
	"log"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/tea"
	"dmt/internal/virt"
)

// Example_virtualized stands up a hypervisor and a VM, runs a guest process
// with paravirtualized DMT (gTEAs allocated machine-contiguously through the
// KVM_HC_ALLOC_TEA hypercall), and compares a pvDMT translation (2 memory
// references) against hardware-assisted nested paging (up to 24) and
// against DMT without paravirtualization (3).
//
//	go test ./internal/virt -run Example_virtualized -v
func Example_virtualized() {
	hyp, err := virt.NewHypervisor(1<<18 /* 1 GiB machine memory */, cache.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	vm, err := hyp.NewVM(virt.VMConfig{
		Name:             "vm0",
		RAMBytes:         256 << 20,
		HostDMT:          true,     // host maintains hVMA-to-hTEA mappings
		PvTEAWindowBytes: 32 << 20, // guest-physical window for gTEAs
		ASID:             100,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A guest process whose TEA backend is the hypercall: every gTEA is
	// contiguous in *machine* physical memory (§3.1).
	guest, err := vm.NewGuestProcess(false, 1)
	if err != nil {
		log.Fatal(err)
	}
	gmgr := tea.NewManager(guest, virt.NewHypercallBackend(vm), tea.DefaultConfig(false))
	guest.SetHooks(gmgr)

	heap, err := guest.MMap(0x4000_0000, 96<<20, kernel.VMAHeap, "heap")
	if err != nil {
		log.Fatal(err)
	}
	if err := guest.Populate(heap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gTEA table entries: %d (installed via %d hypercalls)\n",
		vm.GTEA.Len(), hyp.Hypercalls)

	// A second guest process using plain DMT (§3.1 without paravirt):
	// its gTEAs are contiguous in *guest* physical memory only, so a
	// translation takes three references instead of two.
	guest2, err := vm.NewGuestProcess(false, 2)
	if err != nil {
		log.Fatal(err)
	}
	gmgr2 := tea.NewManager(guest2, tea.NewPhysBackend(vm.GuestPhys), tea.DefaultConfig(false))
	guest2.SetHooks(gmgr2)
	heap2, err := guest2.MMap(0x4000_0000, 96<<20, kernel.VMAHeap, "heap")
	if err != nil {
		log.Fatal(err)
	}
	if err := guest2.Populate(heap2); err != nil {
		log.Fatal(err)
	}

	// Three translation designs, all recording their PTE fetches in one
	// sink that the caller resets before each walk.
	sink := &core.RefSink{}
	nested := virt.NewNestedWalker(guest.PT, vm.HostAS.PT, hyp.Hier, 1)
	nested.DisableMMUCaches() // show the architectural worst case
	nested.Sink = sink
	nested2 := virt.NewNestedWalker(guest2.PT, vm.HostAS.PT, hyp.Hier, 2)
	nested2.Sink = sink
	dmtv := &virt.DMTVirtWalker{
		Guest: gmgr2, GuestPool: guest2.Pool,
		Host: vm.HostTEA, HostPool: vm.HostAS.Pool,
		Hier: hyp.Hier, Fallback: nested2, Sink: sink,
	}
	pv := virt.NewPvDMTWalker(vm, gmgr, guest.Pool, hyp.Hier, nested)
	pv.Sink = sink

	va := heap.Start + 0xabc123
	sink.Reset()
	n := nested.Walk(va)
	sink.Reset()
	d := dmtv.Walk(va)
	sink.Reset()
	p := pv.Walk(va)
	fmt.Printf("translate gVA=%#x\n", uint64(va))
	fmt.Printf("  nested paging (no MMU caches): %2d refs -> PA %#x\n", n.SeqSteps, uint64(n.PA))
	fmt.Printf("  DMT (3.1, no paravirt)       : %2d refs (second process)\n", d.SeqSteps)
	fmt.Printf("  pvDMT                        : %2d refs -> PA %#x\n", p.SeqSteps, uint64(p.PA))
	if n.PA != p.PA || !d.OK {
		log.Fatal("designs disagree!")
	}

	// Isolation (§4.5.2): a forged gTEA access faults in the host.
	if _, err := vm.GTEA.Resolve(9999, mem.PAddr(0xdead000)); err == nil {
		log.Fatal("isolation violation went undetected")
	} else {
		fmt.Printf("forged gTEA ID rejected: %v\n", err)
	}

	// Output:
	// gTEA table entries: 1 (installed via 1 hypercalls)
	// translate gVA=0x40abc123
	//   nested paging (no MMU caches): 24 refs -> PA 0x30b42123
	//   DMT (3.1, no paravirt)       :  3 refs (second process)
	//   pvDMT                        :  2 refs -> PA 0x30b42123
	// forged gTEA ID rejected: virt: gTEA isolation violation
}

// Example_nestedVirtualization builds the full L2-on-L1-on-L0 stack of
// §2.1.3 / §3.2, backs an L2 guest process with cascaded pvDMT TEAs, and
// compares the baseline (shadow-compressed nested paging, Figure 3) against
// pvDMT's three direct fetches (Figure 9) — the configuration where
// hardware-assisted translation is otherwise untenable.
//
//	go test ./internal/virt -run Example_nestedVirtualization -v
func Example_nestedVirtualization() {
	hyp, err := virt.NewHypervisor(1<<18 /* 1 GiB */, cache.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// L1: a VM that itself acts as a hypervisor.
	l1, err := hyp.NewVM(virt.VMConfig{
		Name: "L1", RAMBytes: 384 << 20, HostDMT: true,
		PvTEAWindowBytes: 96 << 20, ASID: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	// L2: a VM inside L1. Its host structures live in L1's physical
	// space; its pv-TEAs cascade down to machine memory.
	l2, err := hyp.NewNestedVM(l1, virt.VMConfig{
		Name: "L2", RAMBytes: 128 << 20, HostDMT: true,
		PvTEAWindowBytes: 48 << 20, ASID: 101,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("virtualization depth of L2: %d\n", l2.Depth())

	guest, err := l2.NewGuestProcess(false, 1)
	if err != nil {
		log.Fatal(err)
	}
	gmgr := tea.NewManager(guest, virt.NewHypercallBackend(l2), tea.DefaultConfig(false))
	guest.SetHooks(gmgr)
	heap, err := guest.MMap(0x4000_0000, 48<<20, kernel.VMAHeap, "heap")
	if err != nil {
		log.Fatal(err)
	}
	if err := guest.Populate(heap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hypercalls issued (incl. L2->L1->L0 cascades): %d\n", hyp.Hypercalls)

	// Baseline: the L0 hypervisor compresses L1PT+L0PT into a shadow
	// table (L2PA->L0PA) and the hardware does a 2D walk across it.
	spt, err := virt.BuildNestedShadow(l2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shadow syncs to build the compressed sPT: %d (each a VM exit at runtime)\n", hyp.ShadowSyncs)
	sink := &core.RefSink{}
	baseline := virt.NewNestedWalker(guest.PT, spt, hyp.Hier, 1)
	baseline.DisableMMUCaches()
	baseline.Sink = sink

	// pvDMT: L2VA -> L2PA -> L1PA -> L0PA, one register-file fetch each.
	pv := virt.NewPvDMTNestedWalker(l2, gmgr, guest.Pool, hyp.Hier, baseline)
	pv.Sink = sink

	va := heap.Start + 0x123456
	sink.Reset()
	b := baseline.Walk(va)
	sink.Reset()
	p := pv.Walk(va)
	fmt.Printf("translate L2 VA=%#x\n", uint64(va))
	fmt.Printf("  baseline 2D over sPT (no MMU caches): %2d refs -> L0 PA %#x\n", b.SeqSteps, uint64(b.PA))
	fmt.Printf("  nested pvDMT                        : %2d refs -> L0 PA %#x\n", p.SeqSteps, uint64(p.PA))
	for _, r := range sink.Refs() {
		fmt.Printf("    fetch at %-3s level %d: %3d cycles\n", r.Dim, r.Level, r.Cycles)
	}
	if b.PA != p.PA {
		log.Fatal("designs disagree!")
	}

	// Output:
	// virtualization depth of L2: 2
	// hypercalls issued (incl. L2->L1->L0 cascades): 5
	// shadow syncs to build the compressed sPT: 32792 (each a VM exit at runtime)
	// translate L2 VA=0x40123456
	//   baseline 2D over sPT (no MMU caches): 24 refs -> L0 PA 0x2fdec456
	//   nested pvDMT                        :  3 refs -> L0 PA 0x2fdec456
	//     fetch at L2  level 1:   4 cycles
	//     fetch at L1  level 1: 200 cycles
	//     fetch at L0  level 1: 200 cycles
}
