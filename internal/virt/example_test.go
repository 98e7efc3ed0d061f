package virt_test

import (
	"fmt"
	"log"

	"dmt/internal/cache"
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

	// Three translation designs.
	nested := virt.NewNestedWalker(guest.PT, vm.HostAS.PT, hyp.Hier, 1)
	nested.DisableMMUCaches() // show the architectural worst case
	nested2 := virt.NewNestedWalker(guest2.PT, vm.HostAS.PT, hyp.Hier, 2)
	dmtv := &virt.DMTVirtWalker{
		Guest: gmgr2, GuestPool: guest2.Pool,
		Host: vm.HostTEA, HostPool: vm.HostAS.Pool,
		Hier: hyp.Hier, Fallback: nested2,
	}
	pv := virt.NewPvDMTWalker(vm, gmgr, guest.Pool, hyp.Hier, nested)

	va := heap.Start + 0xabc123
	n := nested.Walk(va)
	d := dmtv.Walk(va)
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
