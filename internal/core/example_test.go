package core_test

import (
	"fmt"
	"log"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/phys"
	"dmt/internal/tea"
	"dmt/internal/tlb"
)

// Example_quickstart builds a native machine, maps a heap with DMT's TEA
// management, and translates one address with the DMT fetcher (a single
// memory reference) and the x86 radix walker (four).
//
//	go test ./internal/core -run Example_quickstart -v
func Example_quickstart() {
	// 1 GiB of simulated physical memory managed by a buddy allocator.
	pa := phys.New(0, 1<<18)

	// A process address space. Installing the TEA manager *before*
	// creating VMAs lets it allocate a Translation Entry Area for each
	// mapping and place last-level page-table nodes inside it.
	as, err := kernel.NewAddressSpace(pa, kernel.Config{ASID: 1})
	if err != nil {
		log.Fatal(err)
	}
	mgr := tea.NewManager(as, tea.NewPhysBackend(pa), tea.DefaultConfig(false))
	as.SetHooks(mgr)

	// A 256 MiB heap, fully populated (data-intensive workloads allocate
	// at initialization time — §7 of the paper).
	heap, err := as.MMap(0x4000_0000, 256<<20, kernel.VMAHeap, "heap")
	if err != nil {
		log.Fatal(err)
	}
	if err := as.Populate(heap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heap: %v\n", heap)
	fmt.Printf("TEA manager: %v\n", mgr)

	// The memory hierarchy (Table 3 configuration) and the two walkers:
	// the legacy x86 radix walker and the DMT fetcher.
	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	radix := core.NewRadixWalker(as.PT, hier, tlb.NewPWC(), as.ASID())
	dmt := core.NewDMTWalker(mgr, as.Pool, hier, radix)

	va := heap.Start + 0x1234_567
	d := dmt.Walk(va)
	x := radix.Walk(va)
	fmt.Printf("translate va=%#x\n", uint64(va))
	fmt.Printf("  DMT fetcher : PA=%#x  %d memory reference(s), %d cycles\n",
		uint64(d.PA), d.SeqSteps, d.Cycles)
	fmt.Printf("  x86 walker  : PA=%#x  %d memory reference(s), %d cycles\n",
		uint64(x.PA), x.SeqSteps, x.Cycles)
	if d.PA != x.PA {
		log.Fatal("walkers disagree!")
	}

	// Behind an MMU (TLB front-end), repeated translations are free.
	dtlb, err := tlb.New(tlb.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	mmu := core.NewMMU(dtlb, dmt, as.ASID())
	if _, cycles, ok := mmu.Translate(va); !ok || cycles == 0 {
		log.Fatal("first translation should walk")
	}
	_, cycles, _ := mmu.Translate(va)
	fmt.Printf("  second translation via TLB: %d extra cycles\n", cycles)
	fmt.Printf("DMT register coverage: %.1f%%\n", dmt.Coverage()*100)

	// Output:
	// heap: heap [0x40000000,0x50000000) heap
	// TEA manager: tea.Manager{mappings=1, regs=16, live=128 frames}
	// translate va=0x41234567
	//   DMT fetcher : PA=0x3eeb7567  1 memory reference(s), 201 cycles
	//   x86 walker  : PA=0x3eeb7567  4 memory reference(s), 605 cycles
	//   second translation via TLB: 0 extra cycles
	// DMT register coverage: 100.0%
}
