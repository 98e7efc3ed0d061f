package core_test

import (
	"fmt"
	"log"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
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
	// the legacy x86 radix walker and the DMT fetcher. Every walker records
	// its PTE fetches in a sink, which the caller resets before each direct
	// walk (an MMU resets it before each of its own).
	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sink := &core.RefSink{}
	radix := core.NewRadixWalker(as.PT, hier, tlb.NewPWC(), as.ASID())
	radix.Sink = sink
	dmt := core.NewDMTWalker(mgr, as.Pool, hier, radix)
	dmt.Sink = sink

	va := heap.Start + 0x1234_567
	sink.Reset()
	d := dmt.Walk(va)
	sink.Reset()
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
	mmu := core.NewMMU(dtlb, dmt, sink, as.ASID())
	if _, cycles, ok := mmu.Translate(va); !ok || cycles == 0 {
		log.Fatal("first translation should walk")
	}
	_, cycles, _ := mmu.Translate(va)
	fmt.Printf("  second translation via TLB: %d extra cycles\n", cycles)
	hits, total := dmt.CoverageCounts()
	fmt.Printf("DMT register coverage: %.1f%%\n", float64(hits)/float64(total)*100)

	// Output:
	// heap: heap [0x40000000,0x50000000) heap
	// TEA manager: tea.Manager{mappings=1, regs=16, live=128 frames}
	// translate va=0x41234567
	//   DMT fetcher : PA=0x3eeb7567  1 memory reference(s), 201 cycles
	//   x86 walker  : PA=0x3eeb7567  4 memory reference(s), 605 cycles
	//   second translation via TLB: 0 extra cycles
	// DMT register coverage: 100.0%
}

// Example_hugePages demonstrates DMT's multi-size TEA support (§4.4,
// Figure 12): a THP-enabled process keeps separate TEAs for 4 KiB and
// 2 MiB PTEs, the fetcher probes them in parallel as one sequential step,
// and demoting a region to base pages moves its translation from the 2M
// TEA to the 4K TEA without changing the VMA-to-TEA mapping.
//
//	go test ./internal/core -run Example_hugePages -v
func Example_hugePages() {
	pa := phys.New(0, 1<<18)
	as, err := kernel.NewAddressSpace(pa, kernel.Config{THP: true, ASID: 1})
	if err != nil {
		log.Fatal(err)
	}
	mgr := tea.NewManager(as, tea.NewPhysBackend(pa), tea.DefaultConfig(true))
	as.SetHooks(mgr)

	// With THP on, populating the heap installs 2 MiB pages.
	heap, err := as.MMap(0x4000_0000, 64<<20, kernel.VMAHeap, "heap")
	if err != nil {
		log.Fatal(err)
	}
	if err := as.Populate(heap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("THP-mapped regions: %d\n", as.THPMapped)

	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sink := &core.RefSink{}
	radix := core.NewRadixWalker(as.PT, hier, tlb.NewPWC(), as.ASID())
	radix.Sink = sink
	dmt := core.NewDMTWalker(mgr, as.Pool, hier, radix)
	dmt.Sink = sink

	va := heap.Start + 0x2abcde
	sink.Reset()
	out := dmt.Walk(va)
	fmt.Printf("translate va=%#x\n", uint64(va))
	fmt.Printf("  resolved as a %v page in %d sequential step (%d parallel TEA probes)\n",
		out.Size, out.SeqSteps, len(sink.Refs()))
	for _, r := range sink.Refs() {
		fmt.Printf("    probe of the %v-PTE TEA at %#x: %d cycles\n",
			mem.PageSize(r.Level-1), uint64(r.Addr), r.Cycles)
	}

	// The register carries both TEAs; only the 2M one holds valid leaves
	// for THP-mapped regions.
	reg := mgr.Lookup(va)
	fmt.Printf("register: base=%#x limit=%#x 4K-TEA=%v 2M-TEA=%v\n",
		uint64(reg.Base), uint64(reg.Limit), reg.Covered[mem.Size4K], reg.Covered[mem.Size2M])

	// Demote one region back to base pages: the mapping is untouched;
	// only the PTEs move between TEAs (§4.4).
	demoteBase := mem.AlignDown(va, mem.PageBytes2M)
	if err := as.PT.Unmap(demoteBase, mem.Size2M); err != nil {
		log.Fatal(err)
	}
	for off := mem.VAddr(0); off < mem.PageBytes2M; off += mem.PageBytes4K {
		frame, err := pa.AllocFrame(phys.KindMovable)
		if err != nil {
			log.Fatal(err)
		}
		if err := as.PT.Map(demoteBase+off, frame, mem.Size4K, mem.PTEWritable); err != nil {
			log.Fatal(err)
		}
	}
	sink.Reset()
	out = dmt.Walk(va)
	fmt.Printf("after demotion: resolved as a %v page, still %d sequential step, fallback=%v\n",
		out.Size, out.SeqSteps, out.Fallback)

	// Output:
	// THP-mapped regions: 32
	// translate va=0x402abcde
	//   resolved as a 2M page in 1 sequential step (2 parallel TEA probes)
	//     probe of the 4K-PTE TEA at 0x3fc21558: 200 cycles
	//     probe of the 2M-PTE TEA at 0x3fc01008: 200 cycles
	// register: base=0x40000000 limit=0x44000000 4K-TEA=true 2M-TEA=true
	// after demotion: resolved as a 4K page, still 1 sequential step, fallback=false
}
