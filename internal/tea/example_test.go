package tea_test

import (
	"fmt"
	"log"
	"math/rand"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
	"dmt/internal/tea"
	"dmt/internal/tlb"
)

// Example_fragmentation exercises DMT's graceful degradation when
// contiguous physical memory is scarce (§4.2.2, §6.3, §7): TEA allocation
// failures split the VMA-to-TEA mapping, the legacy walker covers whatever
// falls through, and once the background load exits and memory is
// compacted, a rebuilt heap gets one mapping and full coverage again.
//
//	go test ./internal/tea -run Example_fragmentation -v
func Example_fragmentation() {
	pa := phys.New(0, 1<<17) // 512 MiB
	// Shatter free memory to the §6.3 methodology's index 0.99.
	pa.Fragment(rand.New(rand.NewSource(7)), 4, 0.99)
	fmt.Printf("fragmentation index (order 4): %.2f, free: %d MiB\n",
		pa.FragmentationIndex(4), pa.FreeFrames()*4/1024)

	as, err := kernel.NewAddressSpace(pa, kernel.Config{ASID: 1})
	if err != nil {
		log.Fatal(err)
	}
	mgr := tea.NewManager(as, tea.NewPhysBackend(pa), tea.DefaultConfig(false))
	as.SetHooks(mgr)

	// A 128 MiB heap needs a 64-frame TEA; with only isolated single
	// frames free, allocation must repeatedly split (§4.2.2).
	heap, err := as.MMap(0x4000_0000, 128<<20, kernel.VMAHeap, "heap")
	if err != nil {
		log.Fatal(err)
	}
	if err := as.Populate(heap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after mmap under fragmentation: %d mappings, %d splits, %d contig failures\n",
		len(mgr.Mappings()), mgr.Stats.Splits, mgr.Stats.AllocFailures)

	hier, err := cache.NewHierarchy(cache.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sink := &core.RefSink{}
	radix := core.NewRadixWalker(as.PT, hier, tlb.NewPWC(), as.ASID())
	radix.Sink = sink
	rng := rand.New(rand.NewSource(1))
	walkHeap := func() (coverage float64) {
		dmt := core.NewDMTWalker(mgr, as.Pool, hier, radix)
		dmt.Sink = sink
		for i := 0; i < 20000; i++ {
			va := heap.Start + mem.VAddr(rng.Int63n(int64(heap.Size()))&^7)
			sink.Reset()
			if out := dmt.Walk(va); !out.OK {
				log.Fatalf("walk failed at %#x", uint64(va))
			}
		}
		hits, total := dmt.CoverageCounts()
		return float64(hits) / float64(total)
	}
	fmt.Printf("register coverage under fragmentation: %.1f%% (rest served by the x86 walker)\n",
		walkHeap()*100)

	// Free the background pins (processes exiting), compact, and rebuild:
	// contiguity returns and so does full coverage.
	if err := as.MUnmap(heap); err != nil {
		log.Fatal(err)
	}
	for f := 0; f < pa.TotalFrames(); f++ {
		if addr := pa.Base() + mem.PAddr(f<<mem.PageShift4K); pa.FrameKind(addr) == phys.KindUnmovable {
			pa.FreeFrame(addr)
		}
	}
	moved := pa.Compact()
	fmt.Printf("after freeing background load + compaction (%d frames migrated): index %.2f\n",
		moved, pa.FragmentationIndex(4))

	heap, err = as.MMap(0x4000_0000, 128<<20, kernel.VMAHeap, "heap")
	if err != nil {
		log.Fatal(err)
	}
	if err := as.Populate(heap); err != nil {
		log.Fatal(err)
	}
	coverage := walkHeap()
	fmt.Printf("mappings now: %d; register coverage: %.1f%%\n", len(mgr.Mappings()), coverage*100)

	// Output:
	// fragmentation index (order 4): 1.00, free: 256 MiB
	// after mmap under fragmentation: 64 mappings, 63 splits, 63 contig failures
	// register coverage under fragmentation: 25.0% (rest served by the x86 walker)
	// after freeing background load + compaction (0 frames migrated): index 0.00
	// mappings now: 1; register coverage: 100.0%
}
