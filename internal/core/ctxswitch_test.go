package core

import (
	"math/rand"
	"testing"

	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/tea"
	"dmt/internal/tlb"
)

func newManagerFor(as *kernel.AddressSpace) *tea.Manager {
	return tea.NewManager(as, tea.NewPhysBackend(as.Phys), tea.DefaultConfig(false))
}

// twoProcessRig builds two processes with disjoint heaps sharing one cache
// hierarchy, each with its own TEA manager and DMT walker.
func twoProcessRig(t *testing.T) (*Scheduler, []*kernel.VMA) {
	t.Helper()
	ra := newRig(t, false)
	// Second process on the same physical allocator & hierarchy.
	as2, err := kernel.NewAddressSpace(ra.as.Phys, kernel.Config{ASID: 2})
	if err != nil {
		t.Fatal(err)
	}
	mg2 := newManagerFor(as2)
	as2.SetHooks(mg2)
	v2, err := as2.MMap(0x40000000, 32<<20, kernel.VMAHeap, "heap2")
	if err != nil {
		t.Fatal(err)
	}
	if err := as2.Populate(v2); err != nil {
		t.Fatal(err)
	}
	v1, err := ra.as.MMap(0x40000000, 32<<20, kernel.VMAHeap, "heap1")
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.as.Populate(v1); err != nil {
		t.Fatal(err)
	}
	r2 := newWalkers(as2, mg2, ra.hier)

	dtlb, err := tlb.New(tlb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mmu := NewMMU(dtlb, ra.dmt, ra.sink, ra.as.ASID())
	sched := NewScheduler(mmu,
		&Task{Name: "p1", Walker: ra.dmt, Sink: ra.sink, ASID: ra.as.ASID(), UsesDMT: true},
		&Task{Name: "p2", Walker: r2.dmt, Sink: r2.sink, ASID: as2.ASID(), UsesDMT: true},
	)
	return sched, []*kernel.VMA{v1, v2}
}

func TestSchedulerIsolatesASIDs(t *testing.T) {
	sched, heaps := twoProcessRig(t)
	// Same VA in both processes must translate to different frames.
	va := heaps[0].Start + 0x5000
	pa1, ok := sched.Translate(va)
	if !ok {
		t.Fatal("p1 translate failed")
	}
	sched.Switch()
	pa2, ok := sched.Translate(va)
	if !ok {
		t.Fatal("p2 translate failed")
	}
	if pa1 == pa2 {
		t.Fatal("two processes share a frame for the same VA — ASID isolation broken")
	}
	// Switching back, p1's translation is unchanged (and TLB-resident:
	// ASID tags survive the switch).
	sched.Switch()
	misses := sched.MMU.Misses
	pa1b, _ := sched.Translate(va)
	if pa1b != pa1 {
		t.Fatal("p1 translation changed across switches")
	}
	if sched.MMU.Misses != misses {
		t.Fatal("ASID-tagged TLB entry did not survive the round trip")
	}
}

func TestSchedulerChargesRegisterReload(t *testing.T) {
	sched, _ := twoProcessRig(t)
	for i := 0; i < 10; i++ {
		sched.Switch()
	}
	if sched.SwitchCycles != 10*RegisterReloadCycles {
		t.Fatalf("switch cycles = %d, want %d", sched.SwitchCycles, 10*RegisterReloadCycles)
	}
}

// TestSwitchOverheadNegligible quantifies §4.1's implicit claim: at an
// aggressive switch rate (every 1,000 accesses — orders of magnitude more
// frequent than real timeslices), the DMT register reload is noise against
// translation work.
func TestSwitchOverheadNegligible(t *testing.T) {
	sched, heaps := twoProcessRig(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		if i%1000 == 999 {
			sched.Switch()
		}
		h := heaps[sched.cur]
		va := h.Start + mem.VAddr(rng.Int63n(int64(h.Size()))&^0x7)
		if _, ok := sched.Translate(va); !ok {
			t.Fatalf("translate failed at %#x", uint64(va))
		}
	}
	reloadShare := float64(sched.SwitchCycles) / float64(sched.AccessCycles+sched.SwitchCycles)
	if reloadShare > 0.001 {
		t.Fatalf("register-reload share %.4f%% exceeds 0.1%% at switch-every-1000", reloadShare*100)
	}
}
