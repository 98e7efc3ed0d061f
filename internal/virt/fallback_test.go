package virt

import (
	"testing"

	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/tea"
)

// newGradualVEnv is newVEnv with gradual TEA migration, so a test can hold
// the §4.3 migration window open (register P-bit clear) across walks.
func newGradualVEnv(t *testing.T, thp, pv bool) *venv {
	t.Helper()
	hyp := mustHyp(t, testMachineFrames)
	vm, err := hyp.NewVM(VMConfig{
		Name: "vm0", RAMBytes: testRAMBytes, HostTHP: thp, HostDMT: true,
		ASID: 100, PvTEAWindowBytes: testWindowBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := vm.NewGuestProcess(thp, 1)
	if err != nil {
		t.Fatal(err)
	}
	var backend tea.Backend
	if pv {
		backend = NewHypercallBackend(vm)
	} else {
		backend = tea.NewPhysBackend(vm.GuestPhys)
	}
	cfg := tea.DefaultConfig(thp)
	cfg.GradualMigration = true
	gmgr := tea.NewManager(guest, backend, cfg)
	guest.SetHooks(gmgr)
	heap, err := guest.MMap(0x40000000, 32<<20, kernel.VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Populate(heap); err != nil {
		t.Fatal(err)
	}
	return &venv{hyp: hyp, vm: vm, guest: guest, gmgr: gmgr, heap: heap}
}

func drainMigration(t *testing.T, mgr *tea.Manager) {
	t.Helper()
	for mgr.MigrationsPending() {
		if mgr.PumpMigration(1<<30) == 0 {
			t.Fatal("migration pump made no progress")
		}
	}
}

// refCycleSum totals the per-reference latencies of a walk; the outcome's
// critical path must never undercut it minus parallel overlap — for the
// serial fallback walkers it must be at least this sum.
func refCycleSum(refs []core.MemRef) int {
	s := 0
	for _, r := range refs {
		s += r.Cycles
	}
	return s
}

// TestDMTVirtMigrationWindowFallback holds a guest TEA migration open and
// asserts the 3-fetch virtualized walker degrades to its nested fallback:
// Fallback=true, machine PA still correct, the fallback counter moves, and
// cycle accounting stays monotone. Draining the migration restores the
// fast path.
func TestDMTVirtMigrationWindowFallback(t *testing.T) {
	e := newGradualVEnv(t, false, false)
	fb := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	w := &DMTVirtWalker{
		Guest: e.gmgr, GuestPool: e.guest.Pool,
		Host: e.vm.HostTEA, HostPool: e.vm.HostAS.Pool,
		Hier: e.hyp.Hier, Fallback: fb, Sink: fb.Sink,
	}
	va := e.heap.Start + 7*mem.PageBytes4K + 0x123
	if pre, _ := walk(w.Sink, w, va); !pre.OK || pre.Fallback {
		t.Fatalf("pre-migration walk: ok=%v fallback=%v", pre.OK, pre.Fallback)
	}

	if !e.gmgr.StartMigration(e.heap.Start) {
		t.Fatal("StartMigration did not begin a migration")
	}
	fbBefore := w.FallbackWalks
	out, refs := walk(w.Sink, w, va)
	if !out.OK || !out.Fallback {
		t.Fatalf("mid-migration walk: ok=%v fallback=%v, want fallback hit", out.OK, out.Fallback)
	}
	if want := e.machineOf(t, va); out.PA != want {
		t.Fatalf("mid-migration PA %#x, want %#x", uint64(out.PA), uint64(want))
	}
	if w.FallbackWalks != fbBefore+1 {
		t.Fatalf("FallbackWalks %d, want %d", w.FallbackWalks, fbBefore+1)
	}
	if len(refs) == 0 || out.Cycles < refCycleSum(refs) {
		t.Fatalf("non-monotone cycle accounting: %d cycles for refs summing %d", out.Cycles, refCycleSum(refs))
	}

	drainMigration(t, e.gmgr)
	post, _ := walk(w.Sink, w, va)
	if !post.OK || post.Fallback {
		t.Fatalf("post-migration walk: ok=%v fallback=%v, want fast path", post.OK, post.Fallback)
	}
	if post.SeqSteps != 3 {
		t.Fatalf("post-migration fast path took %d steps, want 3", post.SeqSteps)
	}
	if want := e.machineOf(t, va); post.PA != want {
		t.Fatalf("post-migration PA %#x, want %#x", uint64(post.PA), uint64(want))
	}
}

// TestPvDMTMigrationWindowFallback is the same window driven through the
// paravirtualized walker: the migration target is allocated via
// KVM_HC_ALLOC_TEA, walks degrade to the nested fallback without a single
// isolation fault, and the 2-step fast path returns after the drain.
func TestPvDMTMigrationWindowFallback(t *testing.T) {
	e := newGradualVEnv(t, false, true)
	fb := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	w := newPv(e.vm, e.gmgr, e.guest.Pool, e.hyp.Hier, fb)
	va := e.heap.Start + 11*mem.PageBytes4K + 0x456
	if pre, _ := walk(w.Sink, w, va); !pre.OK || pre.Fallback {
		t.Fatalf("pre-migration walk: ok=%v fallback=%v", pre.OK, pre.Fallback)
	}

	hcBefore := e.hyp.Hypercalls
	if !e.gmgr.StartMigration(e.heap.Start) {
		t.Fatal("StartMigration did not begin a migration")
	}
	if e.hyp.Hypercalls == hcBefore {
		t.Fatal("migration target was not allocated through the hypercall backend")
	}
	fbBefore := w.FallbackWalks
	out, refs := walk(w.Sink, w, va)
	if !out.OK || !out.Fallback {
		t.Fatalf("mid-migration walk: ok=%v fallback=%v, want fallback hit", out.OK, out.Fallback)
	}
	if want := e.machineOf(t, va); out.PA != want {
		t.Fatalf("mid-migration PA %#x, want %#x", uint64(out.PA), uint64(want))
	}
	if w.FallbackWalks != fbBefore+1 {
		t.Fatalf("FallbackWalks %d, want %d", w.FallbackWalks, fbBefore+1)
	}
	if len(refs) == 0 || out.Cycles < refCycleSum(refs) {
		t.Fatalf("non-monotone cycle accounting: %d cycles for refs summing %d", out.Cycles, refCycleSum(refs))
	}

	drainMigration(t, e.gmgr)
	post, _ := walk(w.Sink, w, va)
	if !post.OK || post.Fallback {
		t.Fatalf("post-migration walk: ok=%v fallback=%v, want fast path", post.OK, post.Fallback)
	}
	if post.SeqSteps != 2 {
		t.Fatalf("post-migration fast path took %d steps, want 2", post.SeqSteps)
	}
	if want := e.machineOf(t, va); post.PA != want {
		t.Fatalf("post-migration PA %#x, want %#x", uint64(post.PA), uint64(want))
	}
	if e.hyp.IsolationFaults != 0 {
		t.Fatalf("%d gTEA isolation faults during migration", e.hyp.IsolationFaults)
	}
}
