package virt

import (
	"testing"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/tea"
	"dmt/internal/tlb"
)

const (
	testMachineFrames = 1 << 17 // 512 MiB machine memory
	testRAMBytes      = 128 << 20
	testWindowBytes   = 16 << 20
)

type venv struct {
	hyp   *Hypervisor
	vm    *VM
	guest *kernel.AddressSpace
	gmgr  *tea.Manager
	heap  *kernel.VMA
}

// mustHyp builds a hypervisor with the default cache configuration.
func mustHyp(t testing.TB, frames int) *Hypervisor {
	t.Helper()
	hyp, err := NewHypervisor(frames, cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return hyp
}

// newVEnv builds a single-level virtualized environment with a populated
// guest heap. pv selects the hypercall TEA backend for the guest.
func newVEnv(t *testing.T, thp, pv bool) *venv {
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
	gmgr := tea.NewManager(guest, backend, tea.DefaultConfig(thp))
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

// machineOf resolves a guest virtual address to its machine address by
// composing the page tables directly (the ground truth).
func (e *venv) machineOf(t *testing.T, gva mem.VAddr) mem.PAddr {
	t.Helper()
	gpa, _, ok := e.guest.PT.Lookup(gva)
	if !ok {
		t.Fatalf("gVA %#x unmapped in guest", uint64(gva))
	}
	m, ok := e.vm.MachineAddr(gpa)
	if !ok {
		t.Fatalf("gPA %#x unmapped in host", uint64(gpa))
	}
	return m
}

// newNested is NewNestedWalker recording into a fresh sink.
func newNested(guestPT, hostPT *pagetable.Table, h *cache.Hierarchy, asid uint16) *NestedWalker {
	w := NewNestedWalker(guestPT, hostPT, h, asid)
	w.Sink = &core.RefSink{}
	return w
}

// newPv is NewPvDMTWalker recording into its fallback's sink.
func newPv(vm *VM, mgr *tea.Manager, pool *pagetable.Pool, h *cache.Hierarchy, fb *NestedWalker) *PvDMTWalker {
	w := NewPvDMTWalker(vm, mgr, pool, h, fb)
	w.Sink = fb.Sink
	return w
}

// newPvNested is NewPvDMTNestedWalker recording into its fallback's sink.
func newPvNested(l2 *VM, mgr *tea.Manager, pool *pagetable.Pool, h *cache.Hierarchy, fb *NestedWalker) *PvDMTWalker {
	w := NewPvDMTNestedWalker(l2, mgr, pool, h, fb)
	w.Sink = fb.Sink
	return w
}

// walk resets sink, walks va with w, and returns the outcome with a copy
// of the refs the walk recorded — the engine's contract: the caller owns
// the sink and resets it before each walk.
func walk(sink *core.RefSink, w core.Walker, va mem.VAddr) (core.WalkOutcome, []core.MemRef) {
	sink.Reset()
	out := w.Walk(va)
	return out, append([]core.MemRef(nil), sink.Refs()...)
}

func TestGuestRAMFullyBacked(t *testing.T) {
	e := newVEnv(t, false, false)
	for gpa := mem.PAddr(0); gpa < testRAMBytes; gpa += 16 << 20 {
		if _, ok := e.vm.MachineAddr(gpa); !ok {
			t.Fatalf("gPA %#x not backed", uint64(gpa))
		}
	}
}

func TestNestedWalk24Steps(t *testing.T) {
	e := newVEnv(t, false, false)
	w := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	w.DisableMMUCaches() // expose the architectural worst case
	va := e.heap.Start + 0x5123
	out, refs := walk(w.Sink, w, va)
	if !out.OK {
		t.Fatal("nested walk faulted")
	}
	if out.SeqSteps != 24 {
		t.Fatalf("cold 2D walk took %d refs, want 24 (Figure 2)", out.SeqSteps)
	}
	if out.PA != e.machineOf(t, va) {
		t.Fatalf("2D walk PA %#x != ground truth %#x", uint64(out.PA), uint64(e.machineOf(t, va)))
	}
	// Dim pattern: 4 host + 1 guest, repeated, then 4 host.
	if len(refs) != 24 || refs[0].Dim != "h" || refs[4].Dim != "g" || refs[23].Dim != "h" {
		t.Fatal("2D walk dimension pattern broken")
	}
	// Steps numbered 1..24.
	for i, r := range refs {
		if r.Step != i+1 {
			t.Fatalf("ref %d numbered %d", i, r.Step)
		}
	}
}

func TestNestedWalkCachesShortenRepeats(t *testing.T) {
	e := newVEnv(t, false, false)
	w := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	walk(w.Sink, w, e.heap.Start)
	out, _ := walk(w.Sink, w, e.heap.Start+mem.PageBytes4K)
	if out.SeqSteps >= 24 {
		t.Fatalf("warm 2D walk still took %d refs", out.SeqSteps)
	}
	if out.SeqSteps < 1 {
		t.Fatal("walk must touch at least the leaf")
	}
}

func TestNestedWalkTHP(t *testing.T) {
	e := newVEnv(t, true, false)
	w := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	va := e.heap.Start + 0x212345
	out, _ := walk(w.Sink, w, va)
	if !out.OK || out.Size != mem.Size2M {
		t.Fatalf("THP 2D walk: ok=%v size=%v", out.OK, out.Size)
	}
	// Guest dim is 3 levels, host 2M-backed walks are 3 deep: 3*(3+1)+3=15.
	if out.SeqSteps >= 24 {
		t.Fatalf("THP 2D walk took %d refs, expected fewer than 4K's 24", out.SeqSteps)
	}
	if out.PA != e.machineOf(t, va) {
		t.Fatal("THP 2D walk PA mismatch")
	}
}

// TestNestedWalkFromMatchesWalk resumes the 2D walk at the guest root on
// every populated gVA of a 4K and a THP guest and checks it against Walk on
// a twin walker: with no guest PWC the two differ only in Walk's one-cycle
// guest-PWC probe and in the step numbers, which WalkFrom leaves at 0.
func TestNestedWalkFromMatchesWalk(t *testing.T) {
	for _, thp := range []bool{false, true} {
		e := newVEnv(t, thp, false)
		twin := func() *NestedWalker {
			h, err := cache.NewHierarchy(cache.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			w := newNested(e.guest.PT, e.vm.HostAS.PT, h, 1)
			w.GuestPWC = nil
			return w
		}
		full, from := twin(), twin()
		root, ok := e.guest.PT.Pool().NodeAt(e.guest.PT.RootPA())
		if !ok {
			t.Fatal("guest root not in its pool")
		}
		pages := e.heap.PresentPages()
		if len(pages) == 0 {
			t.Fatal("no populated pages")
		}
		for _, p := range pages {
			va := p.VA + 0x123
			want, wantRefs := walk(full.Sink, full, va)
			from.Sink.Reset()
			var got core.WalkOutcome
			from.WalkFrom(root, e.guest.PT.Levels(), va, &got)
			gotRefs := from.Sink.Refs()
			if !want.OK || got.Cycles+tlb.PWCLatency != want.Cycles {
				t.Fatalf("thp=%v %#x: WalkFrom %d cycles, Walk %d (ok=%v), want one PWC probe apart", thp, uint64(va), got.Cycles, want.Cycles, want.OK)
			}
			got.Cycles = want.Cycles
			if got != want {
				t.Fatalf("thp=%v %#x: WalkFrom %+v, Walk %+v", thp, uint64(va), got, want)
			}
			if len(gotRefs) != len(wantRefs) {
				t.Fatalf("thp=%v %#x: WalkFrom %d refs, Walk %d", thp, uint64(va), len(gotRefs), len(wantRefs))
			}
			for i, g := range gotRefs {
				w := wantRefs[i]
				if g.Step != 0 {
					t.Fatalf("thp=%v %#x: WalkFrom ref %d numbered %d", thp, uint64(va), i, g.Step)
				}
				w.Step = 0
				if g != w {
					t.Fatalf("thp=%v %#x: ref %d WalkFrom %+v, Walk %+v", thp, uint64(va), i, g, w)
				}
			}
		}
	}
}

func TestShadowVAWalk(t *testing.T) {
	e := newVEnv(t, false, false)
	spt, err := BuildShadowVA(e.vm, e.guest)
	if err != nil {
		t.Fatal(err)
	}
	if e.hyp.ShadowSyncs == 0 {
		t.Fatal("shadow build recorded no syncs")
	}
	w := core.NewRadixWalker(spt, e.hyp.Hier, tlb.NewPWC(), 1)
	w.Sink = &core.RefSink{}
	va := e.heap.Start + 0x7123
	out, refs := walk(w.Sink, w, va)
	if !out.OK || out.SeqSteps != 4 || len(refs) != 4 {
		t.Fatalf("shadow walk: ok=%v steps=%d refs=%d, want 4 (native walk)", out.OK, out.SeqSteps, len(refs))
	}
	if out.PA != e.machineOf(t, va) {
		t.Fatal("shadow walk PA mismatch")
	}
}

func TestShadowPreservesHugePagesWhenContiguous(t *testing.T) {
	e := newVEnv(t, true, false)
	spt, err := BuildShadowVA(e.vm, e.guest)
	if err != nil {
		t.Fatal(err)
	}
	_, size, ok := spt.Lookup(e.heap.Start)
	if !ok {
		t.Fatal("shadow misses the heap")
	}
	// With THP host backing, guest 2M pages should be machine-contiguous
	// and stay huge in the shadow.
	if size != mem.Size2M {
		t.Fatalf("shadow leaf size = %v, want 2M", size)
	}
}

func TestDMTVirtThreeRefs(t *testing.T) {
	e := newVEnv(t, false, false)
	fb := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	w := &DMTVirtWalker{
		Guest: e.gmgr, GuestPool: e.guest.Pool,
		Host: e.vm.HostTEA, HostPool: e.vm.HostAS.Pool,
		Hier: e.hyp.Hier, Fallback: fb, Sink: fb.Sink,
	}
	va := e.heap.Start + 0x9123
	out, refs := walk(w.Sink, w, va)
	if !out.OK || out.Fallback {
		t.Fatalf("DMT-v walk: ok=%v fallback=%v", out.OK, out.Fallback)
	}
	if out.SeqSteps != 3 || len(refs) != 3 {
		t.Fatalf("DMT-v took %d sequential steps / %d refs, want 3/3 (§3.1)", out.SeqSteps, len(refs))
	}
	if refs[0].Dim != "h" || refs[1].Dim != "g" || refs[2].Dim != "h" {
		t.Fatalf("DMT-v fetch order %s %s %s, want h g h", refs[0].Dim, refs[1].Dim, refs[2].Dim)
	}
	if out.PA != e.machineOf(t, va) {
		t.Fatal("DMT-v PA mismatch")
	}
}

func TestPvDMTTwoRefs(t *testing.T) {
	e := newVEnv(t, false, true)
	fb := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	w := newPv(e.vm, e.gmgr, e.guest.Pool, e.hyp.Hier, fb)
	va := e.heap.Start + 0xb123
	out, refs := walk(w.Sink, w, va)
	if !out.OK || out.Fallback {
		t.Fatalf("pvDMT walk: ok=%v fallback=%v", out.OK, out.Fallback)
	}
	if out.SeqSteps != 2 || len(refs) != 2 {
		t.Fatalf("pvDMT took %d sequential steps / %d refs, want 2/2 (§3.1)", out.SeqSteps, len(refs))
	}
	if out.PA != e.machineOf(t, va) {
		t.Fatal("pvDMT PA mismatch")
	}
	if e.hyp.Hypercalls == 0 {
		t.Fatal("no KVM_HC_ALLOC_TEA hypercalls recorded")
	}
}

func TestPvDMTTHP(t *testing.T) {
	e := newVEnv(t, true, true)
	fb := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	w := newPv(e.vm, e.gmgr, e.guest.Pool, e.hyp.Hier, fb)
	va := e.heap.Start + 0x312345
	out, refs := walk(w.Sink, w, va)
	if !out.OK || out.Fallback {
		t.Fatalf("pvDMT THP walk: ok=%v fallback=%v", out.OK, out.Fallback)
	}
	if out.SeqSteps != 2 {
		t.Fatalf("pvDMT THP took %d steps, want 2", out.SeqSteps)
	}
	if out.Size != mem.Size2M {
		t.Fatalf("size = %v, want 2M", out.Size)
	}
	if len(refs) <= 2 {
		t.Fatalf("THP fan-out missing: %d refs for 2 steps", len(refs))
	}
	if out.PA != e.machineOf(t, va) {
		t.Fatal("pvDMT THP PA mismatch")
	}
}

func TestPvDMTAgainstNestedAgreement(t *testing.T) {
	e := newVEnv(t, false, true)
	nested := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	pv := newPv(e.vm, e.gmgr, e.guest.Pool, e.hyp.Hier, nested)
	for off := uint64(0); off < e.heap.Size(); off += 97 << 12 {
		va := e.heap.Start + mem.VAddr(off)
		a, _ := walk(pv.Sink, pv, va)
		b, _ := walk(nested.Sink, nested, va)
		if !a.OK || !b.OK || a.PA != b.PA {
			t.Fatalf("divergence at %#x: pv=%#x nested=%#x", uint64(va), uint64(a.PA), uint64(b.PA))
		}
	}
	if hits, total := pv.CoverageCounts(); total == 0 || hits != total {
		t.Fatalf("pvDMT coverage = %d/%d walks, want all of them", hits, total)
	}
}

func TestGTEAIsolation(t *testing.T) {
	e := newVEnv(t, false, true)
	// Forge a register pointing outside any gTEA: simulate a malicious
	// guest by resolving with a bad ID and an out-of-bounds address.
	if _, err := e.vm.GTEA.Resolve(999, 0x1000); err != ErrIsolation {
		t.Fatalf("invalid ID: err = %v, want ErrIsolation", err)
	}
	if e.vm.GTEA.Len() == 0 {
		t.Fatal("no gTEAs registered")
	}
	// Out-of-bounds within a valid ID.
	ent := e.vm.GTEA.entries[0]
	bad := ent.MachineBase + mem.PAddr(uint64(ent.Frames)<<mem.PageShift4K)
	if _, err := e.vm.GTEA.Resolve(1, bad); err != ErrIsolation {
		t.Fatalf("out-of-bounds: err = %v, want ErrIsolation", err)
	}
	// In-bounds resolves to the right gPA.
	gpa, err := e.vm.GTEA.Resolve(1, ent.MachineBase+0x100)
	if err != nil || gpa != ent.GPABase+0x100 {
		t.Fatalf("in-bounds resolve = (%#x, %v)", uint64(gpa), err)
	}
}

func TestPvDMTIsolationFaultOnForgedRegister(t *testing.T) {
	e := newVEnv(t, false, true)
	fb := newNested(e.guest.PT, e.vm.HostAS.PT, e.hyp.Hier, 1)
	w := newPv(e.vm, e.gmgr, e.guest.Pool, e.hyp.Hier, fb)
	// Malicious guest: point the register's gTEA ID at a bogus entry.
	regs := e.gmgr.Registers()
	for i := range regs {
		if regs[i].Present {
			regs[i].GTEAID[mem.Size4K] = 999
			break
		}
	}
	out, _ := walk(w.Sink, w, e.heap.Start)
	if out.OK {
		t.Fatal("forged register produced a successful translation")
	}
	if e.hyp.IsolationFaults == 0 {
		t.Fatal("isolation fault not raised")
	}
}

// ---- nested virtualization ----

type nenv struct {
	hyp   *Hypervisor
	l1    *VM
	l2    *VM
	guest *kernel.AddressSpace
	gmgr  *tea.Manager
	heap  *kernel.VMA
}

func newNestedEnv(t *testing.T, thp bool) *nenv {
	t.Helper()
	hyp := mustHyp(t, 1<<17)
	l1, err := hyp.NewVM(VMConfig{Name: "L1", RAMBytes: 256 << 20, HostTHP: thp, HostDMT: true, ASID: 100, PvTEAWindowBytes: testWindowBytes})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := hyp.NewNestedVM(l1, VMConfig{Name: "L2", RAMBytes: 96 << 20, HostTHP: thp, HostDMT: true, ASID: 101, PvTEAWindowBytes: testWindowBytes})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := l2.NewGuestProcess(thp, 1)
	if err != nil {
		t.Fatal(err)
	}
	gmgr := tea.NewManager(guest, NewHypercallBackend(l2), tea.DefaultConfig(thp))
	guest.SetHooks(gmgr)
	heap, err := guest.MMap(0x40000000, 16<<20, kernel.VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Populate(heap); err != nil {
		t.Fatal(err)
	}
	return &nenv{hyp: hyp, l1: l1, l2: l2, guest: guest, gmgr: gmgr, heap: heap}
}

func (e *nenv) machineOf(t *testing.T, va mem.VAddr) mem.PAddr {
	t.Helper()
	l2pa, _, ok := e.guest.PT.Lookup(va)
	if !ok {
		t.Fatalf("va %#x unmapped in L2 process", uint64(va))
	}
	m, ok := e.l2.MachineAddr(l2pa)
	if !ok {
		t.Fatalf("L2PA %#x unresolvable", uint64(l2pa))
	}
	return m
}

func TestNestedVirtDepth(t *testing.T) {
	e := newNestedEnv(t, false)
	if d := e.l2.Depth(); d != 2 {
		t.Fatalf("L2 depth = %d, want 2", d)
	}
}

func TestNestedShadowBaseline(t *testing.T) {
	e := newNestedEnv(t, false)
	spt, err := BuildNestedShadow(e.l2)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline nested virtualization: 2D walk across L2PT and sPT.
	w := newNested(e.guest.PT, spt, e.hyp.Hier, 1)
	w.DisableMMUCaches()
	va := e.heap.Start + 0x3123
	out, _ := walk(w.Sink, w, va)
	if !out.OK {
		t.Fatal("nested-virt baseline walk faulted")
	}
	if out.PA != e.machineOf(t, va) {
		t.Fatalf("baseline nested PA %#x != truth %#x", uint64(out.PA), uint64(e.machineOf(t, va)))
	}
	if out.SeqSteps != 24 {
		t.Fatalf("cold nested-virt walk took %d refs, want 24", out.SeqSteps)
	}
}

// TestShadowBuildersMatchMachineAddr checks every page the shadow builders
// resolve through their per-depth cursors against a from-the-root
// MachineAddr, with and without THP (contiguous huge leaves kept, others
// splintered): the whole guest heap for the virt shadow and for a shadow
// of the L2 guest, the whole of L2's RAM for the compressed nested shadow.
func TestShadowBuildersMatchMachineAddr(t *testing.T) {
	for _, thp := range []bool{false, true} {
		e := newVEnv(t, thp, false)
		spt, err := BuildShadowVA(e.vm, e.guest)
		if err != nil {
			t.Fatal(err)
		}
		for off := uint64(0); off < e.heap.Size(); off += mem.PageBytes4K {
			va := e.heap.Start + mem.VAddr(off)
			got, _, ok := spt.Lookup(va)
			if want := e.machineOf(t, va); !ok || got != want {
				t.Fatalf("thp=%v: shadow(%#x) = %#x %v, want %#x", thp, uint64(va), uint64(got), ok, uint64(want))
			}
		}

		n := newNestedEnv(t, thp)
		nspt, err := BuildNestedShadow(n.l2)
		if err != nil {
			t.Fatal(err)
		}
		for gpa := mem.PAddr(0); gpa < mem.PAddr(n.l2.RAMVMA.Size()); gpa += mem.PageBytes4K {
			got, _, ok := nspt.Lookup(mem.VAddr(gpa))
			want, wok := n.l2.MachineAddr(gpa)
			if ok != wok || got != want {
				t.Fatalf("thp=%v: nested shadow(%#x) = %#x %v, want %#x %v", thp, uint64(gpa), uint64(got), ok, uint64(want), wok)
			}
		}
		// A shadow of the L2 guest itself composes through both host
		// tables: two cursors.
		l2spt, err := BuildShadowVA(n.l2, n.guest)
		if err != nil {
			t.Fatal(err)
		}
		for off := uint64(0); off < n.heap.Size(); off += mem.PageBytes4K {
			va := n.heap.Start + mem.VAddr(off)
			got, _, ok := l2spt.Lookup(va)
			if want := n.machineOf(t, va); !ok || got != want {
				t.Fatalf("thp=%v: L2 shadow(%#x) = %#x %v, want %#x", thp, uint64(va), uint64(got), ok, uint64(want))
			}
		}
	}
}

func TestContiguousMachineRequiresMachineContiguity(t *testing.T) {
	identity := func(pa mem.PAddr) (mem.PAddr, mem.PageSize, bool) { return pa + 0x100000, mem.Size4K, true }
	base, ok := ContiguousMachine(identity, 0x200000, mem.Size2M)
	if !ok || base != 0x300000 {
		t.Fatalf("contiguous resolve = (%#x, %v), want (0x300000, true)", base, ok)
	}
	scattered := func(pa mem.PAddr) (mem.PAddr, mem.PageSize, bool) {
		if pa >= 0x200000+mem.PageBytes4K {
			return pa + 0x40000000, mem.Size4K, true // second half backed elsewhere
		}
		return pa + 0x100000, mem.Size4K, true
	}
	if _, ok := ContiguousMachine(scattered, 0x200000, mem.Size2M); ok {
		t.Fatal("non-contiguous machine backing reported contiguous")
	}
	if _, ok := ContiguousMachine(identity, 0x5000, mem.Size4K); !ok {
		t.Fatal("4K page needs no contiguity beyond its own frame")
	}
}

// A leaf as large as the guest page maps all of it, so ContiguousMachine
// resolves the page once instead of once per 4 KiB piece.
func TestContiguousMachineTrustsALargeLeaf(t *testing.T) {
	for _, leaf := range []mem.PageSize{mem.Size2M, mem.Size1G} {
		calls := 0
		resolve := func(pa mem.PAddr) (mem.PAddr, mem.PageSize, bool) {
			calls++
			return pa + 0x40000000, leaf, true
		}
		base, ok := ContiguousMachine(resolve, 0x200000, mem.Size2M)
		if !ok || base != 0x40200000 || calls != 1 {
			t.Fatalf("%v leaf: resolve = (%#x, %v) in %d calls, want (0x40200000, true) in 1", leaf, base, ok, calls)
		}
	}
}

// TestMachineLeafIsSmallestLeaf checks MachineLeaf over all of L2's RAM,
// with and without THP: it agrees with MachineAddr and with the shadow
// builders' machineCursor, reports the smaller of the two host leaves on
// the way down, and the block of that size around the address is
// machine-contiguous at its first and last 4 KiB page.
func TestMachineLeafIsSmallestLeaf(t *testing.T) {
	for _, thp := range []bool{false, true} {
		n := newNestedEnv(t, thp)
		mc := newMachineCursor(n.l2)
		huge := 0
		for gpa := mem.PAddr(0); gpa < mem.PAddr(n.l2.RAMVMA.Size()); gpa += mem.PageBytes4K {
			ma, size, ok := n.l2.MachineLeaf(gpa)
			want, wok := n.l2.MachineAddr(gpa)
			if ok != wok || ma != want {
				t.Fatalf("thp=%v: MachineLeaf(%#x) = %#x %v, MachineAddr %#x %v", thp, uint64(gpa), uint64(ma), ok, uint64(want), wok)
			}
			if cma, csize, cok := mc.resolve(gpa); cok != ok || (ok && (cma != ma || csize != size)) {
				t.Fatalf("thp=%v: machineCursor(%#x) = %#x %v %v, MachineLeaf %#x %v %v", thp, uint64(gpa), uint64(cma), csize, cok, uint64(ma), size, ok)
			}
			if !ok {
				continue
			}
			hpa, s2, _ := n.l2.HostAS.PT.Lookup(mem.VAddr(gpa))
			_, s1, _ := n.l1.HostAS.PT.Lookup(mem.VAddr(hpa))
			if size != min(s1, s2) {
				t.Fatalf("thp=%v: MachineLeaf(%#x) size %v, host leaves %v and %v", thp, uint64(gpa), size, s2, s1)
			}
			if size == mem.Size4K {
				continue
			}
			huge++
			base := mem.AlignDownP(gpa, size.Bytes())
			mbase := ma - (gpa - base)
			last := base + mem.PAddr(size.Bytes()-mem.PageBytes4K)
			if m, _ := n.l2.MachineAddr(base); m != mbase {
				t.Fatalf("thp=%v: %v block at %#x starts at machine %#x, want %#x", thp, size, uint64(base), uint64(m), uint64(mbase))
			}
			if m, _ := n.l2.MachineAddr(last); m != mbase+(last-base) {
				t.Fatalf("thp=%v: %v block at %#x is not machine-contiguous", thp, size, uint64(base))
			}
		}
		if thp != (huge > 0) {
			t.Fatalf("thp=%v: %d pages under huge leaves at both depths", thp, huge)
		}
	}
}

func TestPvDMTNestedThreeRefs(t *testing.T) {
	e := newNestedEnv(t, false)
	spt, err := BuildNestedShadow(e.l2)
	if err != nil {
		t.Fatal(err)
	}
	fb := newNested(e.guest.PT, spt, e.hyp.Hier, 1)
	w := newPvNested(e.l2, e.gmgr, e.guest.Pool, e.hyp.Hier, fb)
	va := e.heap.Start + 0x5123
	out, refs := walk(w.Sink, w, va)
	if !out.OK || out.Fallback {
		t.Fatalf("nested pvDMT: ok=%v fallback=%v", out.OK, out.Fallback)
	}
	if out.SeqSteps != 3 {
		t.Fatalf("nested pvDMT took %d steps, want 3 (§3.2)", out.SeqSteps)
	}
	if out.PA != e.machineOf(t, va) {
		t.Fatal("nested pvDMT PA mismatch")
	}
	if len(refs) != 3 || refs[0].Dim != "L2" || refs[1].Dim != "L1" || refs[2].Dim != "L0" {
		t.Fatal("nested pvDMT dims wrong")
	}
}

func TestPvDMTNestedAgreesWithBaselineEverywhere(t *testing.T) {
	e := newNestedEnv(t, false)
	spt, err := BuildNestedShadow(e.l2)
	if err != nil {
		t.Fatal(err)
	}
	base := newNested(e.guest.PT, spt, e.hyp.Hier, 1)
	pv := newPvNested(e.l2, e.gmgr, e.guest.Pool, e.hyp.Hier, base)
	for off := uint64(0); off < e.heap.Size(); off += 113 << 12 {
		va := e.heap.Start + mem.VAddr(off)
		a, _ := walk(pv.Sink, pv, va)
		b, _ := walk(base.Sink, base, va)
		if !a.OK || !b.OK || a.PA != b.PA {
			t.Fatalf("divergence at %#x", uint64(va))
		}
	}
}

func TestCascadedHypercall(t *testing.T) {
	e := newNestedEnv(t, false)
	before := e.hyp.Hypercalls
	region, err := e.l2.AllocPvTEA(4)
	if err != nil {
		t.Fatal(err)
	}
	// The cascade must cross two levels: L2→L1 and L1→L0 (§4.5.3).
	if e.hyp.Hypercalls-before < 2 {
		t.Fatalf("cascaded hypercall crossed %d levels, want >= 2", e.hyp.Hypercalls-before)
	}
	// The region must be machine-contiguous: resolve each window page.
	for i := 0; i < region.Frames; i++ {
		gpa := region.NodeBase + mem.PAddr(i<<mem.PageShift4K)
		m, ok := e.l2.MachineAddr(gpa)
		if !ok {
			t.Fatalf("window page %d unresolvable", i)
		}
		if m != region.FetchBase+mem.PAddr(i<<mem.PageShift4K) {
			t.Fatalf("window page %d not machine-contiguous: %#x", i, uint64(m))
		}
	}
}

// TestPoolNodesAtMachineAddrs sanity-checks the placement invariants the
// walkers rely on: host PT nodes of a directly-hosted VM live at machine
// addresses and guest PT nodes at guest-physical addresses.
func TestPoolNodesAtMachineAddrs(t *testing.T) {
	e := newVEnv(t, false, true)
	va := e.heap.Start
	gpa, _, ok := e.guest.PT.Lookup(va)
	if !ok {
		t.Fatal("unmapped")
	}
	if uint64(gpa) >= uint64(testRAMBytes)+testWindowBytes {
		t.Fatalf("guest data frame %#x outside guest physical space", uint64(gpa))
	}
	hostWalk := e.vm.HostAS.PT.Walk(mem.VAddr(gpa))
	if !hostWalk.OK {
		t.Fatal("host walk failed")
	}
	for _, s := range hostWalk.Steps {
		if uint64(s.Addr) >= uint64(testMachineFrames)<<mem.PageShift4K {
			t.Fatalf("host PT node address %#x beyond machine memory", uint64(s.Addr))
		}
	}
	_ = pagetable.NewPool // silence potential unused import refactors
}

// TestFiveLevelNested35Refs verifies the §1/§2.1.1 claim: with five-level
// page tables, a cold two-dimensional walk takes up to 35 sequential
// memory references (5 guest levels × (5 host + 1) + 5 final host).
func TestFiveLevelNested35Refs(t *testing.T) {
	hyp := mustHyp(t, 1<<16)
	vm, err := hyp.NewVM(VMConfig{Name: "vm5", RAMBytes: 64 << 20, ASID: 7, PTLevels: mem.Levels5})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := vm.NewGuestProcessCfg(kernel.Config{ASID: 1, Levels: mem.Levels5})
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
	w := newNested(guest.PT, vm.HostAS.PT, hyp.Hier, 7)
	w.DisableMMUCaches()
	out, _ := walk(w.Sink, w, heap.Start+0x3123)
	if !out.OK {
		t.Fatal("5-level 2D walk faulted")
	}
	if out.SeqSteps != 35 {
		t.Fatalf("5-level 2D walk took %d refs, want 35 (§2.1.1)", out.SeqSteps)
	}
	gpa, _, _ := guest.PT.Lookup(heap.Start + 0x3123)
	want, _ := vm.MachineAddr(gpa)
	if out.PA != want {
		t.Fatal("5-level walk PA mismatch")
	}
	// pvDMT is depth-independent: still two fetches under 5-level tables.
	// (The register arithmetic never touches the radix structure.)
}

// TestPvDMTDepthIndependent verifies DMT's scalability claim (§3): pvDMT
// still takes exactly two references under five-level page tables, because
// the direct mapping never touches the radix structure.
func TestPvDMTDepthIndependent(t *testing.T) {
	hyp := mustHyp(t, 1<<16)
	vm, err := hyp.NewVM(VMConfig{
		Name: "vm5", RAMBytes: 64 << 20, ASID: 7, PTLevels: mem.Levels5,
		HostDMT: true, PvTEAWindowBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := vm.NewGuestProcessCfg(kernel.Config{ASID: 1, Levels: mem.Levels5})
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
	fb := newNested(guest.PT, vm.HostAS.PT, hyp.Hier, 7)
	w := newPv(vm, gmgr, guest.Pool, hyp.Hier, fb)
	out, _ := walk(w.Sink, w, heap.Start+0x5123)
	if !out.OK || out.Fallback {
		t.Fatalf("5-level pvDMT: ok=%v fallback=%v", out.OK, out.Fallback)
	}
	if out.SeqSteps != 2 {
		t.Fatalf("5-level pvDMT took %d refs, want 2 (depth-independent)", out.SeqSteps)
	}
	gpa, _, _ := guest.PT.Lookup(heap.Start + 0x5123)
	want, _ := vm.MachineAddr(gpa)
	if out.PA != want {
		t.Fatal("5-level pvDMT PA mismatch")
	}
}
