package kernel

import (
	"runtime"
	"testing"

	"dmt/internal/mem"
	"dmt/internal/phys"
)

func newAS(t *testing.T, frames int, cfg Config) *AddressSpace {
	t.Helper()
	as, err := NewAddressSpace(phys.New(0, frames), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestMMapAndFind(t *testing.T) {
	as := newAS(t, 4096, Config{})
	v, err := as.MMap(0x400000, 1<<20, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := as.FindVMA(0x400000 + 1234); !ok || got != v {
		t.Fatal("FindVMA missed inside the VMA")
	}
	if _, ok := as.FindVMA(0x400000 + 1<<20); ok {
		t.Fatal("FindVMA matched past End")
	}
	if _, ok := as.FindVMA(0x3ff000); ok {
		t.Fatal("FindVMA matched below Start")
	}
}

func TestMMapOverlapRejected(t *testing.T) {
	as := newAS(t, 4096, Config{})
	if _, err := as.MMap(0x400000, 1<<20, VMAHeap, "a"); err != nil {
		t.Fatal(err)
	}
	for _, start := range []mem.VAddr{0x400000, 0x4ff000, 0x3ff000} {
		if _, err := as.MMap(start, 2<<12, VMAAnon, "b"); err == nil {
			t.Fatalf("overlap at %#x not rejected", uint64(start))
		}
	}
	// Adjacent (touching) is fine.
	if _, err := as.MMap(0x500000, 4096, VMAAnon, "c"); err != nil {
		t.Fatalf("adjacent mapping rejected: %v", err)
	}
}

func TestVMAsSorted(t *testing.T) {
	as := newAS(t, 4096, Config{})
	for _, start := range []mem.VAddr{0x900000, 0x100000, 0x500000} {
		if _, err := as.MMap(start, 4096, VMAAnon, "x"); err != nil {
			t.Fatal(err)
		}
	}
	vmas := as.VMAs()
	for i := 1; i < len(vmas); i++ {
		if vmas[i-1].Start >= vmas[i].Start {
			t.Fatal("VMA list not sorted")
		}
	}
}

func TestDemandPaging(t *testing.T) {
	as := newAS(t, 4096, Config{})
	v, _ := as.MMap(0x400000, 64<<12, VMAHeap, "heap")
	free0 := as.Phys.FreeFrames()
	faulted, err := as.Touch(0x400000+5<<12+7, false)
	if err != nil || !faulted {
		t.Fatalf("first touch: faulted=%v err=%v", faulted, err)
	}
	faulted, err = as.Touch(0x400000+5<<12+99, true)
	if err != nil || faulted {
		t.Fatalf("second touch must not fault, got faulted=%v err=%v", faulted, err)
	}
	if v.PopulatedPages() != 1 {
		t.Fatalf("PopulatedPages = %d, want 1", v.PopulatedPages())
	}
	// One data frame + three page-table nodes were consumed.
	if used := free0 - as.Phys.FreeFrames(); used != 4 {
		t.Fatalf("frames used = %d, want 4 (1 data + 3 PT)", used)
	}
	pte, ok := as.PT.LeafPTE(0x400000 + 5<<12)
	if !ok || !pte.Accessed() || !pte.Dirty() {
		t.Fatal("A/D bits not maintained by Touch")
	}
}

func TestTouchOutsideVMA(t *testing.T) {
	as := newAS(t, 256, Config{})
	if _, err := as.Touch(0xdead000, false); err == nil {
		t.Fatal("touch outside any VMA must fail")
	}
}

func TestTHPFaultsHugePages(t *testing.T) {
	as := newAS(t, 2048, Config{THP: true})
	v, _ := as.MMap(0x40000000, 4<<20, VMAHeap, "heap") // 2 MiB-aligned, 4 MiB
	if _, err := as.Touch(0x40000000+123, false); err != nil {
		t.Fatal(err)
	}
	if size, ok := v.PresentSize(0x40000000); !ok || size != mem.Size2M {
		t.Fatal("THP fault did not install a 2 MiB page")
	}
	_, size, ok := as.PT.Lookup(0x40000000 + mem.PageBytes2M - 1)
	if !ok || size != mem.Size2M {
		t.Fatal("tail of THP region not covered")
	}
	if as.THPMapped != 1 {
		t.Fatalf("THPMapped = %d, want 1", as.THPMapped)
	}
}

func TestTHPFallsBackWhenFragmented(t *testing.T) {
	as := newAS(t, 768, Config{THP: true}) // < 2 MiB contiguity after PT overhead? force via small zone
	// Exhaust large blocks: 768 frames cannot supply order-9 (512) after
	// a few allocations.
	if _, err := as.Phys.Alloc(9, phys.KindUnmovable); err != nil {
		t.Skip("zone too small for initial order-9")
	}
	_, _ = as.MMap(0x40000000, 2<<20, VMAHeap, "heap")
	if _, err := as.Touch(0x40000000, false); err != nil {
		t.Fatalf("fallback to base page failed: %v", err)
	}
	_, size, _ := as.PT.Lookup(0x40000000)
	if size != mem.Size4K {
		t.Fatal("expected 4K fallback under fragmentation")
	}
}

func TestMUnmapReleasesEverything(t *testing.T) {
	as := newAS(t, 4096, Config{})
	free0 := as.Phys.FreeFrames()
	v, _ := as.MMap(0x400000, 32<<12, VMAHeap, "heap")
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	if err := as.MUnmap(v); err != nil {
		t.Fatal(err)
	}
	if as.Phys.FreeFrames() != free0 {
		t.Fatalf("leaked %d frames after MUnmap", free0-as.Phys.FreeFrames())
	}
	if _, ok := as.FindVMA(0x400000); ok {
		t.Fatal("VMA still findable after MUnmap")
	}
	if _, _, ok := as.PT.Lookup(0x400000); ok {
		t.Fatal("translation survived MUnmap")
	}
}

func TestShrinkUnmapsTail(t *testing.T) {
	as := newAS(t, 4096, Config{})
	v, _ := as.MMap(0x400000, 16<<12, VMAHeap, "heap")
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	if err := as.Shrink(v, 0x400000+8<<12); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := as.PT.Lookup(0x400000 + 9<<12); ok {
		t.Fatal("translation beyond new end survived Shrink")
	}
	if _, _, ok := as.PT.Lookup(0x400000); !ok {
		t.Fatal("translation below new end lost")
	}
	if v.PopulatedPages() != 8 {
		t.Fatalf("PopulatedPages = %d, want 8", v.PopulatedPages())
	}
}

func TestGrowChecksNeighbour(t *testing.T) {
	as := newAS(t, 4096, Config{})
	a, _ := as.MMap(0x400000, 4096, VMAHeap, "a")
	if _, err := as.MMap(0x402000, 4096, VMAAnon, "b"); err != nil {
		t.Fatal(err)
	}
	if err := as.Grow(a, 0x402000); err != nil {
		t.Fatalf("grow to touching neighbour should work: %v", err)
	}
	if err := as.Grow(a, 0x403000); err != ErrOverlap {
		t.Fatalf("grow into neighbour err = %v, want ErrOverlap", err)
	}
}

func TestRelocateRewritesPTE(t *testing.T) {
	as := newAS(t, 4096, Config{})
	v, _ := as.MMap(0x400000, 4096, VMAHeap, "heap")
	_ = v
	if _, err := as.Touch(0x400000, true); err != nil {
		t.Fatal(err)
	}
	var shotDown []mem.VAddr
	as.OnInvalidate(func(va mem.VAddr) { shotDown = append(shotDown, va) })
	old, _, _ := as.PT.Lookup(0x400000)
	oldFrame := mem.AlignDownP(old, mem.PageBytes4K)
	newFrame, err := as.Phys.AllocFrame(phys.KindMovable)
	if err != nil {
		t.Fatal(err)
	}
	if !as.Relocate(oldFrame, newFrame) {
		t.Fatal("Relocate refused a movable data frame")
	}
	got, _, ok := as.PT.Lookup(0x400000)
	if !ok || mem.AlignDownP(got, mem.PageBytes4K) != newFrame {
		t.Fatal("PTE not rewritten to the new frame")
	}
	if len(shotDown) == 0 {
		t.Fatal("no TLB shootdown issued for the migrated page")
	}
}

func TestPromoteTHP(t *testing.T) {
	as := newAS(t, 4096, Config{THP: true})
	v, _ := as.MMap(0x40000000, 2<<20, VMAHeap, "heap")
	// Populate with base pages by temporarily disabling THP.
	as.cfg.THP = false
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	as.cfg.THP = true
	if size, ok := v.PresentSize(0x40000000); ok && size == mem.Size2M {
		t.Fatal("precondition: region must start as base pages")
	}
	if n := as.PromoteTHP(v); n != 1 {
		t.Fatalf("PromoteTHP = %d, want 1", n)
	}
	_, size, ok := as.PT.Lookup(0x40000000 + 12345)
	if !ok || size != mem.Size2M {
		t.Fatal("promotion did not install a 2 MiB leaf")
	}
}

// hookRecorder verifies lifecycle hook delivery.
type hookRecorder struct {
	created, resized, deleted int
}

func (h *hookRecorder) VMACreated(*VMA)                       { h.created++ }
func (h *hookRecorder) VMAResized(*VMA, mem.VAddr, mem.VAddr) { h.resized++ }
func (h *hookRecorder) VMADeleted(*VMA)                       { h.deleted++ }
func (h *hookRecorder) PlaceNode(int, mem.VAddr) (mem.PAddr, bool) {
	return 0, false
}
func (h *hookRecorder) OwnsNode(mem.PAddr) bool { return false }

func TestHookDelivery(t *testing.T) {
	as := newAS(t, 4096, Config{})
	rec := &hookRecorder{}
	as.SetHooks(rec)
	v, _ := as.MMap(0x400000, 8<<12, VMAHeap, "heap")
	_ = as.Grow(v, 0x400000+16<<12)
	_ = as.Shrink(v, 0x400000+8<<12)
	_ = as.MUnmap(v)
	if rec.created != 1 || rec.resized != 2 || rec.deleted != 1 {
		t.Fatalf("hooks = %+v, want 1/2/1", *rec)
	}
}

func TestUnmapPage(t *testing.T) {
	as := newAS(t, 4096, Config{})
	v, _ := as.MMap(0x400000, 16<<12, VMAHeap, "heap")
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	free0 := as.Phys.FreeFrames()
	if err := as.UnmapPage(v, 0x400000+3<<12+0x123); err != nil {
		t.Fatal(err)
	}
	if as.Phys.FreeFrames() != free0+1 {
		t.Fatalf("frame not released: %d -> %d", free0, as.Phys.FreeFrames())
	}
	if _, _, ok := as.PT.Lookup(0x400000 + 3<<12); ok {
		t.Fatal("translation survived UnmapPage")
	}
	if _, _, ok := as.PT.Lookup(0x400000 + 4<<12); !ok {
		t.Fatal("neighbour page lost")
	}
	if err := as.UnmapPage(v, 0x400000+3<<12); err != ErrNotPopulated {
		t.Fatalf("double UnmapPage err = %v, want ErrNotPopulated", err)
	}
	// Re-touch repopulates on demand.
	if faulted, err := as.Touch(0x400000+3<<12, false); err != nil || !faulted {
		t.Fatalf("re-touch: faulted=%v err=%v", faulted, err)
	}
}

func TestUnmapPageTHP(t *testing.T) {
	as := newAS(t, 4096, Config{THP: true})
	v, _ := as.MMap(0x40000000, 4<<20, VMAHeap, "heap")
	if _, err := as.Touch(0x40000000+0x123456, false); err != nil {
		t.Fatal(err)
	}
	// Unmapping via any address inside the 2M page removes the whole leaf.
	if err := as.UnmapPage(v, 0x40000000+0x1fffff); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := as.PT.Lookup(0x40000000); ok {
		t.Fatal("2M leaf survived UnmapPage")
	}
}

// TestCloneRmapBytesFollowTouchedChunks pins the reverse map's clone cost
// below the 2 MiB frame chunks holding mapped data: a THP address space
// with a few scattered huge pages high in a 1 GiB machine has one rmap
// entry per huge page, and its clone shares the chunks until it writes
// them, not a slice up to the highest data frame.
func TestCloneRmapBytesFollowTouchedChunks(t *testing.T) {
	as := newAS(t, 1<<18, Config{THP: true})
	const start = mem.VAddr(1 << 30)
	if _, err := as.MMap(start, 512<<20, VMAHeap, "heap"); err != nil {
		t.Fatal(err)
	}
	var highest mem.PAddr
	for i := 0; i < 8; i++ {
		va := start + mem.VAddr(i)*64<<20
		if _, err := as.Touch(va, true); err != nil {
			t.Fatal(err)
		}
		pa, size, ok := as.PT.Lookup(va)
		if !ok || size != mem.Size2M {
			t.Fatalf("precondition: %#x not huge-mapped (ok=%v size=%v)", uint64(va), ok, size)
		}
		highest = max(highest, pa)
	}
	if highest < 512<<20 {
		t.Fatalf("precondition: highest data frame %#x sits below 512 MiB", uint64(highest))
	}
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		_ = as.rmap.clone()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / rounds; got >= 64<<10 {
		t.Fatalf("cloning the reverse map of 8 huge pages allocates %d bytes, want under 64 KiB", got)
	}
}
