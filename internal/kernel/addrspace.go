package kernel

import (
	"errors"
	"fmt"
	"sort"

	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
)

// Common address-space errors.
var (
	ErrOverlap      = errors.New("kernel: VMA overlaps existing mapping")
	ErrNoSuchVMA    = errors.New("kernel: no such VMA")
	ErrBadAddress   = errors.New("kernel: address outside any VMA")
	ErrUnaligned    = errors.New("kernel: unaligned address or length")
	ErrOutOfMemory  = errors.New("kernel: out of physical memory")
	ErrNotPopulated = errors.New("kernel: page not populated")
)

// InvalidateFunc is called when a translation is torn down or changed so
// that simulated TLBs can drop stale entries (the shootdown path).
type InvalidateFunc func(va mem.VAddr)

// Config controls an AddressSpace.
type Config struct {
	// Levels is the page-table depth (mem.Levels4 by default).
	Levels int
	// THP enables transparent-huge-page allocation on faults.
	THP bool
	// ASID identifies the address space in TLB tags.
	ASID uint16
}

// AddressSpace is one process's (or one guest-physical) address space:
// the VMA list, the radix page table, and the demand-paging state.
type AddressSpace struct {
	Phys *phys.Allocator
	Pool *pagetable.Pool
	PT   *pagetable.Table

	cfg   Config
	vmas  []*VMA // sorted by Start
	hooks MMHooks

	// rmap maps data frames back to the page mapping them, enabling
	// movable-page migration.
	rmap rmapTable

	invalidate []InvalidateFunc

	// Stats
	Faults     uint64
	THPMapped  uint64
	MMapCalls  uint64
	MergedVMAs uint64
}

// rmapTable is the reverse map from data frames to the page mapping them.
// Each entry packs the (4 KiB-aligned) VA with the leaf size + 1 in the low
// bits, so a zero word means "unmapped". It is a mem.FrameMap — the same
// frame index the page-table node pool uses — keeping the demand-paging hot
// path free of map operations, and a clone's copies limited to the 2 MiB
// frame chunks it writes.
type rmapTable struct {
	frames mem.FrameMap[uint64]
}

func (r *rmapTable) set(pa mem.PAddr, va mem.VAddr, size mem.PageSize) {
	r.frames.Set(pa, uint64(va)|(uint64(size)+1))
}

func (r *rmapTable) get(pa mem.PAddr) (mem.VAddr, mem.PageSize, bool) {
	enc := r.frames.Get(pa)
	if enc == 0 {
		return 0, 0, false
	}
	return mem.VAddr(enc &^ (mem.PageBytes4K - 1)), mem.PageSize(enc&(mem.PageBytes4K-1)) - 1, true
}

func (r *rmapTable) del(pa mem.PAddr) { r.frames.Delete(pa) }

// NewAddressSpace builds a process address space backed by pa.
func NewAddressSpace(pa *phys.Allocator, cfg Config) (*AddressSpace, error) {
	if cfg.Levels == 0 {
		cfg.Levels = mem.Levels4
	}
	as := &AddressSpace{
		Phys: pa,
		Pool: pagetable.NewPool(),
		cfg:  cfg,
	}
	pt, err := pagetable.New(as.Pool, cfg.Levels, as.allocNode, as.freeNode)
	if err != nil {
		return nil, err
	}
	as.PT = pt
	pa.SetRelocator(as)
	return as, nil
}

// SetHooks installs the DMT-Linux TEA hooks. Must be called before VMAs are
// created for placement to take effect from the start.
func (as *AddressSpace) SetHooks(h MMHooks) { as.hooks = h }

// Hooks returns the installed hook set.
func (as *AddressSpace) Hooks() MMHooks { return as.hooks }

// ASID returns the address-space identifier used in TLB tags.
func (as *AddressSpace) ASID() uint16 { return as.cfg.ASID }

// THPEnabled reports whether transparent huge pages are on.
func (as *AddressSpace) THPEnabled() bool { return as.cfg.THP }

// OnInvalidate registers a TLB-invalidation callback.
func (as *AddressSpace) OnInvalidate(f InvalidateFunc) {
	as.invalidate = append(as.invalidate, f)
}

func (as *AddressSpace) notifyInvalidate(va mem.VAddr) {
	for _, f := range as.invalidate {
		f(va)
	}
}

func (as *AddressSpace) allocNode(level int, va mem.VAddr) (mem.PAddr, error) {
	if as.hooks != nil {
		if pa, ok := as.hooks.PlaceNode(level, va); ok {
			return pa, nil
		}
	}
	return as.Phys.AllocFrame(phys.KindPageTable)
}

func (as *AddressSpace) freeNode(level int, pa mem.PAddr) {
	if as.hooks != nil && as.hooks.OwnsNode(pa) {
		return // TEA-resident node pages are freed with their TEA
	}
	as.Phys.FreeFrame(pa)
}

// AllocNodeFrame allocates a page-table node frame from the space's
// allocator, bypassing placement hooks. The TEA manager uses it to
// evacuate shared nodes out of storage it is about to release; the frame
// is freed by normal teardown once the node empties, like any
// buddy-placed node.
func (as *AddressSpace) AllocNodeFrame() (mem.PAddr, error) {
	return as.Phys.AllocFrame(phys.KindPageTable)
}

// FreeNodeFrame releases a frame obtained from AllocNodeFrame that was
// never installed in the page table.
func (as *AddressSpace) FreeNodeFrame(pa mem.PAddr) { as.Phys.FreeFrame(pa) }

// VMAs returns the VMA list, sorted by start address.
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// ReverseMap returns the page mapping the frame containing pa — its base
// VA and leaf size — as the reverse map records it.
func (as *AddressSpace) ReverseMap(pa mem.PAddr) (mem.VAddr, mem.PageSize, bool) {
	return as.rmap.get(pa)
}

// FindVMA returns the VMA containing va.
func (as *AddressSpace) FindVMA(va mem.VAddr) (*VMA, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > va })
	if i < len(as.vmas) && as.vmas[i].Contains(va) {
		return as.vmas[i], true
	}
	return nil, false
}

// MMap creates a VMA at [start, start+length). Both must be 4 KiB-aligned
// and the range must not overlap an existing VMA.
func (as *AddressSpace) MMap(start mem.VAddr, length uint64, kind VMAKind, name string) (*VMA, error) {
	if !mem.IsAligned(uint64(start), mem.PageBytes4K) || !mem.IsAligned(length, mem.PageBytes4K) || length == 0 {
		return nil, ErrUnaligned
	}
	end := start + mem.VAddr(length)
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > start })
	if i < len(as.vmas) && as.vmas[i].Start < end {
		return nil, fmt.Errorf("%w: [%#x,%#x) vs %s", ErrOverlap, uint64(start), uint64(end), as.vmas[i])
	}
	v := &VMA{Start: start, End: end, Kind: kind, Name: name}
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
	as.MMapCalls++
	if as.hooks != nil {
		as.hooks.VMACreated(v)
	}
	return v, nil
}

// MUnmap removes the VMA, tearing down all of its translations.
func (as *AddressSpace) MUnmap(v *VMA) error {
	i := as.indexOf(v)
	if i < 0 {
		return ErrNoSuchVMA
	}
	// Tear down translations while the TEA mapping is still live so
	// TEA-resident node frames are recognized (OwnsNode) and freed with
	// their TEA rather than individually.
	v.forEachPresent(func(page mem.VAddr, size mem.PageSize) {
		as.unmapPage(v, page)
	})
	if as.hooks != nil {
		as.hooks.VMADeleted(v)
	}
	as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
	return nil
}

// Grow extends the VMA's end (mremap/brk analogue).
func (as *AddressSpace) Grow(v *VMA, newEnd mem.VAddr) error {
	i := as.indexOf(v)
	if i < 0 {
		return ErrNoSuchVMA
	}
	if !mem.IsAligned(uint64(newEnd), mem.PageBytes4K) || newEnd <= v.End {
		return ErrUnaligned
	}
	if i+1 < len(as.vmas) && as.vmas[i+1].Start < newEnd {
		return ErrOverlap
	}
	oldStart, oldEnd := v.Start, v.End
	v.End = newEnd
	if as.hooks != nil {
		as.hooks.VMAResized(v, oldStart, oldEnd)
	}
	return nil
}

// Shrink reduces the VMA's end, unmapping pages beyond it.
func (as *AddressSpace) Shrink(v *VMA, newEnd mem.VAddr) error {
	if as.indexOf(v) < 0 {
		return ErrNoSuchVMA
	}
	if !mem.IsAligned(uint64(newEnd), mem.PageBytes4K) || newEnd >= v.End || newEnd <= v.Start {
		return ErrUnaligned
	}
	// A huge page straddling the new end would survive the teardown loop
	// (its recorded base is below newEnd) while still translating VAs
	// beyond it; a later MMap over that range would then alias its tail
	// frames. Shatter it first so the tail unmaps page by page.
	if hbase := mem.AlignDown(newEnd, mem.PageBytes2M); hbase < newEnd {
		if size, ok := v.pageAt(hbase); ok && size == mem.Size2M {
			if err := as.SplitHugePage(v, hbase); err != nil {
				return err
			}
		}
	}
	v.forEachPresent(func(page mem.VAddr, size mem.PageSize) {
		if page >= newEnd {
			as.unmapPage(v, page)
		}
	})
	oldStart, oldEnd := v.Start, v.End
	v.End = newEnd
	if as.hooks != nil {
		as.hooks.VMAResized(v, oldStart, oldEnd)
	}
	return nil
}

func (as *AddressSpace) indexOf(v *VMA) int {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	if i < len(as.vmas) && as.vmas[i] == v {
		return i
	}
	return -1
}

// Touch ensures va is mapped, faulting a page in if necessary. It returns
// true when a page fault was taken.
func (as *AddressSpace) Touch(va mem.VAddr, write bool) (bool, error) {
	if _, _, ok := as.PT.Lookup(va); ok {
		as.PT.SetAccessed(va, write)
		return false, nil
	}
	v, ok := as.FindVMA(va)
	if !ok {
		return false, fmt.Errorf("%w: %#x", ErrBadAddress, uint64(va))
	}
	if err := as.faultIn(v, va); err != nil {
		return false, err
	}
	as.PT.SetAccessed(va, write)
	as.Faults++
	return true, nil
}

// faultIn installs a mapping for va, preferring a 2 MiB THP when enabled
// and the aligned 2 MiB region lies fully inside the VMA.
func (as *AddressSpace) faultIn(v *VMA, va mem.VAddr) error {
	if as.cfg.THP {
		base := mem.AlignDown(va, mem.PageBytes2M)
		if base >= v.Start && base+mem.PageBytes2M <= v.End && as.spanUnmapped(base) {
			if pa, err := as.Phys.Alloc(9, phys.KindMovable); err == nil { // 2^9 frames = 2 MiB
				if err := as.PT.Map(base, pa, mem.Size2M, mem.PTEWritable); err != nil {
					as.Phys.Free(pa, 9)
					return err
				}
				v.setPresent(base, mem.Size2M, false)
				as.rmap.set(pa, base, mem.Size2M)
				as.THPMapped++
				return nil
			}
			// Fragmented: fall through to a base page.
		}
	}
	return as.mapBasePage(v, mem.AlignDown(va, mem.PageBytes4K))
}

// mapBasePage backs the 4 KiB page at base with a fresh movable frame.
func (as *AddressSpace) mapBasePage(v *VMA, base mem.VAddr) error {
	pa, err := as.Phys.AllocFrame(phys.KindMovable)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrOutOfMemory, err)
	}
	if err := as.PT.Map(base, pa, mem.Size4K, mem.PTEWritable); err != nil {
		as.Phys.FreeFrame(pa)
		return err
	}
	v.setPresent(base, mem.Size4K, false)
	as.rmap.set(pa, base, mem.Size4K)
	return nil
}

// spanUnmapped reports whether no leaf is installed anywhere inside the
// aligned 2 MiB span at base. A THP must not overlay live 4K mappings: a
// 2 MiB region that was split and then partially unmapped still holds base
// pages, and mapping a huge leaf over them would fail (or worse, shadow
// them). One walk to level 2 answers for all 512 pages.
func (as *AddressSpace) spanUnmapped(base mem.VAddr) bool {
	cur := as.PT.Cursor()
	return !cur.SpanMapped(base)
}

func (as *AddressSpace) unmapPage(v *VMA, page mem.VAddr) {
	// Free by what the page table actually holds, not by the VMA's
	// recorded page size: a teardown that races a failed split or
	// promotion can find a leaf of the other size, and freeing a 4 KiB
	// frame at order 9 (or a 2 MiB block at order 0) double-frees
	// neighbours or leaks the tail. The rmap entry is only dropped once
	// the unmap succeeds, so a frame that stays mapped stays migratable.
	if _, size, ok := as.PT.Lookup(page); ok {
		pte, _ := as.PT.LeafPTE(page)
		frame := pte.Frame()
		if err := as.PT.Unmap(page, size); err == nil {
			as.rmap.del(frame)
			if !v.isResident(page) {
				if size == mem.Size4K {
					as.Phys.FreeFrame(frame)
				} else {
					as.Phys.Free(frame, 9)
				}
			}
		}
	}
	v.clearPresent(page)
	as.notifyInvalidate(page)
}

// MapResident installs a translation to a caller-owned frame: the page is
// neither movable nor freed back to this address space's allocator on
// unmap. This is the vm_insert_pages analogue the hypervisor uses to map
// host-allocated gTEAs into the guest physical space (§4.6.2). Any prior
// mapping of the page is torn down first.
func (as *AddressSpace) MapResident(v *VMA, va mem.VAddr, pa mem.PAddr, size mem.PageSize) error {
	if !v.Contains(va) {
		return ErrBadAddress
	}
	base := mem.AlignDown(va, size.Bytes())
	if _, ok := v.pageAt(base); ok {
		as.unmapPage(v, base)
	}
	if err := as.PT.Map(base, pa, size, mem.PTEWritable); err != nil {
		return err
	}
	v.setPresent(base, size, true)
	return nil
}

// UnmapPage releases a single populated page of v (the madvise(DONTNEED)
// analogue), freeing its frame and shooting down the translation.
func (as *AddressSpace) UnmapPage(v *VMA, va mem.VAddr) error {
	base := mem.AlignDown(va, mem.PageBytes4K)
	if _, ok := v.pageAt(base); !ok {
		// The page may be covered by a 2 MiB leaf whose base entry is
		// recorded at the huge-page boundary.
		hbase := mem.AlignDown(va, mem.PageBytes2M)
		if hsize, hok := v.pageAt(hbase); !hok || hsize != mem.Size2M {
			return ErrNotPopulated
		}
		base = hbase
	}
	as.unmapPage(v, base)
	return nil
}

// Populate eagerly faults in the whole VMA, modelling init-time allocation
// by data-intensive workloads (§7: "they typically allocate memory at the
// initialization time"). v must be one of the space's VMAs.
func (as *AddressSpace) Populate(v *VMA) error {
	if as.indexOf(v) < 0 {
		return ErrNoSuchVMA
	}
	if as.cfg.THP {
		// Fault at 2 MiB strides first so THP regions allocate as units.
		for va := mem.AlignUp(v.Start, mem.PageBytes2M); va+mem.PageBytes2M <= v.End; va += mem.PageBytes2M {
			if _, err := as.Touch(va, true); err != nil {
				return err
			}
		}
	}
	// The sweep keeps a cursor on the current 2 MiB span's level-1 node and
	// maps it in runs: the absent pages up to the next present slot, the
	// span's end or the VMA's end. The first absent page of a span with no
	// level-1 node takes the demand fault path (Touch), where node
	// allocation, TEA placement and the THP attempt happen, and the cursor
	// re-resolves after it. Once the node exists, Touch would take the same
	// steps for every page of a run: a live level-1 node rules out a THP,
	// mapping into it allocates no node, and each page takes one movable
	// frame and a written, accessed PTE. So a run costs one AllocFrames and
	// one MapRun, and leaves the machine the per-page faults would.
	var frames [mem.EntriesPerNode]mem.PAddr
	cur := as.PT.Cursor()
	for va := v.Start; va < v.End; {
		if _, _, ok := cur.Lookup(va); ok {
			va += mem.PageBytes4K
			continue
		}
		if !cur.SpanMapped(va) { // no level-1 node: a huge leaf would have mapped va
			if _, err := as.Touch(va, true); err != nil {
				return err
			}
			cur.Reset()
			va += mem.PageBytes4K
			continue
		}
		run := frames[:cur.AbsentRun(va, v.End)]
		n, err := as.Phys.AllocFrames(phys.KindMovable, run)
		cur.MapRun(va, run[:n], mem.PTEWritable|mem.PTEAccessed|mem.PTEDirty)
		for _, pa := range run[:n] {
			v.setPresent(va, mem.Size4K, false)
			as.rmap.set(pa, va, mem.Size4K)
			va += mem.PageBytes4K
		}
		as.Faults += uint64(n)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrOutOfMemory, err)
		}
	}
	return nil
}

// Relocate implements phys.Relocator: when the buddy allocator migrates a
// movable data frame, rewrite the PTE and shoot down the stale translation.
func (as *AddressSpace) Relocate(old, new mem.PAddr) bool {
	va, size, ok := as.rmap.get(old)
	if !ok {
		return false
	}
	// Only base pages migrate frame-by-frame. The allocator offers an
	// order-0 destination; remapping a 2 MiB leaf onto it would alias the
	// 511 frames behind it whenever the destination happened to be 2 MiB
	// aligned, and the eventual Free(dst, 9) would release frames owned
	// by strangers. Huge pages must be split before their frames move.
	if size != mem.Size4K {
		return false
	}
	if err := as.PT.Unmap(va, size); err != nil {
		return false
	}
	if err := as.PT.Map(va, new, size, mem.PTEWritable); err != nil {
		// Restore the original mapping; migration is abandoned.
		_ = as.PT.Map(va, old, size, mem.PTEWritable)
		return false
	}
	as.rmap.del(old)
	as.rmap.set(new, va, size)
	as.notifyInvalidate(va)
	return true
}

// SplitHugePage shatters the 2 MiB mapping covering va into 512 base-page
// mappings over the same frames (the THP split path taken under memory
// pressure, partial munmap, or mprotect). Data keeps its physical
// placement; only the leaf level changes — the 4K/2M flip that the DMT
// fetcher's parallel-fetch disambiguation (§4.4) must survive.
func (as *AddressSpace) SplitHugePage(v *VMA, va mem.VAddr) error {
	base := mem.AlignDown(va, mem.PageBytes2M)
	if size, ok := v.pageAt(base); !ok || size != mem.Size2M {
		return ErrNotPopulated
	}
	if v.isResident(base) {
		return fmt.Errorf("kernel: cannot split caller-owned mapping at %#x", uint64(base))
	}
	pte, ok := as.PT.LeafPTE(base)
	if !ok {
		return ErrNotPopulated
	}
	frame := pte.Frame()
	if err := as.PT.Unmap(base, mem.Size2M); err != nil {
		return err
	}
	as.rmap.del(frame)
	v.clearPresent(base)
	as.notifyInvalidate(base)
	for off := mem.VAddr(0); off < mem.PageBytes2M; off += mem.PageBytes4K {
		pa := frame + mem.PAddr(uint64(off))
		if err := as.PT.Map(base+off, pa, mem.Size4K, mem.PTEWritable); err != nil {
			// Unwind: a partial split would leave the tail of the 2 MiB
			// block mapped nowhere but never freed. Tear down the base
			// pages already installed and try to restore the huge leaf;
			// if even that fails, release the block — the data re-faults.
			for undo := mem.VAddr(0); undo < off; undo += mem.PageBytes4K {
				if as.PT.Unmap(base+undo, mem.Size4K) == nil {
					as.rmap.del(frame + mem.PAddr(uint64(undo)))
					v.clearPresent(base + undo)
					as.notifyInvalidate(base + undo)
				}
			}
			if as.PT.Map(base, frame, mem.Size2M, mem.PTEWritable) == nil {
				v.setPresent(base, mem.Size2M, false)
				as.rmap.set(frame, base, mem.Size2M)
			} else {
				as.Phys.Free(frame, 9)
			}
			return err
		}
		v.setPresent(base+off, mem.Size4K, false)
		as.rmap.set(pa, base+off, mem.Size4K)
	}
	return nil
}

// PromoteTHP collapses fully-populated, physically-contiguous... — in this
// model it re-faults an aligned 2 MiB region as a huge page, freeing the
// 512 base frames (khugepaged analogue). It reports promoted regions.
func (as *AddressSpace) PromoteTHP(v *VMA) int {
	if !as.cfg.THP {
		return 0
	}
	promoted := 0
	for base := mem.AlignUp(v.Start, mem.PageBytes2M); base+mem.PageBytes2M <= v.End; base += mem.PageBytes2M {
		if size, ok := v.pageAt(base); ok && size == mem.Size2M {
			continue
		}
		// All 512 base pages must be present and owned by this address
		// space: collapsing over a caller-owned resident page (a mapped
		// gTEA window slot) would silently drop the foreign mapping.
		full := true
		for off := mem.VAddr(0); off < mem.PageBytes2M; off += mem.PageBytes4K {
			if size, ok := v.pageAt(base + off); !ok || size != mem.Size4K || v.isResident(base+off) {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		pa, err := as.Phys.Alloc(9, phys.KindMovable)
		if err != nil {
			return promoted
		}
		for off := mem.VAddr(0); off < mem.PageBytes2M; off += mem.PageBytes4K {
			as.unmapPage(v, base+off)
		}
		if err := as.PT.Map(base, pa, mem.Size2M, mem.PTEWritable); err != nil {
			as.Phys.Free(pa, 9)
			return promoted
		}
		v.setPresent(base, mem.Size2M, false)
		as.rmap.set(pa, base, mem.Size2M)
		as.THPMapped++
		promoted++
	}
	return promoted
}
