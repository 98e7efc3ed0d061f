package phys

import (
	"errors"
	"fmt"
	"math/rand"

	"dmt/internal/mem"
)

// AllocContig allocates nframes physically-contiguous 4 KiB frames, the
// analogue of Linux's alloc_contig_pages used by DMT-Linux to back TEAs
// (§4.3). It first tries a buddy block of the covering order; failing that
// it scans for a window whose frames are all free or movable, migrates the
// movable ones out (via the registered Relocator), and claims the window.
// It returns ErrNoContig when no window can be assembled, which the TEA
// manager answers by splitting the VMA-to-TEA mapping (§4.2.2).
func (a *Allocator) AllocContig(nframes int, kind Kind) (mem.PAddr, error) {
	if nframes <= 0 {
		return 0, ErrNoContig
	}
	if kind == KindFree {
		return 0, errors.New("phys: cannot allocate KindFree")
	}
	// Fast path: an exact buddy block.
	if order := coveringOrder(nframes); order <= MaxOrder {
		if pa, err := a.Alloc(order, kind); err == nil {
			// Trim the tail beyond nframes back to the free lists.
			f := a.frameOf(pa)
			extra := (uint32(1) << order) - uint32(nframes)
			if extra > 0 {
				a.release(f+uint32(nframes), extra)
			}
			a.Stats.ContigAllocs++
			return pa, nil
		}
	}
	// Slow path: scan for a claimable window, like alloc_contig_range.
	a.Stats.ContigScans++
	n := uint32(nframes)
	if start, ok := a.findWindow(n, false); ok {
		a.claimWindow(start, n, kind)
		a.Stats.ContigAllocs++
		return a.addrOf(start), nil
	}
	if a.relocator != nil {
		if start, ok := a.findWindow(n, true); ok {
			if a.migrateOut(start, n) {
				a.claimWindow(start, n, kind)
				a.Stats.ContigAllocs++
				return a.addrOf(start), nil
			}
		}
	}
	return 0, ErrNoContig
}

// FreeContig releases a range allocated by AllocContig. Like Free, it
// panics on a double free: releaseAllocated feeds frames straight back to
// the free lists without checking, so an unvalidated duplicate release
// would silently inflate freeFrames and corrupt the buddy metadata —
// exactly the slow long-run rot the lifecycle oracle exists to catch.
func (a *Allocator) FreeContig(pa mem.PAddr, nframes int) {
	if nframes <= 0 {
		panic("phys: FreeContig of non-positive length")
	}
	f := a.frameOf(pa)
	n := uint32(nframes)
	if uint64(f)+uint64(n) > uint64(a.frames) {
		panic("phys: FreeContig beyond managed region")
	}
	for i := f; i < f+n; i++ {
		if a.kindOf(i) == KindFree {
			panic(fmt.Sprintf("phys: double free of frame %d", i))
		}
	}
	a.freeFrames += n
	a.Stats.Frees++
	a.releaseAllocated(f, n)
}

// ExpandContigInPlace tries to extend an existing contiguous allocation by
// extra frames immediately after its current end, implementing the in-place
// TEA expansion of §4.3. It reports whether the expansion succeeded.
func (a *Allocator) ExpandContigInPlace(pa mem.PAddr, cur, extra int) bool {
	f := a.frameOf(pa)
	start := f + uint32(cur)
	end := start + uint32(extra)
	if end > a.frames {
		return false
	}
	for i := start; i < end; i++ {
		if a.kindOf(i) != KindFree {
			return false
		}
	}
	kind := a.kindOf(f)
	a.claimWindow(start, uint32(extra), kind)
	return true
}

func coveringOrder(nframes int) int {
	order := 0
	for 1<<order < nframes {
		order++
	}
	return order
}

// release returns a run of currently-allocated bookkeeping (from a split
// block) to the free lists without touching freeFrames, used when trimming
// an over-allocated buddy block.
func (a *Allocator) release(f, n uint32) {
	a.freeFrames += n
	a.releaseAllocated(f, n)
}

// releaseAllocated frees the run [f, f+n) frame-by-frame in maximal aligned
// buddy chunks so coalescing works.
func (a *Allocator) releaseAllocated(f, n uint32) {
	for n > 0 {
		order := 0
		for order < MaxOrder && f&(1<<(order+1)-1) == 0 && uint32(1)<<(order+1) <= n {
			order++
		}
		a.freeBlock(f, order)
		f += 1 << order
		n -= 1 << order
	}
}

// findWindow scans for n consecutive frames that are free (and, when
// allowMovable is set, movable). The scan is linear from the bottom of the
// zone, like the isolation scanner in alloc_contig_range.
func (a *Allocator) findWindow(n uint32, allowMovable bool) (uint32, bool) {
	var runStart, runLen uint32
	for f := uint32(0); f < a.frames; {
		s := a.span(f, a.frames)
		for i := range s {
			if k := s[i].kind; k != KindFree && (!allowMovable || k != KindMovable) {
				runLen = 0
				continue
			}
			if runLen == 0 {
				runStart = f + uint32(i)
			}
			runLen++
			if runLen >= n {
				return runStart, true
			}
		}
		f += uint32(len(s))
	}
	return 0, false
}

// migrateOut relocates every movable allocated frame in [start, start+n)
// to frames outside the window. It returns false (leaving successfully
// migrated frames at their new homes) if any migration fails.
func (a *Allocator) migrateOut(start, n uint32) bool {
	for f := start; f < start+n; f++ {
		if a.kindOf(f) != KindMovable {
			continue
		}
		if !a.migrateFrame(f, start, n) {
			return false
		}
	}
	return true
}

// migrateFrame moves one movable frame to a free frame outside the window
// [wStart, wStart+wLen).
func (a *Allocator) migrateFrame(f, wStart, wLen uint32) bool {
	dst, ok := a.findFreeOutside(wStart, wLen)
	if !ok || a.relocator == nil {
		return false
	}
	old := a.addrOf(f)
	a.carveFrame(dst)
	a.claim(dst, 1, KindMovable)
	if !a.relocator.Relocate(old, a.addrOf(dst)) {
		// Owner refused; roll back the destination frame.
		a.freeFrames++
		a.freeBlock(dst, 0)
		return false
	}
	a.Stats.Migrations++
	// Release the source frame (it becomes part of the window; the caller
	// claims it, so just mark free here).
	a.freeFrames++
	a.freeBlock(f, 0)
	return true
}

// findFreeOutside locates a free frame outside the given window, searching
// from the top of the zone downward (mirroring compaction's free scanner).
func (a *Allocator) findFreeOutside(wStart, wLen uint32) (uint32, bool) {
	if f := a.scanDown(wStart+wLen, a.frames, KindFree); f > wStart+wLen {
		return f - 1, true
	}
	if f := a.scanDown(0, wStart, KindFree); f > 0 {
		return f - 1, true
	}
	return 0, false
}

// carveFrame splits free blocks until frame f is the head of an order-0
// free block, then detaches it. The caller must claim it afterwards.
func (a *Allocator) carveFrame(f uint32) {
	head, order := a.containingFreeBlock(f)
	// Detach the containing block.
	a.setOrder(head, -1)
	for order > 0 {
		half := uint32(1) << (order - 1)
		if f < head+half {
			a.insertFree(head+half, order-1)
		} else {
			a.insertFree(head, order-1)
			head += half
		}
		order--
		a.Stats.Splits++
	}
	// f == head: an order-0 detached frame, still KindFree but unlisted
	// (an interior frame of a free block heads nothing, so the half kept
	// for f never needs its head cleared). The caller claims it (setting
	// its kind and adjusting freeFrames) next.
}

// containingFreeBlock finds the head and order of the free block holding f.
func (a *Allocator) containingFreeBlock(f uint32) (uint32, int) {
	for order := 0; order <= MaxOrder; order++ {
		head := f &^ (uint32(1)<<order - 1)
		if a.order(head) == order {
			return head, order
		}
	}
	panic("phys: frame not in any free block")
}

// claimWindow marks an arbitrary free window allocated, splitting any free
// blocks that straddle its edges.
func (a *Allocator) claimWindow(start, n uint32, kind Kind) {
	for f := start; f < start+n; f++ {
		if a.kindOf(f) != KindFree {
			panic("phys: claimWindow over non-free frame")
		}
		a.carveFrame(f)
	}
	a.setKinds(start, n, kind)
	a.freeFrames -= n
	a.Stats.Allocs++
}

// Compact migrates movable frames from the top of the zone into free frames
// near the bottom, increasing high-order contiguity the way Linux's memory
// compaction does. It returns the number of frames migrated.
func (a *Allocator) Compact() int {
	if a.relocator == nil {
		return 0
	}
	migrated := 0
	lo, hi := uint32(0), a.frames
	for lo < hi {
		// Advance lo to the next free frame, and retreat hi to just
		// above the next movable frame.
		lo = a.scanUp(lo, hi, KindFree)
		if hi = a.scanDown(lo, hi, KindMovable); lo >= hi {
			break
		}
		src := hi - 1
		dst := lo
		a.carveFrame(dst)
		a.claim(dst, 1, KindMovable)
		if !a.relocator.Relocate(a.addrOf(src), a.addrOf(dst)) {
			a.freeFrames++
			a.freeBlock(dst, 0)
			hi--
			continue
		}
		a.freeFrames++
		a.freeBlock(src, 0)
		a.Stats.Migrations++
		migrated++
		lo++
		hi--
	}
	return migrated
}

// FragmentationIndex reports how fragmented free memory is with respect to
// allocations of the given order, on [0, 1]: 0 means all free memory sits
// in blocks of at least that order; values near 1 mean free memory exists
// only as smaller fragments. It is the analogue of Linux's external
// fragmentation index used in the §6.3 methodology (index 0.99).
func (a *Allocator) FragmentationIndex(order int) float64 {
	if a.freeFrames == 0 {
		return 0
	}
	counts := a.FreeBlockCounts()
	var suitable uint64
	for o := order; o <= MaxOrder; o++ {
		suitable += uint64(counts[o]) << uint(o)
	}
	return 1 - float64(suitable)/float64(a.freeFrames)
}

// FreeBlockCounts returns the number of free blocks at each order, computed
// from the authoritative frame state rather than the lazy-deletion
// stacks: a head detached by carveFrame and later re-inserted by coalescing
// appears twice on its stack, and counting stack entries (as an earlier
// revision did) double-counted such blocks, skewing FragmentationIndex low.
func (a *Allocator) FreeBlockCounts() [MaxOrder + 1]int {
	var counts [MaxOrder + 1]int
	for f := uint32(0); f < a.frames; {
		s := a.span(f, a.frames)
		for i := range s {
			if h := s[i].head; h > 0 {
				counts[h-1]++
			}
		}
		f += uint32(len(s))
	}
	return counts
}

// Fragment deliberately fragments free memory until the order-`order`
// fragmentation index reaches at least target, reproducing the methodology
// of §6.3 (a fragmentation tool driving the index to 0.99). It allocates
// every free frame as an unmovable pin, then releases every other frame:
// free memory ends up as isolated single frames (~half the zone stays
// available, none of it contiguous). The surviving pins model background
// load.
func (a *Allocator) Fragment(rng *rand.Rand, order int, target float64) {
	// Consume the rng unconditionally: an early return that skipped the
	// draw made rand-state divergence depend on allocator state, so a
	// Clone() sharing the caller's rng could diverge from the original.
	offset := rng.Intn(2)
	if a.FragmentationIndex(order) >= target {
		return
	}
	var held []mem.PAddr
	for {
		pa, err := a.AllocFrame(KindUnmovable)
		if err != nil {
			break
		}
		held = append(held, pa)
	}
	for i, pa := range held {
		if i%2 == offset {
			a.FreeFrame(pa)
		}
	}
}
