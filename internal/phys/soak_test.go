package phys

import (
	"math/rand"
	"testing"

	"dmt/internal/mem"
)

// trackingRelocator models the kernel's rmap: it owns a set of movable 4K
// frames and rewrites its own records when the allocator migrates one.
// Frames it does not own (or multi-frame blocks) are refused, mirroring
// how the kernel refuses to migrate huge pages frame-by-frame.
type trackingRelocator struct {
	frames []mem.PAddr
	idx    map[mem.PAddr]int
}

func newTrackingRelocator() *trackingRelocator {
	return &trackingRelocator{idx: make(map[mem.PAddr]int)}
}

func (r *trackingRelocator) Relocate(old, new mem.PAddr) bool {
	i, ok := r.idx[old]
	if !ok {
		return false
	}
	delete(r.idx, old)
	r.frames[i] = new
	r.idx[new] = i
	return true
}

func (r *trackingRelocator) add(pa mem.PAddr) {
	r.idx[pa] = len(r.frames)
	r.frames = append(r.frames, pa)
}

// removeAt swap-deletes the i-th tracked frame and returns its address.
func (r *trackingRelocator) removeAt(i int) mem.PAddr {
	pa := r.frames[i]
	delete(r.idx, pa)
	last := len(r.frames) - 1
	if i != last {
		r.frames[i] = r.frames[last]
		r.idx[r.frames[i]] = i
	}
	r.frames = r.frames[:last]
	return pa
}

// TestSoakConservation drives a randomized mix of buddy allocations,
// contiguous allocations, frees, in-place expansions, and compaction
// cycles, asserting after every single operation that (a) no frame was
// leaked or double-freed (FreeFrames + live claims == TotalFrames) and
// (b) the allocator's internal metadata passes Audit. This is the
// satellite soak test for the long-run invariants: the carveFrame /
// migrateFrame stale-entry handling and FreeContig accounting all get
// exercised thousands of times per seed.
func TestSoakConservation(t *testing.T) {
	type allocation struct {
		pa     mem.PAddr
		order  int // buddy order, or -1 for a contig run
		frames int // total frames currently claimed
	}
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		const frames = 4096
		a := New(0, frames)
		rel := newTrackingRelocator()
		a.SetRelocator(rel)
		var live []allocation // unmovable: never migrated, addresses stable
		liveFrames := 0

		check := func(step int, op string) {
			t.Helper()
			if got := a.FreeFrames() + liveFrames + len(rel.frames); got != frames {
				t.Fatalf("seed %d step %d (%s): free %d + pinned %d + movable %d = %d, want %d",
					seed, step, op, a.FreeFrames(), liveFrames, len(rel.frames), got, frames)
			}
			if err := a.Audit(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
		}

		for step := 0; step < 3000; step++ {
			switch p := rng.Intn(100); {
			case p < 20: // movable data frame (relocatable, rmap-tracked)
				if pa, err := a.AllocFrame(KindMovable); err == nil {
					rel.add(pa)
				}
				check(step, "alloc-movable")
			case p < 35: // pinned buddy block
				order := rng.Intn(5)
				kind := KindUnmovable
				if order == 0 && rng.Intn(2) == 0 {
					kind = KindPageTable
				}
				if pa, err := a.Alloc(order, kind); err == nil {
					live = append(live, allocation{pa, order, 1 << order})
					liveFrames += 1 << order
				}
				check(step, "alloc")
			case p < 50: // contig alloc (may migrate movable frames out)
				n := 1 + rng.Intn(600)
				if pa, err := a.AllocContig(n, KindPageTable); err == nil {
					live = append(live, allocation{pa, -1, n})
					liveFrames += n
				}
				check(step, "alloc-contig")
			case p < 70: // free a movable frame
				if len(rel.frames) == 0 {
					continue
				}
				a.FreeFrame(rel.removeAt(rng.Intn(len(rel.frames))))
				check(step, "free-movable")
			case p < 85: // free a pinned allocation
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				al := live[i]
				if al.order >= 0 {
					a.Free(al.pa, al.order)
				} else {
					a.FreeContig(al.pa, al.frames)
				}
				liveFrames -= al.frames
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				check(step, "free")
			case p < 92: // expand a contig run in place
				var contig []int
				for i, al := range live {
					if al.order < 0 {
						contig = append(contig, i)
					}
				}
				if len(contig) == 0 {
					continue
				}
				i := contig[rng.Intn(len(contig))]
				extra := 1 + rng.Intn(32)
				if a.ExpandContigInPlace(live[i].pa, live[i].frames, extra) {
					live[i].frames += extra
					liveFrames += extra
				}
				check(step, "expand")
			default: // compact
				a.Compact()
				check(step, "compact")
			}
		}
		// Drain everything: the zone must coalesce back to a pristine state.
		for _, al := range live {
			if al.order >= 0 {
				a.Free(al.pa, al.order)
			} else {
				a.FreeContig(al.pa, al.frames)
			}
		}
		for len(rel.frames) > 0 {
			a.FreeFrame(rel.removeAt(len(rel.frames) - 1))
		}
		liveFrames = 0
		live = nil
		check(-1, "drain")
		if fi := a.FragmentationIndex(MaxOrder); fi != 0 {
			t.Fatalf("seed %d: FragmentationIndex(MaxOrder) = %v after full drain, want 0", seed, fi)
		}
	}
}

// TestFreeContigDoubleFreePanics pins the FreeContig validation fix: a
// duplicate release used to silently inflate freeFrames and corrupt the
// buddy metadata; it must panic like Free does.
func TestFreeContigDoubleFreePanics(t *testing.T) {
	a := New(0, 256)
	pa, err := a.AllocContig(48, KindPageTable)
	if err != nil {
		t.Fatal(err)
	}
	a.FreeContig(pa, 48)
	defer func() {
		if recover() == nil {
			t.Fatal("second FreeContig of the same range did not panic")
		}
	}()
	a.FreeContig(pa, 48)
}

// TestFragmentConsumesRngDeterministically pins the Fragment rand-state
// fix: the rng draw must happen whether or not the early return fires, so
// a clone sharing the caller's rng stream cannot diverge based on
// allocator state.
func TestFragmentConsumesRngDeterministically(t *testing.T) {
	a := New(0, 512)
	rng := rand.New(rand.NewSource(9))
	a.Fragment(rng, 4, 0.0) // index 0 >= target 0: early return
	ref := rand.New(rand.NewSource(9))
	ref.Intn(2) // the draw Fragment must have consumed
	if got, want := rng.Int63(), ref.Int63(); got != want {
		t.Fatalf("rng state diverged after early-returning Fragment: got %d, want %d", got, want)
	}
}

// TestFreeBlockCountsAfterCarveChurn pins the FragmentationIndex fix:
// counting stack entries double-counted heads that were detached by
// carveFrame and later re-inserted by coalescing, which could push
// "suitable" free memory above the actual free-frame count and drive the
// index negative. After heavy carve/coalesce churn the per-order counts
// must exactly tile the free frames and the index must stay in [0, 1].
func TestFreeBlockCountsAfterCarveChurn(t *testing.T) {
	a := New(0, 2048)
	rng := rand.New(rand.NewSource(3))
	type run struct {
		pa mem.PAddr
		n  int
	}
	var runs []run
	for i := 0; i < 200; i++ {
		if rng.Intn(3) > 0 || len(runs) == 0 {
			n := 1 + rng.Intn(200)
			if pa, err := a.AllocContig(n, KindPageTable); err == nil {
				runs = append(runs, run{pa, n})
			}
		} else {
			j := rng.Intn(len(runs))
			a.FreeContig(runs[j].pa, runs[j].n)
			runs[j] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		counts := a.FreeBlockCounts()
		total := 0
		for o, c := range counts {
			total += c << uint(o)
		}
		if total != a.FreeFrames() {
			t.Fatalf("step %d: free blocks tile %d frames, FreeFrames = %d", i, total, a.FreeFrames())
		}
		for order := 0; order <= MaxOrder; order++ {
			if fi := a.FragmentationIndex(order); fi < 0 || fi > 1 {
				t.Fatalf("step %d: FragmentationIndex(%d) = %v out of [0,1]", i, order, fi)
			}
		}
	}
}

// TestFreeStackStaysBounded pins the insertFree compaction: lazy deletion
// must not let a free stack grow past the maximum possible number of live
// heads (plus slack) no matter how much churn the allocator sees.
func TestFreeStackStaysBounded(t *testing.T) {
	const frames = 1024
	a := New(0, frames)
	rel := newTrackingRelocator()
	a.SetRelocator(rel)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 && len(rel.frames) < frames/2 {
			if pa, err := a.AllocFrame(KindMovable); err == nil {
				rel.add(pa)
			}
		} else if len(rel.frames) > 0 {
			a.FreeFrame(rel.removeAt(rng.Intn(len(rel.frames))))
		}
		if i%16 == 0 {
			a.Compact()
		}
		for order := 0; order <= MaxOrder; order++ {
			if n, max := a.freeStacks[order].n, frames>>uint(order)+64; n > max {
				t.Fatalf("step %d: order-%d stack has %d entries, bound %d", i, order, n, max)
			}
		}
	}
}
