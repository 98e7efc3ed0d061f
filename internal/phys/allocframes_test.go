package phys

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dmt/internal/mem"
)

// churn drives a random mix of buddy allocations at every order, frees,
// contiguous allocations, compaction and fragmentation, leaving free lists
// with stale entries, split blocks and isolated frames at every order.
// Single movable frames are owned by rel so Compact and AllocContig can
// migrate them; everything else is refused migration and stays put.
func churn(a *Allocator, rel *trackingRelocator, rng *rand.Rand, steps int) {
	type block struct {
		pa    mem.PAddr
		order int
	}
	type run struct {
		pa mem.PAddr
		n  int
	}
	var blocks []block
	var runs []run
	kinds := [...]Kind{KindMovable, KindUnmovable, KindPageTable}
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(20); {
		case op < 7:
			order := rng.Intn(MaxOrder + 1)
			if order == 0 && rng.Intn(2) == 0 {
				if pa, err := a.AllocFrame(KindMovable); err == nil {
					rel.add(pa)
				}
				continue
			}
			kind := kinds[1+rng.Intn(2)]
			if pa, err := a.Alloc(order, kind); err == nil {
				blocks = append(blocks, block{pa, order})
			}
		case op < 12:
			if len(blocks) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(blocks))
				a.Free(blocks[j].pa, blocks[j].order)
				blocks[j] = blocks[len(blocks)-1]
				blocks = blocks[:len(blocks)-1]
			} else if len(rel.frames) > 0 {
				a.FreeFrame(rel.removeAt(rng.Intn(len(rel.frames))))
			}
		case op < 15:
			n := 1 + rng.Intn(300)
			if pa, err := a.AllocContig(n, kinds[1+rng.Intn(2)]); err == nil {
				runs = append(runs, run{pa, n})
			}
		case op < 18:
			if len(runs) > 0 {
				j := rng.Intn(len(runs))
				a.FreeContig(runs[j].pa, runs[j].n)
				runs[j] = runs[len(runs)-1]
				runs = runs[:len(runs)-1]
			}
		case op < 19:
			a.Compact()
		default:
			a.Fragment(rng, rng.Intn(MaxOrder+1), 0.3+0.7*rng.Float64())
		}
	}
}

// allocatorState is every observable of an allocator AllocFrames must
// leave as AllocFrame calls would, bar the free stacks (which the drain
// below compares by what they hand out).
type allocatorState struct {
	Stats      Stats
	FreeFrames int
	Kinds      []Kind
}

func captureAllocator(t *testing.T, a *Allocator) allocatorState {
	t.Helper()
	if err := a.Audit(); err != nil {
		t.Fatal(err)
	}
	s := allocatorState{Stats: a.Stats, FreeFrames: a.FreeFrames()}
	for f := 0; f < a.TotalFrames(); f++ {
		s.Kinds = append(s.Kinds, a.FrameKind(a.Base()+mem.PAddr(f)<<mem.PageShift4K))
	}
	return s
}

// FuzzAllocFrames checks AllocFrames against len(dst) AllocFrame calls
// on a clone after a random churn prefix: the same frames, error and
// count, the same allocator state, and the same hand-out order when both
// are then drained with mixed-order Allocs.
func FuzzAllocFrames(f *testing.F) {
	f.Add(int64(0), uint16(4096), uint8(0), uint16(1500))
	f.Add(int64(1), uint16(2048), uint8(60), uint16(700))
	f.Add(int64(2), uint16(3000), uint8(200), uint16(4000))
	f.Add(int64(3), uint16(1031), uint8(120), uint16(37))
	f.Fuzz(func(t *testing.T, seed int64, frames uint16, steps uint8, n uint16) {
		total := 16 + int(frames)%4096
		rng := rand.New(rand.NewSource(seed))
		a := New(mem.PAddr(rng.Intn(4))<<mem.PageShift4K, total)
		rel := newTrackingRelocator()
		a.SetRelocator(rel)
		churn(a, rel, rng, int(steps))
		b := a.Clone()

		dst := make([]mem.PAddr, int(n)%(2*total))
		got, errGot := a.AllocFrames(KindMovable, dst)
		want := make([]mem.PAddr, 0, len(dst))
		var errWant error
		for range dst {
			pa, err := b.AllocFrame(KindMovable)
			if err != nil {
				errWant = err
				break
			}
			want = append(want, pa)
		}
		if got != len(want) || fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("AllocFrames = %d, %v; AllocFrame calls gave %d, %v", got, errGot, len(want), errWant)
		}
		for i, pa := range want {
			if dst[i] != pa {
				t.Fatalf("frame %d: AllocFrames handed out %#x, AllocFrame calls %#x", i, uint64(dst[i]), uint64(pa))
			}
		}
		if sa, sb := captureAllocator(t, a), captureAllocator(t, b); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("allocators differ after AllocFrames: stats %+v vs %+v, free %d vs %d",
				sa.Stats, sb.Stats, sa.FreeFrames, sb.FreeFrames)
		}

		// Drain both: equal free stacks hand out equal blocks in the same
		// order at every size.
		for a.FreeFrames() > 0 {
			order := rng.Intn(MaxOrder + 1)
			pa, errA := a.Alloc(order, KindUnmovable)
			pb, errB := b.Alloc(order, KindUnmovable)
			if pa != pb || (errA == nil) != (errB == nil) {
				t.Fatalf("drain at order %d: %#x, %v vs %#x, %v", order, uint64(pa), errA, uint64(pb), errB)
			}
		}
		if b.FreeFrames() != 0 {
			t.Fatalf("clone still has %d free frames after the drain", b.FreeFrames())
		}
	})
}
