package phys

import "fmt"

// Audit verifies the allocator's internal invariants and returns the first
// violation found, or nil. It is the allocator half of the lifecycle
// conservation oracle (DESIGN.md §12): the aging scenario calls it after
// churn events so a frame leaked or double-freed anywhere in the
// kernel/TEA/virt plumbing above surfaces at the event that caused it
// rather than as an unexplained drift millions of events later.
//
// A frame is free exactly when its kind is KindFree. Invariants checked:
//   - freeFrames equals the number of KindFree frames;
//   - every free-block head (order(f) >= 0) is naturally aligned,
//     in bounds, and covers only KindFree frames;
//   - every KindFree frame is covered by exactly one free-block head;
//   - allocated frames are not block heads.
//
// Audit is O(frames) and allocates only a flat copy of the frame state and
// the coverage bitmap.
func (a *Allocator) Audit() error {
	state := make([]frameState, a.frames)
	for f := uint32(0); f < a.frames; {
		f += uint32(copy(state[f:], a.span(f, a.frames)))
	}
	order := func(f uint32) int { return int(state[f].head) - 1 }
	var freeCount uint32
	for f := uint32(0); f < a.frames; f++ {
		if state[f].kind == KindFree {
			freeCount++
		} else if order(f) >= 0 {
			return fmt.Errorf("phys: allocated frame %d is a free-block head (order %d)", f, order(f))
		}
	}
	if freeCount != a.freeFrames {
		return fmt.Errorf("phys: freeFrames=%d but %d frames are marked free", a.freeFrames, freeCount)
	}
	covered := make([]bool, a.frames)
	for f := uint32(0); f < a.frames; f++ {
		o := order(f)
		if o < 0 {
			continue
		}
		if o > MaxOrder {
			return fmt.Errorf("phys: free block at frame %d has invalid order %d", f, o)
		}
		n := uint32(1) << uint(o)
		if f&(n-1) != 0 {
			return fmt.Errorf("phys: order-%d free block at frame %d is unaligned", o, f)
		}
		if f+n > a.frames {
			return fmt.Errorf("phys: order-%d free block at frame %d overruns the zone", o, f)
		}
		for i := f; i < f+n; i++ {
			if state[i].kind != KindFree {
				return fmt.Errorf("phys: order-%d free block at frame %d covers allocated frame %d", o, f, i)
			}
			if covered[i] {
				return fmt.Errorf("phys: frame %d covered by overlapping free blocks", i)
			}
			covered[i] = true
		}
	}
	for f := uint32(0); f < a.frames; f++ {
		if state[f].kind == KindFree && !covered[f] {
			return fmt.Errorf("phys: free frame %d not covered by any free block", f)
		}
	}
	return nil
}
