// Package phys implements the physical-memory substrate of the DMT
// reproduction: a buddy page-frame allocator with per-order free lists,
// contiguous-range allocation in the style of Linux's alloc_contig_pages,
// movability classes, page migration, compaction, and a free-memory
// fragmentation index.
//
// TEAs (§3) require physically-contiguous memory; §4.3 and §7 of the paper
// describe how DMT-Linux leans on the contiguous allocator and on
// defragmentation to satisfy that requirement, splitting VMA-to-TEA mappings
// when contiguity cannot be found. This package provides exactly those
// mechanics so the TEA manager above it behaves like the paper's.
package phys

import (
	"errors"
	"fmt"

	"dmt/internal/mem"
)

// Kind classifies the owner of an allocated frame, mirroring Linux's
// migrate types. Movable frames can be relocated during contiguous
// allocation and compaction; unmovable and page-table frames cannot.
type Kind uint8

const (
	KindFree Kind = iota
	KindMovable
	KindUnmovable
	KindPageTable
)

func (k Kind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindMovable:
		return "movable"
	case KindUnmovable:
		return "unmovable"
	case KindPageTable:
		return "pagetable"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MaxOrder is the largest buddy order: 2^10 frames = 4 MiB blocks, matching
// Linux's default MAX_ORDER-1 granularity closely enough for TEA sizing.
const MaxOrder = 10

// ErrNoMemory is returned when the allocator cannot satisfy a request.
var ErrNoMemory = errors.New("phys: out of memory")

// ErrNoContig is returned when no contiguous range can be assembled even
// after migrating movable pages; callers (the TEA manager) respond by
// splitting the VMA-to-TEA mapping (§4.2.2).
var ErrNoContig = errors.New("phys: no contiguous range available")

// Relocator is notified when the allocator migrates a movable frame; the
// owner must rewrite any translation structures that reference old. The
// kernel layer registers one so data-page migration updates PTEs.
type Relocator interface {
	Relocate(old, new mem.PAddr) bool
}

// Allocator is a buddy allocator managing a contiguous physical region.
// It is not safe for concurrent use; the simulated kernel serializes calls
// the way a zone lock would.
//
// The per-frame state and the free stacks live in mem.Chunked arrays, so a
// Clone shares them copy-on-write and pays for the chunks it writes.
type Allocator struct {
	base   mem.PAddr
	frames uint32

	// state is the per-frame buddy state, indexed by frame.
	state mem.Chunked[frameState]

	// freeStacks holds candidate free-block heads per order with lazy
	// deletion: entries are validated against the frame state when
	// popped, which keeps allocation deterministic (LIFO) and O(1)
	// amortized.
	freeStacks [MaxOrder + 1]stack

	freeFrames uint32
	relocator  Relocator

	// Stats counts allocator work for the §6.3 overhead experiments.
	Stats Stats
}

// frameState is one frame's buddy state. head is the order + 1 of the free
// block headed at the frame, 0 when the frame is allocated or interior to
// a free block. kind is the frame's owner class; KindFree means it belongs
// to a free block. Splitting or coalescing free blocks leaves kind alone:
// only frames changing hands between free and allocated are written.
type frameState struct {
	head uint8
	kind Kind
}

// order returns the order of the free block headed at f, or -1.
func (a *Allocator) order(f uint32) int { return int(a.state.Get(int(f)).head) - 1 }

// setOrder makes f the head of a free block of the given order, or no head
// for -1.
func (a *Allocator) setOrder(f uint32, order int) { a.state.Mut(int(f)).head = uint8(order + 1) }

// kindOf returns the owner class of frame f.
func (a *Allocator) kindOf(f uint32) Kind { return a.state.Get(int(f)).kind }

// setKinds sets the owner class of the n frames from f.
func (a *Allocator) setKinds(f, n uint32, k Kind) {
	for end := f + n; f < end; {
		s := a.state.MutSpan(int(f), int(end-f))
		for i := range s {
			s[i].kind = k
		}
		f += uint32(len(s))
	}
}

// freeSpan is the state of the frames of a never-written chunk: free, and
// heading no block.
var freeSpan [mem.ChunkLen]frameState

// span returns the states of the frames from f up to end or the end of f's
// chunk, whichever comes first, for reading only.
func (a *Allocator) span(f, end uint32) []frameState {
	if s := a.state.Span(int(f), int(end-f)); s != nil {
		return s
	}
	return freeSpan[:min(end-f, mem.ChunkLen-f%mem.ChunkLen)]
}

// scanUp returns the first frame of kind k in [lo, hi), or hi.
func (a *Allocator) scanUp(lo, hi uint32, k Kind) uint32 {
	for lo < hi {
		s := a.span(lo, hi)
		for i := range s {
			if s[i].kind == k {
				return lo + uint32(i)
			}
		}
		lo += uint32(len(s))
	}
	return hi
}

// scanDown returns one past the last frame of kind k in [lo, hi), or lo.
func (a *Allocator) scanDown(lo, hi uint32, k Kind) uint32 {
	for hi > lo {
		start := max(lo, (hi-1)&^(mem.ChunkLen-1))
		s := a.span(start, hi)
		for i := len(s) - 1; i >= 0; i-- {
			if s[i].kind == k {
				return start + uint32(i) + 1
			}
		}
		hi = start
	}
	return lo
}

// stack is one order's free stack: n entries at the bottom of a chunked
// array, so pushes and pops on a clone touch only the top chunk.
type stack struct {
	s mem.Chunked[uint32]
	n int
}

func (s *stack) push(f uint32) {
	s.s.Set(s.n, f)
	s.n++
}

// Stats aggregates allocator activity.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	Splits      uint64
	Coalesces   uint64
	Migrations  uint64
	ContigScans uint64
	// ContigAllocs counts successful AllocContig calls, the denominator of
	// the aging scenario's defrag-cost metric (migrations per contig alloc).
	ContigAllocs uint64
}

// New creates an allocator managing frames 4-KiB frames starting at base.
// base must be 4 KiB-aligned.
func New(base mem.PAddr, frames int) *Allocator {
	if !mem.IsAligned(uint64(base), mem.PageBytes4K) {
		panic("phys: unaligned base")
	}
	if frames <= 0 {
		panic("phys: non-positive frame count")
	}
	a := &Allocator{base: base, frames: uint32(frames)} // every frame KindFree
	// Seed free lists with maximal aligned blocks.
	f := uint32(0)
	for f < a.frames {
		order := MaxOrder
		for order > 0 && (f&(1<<order-1) != 0 || f+1<<order > a.frames) {
			order--
		}
		a.insertFree(f, order)
		f += 1 << order
	}
	a.freeFrames = a.frames
	return a
}

// SetRelocator registers the migration callback used by AllocContig and
// Compact. Without one, movable frames are treated as unmovable.
func (a *Allocator) SetRelocator(r Relocator) { a.relocator = r }

// Base returns the first managed physical address.
func (a *Allocator) Base() mem.PAddr { return a.base }

// TotalFrames returns the number of managed 4 KiB frames.
func (a *Allocator) TotalFrames() int { return int(a.frames) }

// FreeFrames returns the number of currently free 4 KiB frames.
func (a *Allocator) FreeFrames() int { return int(a.freeFrames) }

// FrameKind returns the owner class of the frame containing pa.
func (a *Allocator) FrameKind(pa mem.PAddr) Kind {
	return a.kindOf(a.frameOf(pa))
}

func (a *Allocator) frameOf(pa mem.PAddr) uint32 {
	if pa < a.base {
		panic("phys: address below managed region")
	}
	f := uint64(pa-a.base) >> mem.PageShift4K
	if f >= uint64(a.frames) {
		panic("phys: address beyond managed region")
	}
	return uint32(f)
}

func (a *Allocator) addrOf(f uint32) mem.PAddr {
	return a.base + mem.PAddr(uint64(f)<<mem.PageShift4K)
}

// insertFree makes f the head of a free block of the given order and
// pushes it on that order's stack. The block's frames must already be
// KindFree.
func (a *Allocator) insertFree(f uint32, order int) {
	a.setOrder(f, order)
	s := &a.freeStacks[order]
	s.push(f)
	// Lazy deletion leaves stale entries behind; over a multi-million-event
	// aging run (carveFrame detaches heads without popping them) the stacks
	// would otherwise grow without bound. Compact once a stack exceeds the
	// maximum possible number of live heads at this order plus slack.
	if s.n > int(a.frames>>uint(order))+64 {
		a.compactStack(s, order)
	}
}

// compactStack drops entries invalidated by lazy deletion and collapses
// duplicates of still-valid heads, keeping only the newest occurrence of
// each. Pops take the newest entry first and claiming a head invalidates
// its older duplicates, so the sequence of successful pops — and therefore
// allocation determinism — is unchanged.
func (a *Allocator) compactStack(s *stack, order int) {
	seen := make(map[uint32]struct{}, s.n)
	kept := make([]uint32, 0, s.n)
	for i := s.n - 1; i >= 0; i-- {
		f := s.s.Get(i)
		if a.order(f) != order {
			continue
		}
		if _, dup := seen[f]; dup {
			continue
		}
		seen[f] = struct{}{}
		kept = append(kept, f)
	}
	// kept is newest-first; restore stack order (oldest at the bottom).
	s.n = 0
	for i := len(kept) - 1; i >= 0; i-- {
		s.push(kept[i])
	}
}

// popFree removes and returns a valid free block head of the given order,
// or (0, false) when none exists.
func (a *Allocator) popFree(order int) (uint32, bool) {
	s := &a.freeStacks[order]
	for s.n > 0 {
		s.n--
		if f := s.s.Get(s.n); a.order(f) == order {
			return f, true
		}
	}
	return 0, false
}

// Alloc allocates a 2^order-frame block and returns its physical address.
func (a *Allocator) Alloc(order int, kind Kind) (mem.PAddr, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("phys: invalid order %d", order)
	}
	if kind == KindFree {
		return 0, errors.New("phys: cannot allocate KindFree")
	}
	f, o, ok := a.popSmallest(order)
	if !ok {
		return 0, ErrNoMemory
	}
	a.split(f, o, order)
	a.claim(f, uint32(1)<<order, kind)
	a.Stats.Allocs++
	return a.addrOf(f), nil
}

// AllocFrame allocates a single 4 KiB frame.
func (a *Allocator) AllocFrame(kind Kind) (mem.PAddr, error) {
	return a.Alloc(0, kind)
}

// AllocFrames fills dst with single 4 KiB frames, leaving exactly the
// frames, block map, free stacks and Stats that len(dst) AllocFrame calls
// would. On exhaustion it returns how many frames it allocated with
// ErrNoMemory.
//
// An order-0 allocation pops the smallest order holding a valid head, and
// splitting that block pushes its upper halves onto lower orders that the
// search has just drained. The next 2^k allocations therefore take the
// block's frames in ascending order, so a block no larger than what is
// left of dst is claimed whole; a larger one is split as Alloc does.
func (a *Allocator) AllocFrames(kind Kind, dst []mem.PAddr) (int, error) {
	if kind == KindFree {
		return 0, errors.New("phys: cannot allocate KindFree")
	}
	n := 0
	for n < len(dst) {
		f, order, ok := a.popSmallest(0)
		if !ok {
			return n, ErrNoMemory
		}
		size := uint32(1) << order
		if int(size) > len(dst)-n {
			a.split(f, order, 0)
			size = 1
		} else {
			a.Stats.Splits += uint64(size) - 1
		}
		a.claim(f, size, kind)
		a.Stats.Allocs += uint64(size)
		for i := uint32(0); i < size; i++ {
			dst[n] = a.addrOf(f + i)
			n++
		}
	}
	return n, nil
}

// popSmallest pops a valid free-block head of the smallest order at or
// above from that holds one, draining the stale entries of every order it
// passes on the way.
func (a *Allocator) popSmallest(from int) (uint32, int, bool) {
	for o := from; o <= MaxOrder; o++ {
		if f, ok := a.popFree(o); ok {
			return f, o, true
		}
	}
	return 0, 0, false
}

// split halves the detached free block of the given order at f down to
// order to, returning each upper half to the free lists; f then heads a
// detached block of order to.
func (a *Allocator) split(f uint32, order, to int) {
	for ; order > to; order-- {
		a.insertFree(f+uint32(1)<<(order-1), order-1)
		a.Stats.Splits++
	}
}

func (a *Allocator) claim(f, n uint32, kind Kind) {
	a.setOrder(f, -1)
	a.setKinds(f, n, kind)
	a.freeFrames -= n
}

// Free releases a block previously returned by Alloc with the same order.
func (a *Allocator) Free(pa mem.PAddr, order int) {
	f := a.frameOf(pa)
	n := uint32(1) << order
	if f&(n-1) != 0 {
		panic("phys: Free of unaligned block")
	}
	for i := f; i < f+n; i++ {
		if a.kindOf(i) == KindFree {
			panic(fmt.Sprintf("phys: double free of frame %d", i))
		}
	}
	a.freeFrames += n
	a.Stats.Frees++
	a.freeBlock(f, order)
}

// freeBlock returns the allocated block of 2^order frames at f to the free
// lists, coalescing with its buddy while possible. Only the block's own
// frames change kind; the buddies it absorbs are already KindFree.
func (a *Allocator) freeBlock(f uint32, order int) {
	a.setKinds(f, 1<<order, KindFree)
	for order < MaxOrder {
		buddy := f ^ (1 << order)
		if buddy >= a.frames || a.order(buddy) != order {
			break
		}
		// Detach the buddy (lazy deletion handles the stack entry).
		a.setOrder(buddy, -1)
		if buddy < f {
			f = buddy
		}
		order++
		a.Stats.Coalesces++
	}
	a.insertFree(f, order)
}

// FreeFrame releases a single 4 KiB frame.
func (a *Allocator) FreeFrame(pa mem.PAddr) { a.Free(pa, 0) }
