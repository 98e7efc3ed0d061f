// Package victima implements Victima (Kanellopoulos et al.,
// arXiv:2310.04158), the related-work design that spills TLB entries into
// underutilized L2 cache ways: on an L2-TLB miss the MMU probes a small
// number of stolen L2 ways for a block of spilled translations before
// paying for a page walk, and walk results are filled back into those ways
// as ordinary cache blocks — so data traffic evicting a spill block
// silently drops its translations, which is exactly the cost/benefit the
// design trades on.
//
// The reproduction models the spill store as a physically contiguous
// region of SpillWays 64-byte blocks per L2 set. Each block holds eight
// 4 KiB-granule entries (one 32 KiB-aligned VA window per block); an entry
// records the mapping's true leaf size, so 2 MiB mappings reconstruct
// exact PA/size. Block residency is tracked in the *real* simulated L2
// (cache.Cache.Lookup / Insert on the block's machine address, aging in
// the same LRU sets as demand traffic): a probe that finds its block
// evicted by data fills drops the block's entries and falls through to the
// inner walker, charging one L2 round-trip for the probe either way.
package victima

import (
	"fmt"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/mem"
	"dmt/internal/phys"
)

const (
	// SpillWays is how many ways per L2 set the design steals for spilled
	// translations (the paper adapts this; the reproduction pins it).
	SpillWays = 2
	// blockShift aligns the VA window one spill block covers: eight
	// 4 KiB-granule entries per 64-byte block.
	blockShift = mem.PageShift4K + 3
	// entriesPerBlock is the translation fan-out of one block.
	entriesPerBlock = 1 << (blockShift - mem.PageShift4K)
)

// Store is the cloneable substrate of the design: the physically
// contiguous block region whose lines the spilled translations occupy.
// It is allocated once at machine-build time; the walker's entry metadata
// is wire-time-fresh (cold like the TLBs), so Clone is a pure geometry
// copy with the frames already claimed on the cloned allocator.
type Store struct {
	base mem.PAddr
	sets int
}

// NewStore allocates the spill region for an L2 of the given geometry:
// SpillWays blocks per L2 set, one 64-byte line each.
func NewStore(alloc *phys.Allocator, l2 cache.Config) (*Store, error) {
	sets := l2.Sets()
	if sets <= 0 {
		return nil, fmt.Errorf("victima: bad L2 geometry %+v", l2)
	}
	bytes := sets * SpillWays * mem.CacheLineBytes
	frames := (bytes + mem.PageBytes4K - 1) / mem.PageBytes4K
	base, err := alloc.AllocContig(frames, phys.KindPageTable)
	if err != nil {
		return nil, fmt.Errorf("victima: spill region allocation: %w", err)
	}
	return &Store{base: base, sets: sets}, nil
}

// Clone returns an independent Store over the same physical region (the
// cloned allocator already holds the frames; block addresses — and hence
// cache behaviour — are identical on both copies).
func (s *Store) Clone() *Store {
	c := *s
	return &c
}

// Sets returns the number of spill sets (one per L2 set).
func (s *Store) Sets() int { return s.sets }

// BlockAddr returns the machine address of the block at (set, way).
func (s *Store) BlockAddr(set, way int) mem.PAddr {
	return s.base + mem.PAddr((set*SpillWays+way)*mem.CacheLineBytes)
}

// FootprintBytes reports the spill region's size. It is stolen L2
// capacity, not extra memory, but sizing tables want the figure.
func (s *Store) FootprintBytes() int { return s.sets * SpillWays * mem.CacheLineBytes }

// Walker is the Victima MMU extension over any inner walker (native radix,
// or a 2D nested walker under virtualization). All entry metadata is dense
// preallocated arrays, so the walk path allocates nothing.
type Walker struct {
	Store *Store
	Hier  *cache.Hierarchy
	// Inner resolves spill misses: the environment's full page walk.
	Inner core.Walker
	// Sink receives the walk's fetches; the inner walker must share it so
	// a miss's walk follows the probe in the same buffer (see
	// core.RefSink).
	Sink *core.RefSink

	l2Lat int

	// tags holds per-(set, way) block tags (va>>blockShift, stored +1 so 0
	// means invalid); frames/sizes hold the per-entry leaf frame (stored
	// +1) and leaf size; rr is the per-set fill victim rotor.
	tags   []uint64
	frames []mem.PAddr
	sizes  []mem.PageSize
	rr     []uint8

	Walks     uint64
	SpillHits uint64
	Misses    uint64
	Fills     uint64
	// Evictions counts blocks found evicted from the L2 by data traffic at
	// probe time — the translations Victima silently lost.
	Evictions uint64
}

// NewWalker wires a walker over the store; entry state starts cold.
func NewWalker(store *Store, hier *cache.Hierarchy, inner core.Walker, sink *core.RefSink) *Walker {
	n := store.sets * SpillWays
	return &Walker{
		Store:  store,
		Hier:   hier,
		Inner:  inner,
		Sink:   sink,
		l2Lat:  hier.Config().L2.LatencyRT,
		tags:   make([]uint64, n),
		frames: make([]mem.PAddr, n*entriesPerBlock),
		sizes:  make([]mem.PageSize, n*entriesPerBlock),
		rr:     make([]uint8, store.sets),
	}
}

// EmitCounters implements core.CounterSource.
func (w *Walker) EmitCounters(emit func(name string, value uint64)) {
	emit("victima.walks", w.Walks)
	emit("victima.spill_hits", w.SpillHits)
	emit("victima.spill_misses", w.Misses)
	emit("victima.fills", w.Fills)
	emit("victima.evictions", w.Evictions)
	core.EmitChained(w.Inner, emit)
}

// CoverageCounts reports spill hits over total walks — the fraction of
// walks the stolen L2 ways served without a page walk.
func (w *Walker) CoverageCounts() (hits, total uint64) { return w.SpillHits, w.Walks }

// Flush drops every spilled translation (mapping mutations leave them
// stale; the fault harness calls this through the machine's Resync).
func (w *Walker) Flush() {
	for i := range w.tags {
		w.tags[i] = 0
	}
	for i := range w.frames {
		w.frames[i] = 0
	}
}

func (w *Walker) clearBlock(bi int) {
	w.tags[bi] = 0
	base := bi * entriesPerBlock
	for i := base; i < base+entriesPerBlock; i++ {
		w.frames[i] = 0
	}
}

// Walk implements core.Walker: probe the spill block for va's window, and
// on a live hit return the spilled translation at one L2 round-trip;
// otherwise delegate to the inner walker and fill the result back.
func (w *Walker) Walk(va mem.VAddr) core.WalkOutcome {
	w.Walks++
	out := core.WalkOutcome{}
	tag := uint64(va) >> blockShift
	set := int(tag % uint64(w.Store.sets))
	way := -1
	for i := 0; i < SpillWays; i++ {
		if w.tags[set*SpillWays+i] == tag+1 {
			way = i
			break
		}
	}
	// One probe group: the stolen ways are checked alongside the normal L2
	// tag match, so the probe costs one L2 round-trip hit or miss.
	probeWay := way
	if probeWay < 0 {
		probeWay = 0
	}
	addr := w.Store.BlockAddr(set, probeWay)
	w.Sink.Append(core.MemRef{Addr: addr, Cycles: w.l2Lat, Level: 2, Dim: "n"})
	out.Cycles += w.l2Lat
	out.SeqSteps++
	if way >= 0 {
		bi := set*SpillWays + way
		if w.Hier.L2.Lookup(addr) {
			slot := int(uint64(va)>>mem.PageShift4K) & (entriesPerBlock - 1)
			if f := w.frames[bi*entriesPerBlock+slot]; f != 0 {
				w.SpillHits++
				size := w.sizes[bi*entriesPerBlock+slot]
				out.PA = (f - 1) + mem.PAddr(mem.PageOffset(va, size))
				out.Size = size
				out.OK = true
				return out
			}
		} else {
			// Data traffic evicted the block: its translations are gone.
			w.Evictions++
			w.clearBlock(bi)
			way = -1
		}
	}
	w.Misses++
	inner := w.Inner.Walk(va)
	out.Cycles += inner.Cycles
	out.SeqSteps += inner.SeqSteps
	out.Fallback = inner.Fallback
	out.PA, out.Size, out.OK = inner.PA, inner.Size, inner.OK
	if inner.OK {
		w.fill(va, set, way, tag, inner.PA, inner.Size)
	}
	return out
}

// fill installs a walk result into the spill store: reuse the tag-matching
// block when one exists, else claim the first invalid way, else rotate the
// per-set victim. The block line is (re)inserted into the real L2 so it
// competes with data traffic from now on.
func (w *Walker) fill(va mem.VAddr, set, way int, tag uint64, pa mem.PAddr, size mem.PageSize) {
	if way < 0 {
		for i := 0; i < SpillWays; i++ {
			if w.tags[set*SpillWays+i] == 0 {
				way = i
				break
			}
		}
		if way < 0 {
			way = int(w.rr[set]) % SpillWays
			w.rr[set]++
		}
		w.clearBlock(set*SpillWays + way)
		w.tags[set*SpillWays+way] = tag + 1
	}
	slot := int(uint64(va)>>mem.PageShift4K) & (entriesPerBlock - 1)
	ei := (set*SpillWays+way)*entriesPerBlock + slot
	w.frames[ei] = mem.AlignDownP(pa, size.Bytes()) + 1
	w.sizes[ei] = size
	w.Hier.L2.Insert(w.Store.BlockAddr(set, way))
	w.Fills++
}

var _ core.Walker = (*Walker)(nil)
var _ core.CounterSource = (*Walker)(nil)
