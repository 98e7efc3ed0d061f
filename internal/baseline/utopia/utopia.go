// Package utopia implements Utopia (Kanellopoulos et al.,
// arXiv:2211.12205), the related-work design that splits the address space
// into *restrictive* and *flexible* mappings: pages whose virtual-to-
// physical placement obeys a set-associative constraint live in flat
// RestSeg arrays that translate in a single memory reference, and
// everything else keeps conventional radix page tables as the flexible
// fallback.
//
// The reproduction models one RestSeg per leaf size (4 KiB and 2 MiB):
// a set-associative translation array whose sets are single 64-byte lines
// of four 16-byte entries, backed by physically contiguous storage so
// probes are real cache-hierarchy accesses. Sync scans the kernel VMAs and
// admits present pages until their set fills; overflowing pages — and,
// under virtualization, guest pages whose machine backing is not
// contiguous (Utopia's restrictive placement requirement) — stay flexible
// and take the fallback walk. Under virtualization the arrays map guest-
// virtual directly to machine addresses and live in machine memory, which
// is how the design collapses the two-dimensional walk for its restrictive
// footprint.
package utopia

import (
	"fmt"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
	"dmt/internal/virt"
)

const (
	// segWays is the set associativity of a RestSeg translation array;
	// four 16-byte entries make one set exactly one cache line, so a set
	// probe is one memory reference.
	segWays = 4
	// entryBytes is the modelled size of one RestSeg entry (tag + frame).
	entryBytes = 16
)

// restSeg is one per-leaf-size translation array.
type restSeg struct {
	base  mem.PAddr
	sets  int // power of two
	shift uint
	// tags hold va>>shift (stored +1, 0 invalid); frames hold the mapped
	// leaf frame (stored +1), set-major like the storage lines.
	tags   []uint64
	frames []mem.PAddr
}

func (r *restSeg) slotAddr(va mem.VAddr) mem.PAddr {
	set := int(uint64(va)>>r.shift) & (r.sets - 1)
	return r.base + mem.PAddr(set*segWays*entryBytes)
}

func (r *restSeg) lookup(va mem.VAddr) (mem.PAddr, bool) {
	tag := uint64(va)>>r.shift + 1
	set := int(uint64(va)>>r.shift) & (r.sets - 1)
	for i := set * segWays; i < (set+1)*segWays; i++ {
		if r.tags[i] == tag {
			return r.frames[i] - 1, true
		}
	}
	return 0, false
}

// insert admits va→frame; a full set reports false (the page stays
// flexible).
func (r *restSeg) insert(va mem.VAddr, frame mem.PAddr) bool {
	tag := uint64(va)>>r.shift + 1
	set := int(uint64(va)>>r.shift) & (r.sets - 1)
	for i := set * segWays; i < (set+1)*segWays; i++ {
		if r.tags[i] == 0 || r.tags[i] == tag {
			r.tags[i] = tag
			r.frames[i] = frame + 1
			return true
		}
	}
	return false
}

func (r *restSeg) clone() *restSeg {
	c := *r
	c.tags = append([]uint64(nil), r.tags...)
	c.frames = append([]mem.PAddr(nil), r.frames...)
	return &c
}

// newRestSeg sizes an array for roughly half the given page population
// (Utopia keeps the hot footprint restrictive, not everything) and
// allocates its contiguous storage.
func newRestSeg(alloc *phys.Allocator, pages int, shift uint) (*restSeg, error) {
	sets := 1
	for sets*segWays*2 < pages {
		sets <<= 1
	}
	bytes := sets * segWays * entryBytes
	nframes := (bytes + mem.PageBytes4K - 1) / mem.PageBytes4K
	base, err := alloc.AllocContig(nframes, phys.KindPageTable)
	if err != nil {
		return nil, fmt.Errorf("utopia: RestSeg allocation: %w", err)
	}
	return &restSeg{
		base:   base,
		sets:   sets,
		shift:  shift,
		tags:   make([]uint64, sets*segWays),
		frames: make([]mem.PAddr, sets*segWays),
	}, nil
}

// Seg is the design's translation structure: one RestSeg per leaf size.
// It is a one-shot sync of the address space — mapping mutations must
// rebuild it (the machine's Resync closure), like ECPT and FPT.
type Seg struct {
	seg4k *restSeg
	seg2m *restSeg

	// Restrictive counts pages admitted to a RestSeg; Flexible counts
	// pages left to the fallback (set overflow or non-contiguous machine
	// backing under virtualization).
	Restrictive int
	Flexible    int
}

// NewSeg allocates empty RestSegs sized for ws bytes of working set.
func NewSeg(alloc *phys.Allocator, ws uint64) (*Seg, error) {
	s4, err := newRestSeg(alloc, int(ws>>mem.PageShift4K), mem.PageShift4K)
	if err != nil {
		return nil, err
	}
	s2, err := newRestSeg(alloc, int(ws>>mem.PageShift2M), mem.PageShift2M)
	if err != nil {
		return nil, err
	}
	return &Seg{seg4k: s4, seg2m: s2}, nil
}

// Clone deep-copies the entry arrays; storage keeps its physical bases
// (already claimed on the cloned allocator), so probe addresses — and
// hence cache behaviour — are identical on both copies.
func (s *Seg) Clone() *Seg {
	return &Seg{
		seg4k:       s.seg4k.clone(),
		seg2m:       s.seg2m.clone(),
		Restrictive: s.Restrictive,
		Flexible:    s.Flexible,
	}
}

// Sync admits every present leaf mapping of as whose placement qualifies.
// resolve, when non-nil, maps a (page-aligned) looked-up address to the
// final translation target — under virtualization it composes the host
// dimension, and Sync additionally requires the whole guest page to be
// machine-contiguous through it (restrictive placement); pages failing
// either stay flexible. A nil resolve is the identity (native).
func (s *Seg) Sync(as *kernel.AddressSpace, resolve virt.LeafResolver) error {
	return as.ForEachLeaf(func(va mem.VAddr, frame mem.PAddr, size mem.PageSize) error {
		if resolve != nil {
			var ok bool
			if frame, ok = virt.ContiguousMachine(resolve, frame, size); !ok {
				s.Flexible++
				return nil
			}
		}
		if s.segFor(size).insert(va, frame) {
			s.Restrictive++
		} else {
			s.Flexible++
		}
		return nil
	})
}

func (s *Seg) segFor(size mem.PageSize) *restSeg {
	if size == mem.Size2M {
		return s.seg2m
	}
	return s.seg4k
}

// Slots returns the set lines probed for va, one per leaf size (the
// hardware probes them in parallel).
func (s *Seg) Slots(va mem.VAddr) (slot4k, slot2m mem.PAddr) {
	return s.seg4k.slotAddr(va), s.seg2m.slotAddr(va)
}

// Lookup resolves va from the RestSegs (content only; the 2 MiB array
// wins, matching the page tables where a 2M leaf shadows any stale 4K
// entry).
func (s *Seg) Lookup(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	if f, ok := s.seg2m.lookup(va); ok {
		return f + mem.PAddr(mem.PageOffset(va, mem.Size2M)), mem.Size2M, true
	}
	if f, ok := s.seg4k.lookup(va); ok {
		return f + mem.PAddr(mem.PageOffset(va, mem.Size4K)), mem.Size4K, true
	}
	return 0, 0, false
}

// FootprintBytes reports the RestSeg storage footprint.
func (s *Seg) FootprintBytes() int {
	return (s.seg4k.sets + s.seg2m.sets) * segWays * entryBytes
}

// Walker translates through the RestSegs with a single parallel probe
// group, falling back to the environment's full walk for flexible pages.
// One Walker type serves every environment: the Seg's entries and the
// Fallback walker encode the environment.
type Walker struct {
	Seg  *Seg
	Hier *cache.Hierarchy
	// Fallback resolves flexible pages: the native radix walk, or the 2D
	// nested walk under virtualization.
	Fallback core.Walker
	// Sink receives the walk's fetches; the fallback walker must share it
	// (see core.RefSink).
	Sink *core.RefSink

	Walks   uint64
	SegHits uint64
	Misses  uint64
}

// EmitCounters implements core.CounterSource.
func (w *Walker) EmitCounters(emit func(name string, value uint64)) {
	emit("utopia.walks", w.Walks)
	emit("utopia.restseg_hits", w.SegHits)
	emit("utopia.flexible_walks", w.Misses)
	emit("utopia.restrictive_pages", uint64(w.Seg.Restrictive))
	emit("utopia.flexible_pages", uint64(w.Seg.Flexible))
	core.EmitChained(w.Fallback, emit)
}

// CoverageCounts reports RestSeg hits over total walks.
func (w *Walker) CoverageCounts() (hits, total uint64) { return w.SegHits, w.Walks }

// Walk implements core.Walker: both size-class set lines are probed in
// parallel (one sequential step; the walker reads both sets, so the slower
// probe gates the group); a hit completes the translation, a miss takes
// the fallback walk on top.
func (w *Walker) Walk(va mem.VAddr) core.WalkOutcome {
	w.Walks++
	out := core.WalkOutcome{}
	s4, s2 := w.Seg.Slots(va)
	g := core.FetchGroup{Sink: w.Sink}
	for _, slot := range [2]mem.PAddr{s4, s2} {
		lat := w.Hier.Access(slot)
		g.Add(core.MemRef{Addr: slot, Cycles: lat, Level: 1, Dim: "n"}, true)
	}
	g.Commit(&out)
	if pa, size, ok := w.Seg.Lookup(va); ok {
		w.SegHits++
		out.PA, out.Size, out.OK = pa, size, true
		return out
	}
	w.Misses++
	return core.WalkFallback(w.Fallback, va, out)
}

var _ core.Walker = (*Walker)(nil)
var _ core.CounterSource = (*Walker)(nil)
