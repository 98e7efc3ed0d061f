package ecpt

import (
	"fmt"

	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
)

// System is the set of per-page-size cuckoo tables replacing one radix page
// table. Tables are held in a dense array indexed by mem.PageSize (a
// three-value enum) rather than a map: the walk hot path resolves a size's
// table on every probe, and an array load costs no hashing.
type System struct {
	tables [3]*Table
	sizes  []mem.PageSize
}

// NewSystem creates tables for the given page sizes, each starting with
// initialSlots slots per way, allocated from alloc.
func NewSystem(alloc *phys.Allocator, sizes []mem.PageSize, initialSlots int) (*System, error) {
	s := &System{sizes: sizes}
	for _, sz := range sizes {
		t, err := NewTable(sz, initialSlots, alloc)
		if err != nil {
			return nil, err
		}
		s.tables[sz] = t
	}
	return s, nil
}

// Sync mirrors every present leaf mapping of as into the cuckoo tables.
func (s *System) Sync(as *kernel.AddressSpace) error {
	return as.ForEachLeaf(func(va mem.VAddr, frame mem.PAddr, size mem.PageSize) error {
		t := s.tables[size]
		if t == nil {
			return fmt.Errorf("ecpt: no table for %v pages", size)
		}
		pte := mem.MakePTE(frame, mem.PTEWritable)
		if size != mem.Size4K {
			pte |= mem.PTEHuge
		}
		return t.Insert(mem.PageNumber(va, size), pte)
	})
}

// Table returns the table for one page size.
func (s *System) Table(sz mem.PageSize) *Table { return s.tables[sz] }

// Lookup resolves va across all size tables (content only, no latency).
func (s *System) Lookup(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	for _, sz := range s.sizes {
		if pte, ok := s.tables[sz].Lookup(mem.PageNumber(va, sz)); ok {
			return pte.Frame() + mem.PAddr(mem.PageOffset(va, sz)), sz, true
		}
	}
	return 0, 0, false
}

// probe charges the parallel accesses of one full lookup (all ways of all
// size tables) to the hierarchy, adding refs to g, and returns the resolved
// translation — the same (pa, size, ok) Lookup computes, captured from the
// matching way's element during the scan so the walkers need no second pass
// over the tables.
//
// The group's critical-path latency is the *matching* way's line latency:
// the probes are issued in parallel, the walk continues as soon as the
// probe whose tag matches returns, and the wrong-way probes only cost
// bandwidth and cache pollution (which the hierarchy records naturally).
// This is what lets ECPT track DMT closely despite the fan-out — DMT's
// remaining edge is the hash computation and the pollution (§6.2.1).
// critical is false when the walk does not go on with this lookup's result
// (a nested walk's non-matching guest candidate), so none of its probes
// counts as a match in g.
func (s *System) probe(va mem.VAddr, g *core.FetchGroup, hier *cache.Hierarchy, dim string, critical bool) (mem.PAddr, mem.PageSize, bool) {
	var (
		pa    mem.PAddr
		psz   mem.PageSize
		found bool
	)
	for _, sz := range s.sizes {
		t := s.tables[sz]
		vpn := mem.PageNumber(va, sz)
		for w := 0; w < Ways; w++ {
			slot, pte, match := t.probeWay(vpn, w)
			if match && !found {
				found = true
				pa = pte.Frame() + mem.PAddr(mem.PageOffset(va, sz))
				psz = sz
			}
			lat := hier.Access(slot)
			g.Add(core.MemRef{Addr: slot, Cycles: lat, Level: sz.LeafLevel(), Dim: dim},
				match && critical)
		}
	}
	return pa, psz, found
}

// probeWay resolves one way's probe with a single hash evaluation: the
// slot's physical address, the element's PTE for vpn, and whether that way
// holds a present mapping. It fuses what SlotAddr and a content lookup
// compute separately — both need the same hash(group, way), a
// multiply-heavy mix ending in a hardware divide, so sharing one
// evaluation per way removes half the walk's hash work. A group lives in
// at most one way (the cuckoo relocation invariant), so per-way match
// flags are equivalent to a first-match scan.
func (t *Table) probeWay(vpn uint64, w int) (mem.PAddr, mem.PTE, bool) {
	group := vpn / GroupPages
	slot := t.hash(group, w)
	var pte mem.PTE
	if e := t.ways[w].Ref(slot); e != nil && e.valid && e.group == group {
		pte = e.ptes[vpn%GroupPages]
	}
	return t.bases[w] + mem.PAddr(slot*entryBytes), pte, pte.Present()
}

// Walker is native ECPT: one sequential step of parallel probes plus the
// hash-computation cost.
type Walker struct {
	Sys  *System
	Hier *cache.Hierarchy
	// Sink receives the walk's PTE fetches (see core.RefSink).
	Sink *core.RefSink

	Walks uint64
}

// EmitCounters implements core.CounterSource.
func (w *Walker) EmitCounters(emit func(name string, value uint64)) {
	emit("ecpt.walks", w.Walks)
}

// Walk implements core.Walker.
func (w *Walker) Walk(va mem.VAddr) core.WalkOutcome {
	w.Walks++
	out := core.WalkOutcome{Cycles: HashCycles}
	g := core.FetchGroup{Sink: w.Sink}
	pa, sz, ok := w.Sys.probe(va, &g, w.Hier, "n", true)
	g.Commit(&out)
	if !ok {
		return out
	}
	out.PA, out.Size, out.OK = pa, sz, true
	return out
}

var _ core.Walker = (*Walker)(nil)

// VirtWalker is Nested ECPT (§6.2.1): guest cuckoo tables in guest-physical
// memory and host cuckoo tables in machine memory, three sequential steps
// with up to 81 parallel references.
type VirtWalker struct {
	Guest *System // gVA → gPA, slots at guest-physical addresses
	Host  *System // gPA → machine, slots at machine addresses
	Hier  *cache.Hierarchy
	// Sink receives the walk's PTE fetches (see core.RefSink).
	Sink *core.RefSink

	Walks uint64

	cands []cand // per-walk scratch, reused across walks
}

// cand is one guest candidate slot of the step-1 fan-out.
type cand struct {
	slot    mem.PAddr // guest-physical slot address
	isMatch bool
	machine mem.PAddr
	ok      bool
}

// EmitCounters implements core.CounterSource.
func (w *VirtWalker) EmitCounters(emit func(name string, value uint64)) {
	emit("ecpt_virt.walks", w.Walks)
}

// Walk implements core.Walker.
func (w *VirtWalker) Walk(gva mem.VAddr) core.WalkOutcome {
	w.Walks++
	out := core.WalkOutcome{Cycles: 2 * HashCycles}

	// Step 1: host-resolve the machine addresses of every guest candidate
	// slot (fan-out: guest ways × host ways, the "up to 81 parallel" of
	// §3.1). Only the chain of the eventually-matching guest way is on
	// the critical path.
	cands := w.cands[:0]
	var (
		dataGPA mem.PAddr
		gsz     mem.PageSize
		gok     bool
	)
	for _, sz := range w.Guest.sizes {
		t := w.Guest.tables[sz]
		vpn := mem.PageNumber(gva, sz)
		for way := 0; way < Ways; way++ {
			slot, pte, match := t.probeWay(vpn, way)
			if match && !gok {
				gok = true
				dataGPA = pte.Frame() + mem.PAddr(mem.PageOffset(gva, sz))
				gsz = sz
			}
			cands = append(cands, cand{slot: slot, isMatch: match})
		}
	}
	w.cands = cands
	g := core.FetchGroup{Sink: w.Sink}
	for i := range cands {
		m, _, ok := w.Host.probe(mem.VAddr(cands[i].slot), &g, w.Hier, "h", cands[i].isMatch)
		cands[i].machine, cands[i].ok = m, ok
	}
	g.Commit(&out)

	// Step 2: fetch the guest candidate entries; the matching way's line
	// latency is the critical path.
	g = core.FetchGroup{Sink: w.Sink}
	for _, c := range cands {
		if !c.ok {
			continue
		}
		lat := w.Hier.Access(c.machine)
		g.Add(core.MemRef{Addr: c.machine, Cycles: lat, Dim: "g"}, c.isMatch)
	}
	g.Commit(&out)
	if !gok {
		return out
	}

	// Step 3: host-resolve the data gPA.
	g = core.FetchGroup{Sink: w.Sink}
	m, _, ok := w.Host.probe(mem.VAddr(dataGPA), &g, w.Hier, "h", true)
	g.Commit(&out)
	if !ok {
		return out
	}
	out.PA, out.Size, out.OK = m, gsz, true
	return out
}

var _ core.Walker = (*VirtWalker)(nil)
