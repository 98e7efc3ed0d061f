// Package ecpt implements Elastic Cuckoo Page Tables (Skarlatos et al.,
// ASPLOS'20) and Nested ECPT (Stojkovic et al., ASPLOS'22), the strongest
// hash-based comparison points of the paper (§6.2.1).
//
// Each page size has its own d-ary cuckoo hash table whose elements pack
// the PTEs of eight consecutive pages (one cache line per element, as in
// the original design — hashing at single-page granularity would destroy
// the spatial locality that makes PTE lines cacheable). A translation
// probes all ways of all size-tables in parallel; the walk proceeds when
// the *matching* element returns, so the fan-out costs bandwidth and cache
// pollution rather than latency. Natively that is one sequential step; in
// a virtualized setup guest tables (in guest-physical memory) and host
// tables (in machine memory) compose into three sequential steps with up
// to 81 parallel references.
package ecpt

import (
	"fmt"

	"dmt/internal/mem"
	"dmt/internal/phys"
)

// Ways is the cuckoo nesting degree (d = 3 in the evaluated configuration).
const Ways = 3

// HashCycles is the fixed per-lookup cost of computing the way hashes and
// probing the cuckoo walk caches — overhead DMT avoids (§6.2.1).
const HashCycles = 2

// GroupPages is the number of consecutive pages whose PTEs one cuckoo
// element packs.
const GroupPages = 8

// entryBytes is the size of one cuckoo element: one cache line holding the
// group tag and eight PTEs.
const entryBytes = mem.CacheLineBytes

// maxLoadNum/maxLoadDen give the resize threshold (load factor 0.6 on
// element groups).
const (
	maxLoadNum = 3
	maxLoadDen = 5
)

// Table is one elastic cuckoo hash table mapping VPN groups of one page
// size to packed PTEs. Ways occupy disjoint physically-contiguous regions
// so every probe has a concrete physical address for the cache simulation.
// Each way's elements live in a mem.Chunked array, shared copy-on-write
// with clones.
type Table struct {
	size  mem.PageSize
	slots int // element slots per way
	ways  [Ways]mem.Chunked[entry]
	bases [Ways]mem.PAddr
	alloc *phys.Allocator
	seeds [Ways]uint64

	groups int // live element groups
	count  int // live PTEs
	// pending holds elements displaced by a failed relocation chain,
	// reinserted during the next resize.
	pending []entry
	// Resizes counts elastic rehashes.
	Resizes uint64
}

type entry struct {
	group uint64 // vpn >> 3
	ptes  [GroupPages]mem.PTE
	valid bool
}

func (e *entry) empty() bool {
	for _, p := range e.ptes {
		if p.Present() {
			return false
		}
	}
	return true
}

// swap exchanges e and o field by field: the PTE array moves in vector
// registers, where a whole-element swap would copy 80 bytes three times
// through memory.
func (e *entry) swap(o *entry) {
	e.group, o.group = o.group, e.group
	e.ptes, o.ptes = o.ptes, e.ptes
	e.valid, o.valid = o.valid, e.valid
}

// NewTable creates a cuckoo table for one page size with the given initial
// element-slot count per way (rounded up to a full frame of elements).
func NewTable(size mem.PageSize, slots int, alloc *phys.Allocator) (*Table, error) {
	t := &Table{size: size, alloc: alloc}
	t.seeds = [Ways]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9}
	if err := t.allocate(slots); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Table) allocate(slots int) error {
	per := mem.PageBytes4K / entryBytes
	if slots < per {
		slots = per
	}
	slots = ((slots + per - 1) / per) * per
	frames := slots * entryBytes / mem.PageBytes4K
	for w := 0; w < Ways; w++ {
		base, err := t.alloc.AllocContig(frames, phys.KindPageTable)
		if err != nil {
			return fmt.Errorf("ecpt: allocating way %d: %w", w, err)
		}
		t.bases[w] = base
		t.ways[w] = mem.Chunked[entry]{}
	}
	t.slots = slots
	return nil
}

func (t *Table) hash(group uint64, way int) int {
	h := group ^ t.seeds[way]
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(t.slots))
}

// SlotAddr returns the physical address probed for vpn in the given way.
func (t *Table) SlotAddr(vpn uint64, way int) mem.PAddr {
	return t.bases[way] + mem.PAddr(t.hash(vpn/GroupPages, way)*entryBytes)
}

// Lookup probes all ways for vpn without charging latency (content read;
// the walker charges the parallel accesses itself).
func (t *Table) Lookup(vpn uint64) (mem.PTE, bool) {
	group := vpn / GroupPages
	for w := 0; w < Ways; w++ {
		if e := t.ways[w].Ref(t.hash(group, w)); e != nil && e.valid && e.group == group {
			pte := e.ptes[vpn%GroupPages]
			return pte, pte.Present()
		}
	}
	return 0, false
}

// Insert adds vpn→pte, relocating element groups cuckoo-style and resizing
// the table when a relocation chain exceeds the bound or load grows too
// high.
func (t *Table) Insert(vpn uint64, pte mem.PTE) error {
	group := vpn / GroupPages
	// Fast path: the group already exists.
	for w := 0; w < Ways; w++ {
		slot := t.hash(group, w)
		if e := t.ways[w].Ref(slot); e != nil && e.valid && e.group == group {
			e = t.ways[w].Mut(slot)
			if !e.ptes[vpn%GroupPages].Present() {
				t.count++
			}
			e.ptes[vpn%GroupPages] = pte
			return nil
		}
	}
	if t.groups*maxLoadDen >= t.slots*Ways*maxLoadNum {
		if err := t.resize(); err != nil {
			return err
		}
	}
	fresh := entry{group: group, valid: true}
	fresh.ptes[vpn%GroupPages] = pte
	for attempt := 0; attempt < 4; attempt++ {
		if cur := fresh; t.tryInsert(&cur, 32) {
			t.groups++
			t.count++
			return nil
		}
		if err := t.resize(); err != nil {
			return err
		}
	}
	return fmt.Errorf("ecpt: insertion failed for vpn %#x", vpn)
}

// tryInsert places *cur cuckoo-style: each step swaps *cur with the
// element in its slot of the next way, until *cur holds an empty slot's
// element or bound steps have run. Elements move through the chunk
// pointers, never as copies passed by value.
func (t *Table) tryInsert(cur *entry, bound int) bool {
	way := 0
	for i := 0; i < bound; i++ {
		slot := t.ways[way].Mut(t.hash(cur.group, way))
		slot.swap(cur)
		if !cur.valid {
			return true
		}
		way = (way + 1) % Ways
	}
	// The displaced element is stashed and re-inserted during the resize
	// rehash.
	t.pending = append(t.pending, *cur)
	return false
}

func (t *Table) resize() error {
	old := t.ways
	oldSlots := t.slots
	for w := 0; w < Ways; w++ {
		t.alloc.FreeContig(t.bases[w], oldSlots*entryBytes/mem.PageBytes4K)
	}
	if err := t.allocate(oldSlots * 2); err != nil {
		return err
	}
	t.Resizes++
	moved := t.pending
	t.pending = nil
	for w := range old {
		for i := 0; i < oldSlots; {
			span := old[w].Span(i, oldSlots-i)
			if span == nil { // a chunk no insert ever wrote
				i += mem.ChunkLen - i%mem.ChunkLen
				continue
			}
			for j := range span {
				if span[j].valid {
					moved = append(moved, span[j])
				}
			}
			i += len(span)
		}
	}
	for i := range moved {
		if !t.tryInsert(&moved[i], 64) {
			return fmt.Errorf("ecpt: rehash failed")
		}
	}
	return nil
}

// Remove deletes vpn; an element whose last PTE is cleared is freed.
func (t *Table) Remove(vpn uint64) {
	group := vpn / GroupPages
	for w := 0; w < Ways; w++ {
		slot := t.hash(group, w)
		if e := t.ways[w].Ref(slot); e != nil && e.valid && e.group == group {
			e = t.ways[w].Mut(slot)
			if e.ptes[vpn%GroupPages].Present() {
				e.ptes[vpn%GroupPages] = 0
				t.count--
			}
			if e.empty() {
				*e = entry{}
				t.groups--
			}
			return
		}
	}
}

// Count returns the number of live PTEs.
func (t *Table) Count() int { return t.count }

// FootprintBytes returns the table's physical memory footprint.
func (t *Table) FootprintBytes() int { return t.slots * entryBytes * Ways }
