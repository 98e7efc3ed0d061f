// Package tlb implements the translation-lookaside structures of the
// simulated architecture (Table 3): a two-level data TLB (64-entry 4-way L1,
// 1536-entry 12-way L2 STLB), the 3-level page-walk caches (2/4/32 entries,
// 1-cycle access), and the nested page-walk cache used by two-dimensional
// walks in virtualized environments.
package tlb

import (
	"fmt"

	"dmt/internal/mem"
	"dmt/internal/pagetable"
)

// assoc is a small set-associative map from uint64 keys to uint64 values
// with LRU replacement; it backs TLBs, PWCs, and nested walk caches. Keys
// and values live in two flat set-major arrays, and each set is kept in
// recency order: valid entries form a prefix of the set, most recently used
// first, so the LRU entry is the last valid way and no per-way age is
// stored. Empty ways hold key 0, which no stored key+1 equals, so probes
// need no separate validity check. The walk hot path, which probes these
// structures many times per translation, scans one contiguous run of keys
// per set — no pointer chase, no hardware divide (power-of-two set counts
// take a mask) — and reads a value only on a hit.
type assoc struct {
	keys []uint64 // key+1 per way; 0 = invalid
	vals []uint64 // the value of the key in the same slot
	ways int
	mask uint64 // set count - 1 when the count is a power of two
	mod  uint64 // the set count when it is not (modulo path), else 0
}

func newAssoc(entries, ways int) (*assoc, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("tlb: bad geometry: %d entries / %d ways", entries, ways)
	}
	n := entries / ways
	a := &assoc{
		keys: make([]uint64, entries),
		vals: make([]uint64, entries),
		ways: ways,
	}
	if n&(n-1) == 0 {
		a.mask = uint64(n) - 1
	} else {
		a.mod = uint64(n)
	}
	return a, nil
}

// normAssoc builds an assoc after clamping the geometry to the nearest valid
// shape (at least one way, entries a multiple of ways); the resulting
// construction cannot fail.
func normAssoc(entries, ways int) *assoc {
	if ways < 1 {
		ways = 1
	}
	if entries < ways {
		ways = entries
	}
	if ways < 1 {
		entries, ways = 1, 1
	}
	entries -= entries % ways
	a, _ := newAssoc(entries, ways)
	return a
}

// set returns key's set: its keys and values, way by way. The set index
// computed by the mask fast path (power-of-two set counts, a single set
// included) equals the modulo exactly, so the two paths place every key
// alike.
func (a *assoc) set(key uint64) (keys, vals []uint64) {
	// Mix the key so consecutive VPNs spread across sets.
	h := key * 0x9e3779b97f4a7c15
	var si uint64
	if a.mod == 0 {
		si = (h >> 32) & a.mask
	} else {
		si = (h >> 32) % a.mod
	}
	base := int(si) * a.ways
	return a.keys[base : base+a.ways], a.vals[base : base+a.ways]
}

// lookup returns key's value and makes it the most recent entry of its set.
func (a *assoc) lookup(key uint64) (uint64, bool) {
	ks, vs := a.set(key)
	vs = vs[:len(ks)] // equal lengths: lets the compiler drop bounds checks
	for w, k := range ks {
		if k == key+1 {
			v := vs[w]
			for ; w > 0; w-- {
				ks[w], vs[w] = ks[w-1], vs[w-1]
			}
			ks[0], vs[0] = k, v
			return v, true
		}
	}
	return 0, false
}

// insert makes (key, val) the most recent entry of its set in one carry
// pass: each way takes its predecessor's entry until the pass reaches key
// itself (its old value is dropped) or falls off the end, dropping the last
// way — the LRU entry when the set is full, an empty way otherwise.
func (a *assoc) insert(key, val uint64) {
	ks, vs := a.set(key)
	vs = vs[:len(ks)]
	ck, cv := key+1, val
	for w, k := range ks {
		v := vs[w]
		ks[w], vs[w] = ck, cv
		if k == key+1 {
			return
		}
		ck, cv = k, v
	}
}

// invalidate drops key, closing the gap so valid entries stay a prefix in
// recency order.
func (a *assoc) invalidate(key uint64) {
	ks, vs := a.set(key)
	for w, k := range ks {
		if k == key+1 {
			copy(ks[w:], ks[w+1:])
			copy(vs[w:], vs[w+1:])
			ks[len(ks)-1] = 0
			return
		}
	}
}

func (a *assoc) flush() { clear(a.keys) }

// Config describes the two-level TLB; DefaultConfig matches Table 3.
type Config struct {
	L1Entries, L1Ways int
	L2Entries, L2Ways int
}

// DefaultConfig is the Table 3 data-side configuration: 64-entry 4-way L1D
// TLB and 1536-entry 12-way L2 STLB.
func DefaultConfig() Config {
	return Config{L1Entries: 64, L1Ways: 4, L2Entries: 1536, L2Ways: 12}
}

// TLB is a two-level, multi-page-size translation lookaside buffer keyed by
// (ASID, page size, VPN).
type TLB struct {
	l1, l2 *assoc

	// seen[size] records whether any entry of that page-size class has been
	// inserted since the last full flush. Probing a size class with no
	// resident entries can never hit, and a missing probe leaves every set
	// exactly as it found it (only a hit reorders one), so the lookup loops
	// try only the classes that can possibly hold a translation. With THP
	// off that halves-to-thirds the probe work of every single lookup.
	seen [3]bool

	L1Hits, L2Hits, Misses uint64
}

// New builds a TLB from cfg. Invalid geometry (non-positive sizes or an
// entry count not divisible by the way count) is reported as an error.
func New(cfg Config) (*TLB, error) {
	l1, err := newAssoc(cfg.L1Entries, cfg.L1Ways)
	if err != nil {
		return nil, fmt.Errorf("L1 TLB: %w", err)
	}
	l2, err := newAssoc(cfg.L2Entries, cfg.L2Ways)
	if err != nil {
		return nil, fmt.Errorf("L2 TLB: %w", err)
	}
	return &TLB{l1: l1, l2: l2}, nil
}

func key(va mem.VAddr, size mem.PageSize, asid uint16) uint64 {
	return mem.PageNumber(va, size)<<12 | uint64(asid)<<2 | uint64(size)
}

// pageSizes is the probe order shared by every lookup loop.
var pageSizes = [...]mem.PageSize{mem.Size4K, mem.Size2M, mem.Size1G}

// Lookup probes both levels for a translation of va under asid, trying all
// three page sizes. On an L2 hit the entry is promoted into the L1.
func (t *TLB) Lookup(va mem.VAddr, asid uint16) (mem.PAddr, mem.PageSize, bool) {
	for _, size := range pageSizes {
		if !t.seen[size] {
			continue
		}
		k := key(va, size, asid)
		if v, ok := t.l1.lookup(k); ok {
			t.L1Hits++
			return frameToPA(v, va, size), size, true
		}
	}
	for _, size := range pageSizes {
		if !t.seen[size] {
			continue
		}
		k := key(va, size, asid)
		if v, ok := t.l2.lookup(k); ok {
			t.L2Hits++
			t.l1.insert(k, v)
			return frameToPA(v, va, size), size, true
		}
	}
	t.Misses++
	return 0, 0, false
}

func frameToPA(frame uint64, va mem.VAddr, size mem.PageSize) mem.PAddr {
	return mem.PAddr(frame<<size.Shift() | mem.PageOffset(va, size))
}

// LookupBatch probes translations for vas in op order, writing each hit's
// physical address to the corresponding pas slot and stopping at the first
// miss. It is bit-identical to calling Lookup per element — same probe
// order, same LRU and promotion updates, same counters — but runs as one
// tight loop inside the package, so the level pointers and set metadata
// stay hot across consecutive ops instead of being re-established per call.
//
// It returns the number of leading hits. missProbed reports whether a miss
// terminated the run within len(vas): that miss has been fully probed and
// charged (both levels, Misses counter) exactly once, so the caller must
// walk vas[hits] without probing again. missProbed is false iff every
// element hit.
func (t *TLB) LookupBatch(vas []mem.VAddr, asid uint16, pas []mem.PAddr) (hits int, missProbed bool) {
	l1, l2 := t.l1, t.l2
probe:
	for i, va := range vas {
		for _, size := range pageSizes {
			if !t.seen[size] {
				continue
			}
			k := key(va, size, asid)
			if v, ok := l1.lookup(k); ok {
				t.L1Hits++
				pas[i] = frameToPA(v, va, size)
				continue probe
			}
		}
		for _, size := range pageSizes {
			if !t.seen[size] {
				continue
			}
			k := key(va, size, asid)
			if v, ok := l2.lookup(k); ok {
				t.L2Hits++
				l1.insert(k, v)
				pas[i] = frameToPA(v, va, size)
				continue probe
			}
		}
		t.Misses++
		return i, true
	}
	return len(vas), false
}

// Insert installs the translation va→pa (page-aligned internally) for the
// given page size into both levels.
func (t *TLB) Insert(va mem.VAddr, pa mem.PAddr, size mem.PageSize, asid uint16) {
	t.seen[size] = true
	k := key(va, size, asid)
	frame := uint64(pa) >> size.Shift()
	t.l1.insert(k, frame)
	t.l2.insert(k, frame)
}

// Invalidate drops any entry translating va (all sizes), the analogue of
// INVLPG.
func (t *TLB) Invalidate(va mem.VAddr, asid uint16) {
	for _, size := range pageSizes {
		if !t.seen[size] {
			continue
		}
		t.l1.invalidate(key(va, size, asid))
		t.l2.invalidate(key(va, size, asid))
	}
}

// Flush empties both levels (CR3 write without PCID).
func (t *TLB) Flush() {
	t.seen = [3]bool{}
	t.l1.flush()
	t.l2.flush()
}

// PWCLatency is the access latency of the page-walk caches (Table 3).
const PWCLatency = 1

// PWC is a set of page-walk caches. Entry level L caches, for a VA prefix,
// the physical address of the level-(L-1) page-table node — i.e. a hit at
// level 2 lets the walker skip straight to the last-level (L1) PTE fetch.
// Table 3: 3 levels with 2, 4, and 32 entries (for skip depths covering
// L4, L3, and L2 respectively), 1-cycle access.
type PWC struct {
	// byLevel[level] holds the cache for skip levels 2..4; a fixed array
	// keeps the per-walk probe free of map lookups.
	byLevel [5]*assoc

	Hits, Misses uint64
}

// NewPWC builds the Table 3 page-walk-cache stack.
func NewPWC() *PWC { return NewPWCSized(2, 4, 32) }

// NewPWCSized builds a PWC with explicit entry counts for the L4/L3/L2
// skip levels; used when structures are scaled with the working set
// (DESIGN.md §6).
func NewPWCSized(l4, l3, l2 int) *PWC {
	p := &PWC{}
	p.byLevel[4] = normAssoc(l4, 2)
	p.byLevel[3] = normAssoc(l3, 4)
	p.byLevel[2] = normAssoc(l2, 4)
	return p
}

// NewPWCScaled divides the Table 3 entry counts by scale (minimum one
// entry per level).
func NewPWCScaled(scale int) *PWC {
	d := func(n int) int {
		if n/scale < 1 {
			return 1
		}
		return n / scale
	}
	return NewPWCSized(d(2), d(4), d(32))
}

func pwcKey(va mem.VAddr, level int, asid uint16) uint64 {
	// The prefix consumed by levels > (level-1): everything above the
	// bits indexing the level-(level-1) node.
	prefix := uint64(va) >> mem.LevelShift(level)
	return prefix<<12 | uint64(asid)<<2 | uint64(level)
}

// Lookup probes the PWC for the deepest available skip, trying level 2
// first (largest skip), then 3, then 4. It returns the physical address of
// the next page-table node to read and the level of that node.
func (p *PWC) Lookup(va mem.VAddr, asid uint16) (nodePA mem.PAddr, nextLevel int, ok bool) {
	for level := 2; level <= 4; level++ {
		if v, hit := p.byLevel[level].lookup(pwcKey(va, level, asid)); hit {
			p.Hits++
			return mem.PAddr(v), level - 1, true
		}
	}
	p.Misses++
	return 0, 0, false
}

// Insert records that, for va's prefix at the given level, the next node
// (level-1) resides at nodePA.
func (p *PWC) Insert(va mem.VAddr, level int, nodePA mem.PAddr, asid uint16) {
	if level < 2 || level > 4 {
		return
	}
	p.byLevel[level].insert(pwcKey(va, level, asid), uint64(nodePA))
}

// Skip probes the PWC for va and returns the suffix of a full walk's steps
// (root first) that a walker still has to fetch: every step from the level
// of the node a hit hands over, or all of them on a miss. A nil PWC skips
// nothing and counts nothing.
func (p *PWC) Skip(va mem.VAddr, asid uint16, steps []pagetable.Step) []pagetable.Step {
	if p == nil {
		return steps
	}
	if _, nextLevel, ok := p.Lookup(va, asid); ok {
		for i, s := range steps {
			if s.Level <= nextLevel {
				return steps[i:]
			}
		}
	}
	return steps
}

// Refill installs a skip entry for every internal level of a successful
// full walk: after fetching the level-L entry the walker knows the base of
// the level-(L-1) node, which is what a level-L entry records. A nil PWC
// ignores it.
func (p *PWC) Refill(va mem.VAddr, asid uint16, steps []pagetable.Step) {
	if p == nil {
		return
	}
	for i := 0; i+1 < len(steps); i++ {
		p.Insert(va, steps[i].Level, mem.AlignDownP(steps[i+1].Addr, mem.PageBytes4K), asid)
	}
}

// Flush empties all levels.
func (p *PWC) Flush() {
	for level := 2; level <= 4; level++ {
		p.byLevel[level].flush()
	}
}

// NestedCache caches gPA-page → hPA-page translations discovered during the
// host dimension of a 2D walk (the "nested PWC" row of Table 3, used to
// shortcut steps 1–4, 6–9, … of Figure 2 on reuse).
type NestedCache struct {
	a *assoc

	Hits, Misses uint64
}

// NewNestedCache builds the nested walk cache (38 entries total, matching
// the 2-4-32 budget of Table 3).
func NewNestedCache() *NestedCache {
	return NewNestedCacheSized(38)
}

// NewNestedCacheSized builds a nested walk cache with the given entry
// count (minimum 2).
func NewNestedCacheSized(entries int) *NestedCache {
	if entries < 2 {
		entries = 2
	}
	return &NestedCache{a: normAssoc(entries, 2)}
}

// Lookup returns the cached host frame for a guest-physical page.
func (n *NestedCache) Lookup(gpa mem.PAddr) (mem.PAddr, bool) {
	page := uint64(gpa) >> mem.PageShift4K
	if v, ok := n.a.lookup(page); ok {
		n.Hits++
		return mem.PAddr(v<<mem.PageShift4K | uint64(gpa)&(mem.PageBytes4K-1)), true
	}
	n.Misses++
	return 0, false
}

// Insert records gpa→hpa at page granularity.
func (n *NestedCache) Insert(gpa, hpa mem.PAddr) {
	n.a.insert(uint64(gpa)>>mem.PageShift4K, uint64(hpa)>>mem.PageShift4K)
}

// Flush empties the cache.
func (n *NestedCache) Flush() { n.a.flush() }
