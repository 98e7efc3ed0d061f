package cache

import (
	"slices"
	"testing"

	"dmt/internal/mem"
)

// stampCache is the reference model for Cache: the stamp-based LRU array
// the recency-ordered one replaced. Every way carries the clock value of
// its last touch, and a fill takes the first empty way or else the way
// with the smallest stamp.
type stampCache struct {
	cfg    Config
	nsets  uint64
	ents   []uint64 // (tag, stamp) pairs; tag 0 = invalid (stored +1)
	Hits   uint64
	Misses uint64
}

func newStampCache(cfg Config) *stampCache {
	n := cfg.Sets()
	return &stampCache{cfg: cfg, nsets: uint64(n), ents: make([]uint64, n*cfg.Ways*2)}
}

func (c *stampCache) set(pa mem.PAddr) ([]uint64, uint64) {
	line := uint64(pa) / mem.CacheLineBytes
	base := int(line%c.nsets) * c.cfg.Ways * 2
	return c.ents[base : base+c.cfg.Ways*2], line + 1
}

func (c *stampCache) lookup(pa mem.PAddr, now uint64) bool {
	set, tag := c.set(pa)
	for w := 0; w < len(set); w += 2 {
		if set[w] == tag {
			set[w+1] = now
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

func (c *stampCache) insert(pa mem.PAddr, now uint64) {
	set, tag := c.set(pa)
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < len(set); w += 2 {
		if set[w] == tag {
			set[w+1] = now
			return
		}
		if set[w] == 0 {
			victim, oldest = w, 0
			break
		}
		if s := set[w+1]; s < oldest {
			victim, oldest = w, s
		}
	}
	set[victim] = tag
	set[victim+1] = now
}

func (c *stampCache) lookupOrFill(pa mem.PAddr, now uint64) bool {
	if c.lookup(pa, now) {
		return true
	}
	c.insert(pa, now)
	return false
}

func (c *stampCache) clone() *stampCache {
	n := *c
	n.ents = slices.Clone(c.ents)
	return &n
}

func (c *stampCache) flush() {
	for i := 0; i < len(c.ents); i += 2 {
		c.ents[i] = 0
	}
}

// recency returns set si's valid tags, most recently stamped first.
func (c *stampCache) recency(si int) []uint64 {
	w := c.cfg.Ways * 2
	set := c.ents[si*w : si*w+w]
	var idx []int
	for i := 0; i < len(set); i += 2 {
		if set[i] != 0 {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int { return int(set[b+1]) - int(set[a+1]) })
	tags := make([]uint64, len(idx))
	for i, j := range idx {
		tags[i] = set[j]
	}
	return tags
}

// stampHierarchy is the reference model for Hierarchy: one clock stamps
// every access, and each level is a stampCache.
type stampHierarchy struct {
	cfg                HierarchyConfig
	l1, l2, llc        *stampCache
	now                uint64
	accesses, memFetch uint64
}

func newStampHierarchy(cfg HierarchyConfig) *stampHierarchy {
	return &stampHierarchy{cfg: cfg, l1: newStampCache(cfg.L1D), l2: newStampCache(cfg.L2), llc: newStampCache(cfg.LLC)}
}

func (h *stampHierarchy) access(pa mem.PAddr) int {
	h.now++
	h.accesses++
	switch {
	case h.l1.lookupOrFill(pa, h.now):
		return h.cfg.L1D.LatencyRT
	case h.l2.lookupOrFill(pa, h.now):
		return h.cfg.L2.LatencyRT
	case h.llc.lookupOrFill(pa, h.now):
		return h.cfg.LLC.LatencyRT
	}
	h.memFetch++
	return h.cfg.MemLatency
}

func (h *stampHierarchy) prefetch(pa mem.PAddr) Level {
	h.now++
	if h.l2.lookupOrFill(pa, h.now) {
		return LevelL2
	}
	if h.llc.lookupOrFill(pa, h.now) {
		return LevelLLC
	}
	h.memFetch++
	return LevelMem
}

func (h *stampHierarchy) tick() uint64 {
	h.now++
	return h.now
}

func (h *stampHierarchy) clone() *stampHierarchy {
	n := *h
	n.l1, n.l2, n.llc = h.l1.clone(), h.l2.clone(), h.llc.clone()
	return &n
}

// requireSameCache fails unless c holds exactly ref's lines in ref's stamp
// order, set by set, with the same counters.
func requireSameCache(t *testing.T, name string, c *Cache, ref *stampCache) {
	t.Helper()
	if c.Hits != ref.Hits || c.Misses != ref.Misses {
		t.Fatalf("%s: hits/misses %d/%d, reference %d/%d", name, c.Hits, c.Misses, ref.Hits, ref.Misses)
	}
	for si := 0; si < len(c.tags)/c.ways; si++ {
		set := c.tags[si*c.ways : (si+1)*c.ways]
		n := 0
		for n < len(set) && set[n] != 0 {
			n++
		}
		for _, t2 := range set[n:] {
			if t2 != 0 {
				t.Fatalf("%s set %d: valid tag after an empty way: %v", name, si, set)
			}
		}
		if n == 0 && !slices.ContainsFunc(ref.ents[si*c.ways*2:(si+1)*c.ways*2], func(v uint64) bool { return v != 0 }) {
			continue // both empty; the common case, skipped without sorting
		}
		if want := ref.recency(si); !slices.Equal(set[:n], want) {
			t.Fatalf("%s set %d: tags %v, reference recency order %v", name, si, set[:n], want)
		}
	}
}

func requireSameHierarchy(t *testing.T, h *Hierarchy, ref *stampHierarchy) {
	t.Helper()
	if h.Accesses != ref.accesses || h.MemFetches != ref.memFetch {
		t.Fatalf("accesses/memfetches %d/%d, reference %d/%d", h.Accesses, h.MemFetches, ref.accesses, ref.memFetch)
	}
	requireSameCache(t, "L1D", h.L1D, ref.l1)
	requireSameCache(t, "L2", h.L2, ref.l2)
	requireSameCache(t, "LLC", h.LLC, ref.llc)
}

// oracleGeometries are the hierarchy shapes the LRU oracle drives: 1-way
// arrays, set counts that are not powers of two (the modulo path), and the
// scaled Table 3 shapes the simulator runs.
var oracleGeometries = []HierarchyConfig{
	{
		L1D:        Config{SizeBytes: 2 * 64, Ways: 1, LatencyRT: 4},
		L2:         Config{SizeBytes: 4 * 64, Ways: 1, LatencyRT: 14},
		LLC:        Config{SizeBytes: 8 * 64, Ways: 1, LatencyRT: 54},
		MemLatency: 200,
	},
	{
		L1D:        Config{SizeBytes: 3 * 2 * 64, Ways: 2, LatencyRT: 4},
		L2:         Config{SizeBytes: 5 * 4 * 64, Ways: 4, LatencyRT: 14},
		LLC:        Config{SizeBytes: 7 * 11 * 64, Ways: 11, LatencyRT: 54},
		MemLatency: 200,
	},
	ScaledConfig(64),
	ScaledConfig(16),
}

// oracleLines returns a pool of addresses that fall into two sets of every
// level, with enough distinct lines per set to overflow the widest array.
func oracleLines(cfg HierarchyConfig) []mem.PAddr {
	stride := uint64(1)
	for _, c := range []Config{cfg.L1D, cfg.L2, cfg.LLC} {
		stride = lcm(stride, uint64(c.Sets()))
	}
	var pool []mem.PAddr
	for i := uint64(0); i < 40; i++ {
		line := (i%2)*1 + (i/2)*stride
		pool = append(pool, mem.PAddr(line*mem.CacheLineBytes+i%mem.CacheLineBytes))
	}
	return pool
}

func lcm(a, b uint64) uint64 {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// FuzzCacheLRUEquiv drives the recency-ordered hierarchy and the stamp-LRU
// reference through the same random mix of Access, AccessBatch, Prefetch,
// direct Lookup/Insert on one level, Flush and Clone, and requires identical
// outcomes, counters and per-set recency order after every operation.
func FuzzCacheLRUEquiv(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 3, 0, 5, 0, 7, 0, 9, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(1), []byte{1, 0x11, 1, 0x22, 3, 4, 4, 8, 2, 9, 0, 1, 5, 0, 6, 0, 0, 9})
	f.Add(uint8(2), []byte{0, 10, 0, 12, 0, 14, 0, 16, 0, 18, 0, 20, 0, 22, 0, 24, 0, 10})
	f.Add(uint8(3), []byte{1, 0xff, 1, 0x7f, 2, 3, 3, 0x13, 4, 0x27, 6, 0, 1, 0xfe, 5, 0, 0, 3})
	// Cycle through every pooled line (twice the widest array per set) so
	// each level evicts, interleaved with re-touches and direct L2 traffic.
	for g := uint8(0); g < uint8(len(oracleGeometries)); g++ {
		var ops []byte
		for i := byte(0); i < 120; i++ {
			ops = append(ops, []byte{0, i % 40, 3, i % 7, 4, i % 11, 2, i % 13}[2*(i%4):2*(i%4)+2]...)
		}
		f.Add(g, ops)
	}
	f.Fuzz(func(t *testing.T, geom uint8, ops []byte) {
		cfg := oracleGeometries[int(geom)%len(oracleGeometries)]
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newStampHierarchy(cfg)
		pool := oracleLines(cfg)
		pa := func(b byte) mem.PAddr { return pool[int(b)%len(pool)] }
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			switch op % 7 {
			case 0:
				if got, want := h.Access(pa(arg)), ref.access(pa(arg)); got != want {
					t.Fatalf("Access(%#x) = %d cycles, reference %d", uint64(pa(arg)), got, want)
				}
			case 1:
				pas := make([]mem.PAddr, 1+int(arg)%8)
				for i := range pas {
					pas[i] = pa(arg + byte(i*(1+int(op)/7)))
				}
				var want uint64
				for _, p := range pas {
					want += uint64(ref.access(p))
				}
				if got := h.AccessBatch(pas); got != want {
					t.Fatalf("AccessBatch = %d cycles, reference %d", got, want)
				}
			case 2:
				if got, want := h.Prefetch(pa(arg)), ref.prefetch(pa(arg)); got != want {
					t.Fatalf("Prefetch(%#x) = %v, reference %v", uint64(pa(arg)), got, want)
				}
			case 3:
				c, rc := level(h, ref, op)
				if got, want := c.Lookup(pa(arg)), rc.lookup(pa(arg), ref.tick()); got != want {
					t.Fatalf("Lookup(%#x) = %v, reference %v", uint64(pa(arg)), got, want)
				}
			case 4:
				c, rc := level(h, ref, op)
				c.Insert(pa(arg))
				rc.insert(pa(arg), ref.tick())
			case 5:
				h.Flush()
				ref.l1.flush()
				ref.l2.flush()
				ref.llc.flush()
			case 6:
				// Continue on the clones, and churn the originals: a clone
				// that shared state with its source would diverge.
				oh, oref := h, ref
				h, ref = h.Clone(), ref.clone()
				oh.Access(pa(arg))
				oh.L2.Insert(pa(arg + 1))
				oref.access(pa(arg))
			}
			requireSameHierarchy(t, h, ref)
		}
	})
}

// level picks the array a direct Lookup/Insert drives from the op byte.
func level(h *Hierarchy, ref *stampHierarchy, op byte) (*Cache, *stampCache) {
	switch (op / 7) % 3 {
	case 0:
		return h.L2, ref.l2
	case 1:
		return h.L1D, ref.l1
	}
	return h.LLC, ref.llc
}
