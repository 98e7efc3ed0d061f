// Package cache simulates the memory hierarchy of the measurement platform
// (Table 3 of the paper): per-core L1D and L2 caches, a shared last-level
// cache, and main memory, each with set-associative LRU arrays and the
// paper's round-trip latencies. Both data accesses and PTE fetches issued by
// the translation designs go through this hierarchy, which is what makes
// walk-latency comparisons meaningful — the whole point of DMT is *which*
// PTE lines are fetched, and from *where*.
package cache

import (
	"fmt"

	"dmt/internal/mem"
)

// Level identifies where an access was served.
type Level uint8

const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMem:
		return "Mem"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// Config describes one cache array.
type Config struct {
	SizeBytes int
	Ways      int
	LatencyRT int // round-trip access latency in cycles
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * mem.CacheLineBytes) }

// Cache is one set-associative LRU cache array. Each set is a span of one
// flat set-major tag array, kept in recency order: valid tags form a prefix
// of the span, most recently used first, so the LRU line is simply the last
// way and no per-way age is stored. A hit moves its tag to way 0, a fill
// pushes the set down one way and drops the last. One word per way keeps a
// probe to one contiguous span, which matters because every simulated
// memory access walks these arrays several times and the larger arrays
// (the LLC's) miss the host's own caches.
type Cache struct {
	cfg  Config
	ways int
	mask uint64   // set count - 1 when the count is a power of two
	mod  uint64   // the set count when it is not (modulo path), else 0
	tags []uint64 // set-major, recency-ordered; tag 0 = invalid (stored +1)

	Hits   uint64
	Misses uint64
}

// NewCache builds a cache array from cfg. Size, way count, and line size
// must divide evenly; misconfiguration is reported as an error.
func NewCache(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: bad geometry %+v", cfg)
	}
	n := cfg.Sets()
	if n <= 0 || cfg.SizeBytes%(cfg.Ways*mem.CacheLineBytes) != 0 {
		return nil, fmt.Errorf("cache: bad geometry %+v", cfg)
	}
	c := &Cache{
		cfg:  cfg,
		ways: cfg.Ways,
		tags: make([]uint64, n*cfg.Ways),
	}
	if n&(n-1) == 0 {
		c.mask = uint64(n) - 1
	} else {
		c.mod = uint64(n)
	}
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// locate returns pa's set span in tags and its match tag. For power-of-two
// set counts (every Table 3 geometry, scaled or not, down to a single set)
// the set index is a mask — bit-identical to the modulo — so the hot path
// avoids a hardware divide.
func (c *Cache) locate(pa mem.PAddr) ([]uint64, uint64) {
	line := uint64(pa) / mem.CacheLineBytes
	var si uint64
	if c.mod == 0 {
		si = line & c.mask
	} else {
		si = line % c.mod
	}
	base := int(si) * c.ways
	return c.tags[base : base+c.ways], line + 1 // +1 so tag 0 means invalid
}

// Lookup probes for the line holding pa and makes it most recent on a hit.
func (c *Cache) Lookup(pa mem.PAddr) bool {
	set, tag := c.locate(pa)
	for w, t := range set {
		if t == tag {
			copy(set[1:w+1], set[:w])
			set[0] = tag
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Insert fills the line holding pa as most recent, evicting the LRU line
// when the set is full (a resident line is just refreshed).
func (c *Cache) Insert(pa mem.PAddr) {
	set, tag := c.locate(pa)
	fill(set, tag)
}

// fill makes tag the most recent line of set in one carry pass: each way
// takes its predecessor's tag until the pass reaches tag itself (a hit: the
// ways above it moved down one) or falls off the end, dropping the last way
// — the LRU line when the set is full, an empty way otherwise. Empty ways
// hold tag 0, which no line matches, so the pass needs no validity check.
// It reports whether tag was already resident.
func fill(set []uint64, tag uint64) bool {
	carry := tag
	for w, t := range set {
		set[w] = carry
		if t == tag {
			return true
		}
		carry = t
	}
	return false
}

// lookupOrFill probes for the line holding pa and, on a miss, fills it —
// exactly Lookup followed by Insert of the same line, with the set span
// touched once instead of twice, which matters on the miss path where the
// span starts cold in the host's own caches.
func (c *Cache) lookupOrFill(pa mem.PAddr) bool {
	set, tag := c.locate(pa)
	if len(set) > 0 && set[0] == tag { // a hit on the most recent line stores nothing
		c.Hits++
		return true
	}
	if fill(set, tag) {
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Flush invalidates the entire array (used across simulated context
// switches in tests).
func (c *Cache) Flush() { clear(c.tags) }

// HierarchyConfig describes the full memory system; DefaultConfig matches
// Table 3 (Intel Xeon Gold 6138).
type HierarchyConfig struct {
	L1D        Config
	L2         Config
	LLC        Config
	MemLatency int
}

// DefaultConfig is the simulated-architecture configuration from Table 3:
// 32 KiB 8-way L1D (4-cycle RT), 1 MiB 16-way L2 (14-cycle RT), 22 MiB
// 11-way LLC (54-cycle RT), 200-cycle main memory.
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:        Config{SizeBytes: 32 << 10, Ways: 8, LatencyRT: 4},
		L2:         Config{SizeBytes: 1 << 20, Ways: 16, LatencyRT: 14},
		LLC:        Config{SizeBytes: 22 << 20, Ways: 11, LatencyRT: 54},
		MemLatency: 200,
	}
}

// ScaledConfig returns DefaultConfig with every capacity divided by factor,
// keeping latencies; used to shrink simulations proportionally with the
// scaled-down working sets (DESIGN.md §6). LLC way count is preserved, so
// factor must leave at least one set per array.
func ScaledConfig(factor int) HierarchyConfig {
	c := DefaultConfig()
	c.L1D.SizeBytes /= factor
	c.L2.SizeBytes /= factor
	c.LLC.SizeBytes /= factor
	return c
}

// Hierarchy is the composed memory system.
type Hierarchy struct {
	cfg HierarchyConfig
	L1D *Cache
	L2  *Cache
	LLC *Cache

	Accesses   uint64
	MemFetches uint64
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	llc, err := NewCache(cfg.LLC)
	if err != nil {
		return nil, fmt.Errorf("LLC: %w", err)
	}
	return &Hierarchy{cfg: cfg, L1D: l1d, L2: l2, LLC: llc}, nil
}

// Access performs a demand access to the line holding pa, returning the
// round-trip latency of the serving level and filling all levels above the
// hit (inclusive allocation). Each level that misses is filled by its own
// lookupOrFill as the probe cascades down — every miss level ends up
// holding the line as its most recent, exactly as the lookup-then-backfill
// phrasing would leave it, without rescanning any set.
func (h *Hierarchy) Access(pa mem.PAddr) int {
	h.Accesses++
	switch {
	case h.L1D.lookupOrFill(pa):
		return h.cfg.L1D.LatencyRT
	case h.L2.lookupOrFill(pa):
		return h.cfg.L2.LatencyRT
	case h.LLC.lookupOrFill(pa):
		return h.cfg.LLC.LatencyRT
	default:
		h.MemFetches++
		return h.cfg.MemLatency
	}
}

// AccessBatch performs demand accesses to every pa in order, returning the
// summed round-trip cycles. It is bit-identical to calling Access per
// element — same lookup order, same inclusive fills, same recency order and
// counters — but keeps the level pointers and per-level configs hot in one
// loop, which matters on the batched engine's TLB-hit runs where the data
// access is the only memory-system work per op.
func (h *Hierarchy) AccessBatch(pas []mem.PAddr) uint64 {
	l1, l2, llc := h.L1D, h.L2, h.LLC
	latL1 := uint64(h.cfg.L1D.LatencyRT)
	latL2 := uint64(h.cfg.L2.LatencyRT)
	latLLC := uint64(h.cfg.LLC.LatencyRT)
	latMem := uint64(h.cfg.MemLatency)
	var cycles uint64
	for _, pa := range pas {
		h.Accesses++
		switch {
		case l1.lookupOrFill(pa):
			cycles += latL1
		case l2.lookupOrFill(pa):
			cycles += latL2
		case llc.lookupOrFill(pa):
			cycles += latLLC
		default:
			h.MemFetches++
			cycles += latMem
		}
	}
	return cycles
}

// Prefetch inserts the line holding pa into the L2 and LLC without charging
// demand latency; this is how the ASAP baseline lands upper-level PTE lines
// ahead of the walk (§6.2.2). It consumes memory bandwidth (recorded in
// MemFetches when the line came from memory) and returns the level the
// line was sourced from, so the consumer can account for the fill latency
// it cannot hide (LevelL2 means the line was already close — nothing to
// wait for).
func (h *Hierarchy) Prefetch(pa mem.PAddr) Level {
	if h.L2.lookupOrFill(pa) {
		return LevelL2
	}
	if h.LLC.lookupOrFill(pa) {
		return LevelLLC
	}
	h.MemFetches++
	return LevelMem
}

// Contains reports whether pa is present at any level (test helper).
func (h *Hierarchy) Contains(pa mem.PAddr) bool {
	// Probe without disturbing recency order or stats: inspect tags directly.
	for _, c := range [...]*Cache{h.L1D, h.L2, h.LLC} {
		set, tag := c.locate(pa)
		for _, t := range set {
			if t == tag {
				return true
			}
		}
	}
	return false
}

// Flush empties all levels.
func (h *Hierarchy) Flush() {
	h.L1D.Flush()
	h.L2.Flush()
	h.LLC.Flush()
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }
