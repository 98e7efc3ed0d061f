package cache

import (
	"testing"
	"testing/quick"

	"dmt/internal/mem"
)

func mustCache(t testing.TB, cfg Config) *Cache {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustHierarchy(t testing.TB, cfg HierarchyConfig) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// requireServed accesses pa and asserts the level that served it, read two
// ways: from the returned latency (4/14/54/200 cycles in DefaultConfig, all
// distinct) and from that level's hit counter (MemFetches for memory).
func requireServed(t *testing.T, h *Hierarchy, pa mem.PAddr, want Level) {
	t.Helper()
	cfg := h.Config()
	var lat int
	var counter *uint64
	switch want {
	case LevelL1:
		lat, counter = cfg.L1D.LatencyRT, &h.L1D.Hits
	case LevelL2:
		lat, counter = cfg.L2.LatencyRT, &h.L2.Hits
	case LevelLLC:
		lat, counter = cfg.LLC.LatencyRT, &h.LLC.Hits
	default:
		lat, counter = cfg.MemLatency, &h.MemFetches
	}
	before := *counter
	if got := h.Access(pa); got != lat || *counter != before+1 {
		t.Fatalf("Access(%#x) = %d cycles, counter %d -> %d; want %v: %d cycles, counter +1",
			uint64(pa), got, before, *counter, want, lat)
	}
}

func TestHitAfterMiss(t *testing.T) {
	h := mustHierarchy(t, DefaultConfig())
	requireServed(t, h, 0x1000, LevelMem)
	requireServed(t, h, 0x1000, LevelL1)
}

func TestSameLineSharing(t *testing.T) {
	h := mustHierarchy(t, DefaultConfig())
	h.Access(0x2000)
	// A different address on the same 64-byte line must hit.
	requireServed(t, h, 0x2038, LevelL1)
	// The next line must miss.
	requireServed(t, h, 0x2040, LevelMem)
}

func TestL1EvictionFallsToL2(t *testing.T) {
	cfg := DefaultConfig()
	h := mustHierarchy(t, cfg)
	sets := cfg.L1D.Sets()
	ways := cfg.L1D.Ways
	// Fill one L1 set beyond capacity; conflicting lines map to the same
	// set when they share (lineIndex % sets).
	base := mem.PAddr(0)
	for i := 0; i <= ways; i++ {
		h.Access(base + mem.PAddr(i*sets*mem.CacheLineBytes))
	}
	// The first line was evicted from L1 but must still hit in L2.
	requireServed(t, h, base, LevelL2)
}

func TestLRUVictimSelection(t *testing.T) {
	c := mustCache(t, Config{SizeBytes: 4 * mem.CacheLineBytes, Ways: 4, LatencyRT: 1})
	// Single set, 4 ways. Touch lines A,B,C,D then re-touch A; inserting E
	// must evict B (the LRU), not A.
	addrs := []mem.PAddr{0, 0x40 * 1, 0x40 * 2, 0x40 * 3}
	for _, a := range addrs {
		c.Insert(a)
	}
	if !c.Lookup(addrs[0]) {
		t.Fatal("A should be present")
	}
	c.Insert(0x40 * 4) // E evicts LRU = B
	if !c.Lookup(addrs[0]) {
		t.Error("A was evicted despite being MRU")
	}
	if c.Lookup(addrs[1]) {
		t.Error("B should have been the LRU victim")
	}
}

func TestPrefetchLandsInL2NotL1(t *testing.T) {
	h := mustHierarchy(t, DefaultConfig())
	h.Prefetch(0x9000)
	if !h.Contains(0x9000) {
		t.Fatal("prefetched line absent from hierarchy")
	}
	requireServed(t, h, 0x9000, LevelL2)
	if h.MemFetches != 1 {
		t.Fatalf("MemFetches = %d, want 1 (prefetch consumes bandwidth)", h.MemFetches)
	}
}

func TestFlush(t *testing.T) {
	h := mustHierarchy(t, DefaultConfig())
	h.Access(0x3000)
	h.Flush()
	requireServed(t, h, 0x3000, LevelMem)
}

func TestScaledConfigPreservesLatencies(t *testing.T) {
	c := ScaledConfig(32)
	d := DefaultConfig()
	if c.L1D.LatencyRT != d.L1D.LatencyRT || c.MemLatency != d.MemLatency {
		t.Error("scaling must not change latencies")
	}
	if c.LLC.SizeBytes*32 != d.LLC.SizeBytes {
		t.Error("LLC not scaled")
	}
	// Must still construct.
	mustHierarchy(t, c)
}

// Property: immediately re-accessing any address always hits in L1 with the
// L1 latency, regardless of address.
func TestRepeatAccessAlwaysL1(t *testing.T) {
	h := mustHierarchy(t, DefaultConfig())
	f := func(raw uint64) bool {
		pa := mem.PAddr(raw % (1 << 40))
		h.Access(pa)
		hits := h.L1D.Hits
		return h.Access(pa) == h.Config().L1D.LatencyRT && h.L1D.Hits == hits+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: hit+miss counters equal total accesses at the L1.
func TestCounterConservation(t *testing.T) {
	h := mustHierarchy(t, DefaultConfig())
	for i := 0; i < 1000; i++ {
		h.Access(mem.PAddr(i * 13 * mem.CacheLineBytes))
	}
	if h.L1D.Hits+h.L1D.Misses != h.Accesses {
		t.Fatalf("L1 hits(%d)+misses(%d) != accesses(%d)", h.L1D.Hits, h.L1D.Misses, h.Accesses)
	}
}
