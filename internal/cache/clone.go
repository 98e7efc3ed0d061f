package cache

// Clone deep-copies one cache array: the recency-ordered tags and hit/miss
// counters, so lookups on the clone reorder its own sets only.
func (c *Cache) Clone() *Cache {
	n := *c
	n.tags = append([]uint64(nil), c.tags...)
	return &n
}

// Clone deep-copies the hierarchy, including the warm state machine
// construction left behind (page-table builds touch PTE lines), so a cloned
// machine observes exactly the cache contents a fresh build would.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{
		cfg:        h.cfg,
		L1D:        h.L1D.Clone(),
		L2:         h.L2.Clone(),
		LLC:        h.LLC.Clone(),
		Accesses:   h.Accesses,
		MemFetches: h.MemFetches,
	}
}
