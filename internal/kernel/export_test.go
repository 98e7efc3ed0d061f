package kernel

import (
	"sort"

	"dmt/internal/mem"
)

// RmapEntry is one reverse-map entry: a data frame and the page mapping it.
type RmapEntry struct {
	PA   mem.PAddr
	VA   mem.VAddr
	Size mem.PageSize
}

// RmapEntries returns the reverse map's entries in frame order.
func (as *AddressSpace) RmapEntries() []RmapEntry {
	var out []RmapEntry
	as.rmap.frames.Range(func(pa mem.PAddr, _ uint64) {
		va, size, _ := as.rmap.get(pa)
		out = append(out, RmapEntry{PA: pa, VA: va, Size: size})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].PA < out[j].PA })
	return out
}
