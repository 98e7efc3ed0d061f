package mem

import "maps"

// Frame-map geometry: values live in 512-frame chunks (one chunk covers
// 2 MiB of physical address space) allocated on first write, for frames
// below frameMapDense (16 GiB, beyond anything the experiments configure).
// Higher frames — property tests, sentinel placements — fall back to a map.
const (
	frameChunkShift = 9
	frameChunkLen   = 1 << frameChunkShift
	frameChunkMask  = frameChunkLen - 1
	frameMapDense   = 1 << 22
)

// FrameMap maps 4 KiB physical frames to values, the zero V meaning
// "absent". It is the frame index behind the page-table node pool (base
// frame → node) and the kernel's reverse map (data frame → mapping page).
//
// Lookups below 16 GiB are two indexed loads with no map operation, so
// the DMT fetch path can read PTEs through it. Storage follows the frames
// actually written: a sparse address space pays for the 2 MiB chunks it
// touches and a directory of one pointer per chunk below its highest
// frame, not for a slice as long as its highest frame number. Clone copies
// only allocated chunks.
//
// The zero FrameMap is empty and ready to use.
type FrameMap[V comparable] struct {
	chunks []*[frameChunkLen]V // indexed by frame >> frameChunkShift
	over   map[uint64]V        // frames at or above frameMapDense
	n      int                 // non-zero entries
}

// Get returns the value stored for the frame containing pa, or the zero V.
func (m *FrameMap[V]) Get(pa PAddr) V {
	f := uint64(pa) >> PageShift4K
	if ci := f >> frameChunkShift; ci < uint64(len(m.chunks)) {
		if c := m.chunks[ci]; c != nil {
			return c[f&frameChunkMask]
		}
		var zero V
		return zero
	}
	if f < frameMapDense || m.over == nil {
		var zero V
		return zero
	}
	return m.over[f]
}

// Set stores v for the frame containing pa; storing the zero V deletes.
func (m *FrameMap[V]) Set(pa PAddr, v V) {
	var zero V
	if v == zero {
		m.Delete(pa)
		return
	}
	f := uint64(pa) >> PageShift4K
	if f >= frameMapDense {
		if m.over == nil {
			m.over = make(map[uint64]V)
		}
		if _, ok := m.over[f]; !ok {
			m.n++
		}
		m.over[f] = v
		return
	}
	ci := int(f >> frameChunkShift)
	if ci >= len(m.chunks) {
		// append doubles the directory's capacity, so an ascending run
		// of writes does not copy it once per new chunk.
		m.chunks = append(m.chunks, make([]*[frameChunkLen]V, ci+1-len(m.chunks))...)
	}
	c := m.chunks[ci]
	if c == nil {
		c = new([frameChunkLen]V)
		m.chunks[ci] = c
	}
	slot := &c[f&frameChunkMask]
	if *slot == zero {
		m.n++
	}
	*slot = v
}

// Delete removes the frame containing pa. An emptied chunk stays
// allocated, so frames freed and reused in place never reallocate it.
func (m *FrameMap[V]) Delete(pa PAddr) {
	var zero V
	f := uint64(pa) >> PageShift4K
	if ci := f >> frameChunkShift; ci < uint64(len(m.chunks)) {
		if c := m.chunks[ci]; c != nil && c[f&frameChunkMask] != zero {
			c[f&frameChunkMask] = zero
			m.n--
		}
		return
	}
	if _, ok := m.over[f]; ok {
		delete(m.over, f)
		m.n--
	}
}

// Len returns the number of frames holding a non-zero value.
func (m *FrameMap[V]) Len() int { return m.n }

// Range calls fn with the base address and value of every stored frame:
// frames below 16 GiB in ascending order, then the overflow frames in map
// order.
func (m *FrameMap[V]) Range(fn func(pa PAddr, v V)) {
	var zero V
	for ci, c := range m.chunks {
		if c == nil {
			continue
		}
		for i, v := range c {
			if v != zero {
				fn(PAddr((uint64(ci)<<frameChunkShift|uint64(i))<<PageShift4K), v)
			}
		}
	}
	for f, v := range m.over {
		fn(PAddr(f<<PageShift4K), v)
	}
}

// Clone returns an independent copy. Its cost follows the chunks written,
// not the highest frame: allocated chunks are copied into one backing
// array, and absent ones stay nil in the copied directory.
func (m *FrameMap[V]) Clone() FrameMap[V] {
	c := FrameMap[V]{n: m.n}
	if len(m.chunks) > 0 {
		live := 0
		for _, ch := range m.chunks {
			if ch != nil {
				live++
			}
		}
		backing := make([][frameChunkLen]V, live)
		c.chunks = make([]*[frameChunkLen]V, len(m.chunks))
		i := 0
		for ci, ch := range m.chunks {
			if ch != nil {
				backing[i] = *ch
				c.chunks[ci] = &backing[i]
				i++
			}
		}
	}
	if len(m.over) > 0 {
		c.over = maps.Clone(m.over)
	}
	return c
}
