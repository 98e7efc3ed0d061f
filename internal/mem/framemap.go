package mem

import "maps"

// frameMapDense bounds the frames a FrameMap keeps in its chunked array:
// 2^22 frames (16 GiB), beyond anything the experiments configure. Higher
// frames — property tests, sentinel placements — fall back to a map.
const frameMapDense = 1 << 22

// FrameMap maps 4 KiB physical frames to values, the zero V meaning
// "absent". It is the frame index behind the page-table node pool (base
// frame → node) and the kernel's reverse map (data frame → mapping page).
//
// Frames below 16 GiB live in a Chunked array indexed by frame number, so
// a lookup is two indexed loads with no map operation and the DMT fetch
// path can read PTEs through it. Storage follows the frames actually
// written: a sparse address space pays for the 2 MiB chunks it touches and
// a directory of one pointer per chunk below its highest frame, not for a
// slice as long as its highest frame number. Clone shares the directory
// and the chunks copy-on-write (see Chunked).
//
// The zero FrameMap is empty and ready to use.
type FrameMap[V comparable] struct {
	dense Chunked[V]   // indexed by frame number, below frameMapDense
	over  map[uint64]V // frames at or above frameMapDense
	n     int          // non-zero entries
}

// Get returns the value stored for the frame containing pa, or the zero V.
func (m *FrameMap[V]) Get(pa PAddr) V {
	f := uint64(pa) >> PageShift4K
	if f < frameMapDense {
		return m.dense.Get(int(f))
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
	slot := m.dense.Mut(int(f))
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
	if f < frameMapDense {
		if m.dense.Get(int(f)) != zero {
			*m.dense.Mut(int(f)) = zero
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
	m.dense.Range(func(f int, v V) {
		if v != zero {
			fn(PAddr(uint64(f)<<PageShift4K), v)
		}
	})
	for f, v := range m.over {
		fn(PAddr(f<<PageShift4K), v)
	}
}

// Clone returns a map with m's contents: the dense chunks are shared
// copy-on-write, the overflow map is copied.
func (m *FrameMap[V]) Clone() FrameMap[V] {
	return FrameMap[V]{dense: m.dense.Clone(), over: maps.Clone(m.over), n: m.n}
}

// Seal makes m read-only (see Chunked.Seal).
func (m *FrameMap[V]) Seal() { m.dense.Seal() }
