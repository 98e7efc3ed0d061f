package mem

import "testing"

// frameMapBases are the regions the fuzzer draws frames from: the bottom
// of memory, both sides of a chunk boundary, the last dense chunk, the
// first overflow frames at 16 GiB, and frames far beyond it.
var frameMapBases = []uint64{
	0,
	ChunkLen - 2,
	3*ChunkLen - 1,
	frameMapDense - ChunkLen,
	frameMapDense - 2,
	frameMapDense,
	1 << 30,
	1 << 50,
}

// frameMapModel pairs a FrameMap with the plain Go map it must agree with.
type frameMapModel struct {
	m   FrameMap[uint32]
	ref map[uint64]uint32
}

func (fm *frameMapModel) set(pa PAddr, v uint32) {
	fm.m.Set(pa, v)
	f := uint64(pa) >> PageShift4K
	if v == 0 {
		delete(fm.ref, f)
	} else {
		fm.ref[f] = v
	}
}

func (fm *frameMapModel) del(pa PAddr) {
	fm.m.Delete(pa)
	delete(fm.ref, uint64(pa)>>PageShift4K)
}

func (fm *frameMapModel) clone() *frameMapModel {
	c := &frameMapModel{m: fm.m.Clone(), ref: make(map[uint64]uint32, len(fm.ref))}
	for f, v := range fm.ref {
		c.ref[f] = v
	}
	return c
}

// check compares every observable of the FrameMap with the reference:
// Len, Get of every stored frame, and Range's entries, each exactly once.
func (fm *frameMapModel) check(t *testing.T, which int) {
	t.Helper()
	if got, want := fm.m.Len(), len(fm.ref); got != want {
		t.Fatalf("map %d: Len = %d, want %d", which, got, want)
	}
	for f, want := range fm.ref {
		if got := fm.m.Get(PAddr(f << PageShift4K)); got != want {
			t.Fatalf("map %d: Get(frame %#x) = %d, want %d", which, f, got, want)
		}
	}
	seen := make(map[PAddr]bool, len(fm.ref))
	fm.m.Range(func(pa PAddr, v uint32) {
		if seen[pa] || pa&(PageBytes4K-1) != 0 {
			t.Fatalf("map %d: Range passed %#x twice or unaligned", which, uint64(pa))
		}
		if want := fm.ref[uint64(pa)>>PageShift4K]; v != want || v == 0 {
			t.Fatalf("map %d: Range gave %#x=%d, want %d", which, uint64(pa), v, want)
		}
		seen[pa] = true
	})
	if len(seen) != len(fm.ref) {
		t.Fatalf("map %d: Range visited %d frames, want %d", which, len(seen), len(fm.ref))
	}
}

// FuzzFrameMap drives Set/Get/Delete/Len/Range/Clone against a plain Go
// map. Each 5-byte op picks a map (the original or one of its clones), an
// opcode, a region and an offset into it, and a value; after every Clone
// both sides are written at the same frame and must not see each other.
func FuzzFrameMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 7, 0, 0, 1, 0, 9, 0, 2, 5, 0, 3})
	f.Add([]byte{0, 0, 0, 1, 7, 0, 4, 0, 1, 1, 1, 0, 0, 2, 3, 0, 4, 5, 0, 2, 2, 1, 5, 0, 4})
	f.Add([]byte{0, 0, 1, 1, 1, 0, 0, 1, 2, 2, 0, 3, 1, 1, 4, 1, 0, 1, 1, 5, 1, 1, 1, 2, 0})
	f.Add([]byte{0, 0, 5, 0, 1, 0, 0, 4, 1, 2, 0, 3, 5, 0, 6, 1, 1, 5, 0, 0, 0, 2, 6, 3, 9, 1, 0, 7, 0, 3})
	f.Add([]byte{0, 0, 3, 255, 1, 0, 0, 4, 1, 1, 0, 3, 3, 255, 2, 1, 2, 3, 255, 0, 0, 1, 4, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		maps := []*frameMapModel{{ref: make(map[uint64]uint32)}}
		for len(ops) >= 5 {
			op := ops[:5]
			ops = ops[5:]
			fm := maps[int(op[0])%len(maps)]
			frame := frameMapBases[int(op[2])%len(frameMapBases)] + uint64(op[3]&7)
			// The low bits of the value byte land inside the page: the map
			// keys by frame, whatever the offset.
			pa := PAddr(frame<<PageShift4K | uint64(op[4])<<3)
			v := uint32(op[4] % 5)
			switch op[1] % 5 {
			case 0, 1:
				fm.set(pa, v)
			case 2:
				fm.del(pa)
			case 3:
				if got, want := fm.m.Get(pa), fm.ref[frame]; got != want {
					t.Fatalf("Get(%#x) = %d, want %d", uint64(pa), got, want)
				}
			case 4:
				if len(maps) == 4 {
					continue
				}
				c := fm.clone()
				maps = append(maps, c)
				fm.set(pa, v+1)
				c.set(pa, v+2)
				c.set(pa+ChunkLen*PageBytes4K, v+3)
				fm.del(pa - PageBytes4K)
			}
			if got, want := fm.m.Len(), len(fm.ref); got != want {
				t.Fatalf("Len = %d, want %d", got, want)
			}
		}
		for i, fm := range maps {
			fm.check(t, i)
		}
	})
}
