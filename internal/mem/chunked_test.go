package mem

import "testing"

// chunkedBases are the regions the fuzzer draws indices from: the first
// chunk, both sides of a chunk boundary, and a chunk far beyond the others,
// so the directory grows on both original and clone.
var chunkedBases = []int{0, ChunkLen - 4, 3 * ChunkLen, 40 * ChunkLen}

// chunkedModel pairs a Chunked with the plain map it must agree with and,
// once sealed, a copy of every chunk it held when sealed.
type chunkedModel struct {
	a      Chunked[uint32]
	ref    map[int]uint32
	gen    int // 0 for the original, parent's gen + 1 for a clone
	frozen map[int][ChunkLen]uint32
}

func (m *chunkedModel) set(i int, v uint32) {
	m.a.Set(i, v)
	if v == 0 {
		delete(m.ref, i)
	} else {
		m.ref[i] = v
	}
}

// check compares every observable of the array with the reference: Get of
// every index any model ever wrote, and Range's non-zero entries.
func (m *chunkedModel) check(t *testing.T, which int, touched map[int]bool) {
	t.Helper()
	for i := range touched {
		if got, want := m.a.Get(i), m.ref[i]; got != want {
			t.Fatalf("array %d (gen %d): Get(%d) = %d, want %d", which, m.gen, i, got, want)
		}
		if r := m.a.Ref(i); (r == nil && m.ref[i] != 0) || (r != nil && *r != m.ref[i]) {
			t.Fatalf("array %d: Ref(%d) disagrees with Get", which, i)
		}
	}
	n, last := 0, -1
	m.a.Range(func(i int, v uint32) {
		if i <= last {
			t.Fatalf("array %d: Range went from %d to %d", which, last, i)
		}
		last = i
		if v != m.ref[i] {
			t.Fatalf("array %d: Range gave %d=%d, want %d", which, i, v, m.ref[i])
		}
		if v != 0 {
			n++
		}
	})
	if n != len(m.ref) {
		t.Fatalf("array %d: Range saw %d entries, want %d", which, n, len(m.ref))
	}
	for ci, want := range m.frozen {
		if got := m.a.dir[ci].v; got != want {
			t.Fatalf("array %d: sealed chunk %d was written after Seal", which, ci)
		}
	}
}

// FuzzChunkedCloneIsolation drives Set, MutSpan, delete (storing zero),
// Clone and Seal over an original and up to three generations of clones against a
// map model. Each 4-byte op picks an array, an opcode, a region and an
// offset into it. Every array must see exactly its own writes, whichever
// side of a Clone wrote a shared chunk first; a write to a sealed array
// must panic, and a sealed array's chunks must never change — not through
// it, and not through the clones sharing them.
func FuzzChunkedCloneIsolation(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 0, 1, 0, 0, 1, 0, 0, 2, 3})
	f.Add([]byte{0, 0, 1, 2, 0, 3, 0, 0, 0, 2, 0, 0, 1, 0, 1, 2, 2, 2, 0, 0, 2, 0, 3, 7})
	f.Add([]byte{0, 0, 0, 5, 0, 2, 0, 0, 1, 2, 0, 0, 2, 2, 0, 0, 3, 0, 0, 9, 3, 1, 0, 0, 0, 0, 0, 6})
	f.Add([]byte{0, 0, 2, 1, 0, 2, 0, 0, 0, 3, 0, 0, 1, 0, 2, 4, 0, 0, 2, 5, 1, 1, 2, 0})
	f.Add([]byte{0, 1, 1, 0x3f, 0, 2, 0, 0, 1, 1, 1, 0x17, 0, 0, 1, 0x1b, 1, 3, 0, 0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		models := []*chunkedModel{{ref: map[int]uint32{}}}
		touched := map[int]bool{}
		for len(ops) >= 4 {
			op := ops[:4]
			ops = ops[4:]
			m := models[int(op[0])%len(models)]
			i := chunkedBases[int(op[2])%len(chunkedBases)] + int(op[3]&7)
			v := uint32(op[3] >> 3)
			switch op[1] % 5 {
			case 0: // set; a value of zero deletes
				if m.frozen != nil {
					mustPanic(t, func() { m.a.Set(i, v+1) })
					continue
				}
				m.set(i, v)
				touched[i] = true
			case 1: // fill a span of up to 8 entries, clipped at the chunk end
				if m.frozen != nil {
					mustPanic(t, func() { m.a.MutSpan(i, 1) })
					continue
				}
				span := m.a.MutSpan(i, int(op[3]&7)+1)
				for k := range span {
					span[k] = v
					if v == 0 {
						delete(m.ref, i+k)
					} else {
						m.ref[i+k] = v
					}
					touched[i+k] = true
				}
			case 2: // clone
				if m.gen == 3 || len(models) == 8 {
					continue
				}
				c := &chunkedModel{a: m.a.Clone(), ref: make(map[int]uint32, len(m.ref)), gen: m.gen + 1}
				for k, v := range m.ref {
					c.ref[k] = v
				}
				models = append(models, c)
			case 3: // seal
				if m.frozen != nil {
					continue
				}
				m.a.Seal()
				m.frozen = map[int][ChunkLen]uint32{}
				for ci, c := range m.a.dir {
					if c != nil {
						m.frozen[ci] = c.v
					}
				}
			case 4: // read back
				if got, want := m.a.Get(i), m.ref[i]; got != want {
					t.Fatalf("Get(%d) = %d, want %d", i, got, want)
				}
			}
		}
		for which, m := range models {
			m.check(t, which, touched)
		}
	})
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("write to a sealed Chunked did not panic")
		}
	}()
	fn()
}
