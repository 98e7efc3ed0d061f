package mem

import (
	"slices"
	"sync/atomic"
	"unsafe"
)

// ChunkLen is the number of entries per Chunked chunk: one chunk per
// 2 MiB of 4 KiB frames when the index is a frame number.
const ChunkLen = 1 << chunkShift

const (
	chunkShift = 9
	chunkMask  = ChunkLen - 1
)

// Chunked is a sparse array of V indexed from 0, stored in 512-entry
// chunks that are allocated on first write and shared copy-on-write
// between clones. Entries never written read as the zero V.
//
// Clone copies no entries and no directory: both sides then share the
// chunk directory and every chunk, and whichever side writes into a shared
// chunk copies the directory (once) and the chunk first, so a clone pays
// for the chunks it writes, not for the array it copies. A chunk is
// written in place only by the array that owns it — the one that
// allocated or copied it since the last Clone.
//
// Seal marks an array that will never be written again (a prototype). A
// sealed array's Clone only reads it, so clones may be taken from many
// goroutines at once; cloning an unsealed array hands its chunks over to
// sharing, which writes the source. Writing a sealed array panics.
//
// The zero Chunked is empty and ready to use. Copying a Chunked by value
// aliases its directory; use Clone.
type Chunked[V any] struct {
	dir    []*chunk[V]
	owner  uint64 // token on the chunks this array writes in place; 0 owns none
	ownDir bool   // dir is this array's own, not shared with a clone
	sealed bool
}

type chunk[V any] struct {
	owner uint64
	v     [ChunkLen]V
}

var (
	// owners mints ownership tokens; 0 is never issued.
	owners atomic.Uint64
	// copiedBytes counts the bytes of shared chunks copied on write.
	copiedBytes atomic.Uint64
)

// CopiedBytes returns the bytes of shared chunks that writes have copied
// so far in this process, over every Chunked.
func CopiedBytes() uint64 { return copiedBytes.Load() }

// Get returns entry i, or the zero V if its chunk was never written.
func (a *Chunked[V]) Get(i int) V {
	if ci := uint(i) >> chunkShift; ci < uint(len(a.dir)) {
		if c := a.dir[ci]; c != nil {
			return c.v[i&chunkMask]
		}
	}
	var zero V
	return zero
}

// Ref returns a pointer to entry i for reading only, or nil if its chunk
// was never written. Writing through it would reach every array sharing
// the chunk; use Mut to write.
func (a *Chunked[V]) Ref(i int) *V {
	if ci := uint(i) >> chunkShift; ci < uint(len(a.dir)) {
		if c := a.dir[ci]; c != nil {
			return &c.v[i&chunkMask]
		}
	}
	return nil
}

// Span returns up to n entries from i, clipped to the end of i's chunk,
// for reading only, or nil if that chunk was never written (its entries
// all read as zero). Scanning a run span by span costs one directory lookup
// per chunk instead of one per entry.
func (a *Chunked[V]) Span(i, n int) []V {
	if ci := uint(i) >> chunkShift; ci < uint(len(a.dir)) {
		if c := a.dir[ci]; c != nil {
			j := i & chunkMask
			return c.v[j:min(ChunkLen, j+n)]
		}
	}
	return nil
}

// Mut returns a writable pointer to entry i, first allocating its chunk
// or, when the chunk is shared, copying it. The pointer is valid until the
// next Clone of a.
func (a *Chunked[V]) Mut(i int) *V {
	if ci := uint(i) >> chunkShift; ci < uint(len(a.dir)) {
		if c := a.dir[ci]; c != nil && c.owner == a.owner {
			return &c.v[i&chunkMask]
		}
	}
	return a.own(i)
}

// MutSpan is Span for writing: it first allocates or copies i's chunk as
// Mut does, so the span is never nil.
func (a *Chunked[V]) MutSpan(i, n int) []V {
	a.Mut(i)
	j := i & chunkMask
	return a.dir[i>>chunkShift].v[j:min(ChunkLen, j+n)]
}

// Set stores v at entry i.
func (a *Chunked[V]) Set(i int, v V) { *a.Mut(i) = v }

// own makes the chunk holding entry i private to a — a fresh chunk where
// none was written, a copy where it is shared — and returns the entry.
func (a *Chunked[V]) own(i int) *V {
	ci := i >> chunkShift
	if a.sealed {
		panic("mem: write to a sealed Chunked")
	}
	if a.owner == 0 {
		a.owner = owners.Add(1)
	}
	if !a.ownDir {
		// A clone shares its directory: replacing a chunk pointer, or
		// appending into spare capacity, would show on the other side.
		a.dir, a.ownDir = slices.Clone(a.dir), true
	}
	if ci >= len(a.dir) {
		// append doubles the directory's capacity, so an ascending run
		// of writes does not copy it once per new chunk.
		a.dir = append(a.dir, make([]*chunk[V], ci+1-len(a.dir))...)
	}
	c := &chunk[V]{owner: a.owner}
	if old := a.dir[ci]; old != nil {
		c.v = old.v
		copiedBytes.Add(uint64(unsafe.Sizeof(c.v)))
	}
	a.dir[ci] = c
	return &c.v[i&chunkMask]
}

// Range calls fn with the index and value of every entry of every chunk
// ever written, in ascending index order; unwritten chunks are skipped.
// fn may write the entry it is handed, but no other entry of a.
func (a *Chunked[V]) Range(fn func(i int, v V)) {
	for ci := range a.dir {
		c := a.dir[ci]
		if c == nil {
			continue
		}
		for j := range c.v {
			fn(ci<<chunkShift|j, c.v[j])
		}
	}
}

// Clone returns an array with a's contents that shares a's directory and
// chunks until either side writes them. Unless a is sealed, a gives up
// ownership of both, so its own next write copies them too.
func (a *Chunked[V]) Clone() Chunked[V] {
	if !a.sealed {
		a.owner, a.ownDir = 0, false
	}
	return Chunked[V]{dir: a.dir}
}

// Seal makes a read-only: Clone no longer writes a, and any write panics.
func (a *Chunked[V]) Seal() {
	a.sealed, a.owner = true, 0
}
