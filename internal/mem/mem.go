// Package mem defines the address types, page geometry, and page-table-entry
// encoding shared by every component of the DMT reproduction.
//
// The conventions follow the x86-64 architecture as described in §2.1 of the
// paper: 4 KiB base pages, 2 MiB and 1 GiB huge pages, 8-byte PTEs, 512-entry
// page-table nodes, and 4-level (optionally 5-level) radix page tables whose
// level indices are extracted from VA[47:39], VA[38:30], VA[29:21], and
// VA[20:12].
package mem

import "fmt"

// VAddr is a virtual address. In virtualized setups it may denote a guest
// virtual address (gVA) or, at the L2 level of nested virtualization, an
// L2 VA; the meaning is determined by the owning address space.
type VAddr uint64

// PAddr is a physical address. Depending on context it is a host physical
// address (hPA), a guest physical address (gPA), or an intermediate-level
// physical address in nested virtualization.
type PAddr uint64

// Fundamental x86-64 geometry.
const (
	PageShift4K = 12
	PageShift2M = 21
	PageShift1G = 30

	PageBytes4K = 1 << PageShift4K
	PageBytes2M = 1 << PageShift2M
	PageBytes1G = 1 << PageShift1G

	// PTEBytes is the size of one page-table entry.
	PTEBytes = 8
	// EntriesPerNode is the fan-out of one radix page-table node.
	EntriesPerNode = 512
	// NodeBytes is the size of one page-table node (one 4 KiB page).
	NodeBytes = EntriesPerNode * PTEBytes

	// CacheLineBytes is the cache line size of the simulated hierarchy.
	CacheLineBytes = 64

	// Levels4 and Levels5 are the supported radix page-table depths.
	Levels4 = 4
	Levels5 = 5
)

// PageSize enumerates the three x86-64 translation granularities.
type PageSize uint8

const (
	Size4K PageSize = iota
	Size2M
	Size1G
)

// Shift returns log2 of the page size in bytes: each size is 512 (2^9)
// times the one below it. The panic message is a constant so that Shift,
// and Bytes, PageOffset and PageNumber through it, stay within the
// compiler's inlining budget; they sit on every TLB hit.
func (s PageSize) Shift() uint {
	if s > Size1G {
		panic("mem: invalid page size")
	}
	return PageShift4K + 9*uint(s)
}

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() uint64 { return 1 << s.Shift() }

// LeafLevel returns the page-table level whose entries map pages of this
// size: level 1 for 4 KiB, level 2 for 2 MiB, level 3 for 1 GiB.
func (s PageSize) LeafLevel() int { return int(s) + 1 }

func (s PageSize) String() string {
	switch s {
	case Size4K:
		return "4K"
	case Size2M:
		return "2M"
	case Size1G:
		return "1G"
	}
	return fmt.Sprintf("PageSize(%d)", uint8(s))
}

// LevelShift returns the shift amount of the VA bits indexing the given
// page-table level (level 1 is the last level for 4 KiB pages).
func LevelShift(level int) uint {
	return PageShift4K + 9*uint(level-1)
}

// Index extracts the radix index for the given page-table level from va.
// For level 4 this is VA[47:39], for level 1 it is VA[20:12] (Figure 1).
func Index(va VAddr, level int) int {
	return int(uint64(va)>>LevelShift(level)) & (EntriesPerNode - 1)
}

// PageOffset returns the offset of va within a page of size s.
func PageOffset(va VAddr, s PageSize) uint64 {
	return uint64(va) & (s.Bytes() - 1)
}

// PageNumber returns the virtual page number of va for page size s.
func PageNumber(va VAddr, s PageSize) uint64 {
	return uint64(va) >> s.Shift()
}

// AlignDown rounds va down to a multiple of align (a power of two).
func AlignDown(va VAddr, align uint64) VAddr {
	return VAddr(uint64(va) &^ (align - 1))
}

// AlignUp rounds va up to a multiple of align (a power of two).
func AlignUp(va VAddr, align uint64) VAddr {
	return VAddr((uint64(va) + align - 1) &^ (align - 1))
}

// AlignDownP is AlignDown's physical-address analogue.
func AlignDownP(pa PAddr, align uint64) PAddr {
	return PAddr(uint64(pa) &^ (align - 1))
}

// IsAligned reports whether v is a multiple of align (a power of two).
func IsAligned(v uint64, align uint64) bool { return v&(align-1) == 0 }
