package mem

// PTE is an x86-64-style page-table entry. The reproduction keeps the bits
// that affect translation behaviour and OS bookkeeping:
//
//	bit 0     P    present
//	bit 1     W    writable
//	bit 5     A    accessed
//	bit 6     D    dirty
//	bit 7     PS   page size (leaf at a non-terminal level → huge page)
//	bits 12+  PFN  physical frame number (4 KiB-frame granularity)
//
// Because DMT does not copy PTEs (§3), the same PTE words are read both by
// the legacy radix walker and by the DMT fetcher, so accessed/dirty semantics
// are identical between the two paths.
type PTE uint64

const (
	PTEPresent  PTE = 1 << 0
	PTEWritable PTE = 1 << 1
	PTEAccessed PTE = 1 << 5
	PTEDirty    PTE = 1 << 6
	PTEHuge     PTE = 1 << 7
)

// MakePTE builds a present PTE pointing at the 4 KiB-aligned physical
// address pa with the given flag bits.
func MakePTE(pa PAddr, flags PTE) PTE {
	return PTE(uint64(pa)&^(PageBytes4K-1))>>0 | (flags & (PageBytes4K - 1)) | PTEPresent
}

// Present reports whether the entry is valid.
func (p PTE) Present() bool { return p&PTEPresent != 0 }

// Huge reports whether the entry is a huge-page leaf (PS bit).
func (p PTE) Huge() bool { return p&PTEHuge != 0 }

// Writable reports whether the mapping permits writes.
func (p PTE) Writable() bool { return p&PTEWritable != 0 }

// Accessed and Dirty report the A/D bits.
func (p PTE) Accessed() bool { return p&PTEAccessed != 0 }

// Dirty reports the D bit.
func (p PTE) Dirty() bool { return p&PTEDirty != 0 }

// Frame returns the physical address held in the entry (4 KiB aligned).
func (p PTE) Frame() PAddr { return PAddr(uint64(p) &^ (PageBytes4K - 1)) }

// WithAccessed returns the entry with the A bit (and optionally D bit) set.
func (p PTE) WithAccessed(write bool) PTE {
	p |= PTEAccessed
	if write {
		p |= PTEDirty
	}
	return p
}
