package virt

import (
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
)

// BuildShadowVA constructs a shadow page table mapping gVA → machine PA by
// composing the guest process table with the host tables (§2.1.2): the
// hypervisor-maintained sPT of classic shadow paging. Every synchronized
// leaf is counted as a shadow sync (each would cost a VM exit when it
// happens at runtime — the overhead quantified in §2.2).
//
// Guest huge pages are preserved in the shadow only when the backing
// guest-physical range is machine-contiguous and aligned; otherwise the
// leaf is splintered into base pages, as real shadow paging must.
func BuildShadowVA(vm *VM, guestAS *kernel.AddressSpace) (*pagetable.Table, error) {
	return buildShadow(vm, shadowSources(guestAS), newMachineCursor(vm))
}

// BuildNestedShadow constructs the compressed shadow table of nested
// virtualization (Figure 3): L2PA → L0PA, combining the L1 table
// (L2PA→L1PA) with the L0 table (L1PA→L0PA). vm must be an L2 VM.
func BuildNestedShadow(vm *VM) (*pagetable.Table, error) {
	return buildShadow(vm, shadowSources(vm.HostAS), newMachineCursor(vm.Parent))
}

// machineCursor is VM.MachineAddr through one pagetable.Cursor per host
// table on the way down to the machine, so a run of lookups inside one
// 2 MiB span at every depth costs one walk per depth instead of a walk
// from each root per page. The shadow builders resolve guest frames in
// ascending order and a guest huge leaf's 512 base pages in a row.
//
// The cursors are never Reset: building a shadow table only takes single
// page-table frames from the machine allocator, which maps nothing into
// and relocates nothing out of the host tables the cursors hold.
type machineCursor []pagetable.Cursor

// newMachineCursor returns a cursor resolving vm's guest-physical
// addresses to machine addresses, as vm.MachineAddr does.
func newMachineCursor(vm *VM) machineCursor {
	var mc machineCursor
	for v := vm; v != nil; v = v.Parent {
		mc = append(mc, v.HostAS.PT.Cursor())
	}
	return mc
}

// resolve is VM.MachineAddr through the cursors.
func (mc machineCursor) resolve(pa mem.PAddr) (mem.PAddr, bool) {
	for i := range mc {
		next, _, ok := mc[i].Lookup(mem.VAddr(pa))
		if !ok {
			return 0, false
		}
		pa = next
	}
	return pa, true
}

type shadowSource struct {
	va   mem.VAddr
	size mem.PageSize
	dst  mem.PAddr // next-level physical address
}

func shadowSources(as *kernel.AddressSpace) []shadowSource {
	n := 0
	for _, v := range as.VMAs() {
		n += v.PopulatedPages()
	}
	srcs := make([]shadowSource, 0, n)
	cur := as.PT.Cursor()
	for _, v := range as.VMAs() {
		for _, p := range v.PresentPages() {
			if dst, size, ok := cur.Lookup(p.VA); ok {
				srcs = append(srcs, shadowSource{va: p.VA, size: size, dst: mem.AlignDownP(dst, size.Bytes())})
			}
		}
	}
	return srcs
}

func buildShadow(vm *VM, srcs []shadowSource, mc machineCursor) (*pagetable.Table, error) {
	machine := vm.Hyp.MachinePhys
	pool := pagetable.NewPool()
	spt, err := pagetable.New(pool, mem.Levels4,
		func(level int, va mem.VAddr) (mem.PAddr, error) {
			return machine.AllocFrame(phys.KindPageTable)
		},
		func(level int, pa mem.PAddr) { machine.FreeFrame(pa) })
	if err != nil {
		return nil, err
	}
	// Sources come in ascending VA order, so the cursor maps a span's
	// base pages with one walk.
	cur := spt.Cursor()
	for _, s := range srcs {
		if s.size == mem.Size4K {
			m, ok := mc.resolve(s.dst)
			if !ok {
				continue
			}
			if err := cur.Map(s.va, mem.AlignDownP(m, mem.PageBytes4K), mem.Size4K, mem.PTEWritable); err != nil {
				return nil, err
			}
			vm.Hyp.ShadowSyncs++
			continue
		}
		// Huge leaf: keep it huge only if the machine backing is
		// contiguous and aligned.
		if base, ok := contiguousMachine(s, mc); ok {
			if err := cur.Map(s.va, base, s.size, mem.PTEWritable); err != nil {
				return nil, err
			}
			vm.Hyp.ShadowSyncs++
			continue
		}
		for off := uint64(0); off < s.size.Bytes(); off += mem.PageBytes4K {
			m, ok := mc.resolve(s.dst + mem.PAddr(off))
			if !ok {
				continue
			}
			if err := cur.Map(s.va+mem.VAddr(off), mem.AlignDownP(m, mem.PageBytes4K), mem.Size4K, mem.PTEWritable); err != nil {
				return nil, err
			}
			vm.Hyp.ShadowSyncs++
		}
	}
	return spt, nil
}

func contiguousMachine(s shadowSource, mc machineCursor) (mem.PAddr, bool) {
	base, ok := mc.resolve(s.dst)
	if !ok || !mem.IsAligned(uint64(base), s.size.Bytes()) {
		return 0, false
	}
	for off := uint64(mem.PageBytes4K); off < s.size.Bytes(); off += mem.PageBytes4K {
		m, ok := mc.resolve(s.dst + mem.PAddr(off))
		if !ok || m != base+mem.PAddr(off) {
			return 0, false
		}
	}
	return base, true
}
