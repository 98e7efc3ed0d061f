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
	return buildShadow(vm, guestAS, newMachineCursor(vm))
}

// BuildNestedShadow constructs the compressed shadow table of nested
// virtualization (Figure 3): L2PA → L0PA, combining the L1 table
// (L2PA→L1PA) with the L0 table (L1PA→L0PA). vm must be an L2 VM.
func BuildNestedShadow(vm *VM) (*pagetable.Table, error) {
	return buildShadow(vm, vm.HostAS, newMachineCursor(vm.Parent))
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

// resolve is VM.MachineLeaf through the cursors.
func (mc machineCursor) resolve(pa mem.PAddr) (mem.PAddr, mem.PageSize, bool) {
	leaf := mem.Size1G
	for i := range mc {
		next, size, ok := mc[i].Lookup(mem.VAddr(pa))
		if !ok {
			return 0, 0, false
		}
		pa, leaf = next, min(leaf, size)
	}
	return pa, leaf, true
}

// LeafResolver maps an address to its final translation target and the
// smallest leaf size that maps it (VM.MachineLeaf).
type LeafResolver func(mem.PAddr) (mem.PAddr, mem.PageSize, bool)

// ContiguousMachine resolves the page of the given size at frame through
// resolve and reports its machine base when the whole page is
// machine-contiguous. A leaf at least as large as the page maps all of it,
// so only a smaller one needs the per-4 KiB check.
func ContiguousMachine(resolve LeafResolver, frame mem.PAddr, size mem.PageSize) (mem.PAddr, bool) {
	base, leaf, ok := resolve(frame)
	if !ok {
		return 0, false
	}
	if leaf >= size {
		return base, true
	}
	for off := uint64(mem.PageBytes4K); off < size.Bytes(); off += mem.PageBytes4K {
		m, _, ok := resolve(frame + mem.PAddr(off))
		if !ok || m != base+mem.PAddr(off) {
			return 0, false
		}
	}
	return base, true
}

// buildShadow composes src's leaves with the machine translation mc into a
// fresh shadow table allocated from the machine.
func buildShadow(vm *VM, src *kernel.AddressSpace, mc machineCursor) (*pagetable.Table, error) {
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
	// Leaves come in ascending VA order, so the cursor maps a span's base
	// pages with one walk. The sweep over src is live: the fill maps only
	// into the shadow table and takes only page-table frames from the
	// machine, which relocates nothing in src.
	cur := spt.Cursor()
	sync := func(va mem.VAddr, m mem.PAddr, size mem.PageSize) error {
		if err := cur.Map(va, m, size, mem.PTEWritable); err != nil {
			return err
		}
		vm.Hyp.ShadowSyncs++
		return nil
	}
	err = src.ForEachLeaf(func(va mem.VAddr, dst mem.PAddr, size mem.PageSize) error {
		if size == mem.Size4K {
			if m, _, ok := mc.resolve(dst); ok {
				return sync(va, mem.AlignDownP(m, mem.PageBytes4K), mem.Size4K)
			}
			return nil
		}
		// Huge leaf: keep it huge only if the machine backing is
		// contiguous and aligned.
		if base, ok := ContiguousMachine(mc.resolve, dst, size); ok && mem.IsAligned(uint64(base), size.Bytes()) {
			return sync(va, base, size)
		}
		for off := uint64(0); off < size.Bytes(); off += mem.PageBytes4K {
			if m, _, ok := mc.resolve(dst + mem.PAddr(off)); ok {
				if err := sync(va+mem.VAddr(off), mem.AlignDownP(m, mem.PageBytes4K), mem.Size4K); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return spt, nil
}
