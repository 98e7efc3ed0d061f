package virt

import (
	"fmt"

	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
	"dmt/internal/tea"
)

// Clone copies the machine-wide state: the L0 allocator (its arrays shared
// copy-on-write), the cache hierarchy (warm from the build), and the exit
// accounting — VM creation
// runs hypercalls and shadow syncs at build time, so a clone must carry the
// counters for its final Result footer to match a fresh build's.
func (h *Hypervisor) Clone() *Hypervisor {
	return &Hypervisor{
		MachinePhys:     h.MachinePhys.Clone(),
		Hier:            h.Hier.Clone(),
		Hypercalls:      h.Hypercalls,
		VMExits:         h.VMExits,
		ShadowSyncs:     h.ShadowSyncs,
		IsolationFaults: h.IsolationFaults,
	}
}

// Clone copies the VM onto an already-cloned hypervisor (and, for an
// L2 VM, an already-cloned parent — pass the clone corresponding to
// vm.Parent). The host address space, guest allocator, host TEA manager,
// gTEA table, and pv-TEA window cursors are duplicated; the host TEA's
// backend is recreated over the clone's own allocators (PhysBackend
// compaction counts carried over) so TEA allocation on the clone never
// touches the prototype's memory.
func (vm *VM) Clone(hyp *Hypervisor, parent *VM) (*VM, error) {
	if (vm.Parent == nil) != (parent == nil) {
		return nil, fmt.Errorf("virt: clone of %s: parent mismatch", vm.Name)
	}
	hostPhys := hyp.MachinePhys
	if parent != nil {
		hostPhys = parent.GuestPhys
	}
	c := &VM{
		Name:          vm.Name,
		Hyp:           hyp,
		GuestPhys:     vm.GuestPhys.Clone(),
		HostPhys:      hostPhys,
		HostAS:        vm.HostAS.Clone(hostPhys),
		Parent:        parent,
		GTEA:          &GTEATable{entries: append([]GTEAEntry(nil), vm.GTEA.entries...)},
		teaWindowNext: vm.teaWindowNext,
		teaWindowEnd:  vm.teaWindowEnd,
	}
	if vm.RAMVMA != nil {
		ram, ok := c.HostAS.FindVMA(vm.RAMVMA.Start)
		if !ok {
			return nil, fmt.Errorf("virt: clone of %s: guest-ram VMA missing", vm.Name)
		}
		c.RAMVMA = ram
	}
	if vm.TEAVMA != nil {
		win, ok := c.HostAS.FindVMA(vm.TEAVMA.Start)
		if !ok {
			return nil, fmt.Errorf("virt: clone of %s: pv-tea-window VMA missing", vm.Name)
		}
		c.TEAVMA = win
	}
	if vm.HostTEA != nil {
		var backend tea.Backend
		if parent == nil {
			pb := tea.NewPhysBackend(hostPhys)
			if old, ok := vm.HostTEA.Backend().(*tea.PhysBackend); ok {
				pb.Compactions = old.Compactions
			}
			backend = pb
		} else {
			backend = NewHypercallBackend(parent)
		}
		ht, err := vm.HostTEA.Clone(c.HostAS, backend)
		if err != nil {
			return nil, fmt.Errorf("virt: clone of %s: %w", vm.Name, err)
		}
		c.HostTEA = ht
	}
	return c, nil
}

// Seal makes the machine allocator read-only for cloning (see
// mem.Chunked.Seal). The cache hierarchy stays an eager copy: every access
// writes its tags.
func (h *Hypervisor) Seal() { h.MachinePhys.Seal() }

// Seal makes the VM's guest allocator and host address space read-only
// for cloning. The host allocator is sealed by its owner: the hypervisor,
// or the parent VM under nesting.
func (vm *VM) Seal() {
	vm.GuestPhys.Seal()
	vm.HostAS.Seal()
}

// CloneShadow clones a shadow table built by BuildShadowVA or
// BuildNestedShadow, re-binding node placement to this (cloned)
// hypervisor's machine allocator so shadow growth on the clone draws from
// its own memory.
func (h *Hypervisor) CloneShadow(spt *pagetable.Table) *pagetable.Table {
	machine := h.MachinePhys
	return spt.Clone(
		func(level int, va mem.VAddr) (mem.PAddr, error) {
			return machine.AllocFrame(phys.KindPageTable)
		},
		func(level int, pa mem.PAddr) { machine.FreeFrame(pa) })
}
