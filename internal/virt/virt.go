// Package virt models the virtualization stack of the paper: a KVM-style
// hypervisor with hardware-assisted nested paging (Figure 2), shadow paging
// (§2.1.2), nested virtualization (Figure 3), and the paravirtualized TEA
// machinery of pvDMT — the KVM_HC_ALLOC_TEA hypercall, the gTEA table, and
// its isolation rules (§4.5).
//
// Address spaces compose as in the paper: a guest process translates gVA →
// gPA through its own page table; the host translates gPA → hPA through a
// per-VM host table (EPT analogue). Under nested virtualization an L2
// physical address resolves through L1's table and then L0's. Every cache-
// hierarchy access uses the final machine (L0) physical address, because
// that is what a real cache sees.
package virt

import (
	"errors"
	"fmt"

	"dmt/internal/cache"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
	"dmt/internal/tea"
)

// Hypervisor aggregates machine-wide state and exit accounting.
type Hypervisor struct {
	MachinePhys *phys.Allocator
	Hier        *cache.Hierarchy

	// Exit/hypercall accounting (§2.2, §6.3).
	Hypercalls      uint64
	VMExits         uint64
	ShadowSyncs     uint64
	IsolationFaults uint64
}

// NewHypervisor creates the machine: the L0 physical memory and the cache
// hierarchy.
func NewHypervisor(machineFrames int, hcfg cache.HierarchyConfig) (*Hypervisor, error) {
	hier, err := cache.NewHierarchy(hcfg)
	if err != nil {
		return nil, fmt.Errorf("virt: %w", err)
	}
	return &Hypervisor{
		MachinePhys: phys.New(0, machineFrames),
		Hier:        hier,
	}, nil
}

// VMConfig controls VM creation.
type VMConfig struct {
	Name string
	// RAMBytes is the guest-physical memory size.
	RAMBytes uint64
	// HostTHP backs guest RAM with 2 MiB host mappings.
	HostTHP bool
	// HostDMT maintains host VMA-to-TEA mappings (needed by DMT designs).
	HostDMT bool
	// ASID tags the host address space.
	ASID uint16
	// PTLevels selects the host page-table depth (mem.Levels4 default;
	// mem.Levels5 models the five-level extension of §2.1.1, where a 2D
	// walk grows to 35 references).
	PTLevels int
	// PvTEAWindowBytes reserves guest-physical address space for
	// host-allocated gTEAs (pvDMT); 0 disables the window.
	PvTEAWindowBytes uint64
}

// VM is one virtual machine: its guest-physical space and the host-side
// structures that map it. For an L2 VM, the "host" is the L1 hypervisor and
// Parent points at the L1 VM, forming the Figure 3 chain.
type VM struct {
	Name string
	Hyp  *Hypervisor

	// GuestPhys allocates guest-physical frames in [0, RAMBytes).
	GuestPhys *phys.Allocator
	// HostPhys is the allocator of the hosting level (L0's machine
	// allocator, or the L1 VM's GuestPhys for an L2 VM).
	HostPhys *phys.Allocator
	// HostAS maps guest-physical addresses (as VAs) to host-physical
	// addresses: the nested page table (hPT / EPT analogue).
	HostAS *kernel.AddressSpace
	// HostTEA maintains the hVMA-to-hTEA mappings over HostAS (§3.1:
	// "an hVMA is the hypervisor's VMA corresponding to the guest
	// physical address space").
	HostTEA *tea.Manager
	// RAMVMA is the host VMA representing guest RAM.
	RAMVMA *kernel.VMA
	// TEAVMA is the host VMA representing the pv-TEA window.
	TEAVMA *kernel.VMA

	// Parent is the VM hosting this VM's host level (nil when the host
	// is the machine).
	Parent *VM

	// GTEA is the gTEA table for this VM (§4.5.2): host-maintained,
	// read-only to the guest.
	GTEA *GTEATable

	teaWindowNext mem.VAddr
	teaWindowEnd  mem.VAddr
}

// NewVM creates a VM hosted directly on the machine (single-level
// virtualization).
func (h *Hypervisor) NewVM(cfg VMConfig) (*VM, error) {
	return newVM(h, nil, h.MachinePhys, cfg)
}

// NewNestedVM creates a VM hosted *inside* parent — parent's guest plays
// the L1 hypervisor and the new VM is the L2 guest (§2.1.3).
func (h *Hypervisor) NewNestedVM(parent *VM, cfg VMConfig) (*VM, error) {
	return newVM(h, parent, parent.GuestPhys, cfg)
}

func newVM(h *Hypervisor, parent *VM, hostPhys *phys.Allocator, cfg VMConfig) (*VM, error) {
	if !mem.IsAligned(cfg.RAMBytes, mem.PageBytes2M) {
		return nil, errors.New("virt: RAMBytes must be 2 MiB-aligned")
	}
	hostAS, err := kernel.NewAddressSpace(hostPhys, kernel.Config{THP: cfg.HostTHP, ASID: cfg.ASID, Levels: cfg.PTLevels})
	if err != nil {
		return nil, err
	}
	vm := &VM{
		Name:      cfg.Name,
		Hyp:       h,
		GuestPhys: phys.New(0, int(cfg.RAMBytes>>mem.PageShift4K)),
		HostPhys:  hostPhys,
		HostAS:    hostAS,
		Parent:    parent,
		GTEA:      NewGTEATable(),
	}
	if cfg.HostDMT {
		var backend tea.Backend
		if parent == nil {
			backend = tea.NewPhysBackend(hostPhys)
		} else {
			// The L1 hypervisor's own DMT-Linux allocates its TEAs via
			// the cascaded hypercall so they are L0-contiguous (§4.5.3).
			backend = NewHypercallBackend(parent)
		}
		vm.HostTEA = tea.NewManager(hostAS, backend, tea.DefaultConfig(cfg.HostTHP))
		hostAS.SetHooks(vm.HostTEA)
	}
	ram, err := hostAS.MMap(0, cfg.RAMBytes, kernel.VMAAnon, "guest-ram")
	if err != nil {
		return nil, err
	}
	vm.RAMVMA = ram
	if err := hostAS.Populate(ram); err != nil {
		return nil, fmt.Errorf("virt: backing guest RAM: %w", err)
	}
	if cfg.PvTEAWindowBytes > 0 {
		win := mem.AlignUp(mem.VAddr(cfg.RAMBytes), mem.PageBytes2M)
		teaVMA, err := hostAS.MMap(win, cfg.PvTEAWindowBytes, kernel.VMAAnon, "pv-tea-window")
		if err != nil {
			return nil, err
		}
		vm.TEAVMA = teaVMA
		vm.teaWindowNext = win
		vm.teaWindowEnd = win + mem.VAddr(cfg.PvTEAWindowBytes)
	}
	return vm, nil
}

// Destroy tears down the VM's host-side structures: any gTEAs the guest
// did not release (a crashed guest kernel never issues its FreeTEA
// hypercalls), the pv-TEA window and guest-RAM VMAs, and finally the host
// page-table root frame. Guest-internal state (processes, the guest's own
// allocator) needs no teardown — it lives entirely inside guest RAM, which
// is returned wholesale. After Destroy the VM must not be used.
func (vm *VM) Destroy() error {
	for id := 1; id <= len(vm.GTEA.entries); id++ {
		e := vm.GTEA.entries[id-1]
		if e.Frames == 0 {
			continue
		}
		vm.FreePvTEA(tea.Region{NodeBase: e.GPABase, FetchBase: e.MachineBase, Frames: e.Frames, ID: id})
	}
	if vm.TEAVMA != nil {
		if err := vm.HostAS.MUnmap(vm.TEAVMA); err != nil {
			return err
		}
		vm.TEAVMA = nil
	}
	if vm.RAMVMA != nil {
		if err := vm.HostAS.MUnmap(vm.RAMVMA); err != nil {
			return err
		}
		vm.RAMVMA = nil
	}
	vm.HostPhys.FreeFrame(vm.HostAS.PT.RootPA())
	return nil
}

// MachineAddr resolves a guest-physical address of this VM to the final
// machine (L0) physical address by composing the host tables downward.
func (vm *VM) MachineAddr(gpa mem.PAddr) (mem.PAddr, bool) {
	ma, _, ok := vm.MachineLeaf(gpa)
	return ma, ok
}

// MachineLeaf is MachineAddr that also returns the smallest leaf size on
// the way down. The size-aligned block of that size around gpa is then
// machine-contiguous: each host leaf maps a block at least that large.
func (vm *VM) MachineLeaf(gpa mem.PAddr) (mem.PAddr, mem.PageSize, bool) {
	hpa, size, ok := vm.HostAS.PT.Lookup(mem.VAddr(gpa))
	if !ok || vm.Parent == nil {
		return hpa, size, ok
	}
	ma, psize, ok := vm.Parent.MachineLeaf(hpa)
	return ma, min(size, psize), ok
}

// Depth returns the virtualization depth: 1 for a directly-hosted VM, 2
// for an L2 guest, etc.
func (vm *VM) Depth() int {
	if vm.Parent == nil {
		return 1
	}
	return vm.Parent.Depth() + 1
}

// NewGuestProcess creates a process address space inside the VM: gVA → gPA
// over the guest's physical memory.
func (vm *VM) NewGuestProcess(thp bool, asid uint16) (*kernel.AddressSpace, error) {
	return kernel.NewAddressSpace(vm.GuestPhys, kernel.Config{THP: thp, ASID: asid})
}

// NewGuestProcessCfg creates a guest process with full kernel configuration
// control (page-table depth, THP, ASID).
func (vm *VM) NewGuestProcessCfg(cfg kernel.Config) (*kernel.AddressSpace, error) {
	return kernel.NewAddressSpace(vm.GuestPhys, cfg)
}
