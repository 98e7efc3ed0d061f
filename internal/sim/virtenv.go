package sim

import (
	"fmt"

	"dmt/internal/baseline/agile"
	"dmt/internal/baseline/asap"
	"dmt/internal/baseline/ecpt"
	"dmt/internal/baseline/fpt"
	"dmt/internal/baseline/utopia"
	"dmt/internal/baseline/victima"
	"dmt/internal/cache"
	"dmt/internal/check"
	"dmt/internal/core"
	"dmt/internal/fault"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/tea"
	"dmt/internal/tlb"
	"dmt/internal/virt"
	"dmt/internal/workload"
)

// scaleWalkerCaches replaces a 2D walker's MMU caches with working-set-
// scaled versions (DESIGN.md §6).
func scaleWalkerCaches(w *virt.NestedWalker, scale int) {
	w.GuestPWC = tlb.NewPWCScaled(scale)
	w.HostPWC = tlb.NewPWCScaled(scale)
	w.Nested = tlb.NewNestedCacheSized(38 / scale)
}

// vmStage is the part of a virtualized machine that neither the workload
// nor the design layer touches: the hypervisor (machine allocator + cache
// hierarchy) and its VM(s) — host address space, host TEA, gTEA — with
// guest RAM fully backed and no guest process yet. Backing guest RAM is
// most of a virtualized build, and it depends only on the stage key, so
// the prototype cache builds each stage once and every virt/nested
// prototype of that shape starts from a clone of it (DESIGN.md §9).
type vmStage struct {
	hyp *virt.Hypervisor
	l1  *virt.VM // nested only: the L1 VM hosting vm
	vm  *virt.VM // the VM the guest process runs in (L2 under nesting)
}

// stageKey is everything buildVMStage reads.
type stageKey struct {
	env           Environment
	machineFrames int
	ram           [2]uint64 // guest RAM per level, outermost first; ram[1] is L2's under nesting
	hostTHP       bool
	hostDMT       bool // host VMA-to-TEA mappings, for the DMT designs
	scale         int
}

// stageKeyFor sizes the VM stage of a virt or nested config: guest RAM
// covers the working set with headroom for page tables and TEAs, and the
// machine covers guest RAM likewise.
func stageKeyFor(cfg Config) stageKey {
	k := stageKey{env: cfg.Env, hostTHP: cfg.THP, scale: cfg.CacheScale}
	switch cfg.Env {
	case EnvVirt:
		guestRAM := mem.AlignUp(mem.VAddr(uint64(float64(cfg.WSBytes)*1.3)+256<<20), mem.PageBytes2M)
		k.ram[0] = uint64(guestRAM)
		k.machineFrames = frames(uint64(guestRAM), 1.25, 384<<20)
		k.hostDMT = cfg.Design == DesignDMT || cfg.Design == DesignPvDMT
	case EnvNested:
		l2RAM := mem.AlignUp(mem.VAddr(uint64(float64(cfg.WSBytes)*1.3)+192<<20), mem.PageBytes2M)
		l1RAM := mem.AlignUp(l2RAM+mem.VAddr(uint64(float64(l2RAM)*0.25)+256<<20), mem.PageBytes2M)
		k.ram = [2]uint64{uint64(l1RAM), uint64(l2RAM)}
		k.machineFrames = frames(uint64(l1RAM), 1.2, 384<<20)
		k.hostDMT = cfg.Design == DesignPvDMT
	}
	return k
}

// stageFailureHook, when non-nil, may veto a stage build. Tests install it
// to prove a failed stage build is not memoized.
var stageFailureHook func(stageKey) error

// buildVMStage stands up the hypervisor and backs the VM(s) of k: one VM
// for EnvVirt, the L1 and L2 VMs of Figure 9 for EnvNested. It is the
// only stage builder; the cold path calls it directly and the prototype
// cache calls it once per resident stage key.
func buildVMStage(k stageKey) (*vmStage, error) {
	if stageFailureHook != nil {
		if err := stageFailureHook(k); err != nil {
			return nil, err
		}
	}
	hyp, err := virt.NewHypervisor(k.machineFrames, cache.ScaledConfig(k.scale))
	if err != nil {
		return nil, err
	}
	s := &vmStage{hyp: hyp}
	switch k.env {
	case EnvVirt:
		s.vm, err = hyp.NewVM(virt.VMConfig{
			Name:             "vm0",
			RAMBytes:         k.ram[0],
			HostTHP:          k.hostTHP,
			HostDMT:          k.hostDMT,
			ASID:             100,
			PvTEAWindowBytes: 64 << 20,
		})
	case EnvNested:
		s.l1, err = hyp.NewVM(virt.VMConfig{
			Name: "L1", RAMBytes: k.ram[0], HostTHP: k.hostTHP, HostDMT: k.hostDMT,
			ASID: 100, PvTEAWindowBytes: 96 << 20,
		})
		if err != nil {
			return nil, err
		}
		s.vm, err = hyp.NewNestedVM(s.l1, virt.VMConfig{
			Name: "L2", RAMBytes: k.ram[1], HostTHP: k.hostTHP, HostDMT: k.hostDMT,
			ASID: 101, PvTEAWindowBytes: 64 << 20,
		})
	default:
		err = fmt.Errorf("sim: no VM stage for environment %v", k.env)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// clone snapshots the stage bottom-up: hypervisor first, then L1 onto the
// cloned hypervisor, then the guest's VM onto the cloned L1 (so its
// cascaded hypercalls land in the right parent).
func (s *vmStage) clone() (*vmStage, error) {
	c := &vmStage{hyp: s.hyp.Clone()}
	var err error
	if s.l1 != nil {
		if c.l1, err = s.l1.Clone(c.hyp, nil); err != nil {
			return nil, err
		}
	}
	if c.vm, err = s.vm.Clone(c.hyp, c.l1); err != nil {
		return nil, err
	}
	return c, nil
}

// virtParts is the cloneable substrate of a single-level virtualized
// machine: the VM stage, the guest process, the guest TEA manager, and the
// design-specific translation structures. Walkers and their MMU caches are
// wire-time-fresh, never parts.
type virtParts struct {
	vmStage
	guest *kernel.AddressSpace
	gmgr  *tea.Manager        // DMT / pvDMT only
	flaky *fault.FlakyBackend // DMT / pvDMT only
	built *workload.Built     // immutable after build; shared across clones

	spt        *pagetable.Table // Shadow only
	gsys, hsys *ecpt.System     // ECPT only
	gt, ht     *fpt.Table       // FPT only
	mirror     *agile.Mirror    // Agile only
	vic        *victima.Store   // Victima only
	seg        *utopia.Seg      // Utopia only
}

// ref is the ground-truth translation for guest VAs: the live guest page
// table composed with the host (and, under nesting, parent) tables.
func (p *virtParts) ref(gva mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	gpa, gsize, ok := p.guest.PT.Lookup(gva)
	if !ok {
		return 0, 0, false
	}
	ma, ok := p.vm.MachineAddr(gpa)
	return ma, gsize, ok
}

func (p *virtParts) counters(r *Result) {
	r.Hypercalls = p.hyp.Hypercalls
	r.VMExits = p.hyp.VMExits
	r.ShadowSyncs = p.hyp.ShadowSyncs
	r.IsolationFaults = p.hyp.IsolationFaults
	r.PTEBytes = (p.guest.Pool.NodeCount() + p.vm.HostAS.Pool.NodeCount()) * mem.PageBytes4K
}

// buildVirtParts completes a single-level virtualized machine on st, a VM
// stage for stageKeyFor(cfg) that it takes ownership of: guest process,
// guest TEA manager, workload, and any design-specific structures. Like
// buildNativeParts it reads only the build-relevant Config fields.
func buildVirtParts(cfg Config, st *vmStage) (*virtParts, error) {
	hyp, vm := st.hyp, st.vm
	guest, err := vm.NewGuestProcess(cfg.THP, 1)
	if err != nil {
		return nil, err
	}
	p := &virtParts{vmStage: *st, guest: guest}
	switch cfg.Design {
	case DesignDMT:
		p.flaky = fault.NewFlakyBackend(tea.NewPhysBackend(vm.GuestPhys))
		p.gmgr = tea.NewManager(guest, p.flaky, teaConfig(cfg))
		guest.SetHooks(p.gmgr)
	case DesignPvDMT:
		p.flaky = fault.NewFlakyBackend(virt.NewHypercallBackend(vm))
		p.gmgr = tea.NewManager(guest, p.flaky, teaConfig(cfg))
		guest.SetHooks(p.gmgr)
	}
	p.built, err = cfg.Workload.Build(guest, cfg.WSBytes)
	if err != nil {
		return nil, err
	}

	switch cfg.Design {
	case DesignShadow:
		if p.spt, err = virt.BuildShadowVA(vm, guest); err != nil {
			return nil, err
		}
	case DesignECPT:
		if p.gsys, err = buildECPTSystem(cfg, vm.GuestPhys, guest); err != nil {
			return nil, err
		}
		p.hsys, err = ecpt.NewSystem(hyp.MachinePhys, ecptSizes(cfg.THP), vm.HostAS.Pool.NodeCount()*mem.EntriesPerNode/ecpt.GroupPages)
		if err != nil {
			return nil, err
		}
		if err := p.hsys.Sync(vm.HostAS); err != nil {
			return nil, err
		}
	case DesignFPT:
		if p.gt, err = buildFPTTable(vm.GuestPhys, guest); err != nil {
			return nil, err
		}
		if p.ht, err = buildFPTTable(hyp.MachinePhys, vm.HostAS); err != nil {
			return nil, err
		}
	case DesignAgile:
		if p.mirror, err = agile.BuildMirror(vm, guest); err != nil {
			return nil, err
		}
	case DesignVictima:
		// The spill blocks occupy machine L2 ways, so the region lives in
		// machine memory.
		if p.vic, err = victima.NewStore(hyp.MachinePhys, hyp.Hier.Config().L2); err != nil {
			return nil, err
		}
	case DesignUtopia:
		// RestSegs map guest-virtual straight to machine addresses and
		// live in machine memory: a restrictive hit needs no second
		// dimension, which is the design's collapsed-2D-walk claim.
		if p.seg, err = buildUtopiaSeg(hyp.MachinePhys, guest, cfg.WSBytes, vm.MachineAddr); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// clone snapshots the virtualized stack bottom-up: the VM stage first,
// then the guest onto the cloned VM's guest-physical allocator, then the
// guest TEA manager over a recreated backend (PhysBackend compactions
// carried over; hypercall backends bound to the cloned VM), and finally
// the design structures onto the allocators they were built from.
func (p *virtParts) clone() (*virtParts, error) {
	st, err := p.vmStage.clone()
	if err != nil {
		return nil, err
	}
	hyp, vm := st.hyp, st.vm
	guest := p.guest.Clone(vm.GuestPhys)
	c := &virtParts{vmStage: *st, guest: guest, built: p.built}
	if p.gmgr != nil {
		var inner tea.Backend
		if old, ok := p.flaky.Inner.(*tea.PhysBackend); ok {
			pb := tea.NewPhysBackend(vm.GuestPhys)
			pb.Compactions = old.Compactions
			inner = pb
		} else {
			inner = virt.NewHypercallBackend(vm)
		}
		c.flaky = fault.NewFlakyBackend(inner)
		gmgr, err := p.gmgr.Clone(guest, c.flaky)
		if err != nil {
			return nil, err
		}
		c.gmgr = gmgr
	}
	if p.spt != nil {
		c.spt = hyp.CloneShadow(p.spt)
	}
	if p.gsys != nil {
		c.gsys = p.gsys.Clone(vm.GuestPhys)
	}
	if p.hsys != nil {
		c.hsys = p.hsys.Clone(hyp.MachinePhys)
	}
	if p.gt != nil {
		c.gt = p.gt.Clone(vm.GuestPhys)
	}
	if p.ht != nil {
		c.ht = p.ht.Clone(hyp.MachinePhys)
	}
	if p.mirror != nil {
		c.mirror = p.mirror.Clone(hyp.MachinePhys)
	}
	if p.vic != nil {
		c.vic = p.vic.Clone()
	}
	if p.seg != nil {
		c.seg = p.seg.Clone()
	}
	return c, nil
}

// wireVirt assembles a drivable single-level virtualized machine over the
// given parts; every walker, cache, sink, and closure binds to exactly
// this instance's substrate.
func wireVirt(cfg Config, p *virtParts) (*machine, error) {
	hier := p.hyp.Hier
	nested := virt.NewNestedWalker(p.guest.PT, p.vm.HostAS.PT, hier, 1)
	scaleWalkerCaches(nested, cfg.CacheScale)

	m := &machine{hier: hier, gen: p.built.NewGen(cfg.genSeed()), footer: p.counters}
	m.target = fault.Target{AS: p.guest, Mgr: p.gmgr, Backend: p.flaky}
	if len(p.built.Major) > 0 {
		hot, ok := p.guest.FindVMA(p.built.Major[0].Start)
		if !ok {
			return nil, fmt.Errorf("hot VMA missing at %#x", uint64(p.built.Major[0].Start))
		}
		m.target.Hot = hot
	}
	m.ref = p.ref
	m.sizeExact = true
	switch cfg.Design {
	case DesignVanilla:
		m.sink = &core.RefSink{}
		nested.Sink = m.sink
		m.walker = nested
	case DesignShadow:
		rw := core.NewRadixWalker(p.spt, hier, tlb.NewPWCScaled(cfg.CacheScale), 1)
		m.sink = &core.RefSink{}
		rw.Sink = m.sink
		m.walker = rw
		// The shadow table splinters guest huge pages into host-sized
		// leaves, so only the physical address is asserted exactly; and
		// as a one-shot VA→machine sync it must be rebuilt after every
		// guest mapping mutation.
		m.sizeExact = false
		m.target.Resync = func() error {
			spt, err := virt.BuildShadowVA(p.vm, p.guest)
			if err != nil {
				return err
			}
			rw.PT = spt
			return nil
		}
	case DesignDMT:
		w := &virt.DMTVirtWalker{
			Guest: p.gmgr, GuestPool: p.guest.Pool,
			Host: p.vm.HostTEA, HostPool: p.vm.HostAS.Pool,
			Hier: hier, Fallback: nested,
		}
		m.sink = &core.RefSink{}
		w.Sink = m.sink
		nested.Sink = m.sink // fallback walks share the chain's buffer
		m.walker = w
		m.fastPath = w.Probe
		m.invariants = check.TEAInvariants(p.gmgr, p.guest)
		m.coverage = w.CoverageCounts
	case DesignPvDMT:
		w := virt.NewPvDMTWalker(p.vm, p.gmgr, p.guest.Pool, hier, nested)
		m.sink = &core.RefSink{}
		w.Sink = m.sink
		nested.Sink = m.sink
		m.walker = w
		m.coverage = w.CoverageCounts
		m.fastPath = w.Probe
		m.invariants = check.TEAInvariants(p.gmgr, p.guest)
	case DesignECPT:
		m.sink = &core.RefSink{}
		w := &ecpt.VirtWalker{Guest: p.gsys, Host: p.hsys, Hier: hier, Sink: m.sink}
		m.walker = w
		// Guest mutations only: the host tables are not perturbed.
		m.target.Resync = func() error {
			gsys, err := buildECPTSystem(cfg, p.vm.GuestPhys, p.guest)
			if err != nil {
				return err
			}
			w.Guest = gsys
			return nil
		}
	case DesignFPT:
		m.sink = &core.RefSink{}
		w := &fpt.VirtWalker{Guest: p.gt, Host: p.ht, Hier: hier, Sink: m.sink}
		m.walker = w
		m.target.Resync = func() error {
			gt, err := buildFPTTable(p.vm.GuestPhys, p.guest)
			if err != nil {
				return err
			}
			w.Guest = gt
			return nil
		}
	case DesignAgile:
		aw := agile.NewWalker(p.mirror, p.guest.PT, p.vm.HostAS.PT, hier, 1)
		aw.HostPWC = tlb.NewPWCScaled(cfg.CacheScale)
		aw.NestedC = tlb.NewNestedCacheSized(38 / cfg.CacheScale)
		m.sink = &core.RefSink{}
		aw.Sink = m.sink
		m.walker = aw
		m.sizeExact = false
		m.target.Resync = func() error {
			mirror, err := agile.BuildMirror(p.vm, p.guest)
			if err != nil {
				return err
			}
			aw.Mirror = mirror
			return nil
		}
	case DesignASAP:
		// Only the guest-dimension PTE lines are prefetchable in a
		// virtualized setup: ASAP's contiguity arithmetic can compute
		// gPTE locations, but the data page's host-dimension PTEs
		// depend on the gPTE *content* and stay demand-fetched
		// (§6.2.2's dependency-chain argument).
		var steps []pagetable.Step
		var lines []mem.PAddr
		var stages [1][]mem.PAddr
		src := func(gva mem.VAddr) [][]mem.PAddr {
			lines = lines[:0]
			walk := p.guest.PT.WalkInto(gva, steps[:0])
			steps = walk.Steps
			for _, s := range walk.Steps {
				if s.Level > 2 {
					continue
				}
				if machineAddr, ok := p.vm.MachineAddr(s.Addr); ok {
					lines = append(lines, machineAddr)
				}
			}
			stages[0] = lines
			return stages[:]
		}
		m.sink = &core.RefSink{}
		nested.Sink = m.sink
		m.walker = &asap.Walker{Inner: nested, Hier: hier, Source: src, MemLatency: hier.Config().MemLatency}
	case DesignVictima:
		// The spilled entries hold full gVA→machine translations (that is
		// what the L2 TLB holds), so a spill hit skips the whole 2D walk.
		m.sink = &core.RefSink{}
		nested.Sink = m.sink
		w := victima.NewWalker(p.vic, hier, nested, m.sink)
		m.walker = w
		m.coverage = w.CoverageCounts
		m.target.Resync = func() error {
			w.Flush()
			return nil
		}
	case DesignUtopia:
		m.sink = &core.RefSink{}
		nested.Sink = m.sink
		w := &utopia.Walker{Seg: p.seg, Hier: hier, Fallback: nested, Sink: m.sink}
		m.walker = w
		m.coverage = w.CoverageCounts
		// Guest mutations only: the host dimension is re-resolved through
		// the live VM mapping at rebuild time.
		m.target.Resync = func() error {
			seg, err := buildUtopiaSeg(p.hyp.MachinePhys, p.guest, cfg.WSBytes, p.vm.MachineAddr)
			if err != nil {
				return err
			}
			w.Seg = seg
			return nil
		}
	default:
		return nil, fmt.Errorf("design %q not available in a virtualized environment", cfg.Design)
	}
	return m, nil
}

// nestedParts is the cloneable substrate of the nested-virtualization
// machine: the VM stage (L0 hypervisor, L1 VM, and L2 VM as vm), the guest
// process inside L2, the (pvDMT) guest TEA manager, and the compressed
// nested shadow.
type nestedParts struct {
	vmStage
	guest *kernel.AddressSpace
	gmgr  *tea.Manager        // pvDMT only
	flaky *fault.FlakyBackend // pvDMT only
	built *workload.Built     // immutable after build; shared across clones
	spt   *pagetable.Table
	vic   *victima.Store // Victima only
	seg   *utopia.Seg    // Utopia only
}

// buildNestedParts completes the two-level stack of Figure 9 on st, a VM
// stage for stageKeyFor(cfg) that it takes ownership of.
func buildNestedParts(cfg Config, st *vmStage) (*nestedParts, error) {
	hyp, l2 := st.hyp, st.vm
	guest, err := l2.NewGuestProcess(cfg.THP, 1)
	if err != nil {
		return nil, err
	}
	p := &nestedParts{vmStage: *st, guest: guest}
	if cfg.Design == DesignPvDMT {
		p.flaky = fault.NewFlakyBackend(virt.NewHypercallBackend(l2))
		p.gmgr = tea.NewManager(guest, p.flaky, tea.DefaultConfig(cfg.THP))
		guest.SetHooks(p.gmgr)
	}
	p.built, err = cfg.Workload.Build(guest, cfg.WSBytes)
	if err != nil {
		return nil, err
	}
	p.spt, err = virt.BuildNestedShadow(l2)
	if err != nil {
		return nil, err
	}
	switch cfg.Design {
	case DesignVictima:
		if p.vic, err = victima.NewStore(hyp.MachinePhys, hyp.Hier.Config().L2); err != nil {
			return nil, err
		}
	case DesignUtopia:
		if p.seg, err = buildUtopiaSeg(hyp.MachinePhys, guest, cfg.WSBytes, l2.MachineAddr); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// clone snapshots the two-level stack: the VM stage, then the guest and
// its TEA manager, then the compressed shadow.
func (p *nestedParts) clone() (*nestedParts, error) {
	st, err := p.vmStage.clone()
	if err != nil {
		return nil, err
	}
	hyp, l2 := st.hyp, st.vm
	guest := p.guest.Clone(l2.GuestPhys)
	c := &nestedParts{vmStage: *st, guest: guest, built: p.built}
	if p.gmgr != nil {
		c.flaky = fault.NewFlakyBackend(virt.NewHypercallBackend(l2))
		gmgr, err := p.gmgr.Clone(guest, c.flaky)
		if err != nil {
			return nil, err
		}
		c.gmgr = gmgr
	}
	c.spt = hyp.CloneShadow(p.spt)
	if p.vic != nil {
		c.vic = p.vic.Clone()
	}
	if p.seg != nil {
		c.seg = p.seg.Clone()
	}
	return c, nil
}

// wireNested assembles the nested-virtualization machine over the given
// parts: the baseline is shadow-compressed nested paging (Figure 3); pvDMT
// is the three-register chain of Figure 9.
func wireNested(cfg Config, p *nestedParts) (*machine, error) {
	hier := p.hyp.Hier
	baseline := virt.NewNestedWalker(p.guest.PT, p.spt, hier, 1)
	scaleWalkerCaches(baseline, cfg.CacheScale)

	m := &machine{hier: hier, gen: p.built.NewGen(cfg.genSeed())}
	m.footer = func(r *Result) {
		r.Hypercalls = p.hyp.Hypercalls
		r.VMExits = p.hyp.VMExits
		r.ShadowSyncs = p.hyp.ShadowSyncs
		r.IsolationFaults = p.hyp.IsolationFaults
		r.PTEBytes = (p.guest.Pool.NodeCount() + p.vm.HostAS.Pool.NodeCount() + p.l1.HostAS.Pool.NodeCount()) * mem.PageBytes4K
	}
	m.target = fault.Target{AS: p.guest, Mgr: p.gmgr, Backend: p.flaky}
	if len(p.built.Major) > 0 {
		hot, ok := p.guest.FindVMA(p.built.Major[0].Start)
		if !ok {
			return nil, fmt.Errorf("hot VMA missing at %#x", uint64(p.built.Major[0].Start))
		}
		m.target.Hot = hot
	}
	// The compressed shadow covers all of L2's RAM, but TEA regions
	// allocated after build time (migration targets, decoys) map fresh
	// pv-TEA window pages that the one-shot spt has never seen — a guest
	// PT node placed or relocated there would be unresolvable by the
	// fallback walker. Resync rebuilds the L2PA→L0PA composition.
	m.target.Resync = func() error {
		nspt, err := virt.BuildNestedShadow(p.vm)
		if err != nil {
			return err
		}
		baseline.HostPT = nspt
		return nil
	}
	// Ground truth: the live guest table composed down through L1 and L0.
	m.ref = func(gva mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
		gpa, gsize, ok := p.guest.PT.Lookup(gva)
		if !ok {
			return 0, 0, false
		}
		ma, ok := p.vm.MachineAddr(gpa)
		return ma, gsize, ok
	}
	m.sizeExact = true
	switch cfg.Design {
	case DesignVanilla:
		m.sink = &core.RefSink{}
		baseline.Sink = m.sink
		m.walker = baseline
	case DesignPvDMT:
		w := virt.NewPvDMTNestedWalker(p.vm, p.gmgr, p.guest.Pool, hier, baseline)
		m.sink = &core.RefSink{}
		w.Sink = m.sink
		baseline.Sink = m.sink
		m.walker = w
		m.coverage = w.CoverageCounts
		m.fastPath = w.Probe
		m.invariants = check.TEAInvariants(p.gmgr, p.guest)
	case DesignVictima:
		m.sink = &core.RefSink{}
		baseline.Sink = m.sink
		w := victima.NewWalker(p.vic, hier, baseline, m.sink)
		m.walker = w
		m.coverage = w.CoverageCounts
		// Compose with the pre-assigned baseline Resync: mapping mutations
		// must both rebuild the compressed nested shadow and drop the
		// now-stale spilled translations.
		shadowResync := m.target.Resync
		m.target.Resync = func() error {
			if err := shadowResync(); err != nil {
				return err
			}
			w.Flush()
			return nil
		}
	case DesignUtopia:
		m.sink = &core.RefSink{}
		baseline.Sink = m.sink
		w := &utopia.Walker{Seg: p.seg, Hier: hier, Fallback: baseline, Sink: m.sink}
		m.walker = w
		m.coverage = w.CoverageCounts
		// Compose with the pre-assigned baseline Resync, then rebuild the
		// RestSegs through the live two-level composition.
		shadowResync := m.target.Resync
		m.target.Resync = func() error {
			if err := shadowResync(); err != nil {
				return err
			}
			seg, err := buildUtopiaSeg(p.hyp.MachinePhys, p.guest, cfg.WSBytes, p.vm.MachineAddr)
			if err != nil {
				return err
			}
			w.Seg = seg
			return nil
		}
	default:
		return nil, fmt.Errorf("design %q not available under nested virtualization", cfg.Design)
	}
	return m, nil
}
