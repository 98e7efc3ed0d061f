package sim

import (
	"fmt"
	"math/rand"

	"dmt/internal/baseline/agile"
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
	"dmt/internal/phys"
	"dmt/internal/tea"
	"dmt/internal/tlb"
	"dmt/internal/virt"
	"dmt/internal/workload"
)

// This file builds, clones and wires machines in every environment. What a
// design adds to a machine is its entry in the design table (designs.go).

// frames computes an allocator size: the working set plus headroom for
// page tables, TEAs, hash tables, and allocator slack.
func frames(ws uint64, slack float64, extra uint64) int {
	return int((uint64(float64(ws)*slack) + extra) >> mem.PageShift4K)
}

// teaConfig derives the TEA-manager configuration with ablation overrides.
func teaConfig(cfg Config) tea.Config {
	t := tea.DefaultConfig(cfg.THP)
	if cfg.TEARegisters > 0 {
		t.Registers = cfg.TEARegisters
	}
	if cfg.TEAMergeThreshold != 0 {
		t.MergeThreshold = cfg.TEAMergeThreshold
	}
	return t
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
	hostDMT       bool // host VMA-to-TEA mappings, for designs with a guest TEA manager
	scale         int
}

// stageKeyFor sizes the VM stage of a virt or nested config: guest RAM
// covers the working set with headroom for page tables and TEAs, and the
// machine covers guest RAM likewise.
func stageKeyFor(cfg Config) stageKey {
	k := stageKey{env: cfg.Env, hostTHP: cfg.THP, scale: cfg.CacheScale}
	if s, err := specFor(cfg.Env, cfg.Design); err == nil {
		k.hostDMT = s.tea != teaNone
	}
	switch cfg.Env {
	case EnvVirt:
		guestRAM := mem.AlignUp(mem.VAddr(uint64(float64(cfg.WSBytes)*1.3)+256<<20), mem.PageBytes2M)
		k.ram[0] = uint64(guestRAM)
		k.machineFrames = frames(uint64(guestRAM), 1.25, 384<<20)
	case EnvNested:
		l2RAM := mem.AlignUp(mem.VAddr(uint64(float64(cfg.WSBytes)*1.3)+192<<20), mem.PageBytes2M)
		l1RAM := mem.AlignUp(l2RAM+mem.VAddr(uint64(float64(l2RAM)*0.25)+256<<20), mem.PageBytes2M)
		k.ram = [2]uint64{uint64(l1RAM), uint64(l2RAM)}
		k.machineFrames = frames(uint64(l1RAM), 1.2, 384<<20)
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

// seal makes the stage read-only for cloning, before the prototype cache
// publishes it: clones may then be taken from many goroutines at once.
func (s *vmStage) seal() {
	s.hyp.Seal()
	if s.l1 != nil {
		s.l1.Seal()
	}
	s.vm.Seal()
}

// parts is the cloneable substrate of a machine in any environment:
// everything whose construction cost the prototype cache amortizes.
// Walkers, TLBs, sinks and trace generators are not parts: wireMachine
// creates them fresh per instance, so nothing here may alias a driven
// machine.
type parts struct {
	vmStage // zero natively
	// pa is the process's physical memory (the native zone, or the VM's
	// guest-physical memory); mpa is machine memory (pa natively, the
	// hypervisor's otherwise). hier is the machine's cache hierarchy.
	pa, mpa *phys.Allocator
	hier    *cache.Hierarchy
	as      *kernel.AddressSpace // the process the workload runs in
	mgr     *tea.Manager         // designs with a TEA backend only
	flaky   *fault.FlakyBackend  // designs with a TEA backend only
	built   *workload.Built      // immutable after build; shared across clones

	// Translation structures beside the page tables: the nested
	// compressed shadow, or whatever the design's build makes.
	spt       *pagetable.Table // the nested compressed shadow, or virt shadow paging's table
	sys, hsys *ecpt.System     // ECPT; hsys maps the host dimension under virtualization
	ft, hft   *fpt.Table       // FPT; hft maps the host dimension under virtualization
	mirror    *agile.Mirror
	vic       *victima.Store
	seg       *utopia.Seg
}

// setStage installs a VM stage and the allocators and hierarchy it owns.
func (p *parts) setStage(st *vmStage) {
	p.vmStage = *st
	p.pa, p.mpa, p.hier = st.vm.GuestPhys, st.hyp.MachinePhys, st.hyp.Hier
}

// buildParts lays out the substrate for cfg: memory (a pre-fragmented
// native zone, or a VM stage from stage), the process address space, the
// TEA manager the design's backend calls for, the workload's VMAs, and
// the design's own structures. It reads only the build-relevant Config
// fields (those in buildKey) — trace-level fields (Ops, seeds,
// verification) must not influence the result, or the prototype cache
// would conflate distinct machines.
func buildParts(cfg Config, spec *envSpec, stage func(stageKey) (*vmStage, error)) (*parts, error) {
	p := &parts{}
	var err error
	if cfg.Env == EnvNative {
		headroom := 1.35
		if cfg.FragmentTarget > 0 {
			headroom = 2.9 // fragmentation pins roughly half the zone
		}
		p.pa = phys.New(0, frames(cfg.WSBytes, headroom, 256<<20))
		if cfg.FragmentTarget > 0 {
			p.pa.Fragment(rand.New(rand.NewSource(cfg.Seed)), 4, cfg.FragmentTarget)
		}
		p.mpa = p.pa
		if p.as, err = kernel.NewAddressSpace(p.pa, kernel.Config{THP: cfg.THP, ASID: 1}); err != nil {
			return nil, err
		}
	} else {
		if cfg.FragmentTarget > 0 {
			return nil, fmt.Errorf("sim: FragmentTarget applies to the native environment only, not %v", cfg.Env)
		}
		var st *vmStage
		if st, err = stage(stageKeyFor(cfg)); err != nil {
			return nil, err
		}
		p.setStage(st)
		if p.as, err = p.vm.NewGuestProcess(cfg.THP, 1); err != nil {
			return nil, err
		}
	}

	// The TEA hooks must observe VMA creation, so install them before the
	// workload lays out its VMAs. The flaky wrapper stays transparent
	// until a fault schedule arms it.
	var backend tea.Backend
	switch spec.tea {
	case teaPhys:
		backend = tea.NewPhysBackend(p.pa)
	case teaHypercall:
		backend = virt.NewHypercallBackend(p.vm)
	}
	if backend != nil {
		p.flaky = fault.NewFlakyBackend(backend)
		p.mgr = tea.NewManager(p.as, p.flaky, teaConfig(cfg))
		p.as.SetHooks(p.mgr)
	}

	if p.built, err = cfg.Workload.Build(p.as, cfg.WSBytes); err != nil {
		return nil, err
	}
	switch cfg.Env {
	case EnvNative:
		if p.hier, err = cache.NewHierarchy(cache.ScaledConfig(cfg.CacheScale)); err != nil {
			return nil, err
		}
	case EnvNested:
		if p.spt, err = virt.BuildNestedShadow(p.vm); err != nil {
			return nil, err
		}
	}
	if spec.build != nil {
		if err := spec.build(cfg, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// clone snapshots the parts bottom-up: memory (the VM stage, or the
// native zone and a warm copy of its hierarchy), the process onto the
// cloned memory, its TEA manager over a recreated backend (PhysBackend
// compactions carried over so footers match a cold build; hypercall
// backends bound to the cloned VM), and the design structures onto the
// allocators they were built from. The workload's Built is shared — its
// generators capture sizes at NewGen time and read only immutable VMA
// bases.
func (p *parts) clone() (*parts, error) {
	c := &parts{built: p.built}
	if p.hyp != nil {
		st, err := p.vmStage.clone()
		if err != nil {
			return nil, err
		}
		c.setStage(st)
	} else {
		c.pa = p.pa.Clone()
		c.mpa, c.hier = c.pa, p.hier.Clone()
	}
	c.as = p.as.Clone(c.pa)
	if p.mgr != nil {
		var inner tea.Backend
		if old, ok := p.flaky.Inner.(*tea.PhysBackend); ok {
			pb := tea.NewPhysBackend(c.pa)
			pb.Compactions = old.Compactions
			inner = pb
		} else {
			inner = virt.NewHypercallBackend(c.vm)
		}
		c.flaky = fault.NewFlakyBackend(inner)
		mgr, err := p.mgr.Clone(c.as, c.flaky)
		if err != nil {
			return nil, err
		}
		c.mgr = mgr
	}
	if p.spt != nil {
		c.spt = c.hyp.CloneShadow(p.spt)
	}
	if p.sys != nil {
		c.sys = p.sys.Clone(c.pa)
	}
	if p.hsys != nil {
		c.hsys = p.hsys.Clone(c.mpa)
	}
	if p.ft != nil {
		c.ft = p.ft.Clone(c.pa)
	}
	if p.hft != nil {
		c.hft = p.hft.Clone(c.mpa)
	}
	if p.mirror != nil {
		c.mirror = p.mirror.Clone(c.mpa)
	}
	if p.vic != nil {
		c.vic = p.vic.Clone()
	}
	if p.seg != nil {
		c.seg = p.seg.Clone()
	}
	return c, nil
}

// seal makes the parts read-only for cloning (DESIGN.md §9): every
// copy-on-write array is sealed, so a clone only reads them and a write
// to a prototype panics. A cold-built machine is driven, never sealed.
func (p *parts) seal() {
	if p.hyp != nil {
		p.vmStage.seal()
	} else {
		p.pa.Seal()
	}
	p.as.Seal()
	if p.spt != nil {
		p.spt.Seal()
	}
	for _, s := range []*ecpt.System{p.sys, p.hsys} {
		if s != nil {
			s.Seal()
		}
	}
	for _, t := range []*fpt.Table{p.ft, p.hft} {
		if t != nil {
			t.Seal()
		}
	}
}

// ref is the ground-truth translation: the live page table of the
// process, composed under virtualization with the host (and, under
// nesting, parent) tables. The oracle reads it through refMemo, which
// FuzzRefMemo checks against it.
func (p *parts) ref(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	pa, size, ok := p.as.PT.Lookup(va)
	if !ok || p.vm == nil {
		return pa, size, ok
	}
	ma, ok := p.vm.MachineAddr(pa)
	return ma, size, ok
}

// refMemoBits sizes the reference memo: 1<<refMemoBits slots, direct-mapped.
const refMemoBits = 10

// refMemo is an exact memo of parts.ref for a verified instance (DESIGN.md
// §7). An entry holds the composed translation of one grain: the smallest
// page size along the reference chain, capped at 2 MiB, since that is the
// span over which every table of the chain maps contiguously. A negative
// result is kept at 4 KiB only. An entry is live while the chain's
// generation — the sum of every table's Gen, each of which only grows —
// equals the one it was filled at, so any PTE write on the chain retires
// every entry at once and the memo answers exactly as parts.ref would.
type refMemo struct {
	tables []*pagetable.Table // the process table, then each VM's host table up the Parent chain
	slots  [1 << refMemoBits]refSlot
}

// refSlot is one memo entry. key is the grain-aligned VA with the grain's
// page size + 1 in its low bits, so an empty slot's zero key matches none.
type refSlot struct {
	key  uint64
	gen  uint64
	base mem.PAddr    // the reference PA of the key's VA
	size mem.PageSize // the process table's page size, which ref reports
	ok   bool
}

func newRefMemo(p *parts) *refMemo {
	m := &refMemo{tables: []*pagetable.Table{p.as.PT}}
	for vm := p.vm; vm != nil; vm = vm.Parent {
		m.tables = append(m.tables, vm.HostAS.PT)
	}
	return m
}

// refKey returns va's memo key at grain g and the slot it maps to.
func refKey(va mem.VAddr, g mem.PageSize) (uint64, int) {
	key := uint64(mem.AlignDown(va, g.Bytes())) | (uint64(g) + 1)
	return key, int((key * 0x9e3779b97f4a7c15) >> (64 - refMemoBits))
}

// ref is parts.ref through the memo: a 2 MiB key, then a 4 KiB key, then
// the chain's tables, whose result fills the slot of its grain.
func (m *refMemo) ref(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	var gen uint64
	for _, t := range m.tables {
		gen += t.Gen()
	}
	for _, g := range [...]mem.PageSize{mem.Size2M, mem.Size4K} {
		key, i := refKey(va, g)
		if s := &m.slots[i]; s.key == key && s.gen == gen {
			if !s.ok {
				return 0, s.size, false
			}
			return s.base + mem.PAddr(mem.PageOffset(va, g)), s.size, true
		}
	}
	// A failed Lookup returns PA 0 and size 0, which is 4 KiB: a negative
	// result is kept at 4 KiB.
	pa, size, ok := m.tables[0].Lookup(va)
	grain := min(size, mem.Size2M)
	for _, t := range m.tables[1:] {
		if !ok {
			break
		}
		var s mem.PageSize
		pa, s, ok = t.Lookup(mem.VAddr(pa))
		grain = min(grain, s)
	}
	key, i := refKey(va, grain)
	m.slots[i] = refSlot{key: key, gen: gen, base: pa - mem.PAddr(mem.PageOffset(va, grain)), size: size, ok: ok}
	return pa, size, ok
}

// footer copies the hypervisor's counters and the page-table footprint
// of every level (the process, the VM's host table, and L1's under
// nesting) into the Result.
func (p *parts) footer(r *Result) {
	nodes := p.as.Pool.NodeCount()
	if p.hyp != nil {
		r.Hypercalls = p.hyp.Hypercalls
		r.VMExits = p.hyp.VMExits
		r.ShadowSyncs = p.hyp.ShadowSyncs
		r.IsolationFaults = p.hyp.IsolationFaults
		nodes += p.vm.HostAS.Pool.NodeCount()
	}
	if p.l1 != nil {
		nodes += p.l1.HostAS.Pool.NodeCount()
	}
	r.PTEBytes = nodes * mem.PageBytes4K
}

// coverageCounter is a walker with a fast-path notion of coverage (the
// DMT family's register hits, Victima's spill hits, Utopia's RestSeg
// hits); results keep the raw integers so shard merges stay bit-exact.
type coverageCounter interface {
	CoverageCounts() (hits, total uint64)
}

// wiring is what a design's wire function builds on: the run's config,
// the instance's own parts, the machine being wired, and base — the
// environment's full page walk: radix natively, 2D nested paging under
// virtualization, nested paging over the compressed shadow under nesting.
type wiring struct {
	cfg  Config
	p    *parts
	m    *machine
	base core.Walker
	spec *envSpec
}

// resync makes every Resync rerun the design's build — its structures are
// a one-shot sync of the page tables, so stale entries would mistranslate
// after a mapping mutation — and then call repoint to aim the walker at
// the rebuilt structures.
func (w *wiring) resync(repoint func()) {
	w.m.addResync(func() error {
		if err := w.spec.build(w.cfg, w.p); err != nil {
			return err
		}
		repoint()
		return nil
	})
}

// addResync appends f to the machine's Resync chain, after whatever the
// environment or design registered before it.
func (m *machine) addResync(f func() error) {
	prev := m.target.Resync
	if prev == nil {
		m.target.Resync = f
		return
	}
	m.target.Resync = func() error {
		if err := prev(); err != nil {
			return err
		}
		return f()
	}
}

// wireMachine assembles a drivable machine over p (fresh from buildParts
// or a clone): the environment's base walker, the design's walker chain,
// the ref sink, the fault target and the trace generator are all created
// here, never cloned, so every closure binds to exactly this instance's
// substrate.
func wireMachine(cfg Config, spec *envSpec, p *parts) (*machine, error) {
	m := &machine{
		hier:      p.hier,
		gen:       p.built.NewGen(cfg.genSeed()),
		sink:      &core.RefSink{},
		footer:    p.footer,
		sizeExact: true,
	}
	m.target = fault.Target{AS: p.as, Mgr: p.mgr, Backend: p.flaky}
	if len(p.built.Major) > 0 {
		hot, ok := p.as.FindVMA(p.built.Major[0].Start)
		if !ok {
			return nil, fmt.Errorf("hot VMA missing at %#x", uint64(p.built.Major[0].Start))
		}
		m.target.Hot = hot
	}
	var base core.Walker
	switch cfg.Env {
	case EnvNative:
		rw := core.NewRadixWalker(p.as.PT, p.hier, tlb.NewPWCScaled(cfg.CacheScale), p.as.ASID())
		rw.Sink = m.sink
		base = rw
	case EnvVirt, EnvNested:
		hostPT := p.vm.HostAS.PT
		if cfg.Env == EnvNested {
			hostPT = p.spt
		}
		nw := virt.NewNestedWalker(p.as.PT, hostPT, p.hier, 1)
		nw.GuestPWC = tlb.NewPWCScaled(cfg.CacheScale)
		nw.HostPWC = tlb.NewPWCScaled(cfg.CacheScale)
		nw.Nested = tlb.NewNestedCacheSized(38 / cfg.CacheScale)
		nw.Sink = m.sink
		base = nw
		if cfg.Env == EnvNested {
			// The compressed shadow covers all of L2's RAM, but TEA regions
			// allocated after build time (migration targets, decoys) map
			// fresh pv-TEA window pages that the one-shot spt has never
			// seen — a guest PT node placed or relocated there would be
			// unresolvable by the fallback walker. Resync rebuilds the
			// L2PA→L0PA composition, before any design rebuild.
			m.addResync(func() error {
				spt, err := virt.BuildNestedShadow(p.vm)
				if err != nil {
					return err
				}
				p.spt, nw.HostPT = spt, spt
				return nil
			})
		}
	}
	m.walker = spec.wire(&wiring{cfg: cfg, p: p, m: m, base: base, spec: spec})
	if cfg.Verify {
		m.ref = newRefMemo(p).ref
	}
	if p.mgr != nil {
		m.invariants = check.TEAInvariants(p.mgr, p.as)
	}
	if c, ok := m.walker.(coverageCounter); ok {
		m.coverage = c.CoverageCounts
	}
	return m, nil
}
