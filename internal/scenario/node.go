package scenario

import (
	"fmt"
	"math/rand"

	"dmt/internal/cache"
	"dmt/internal/check"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/obs"
	"dmt/internal/phys"
	"dmt/internal/shard"
	"dmt/internal/tea"
	"dmt/internal/tlb"
	"dmt/internal/virt"
)

// vmBase is where every VM's (or native process's) first VMA starts.
const vmBase = mem.VAddr(1 << 30)

// pvdmt per-VM geometry: guest RAM must be 2 MiB-aligned; the pv-TEA
// window's gPA space is bump-allocated and retired lazily, so it is sized
// with slack for a VM lifetime of gTEA churn.
const (
	pvRAMBytes    = 2 << 20
	pvWindowBytes = 2 << 20
	pvHeapBytes   = 1 << 20
)

// nodeVM is one tenant of the simulated node. Under "dmt" it is a native
// process (as + mgr); under "pvdmt" a virtual machine with one guest
// process whose TEAs are host-allocated gTEAs (vm + guest + gmgr).
type nodeVM struct {
	id int

	// dmt design
	as  *kernel.AddressSpace
	mgr *tea.Manager

	// pvdmt design
	vm    *virt.VM
	guest *kernel.AddressSpace
	gmgr  *tea.Manager

	vmas   []*kernel.VMA // workload VMAs (guest-side under pvdmt)
	nextVA mem.VAddr
}

// workloadAS returns the address space the churn events operate on.
func (v *nodeVM) workloadAS() *kernel.AddressSpace {
	if v.guest != nil {
		return v.guest
	}
	return v.as
}

// teaMgr returns the manager whose TEAs the design under test fetches from.
func (v *nodeVM) teaMgr() *tea.Manager {
	if v.gmgr != nil {
		return v.gmgr
	}
	return v.mgr
}

// relocRouter fans the shared machine allocator's single Relocate callback
// out to every live address space carved from it. NewAddressSpace installs
// the newest space as the allocator's relocator, which is right for a
// single-tenant allocator and wrong for a node: compaction would only ever
// consult the last tenant booted. Each space refuses frames it does not
// own, so trying tenants in boot order finds the owner deterministically.
type relocRouter struct {
	spaces []*kernel.AddressSpace
}

func (r *relocRouter) Relocate(old, new mem.PAddr) bool {
	for _, as := range r.spaces {
		if as.Relocate(old, new) {
			return true
		}
	}
	return false
}

func (r *relocRouter) add(as *kernel.AddressSpace) { r.spaces = append(r.spaces, as) }

func (r *relocRouter) remove(as *kernel.AddressSpace) {
	for i, s := range r.spaces {
		if s == as {
			r.spaces = append(r.spaces[:i], r.spaces[i+1:]...)
			return
		}
	}
}

// counters are node-lifetime event totals; epoch rows report deltas.
type counters struct {
	Boots, BootFailures, Kills uint64
	Mmaps, Munmaps, Touches    uint64
	Splits, Promotes           uint64
	MigStarts, Compacts        uint64
}

// node is one shard's simulated cloud node.
type node struct {
	cfg     Config
	rng     *rand.Rand
	machine *phys.Allocator
	hier    *cache.Hierarchy
	hyp     *virt.Hypervisor // pvdmt only
	router  *relocRouter

	teaCfg      tea.Config // native / guest manager configuration
	vms         []*nodeVM
	pending     []*tea.Manager // managers with in-flight TEA migrations
	nextID      int
	nextASID    uint16
	ctr         counters
	retiredFail uint64 // AllocFailures harvested from dead VMs' managers
	checks      int

	// previous-boundary snapshots for per-epoch deltas
	prevCtr     counters
	prevContig  uint64
	prevMigr    uint64
	prevTEAFail uint64
}

func newNode(cfg Config, seed int64) (*node, error) {
	n := &node{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		router: &relocRouter{},
	}
	n.teaCfg = tea.DefaultConfig(cfg.THP && cfg.Design == "dmt")
	n.teaCfg.GradualMigration = true
	frames := cfg.MemMiB << 8
	if cfg.Design == "pvdmt" {
		hyp, err := virt.NewHypervisor(frames, cache.DefaultConfig())
		if err != nil {
			return nil, err
		}
		n.hyp = hyp
		n.machine = hyp.MachinePhys
		n.hier = hyp.Hier
	} else {
		hier, err := cache.NewHierarchy(cache.DefaultConfig())
		if err != nil {
			return nil, err
		}
		n.machine = phys.New(0, frames)
		n.hier = hier
	}
	n.machine.SetRelocator(n.router)
	return n, nil
}

func (n *node) asid() uint16 {
	n.nextASID++
	if n.nextASID == 0 {
		n.nextASID = 1
	}
	return n.nextASID
}

// step processes one churn event. The event mix keeps occupancy
// oscillating in [VMs/2, VMs]: boots fire below the target, kills above
// half of it, and the rest is guest VMA churn, demand faults, THP flips,
// and background TEA-migration windows.
func (n *node) step() error {
	n.pump()
	p := n.rng.Intn(100)
	switch {
	case p < 6:
		if len(n.vms) < n.cfg.VMs {
			return n.boot()
		}
		return n.mmapEvent()
	case p < 10:
		if len(n.vms) > n.cfg.VMs/2 {
			return n.kill()
		}
		return n.touchEvent()
	case p < 35:
		return n.mmapEvent()
	case p < 50:
		return n.munmapEvent()
	case p < 75:
		return n.touchEvent()
	case p < 81:
		return n.splitEvent()
	case p < 87:
		return n.promoteEvent()
	default:
		return n.migrateEvent()
	}
}

// pump advances the oldest in-flight TEA migration by one batch — the
// §4.3 gradual-migration window running as steady-state background work.
func (n *node) pump() {
	if len(n.pending) == 0 {
		return
	}
	m := n.pending[0]
	m.PumpMigration(64)
	if !m.MigrationsPending() {
		n.pending = n.pending[1:]
	}
}

func (n *node) dropPending(m *tea.Manager) {
	for i, p := range n.pending {
		if p == m {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			return
		}
	}
}

func (n *node) boot() error {
	if n.cfg.Design == "pvdmt" {
		return n.bootVM()
	}
	return n.bootProcess()
}

// bootProcess boots a native DMT-Linux process: address space + TEA
// manager over the shared machine allocator, one populated heap.
func (n *node) bootProcess() error {
	heapBytes := uint64(1+n.rng.Intn(2)) << 20
	if n.machine.FreeFrames() < int(heapBytes>>mem.PageShift4K)+64 {
		n.ctr.BootFailures++
		return nil
	}
	as, err := kernel.NewAddressSpace(n.machine, kernel.Config{THP: n.cfg.THP, ASID: n.asid()})
	if err != nil {
		n.ctr.BootFailures++
		return nil
	}
	n.machine.SetRelocator(n.router) // NewAddressSpace stole the slot
	n.router.add(as)
	mgr := tea.NewManager(as, tea.NewPhysBackend(n.machine), n.teaCfg)
	as.SetHooks(mgr)
	v, err := as.MMap(vmBase, heapBytes, kernel.VMAHeap, "heap")
	if err != nil {
		return err
	}
	_ = as.Populate(v) // partial population under pressure is the workload
	vm := &nodeVM{id: n.nextID, as: as, mgr: mgr, vmas: []*kernel.VMA{v}}
	vm.nextVA = vmBase + mem.VAddr(mem.AlignUp(mem.VAddr(heapBytes), mem.PageBytes2M))
	n.nextID++
	n.vms = append(n.vms, vm)
	n.ctr.Boots++
	return nil
}

// bootVM boots a pvDMT virtual machine: host-backed RAM, a pv-TEA window,
// and one guest process whose TEAs arrive via KVM_HC_ALLOC_TEA.
func (n *node) bootVM() error {
	if n.machine.FreeFrames() < (pvRAMBytes>>mem.PageShift4K)+96 {
		n.ctr.BootFailures++
		return nil
	}
	vm, err := n.hyp.NewVM(virt.VMConfig{
		Name: fmt.Sprintf("vm%d", n.nextID), RAMBytes: pvRAMBytes,
		HostTHP: n.cfg.THP, HostDMT: true, ASID: n.asid(),
		PvTEAWindowBytes: pvWindowBytes,
	})
	if err != nil {
		return fmt.Errorf("boot vm%d: %w", n.nextID, err)
	}
	n.machine.SetRelocator(n.router)
	n.router.add(vm.HostAS)
	guest, err := vm.NewGuestProcess(false, 1)
	if err != nil {
		return err
	}
	gmgr := tea.NewManager(guest, virt.NewHypercallBackend(vm), n.teaCfg)
	guest.SetHooks(gmgr)
	heap, err := guest.MMap(vmBase, pvHeapBytes, kernel.VMAHeap, "heap")
	if err != nil {
		return err
	}
	_ = guest.Populate(heap)
	nv := &nodeVM{id: n.nextID, vm: vm, guest: guest, gmgr: gmgr, vmas: []*kernel.VMA{heap}}
	nv.nextVA = vmBase + mem.VAddr(mem.AlignUp(mem.VAddr(pvHeapBytes), mem.PageBytes2M))
	n.nextID++
	n.vms = append(n.vms, nv)
	n.ctr.Boots++
	return nil
}

// kill destroys a random VM: workload VMAs are unmapped (draining the
// guest's gTEAs through FreeTEA hypercalls under pvdmt), then the VM's
// host-side structures are torn down. Every frame the tenant ever claimed
// must flow back — the conservation oracle holds kill to that.
func (n *node) kill() error {
	i := n.rng.Intn(len(n.vms))
	vm := n.vms[i]
	mgr := vm.teaMgr()
	n.retiredFail += mgr.Stats.AllocFailures
	n.dropPending(mgr)
	as := vm.workloadAS()
	for _, v := range append([]*kernel.VMA(nil), vm.vmas...) {
		if err := as.MUnmap(v); err != nil {
			return fmt.Errorf("kill vm%d: %w", vm.id, err)
		}
	}
	if vm.vm != nil {
		n.router.remove(vm.vm.HostAS)
		if err := vm.vm.Destroy(); err != nil {
			return fmt.Errorf("kill vm%d: %w", vm.id, err)
		}
	} else {
		n.router.remove(vm.as)
		n.machine.FreeFrame(vm.as.PT.RootPA())
	}
	n.vms = append(n.vms[:i], n.vms[i+1:]...)
	n.ctr.Kills++
	return nil
}

func (n *node) pickVM() *nodeVM {
	if len(n.vms) == 0 {
		return nil
	}
	return n.vms[n.rng.Intn(len(n.vms))]
}

func (n *node) mmapEvent() error {
	vm := n.pickVM()
	if vm == nil {
		return nil
	}
	maxShift := 7 // 64 KiB .. 4 MiB
	if vm.guest != nil {
		maxShift = 4 // guests are small: 64 KiB .. 512 KiB
	}
	size := uint64(64<<10) << n.rng.Intn(maxShift)
	as := vm.workloadAS()
	v, err := as.MMap(vm.nextVA, size, kernel.VMAHeap, "anon")
	if err != nil {
		return err
	}
	vm.nextVA += mem.VAddr(mem.AlignUp(mem.VAddr(size), mem.PageBytes2M))
	vm.vmas = append(vm.vmas, v)
	n.ctr.Mmaps++
	if n.rng.Intn(2) == 0 {
		_ = as.Populate(v) // ENOMEM mid-populate is tolerated pressure
	}
	return nil
}

func (n *node) munmapEvent() error {
	vm := n.pickVM()
	if vm == nil {
		return nil
	}
	if len(vm.vmas) < 2 {
		return n.touchOne(vm)
	}
	i := 1 + n.rng.Intn(len(vm.vmas)-1) // keep the boot heap
	v := vm.vmas[i]
	if err := vm.workloadAS().MUnmap(v); err != nil {
		return fmt.Errorf("munmap vm%d: %w", vm.id, err)
	}
	vm.vmas = append(vm.vmas[:i], vm.vmas[i+1:]...)
	n.ctr.Munmaps++
	return nil
}

func (n *node) touchEvent() error {
	vm := n.pickVM()
	if vm == nil {
		return nil
	}
	return n.touchOne(vm)
}

func (n *node) touchOne(vm *nodeVM) error {
	v := vm.vmas[n.rng.Intn(len(vm.vmas))]
	as := vm.workloadAS()
	for k := 0; k < 4; k++ {
		va := v.Start + mem.VAddr(n.rng.Intn(v.Pages()))<<mem.PageShift4K
		_, _ = as.Touch(va, true) // ENOMEM faults are tolerated pressure
	}
	n.ctr.Touches++
	return nil
}

func (n *node) splitEvent() error {
	vm := n.pickVM()
	if vm == nil {
		return nil
	}
	if !n.cfg.THP || vm.guest != nil {
		return n.touchOne(vm)
	}
	v := vm.vmas[n.rng.Intn(len(vm.vmas))]
	huges := int(v.Size() >> 21)
	if huges == 0 {
		return n.touchOne(vm)
	}
	base := v.Start + mem.VAddr(n.rng.Intn(huges))<<21
	if size, ok := v.PresentSize(base); !ok || size != mem.Size2M {
		return n.touchOne(vm)
	}
	if err := vm.workloadAS().SplitHugePage(v, base); err == nil {
		n.ctr.Splits++
	}
	return nil
}

func (n *node) promoteEvent() error {
	vm := n.pickVM()
	if vm == nil {
		return nil
	}
	if !n.cfg.THP || vm.guest != nil {
		return n.touchOne(vm)
	}
	v := vm.vmas[n.rng.Intn(len(vm.vmas))]
	n.ctr.Promotes += uint64(vm.workloadAS().PromoteTHP(v))
	return nil
}

// migrateEvent opens a §4.3 gradual-migration window on a random tenant's
// TEA; pump() drains it over the following events (live-migration
// steady-state background).
func (n *node) migrateEvent() error {
	vm := n.pickVM()
	if vm == nil {
		return nil
	}
	mgr := vm.teaMgr()
	v := vm.vmas[n.rng.Intn(len(vm.vmas))]
	if mgr.StartMigration(v.Start) {
		n.ctr.MigStarts++
		for _, p := range n.pending {
			if p == mgr {
				return nil
			}
		}
		n.pending = append(n.pending, mgr)
	}
	return nil
}

// sample closes an epoch: per-epoch counter deltas, boundary gauges
// (fragmentation, occupancy, register coverage), and a walk-latency
// sampling pass over up to eight tenants.
func (n *node) sample(eventsInEpoch int) EpochRow {
	teaFail := n.retiredFail
	for _, vm := range n.vms {
		teaFail += vm.teaMgr().Stats.AllocFailures
	}
	st := n.machine.Stats
	row := EpochRow{
		Events:         eventsInEpoch,
		LiveVMs:        len(n.vms),
		Boots:          n.ctr.Boots - n.prevCtr.Boots,
		BootFailures:   n.ctr.BootFailures - n.prevCtr.BootFailures,
		Kills:          n.ctr.Kills - n.prevCtr.Kills,
		TEAAllocs:      st.ContigAllocs - n.prevContig,
		TEAFailures:    teaFail - n.prevTEAFail,
		FramesMigrated: st.Migrations - n.prevMigr,
		Frag4Sum:       n.machine.FragmentationIndex(4),
		Frag9Sum:       n.machine.FragmentationIndex(9),
		Shards:         1,
	}
	for _, vm := range n.vms {
		mgr := vm.teaMgr()
		for _, r := range mgr.Registers() {
			if r.Present {
				row.RegCovered += uint64(r.Limit - r.Base)
			}
		}
		for _, mp := range mgr.Mappings() {
			row.RegSpan += uint64(mp.End - mp.Start)
		}
	}
	n.sampleWalks(&row.Walk)
	n.prevCtr = n.ctr
	n.prevContig = st.ContigAllocs
	n.prevMigr = st.Migrations
	n.prevTEAFail = teaFail
	return row
}

// sampleWalks records walk latencies (simulated cycles) through the design
// under test for a spread of tenants. Walkers are built fresh each epoch —
// the tail reflects the node's current state, not warmed caches.
func (n *node) sampleWalks(h *obs.Hist) {
	if len(n.vms) == 0 {
		return
	}
	stride := 1
	if len(n.vms) > 8 {
		stride = len(n.vms) / 8
	}
	sink := &core.RefSink{}
	for i := 0; i < len(n.vms); i += stride {
		vm := n.vms[i]
		w := n.walkerFor(vm, sink)
		for k := 0; k < n.cfg.WalkSamples; k++ {
			v := vm.vmas[n.rng.Intn(len(vm.vmas))]
			va := v.Start + mem.VAddr(n.rng.Intn(v.Pages()))<<mem.PageShift4K
			sink.Reset()
			out := w.Walk(va)
			h.Observe(uint64(out.Cycles))
		}
	}
}

// walkerFor builds the design under test for vm, every walker of the chain
// recording into sink.
func (n *node) walkerFor(vm *nodeVM, sink *core.RefSink) core.Walker {
	if vm.vm != nil {
		nested := virt.NewNestedWalker(vm.guest.PT, vm.vm.HostAS.PT, n.hier, 1)
		nested.Sink = sink
		pv := virt.NewPvDMTWalker(vm.vm, vm.gmgr, vm.guest.Pool, n.hier, nested)
		pv.Sink = sink
		return pv
	}
	radix := core.NewRadixWalker(vm.as.PT, n.hier, tlb.NewPWCScaled(4), vm.as.ASID())
	radix.Sink = sink
	dmt := core.NewDMTWalker(vm.mgr, vm.as.Pool, n.hier, radix)
	dmt.Sink = sink
	return dmt
}

// verify runs the lifecycle conservation oracle: the machine's frame
// ledger must tile exactly across free frames and every tenant's claims
// (data frames + buddy-placed page-table nodes + live TEA frames), every
// address space must be structurally sound, and every TEA manager's
// FramesLive must equal the storage reachable from its mappings.
func (n *node) verify() error {
	var bad []string
	claimed := 0
	for _, vm := range n.vms {
		if vm.vm != nil {
			claimed += check.DataFrames(vm.vm.HostAS) +
				check.NodeFrames(vm.vm.HostAS, vm.vm.HostTEA.OwnsNode) +
				int(vm.vm.HostTEA.Stats.FramesLive) +
				int(vm.gmgr.Stats.FramesLive)
			bad = appendTagged(bad, fmt.Sprintf("vm%d host", vm.id), check.ASInvariants(vm.vm.HostAS))
			bad = appendTagged(bad, fmt.Sprintf("vm%d htea", vm.id), check.TEAAccounting(vm.vm.HostTEA))
			bad = appendTagged(bad, fmt.Sprintf("vm%d guest", vm.id), check.ASInvariants(vm.guest))
			bad = appendTagged(bad, fmt.Sprintf("vm%d gtea", vm.id), check.TEAAccounting(vm.gmgr))
			gclaim := check.DataFrames(vm.guest) + check.NodeFrames(vm.guest, vm.gmgr.OwnsNode)
			bad = appendTagged(bad, fmt.Sprintf("vm%d guestphys", vm.id), check.Conservation(vm.vm.GuestPhys, gclaim))
		} else {
			claimed += check.DataFrames(vm.as) +
				check.NodeFrames(vm.as, vm.mgr.OwnsNode) +
				int(vm.mgr.Stats.FramesLive)
			bad = appendTagged(bad, fmt.Sprintf("vm%d", vm.id), check.ASInvariants(vm.as))
			bad = appendTagged(bad, fmt.Sprintf("vm%d tea", vm.id), check.TEAAccounting(vm.mgr))
		}
	}
	bad = appendTagged(bad, "machine", check.Conservation(n.machine, claimed))
	n.checks++
	if len(bad) > 0 {
		return fmt.Errorf("conservation oracle (%d violations): %s", len(bad), bad[0])
	}
	return nil
}

func appendTagged(dst []string, tag string, msgs []string) []string {
	for _, m := range msgs {
		dst = append(dst, tag+": "+m)
	}
	return dst
}

func runShard(cfg Config, s int) (shardResult, error) {
	events := shard.Ops(cfg.Events, s, cfg.Shards)
	n, err := newNode(cfg, shard.Seed(cfg.Seed, s))
	if err != nil {
		return shardResult{}, err
	}
	epochLen := events / cfg.Epochs
	if epochLen < 1 {
		epochLen = 1
	}
	compactEvery := epochLen / 4
	if compactEvery < 64 {
		compactEvery = 64
	}
	rows := make([]EpochRow, 0, cfg.Epochs)
	since := 0
	for i := 1; i <= events; i++ {
		if err := n.step(); err != nil {
			return shardResult{}, fmt.Errorf("event %d: %w", i, err)
		}
		since++
		if i%compactEvery == 0 {
			n.machine.Compact()
			n.ctr.Compacts++
		}
		if cfg.CheckEvery > 0 && i%cfg.CheckEvery == 0 {
			if err := n.verify(); err != nil {
				return shardResult{}, fmt.Errorf("event %d: %w", i, err)
			}
		}
		if len(rows) < cfg.Epochs && i%epochLen == 0 {
			if cfg.Verify {
				if err := n.verify(); err != nil {
					return shardResult{}, fmt.Errorf("epoch %d (event %d): %w", len(rows), i, err)
				}
			}
			rows = append(rows, n.sample(since))
			since = 0
		}
	}
	for len(rows) < cfg.Epochs {
		rows = append(rows, n.sample(since))
		since = 0
	}
	return shardResult{rows: rows, checks: n.checks}, nil
}
