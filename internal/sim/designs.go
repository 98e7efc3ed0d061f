package sim

import (
	"fmt"

	"dmt/internal/baseline/agile"
	"dmt/internal/baseline/asap"
	"dmt/internal/baseline/ecpt"
	"dmt/internal/baseline/fpt"
	"dmt/internal/baseline/utopia"
	"dmt/internal/baseline/victima"
	"dmt/internal/check"
	"dmt/internal/core"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
	"dmt/internal/tlb"
	"dmt/internal/virt"
)

// teaBackend is where a design's TEA manager gets its TEAs.
type teaBackend int

const (
	teaNone      teaBackend = iota // no TEA manager
	teaPhys                        // from the process's own physical memory (native DMT, guest-managed DMT)
	teaHypercall                   // from the hypervisor, by hypercall (pvDMT)
)

// envSpec is how one design runs in one environment.
type envSpec struct {
	// tea is the backend of the process's TEA manager. Any backend under
	// virtualization also gives the VM host DMT (stageKey.hostDMT).
	tea teaBackend
	// build makes the design's own structures once the workload is laid
	// out. A design whose structures are a one-shot sync of the page
	// tables reruns it on every Resync (wiring.resync).
	build func(cfg Config, p *parts) error
	// wire returns the design's walker over w.base and fills any machine
	// hooks the design owns beyond those wireMachine derives.
	wire func(w *wiring) core.Walker
}

// envSpecs holds a design's wiring per environment, nil where it does not
// run.
type envSpecs [EnvNested + 1]*envSpec

// designTable is the design registry: one entry per design, in the order
// ParseDesign, allDesigns and Designs report, with the name of what its
// fast-path coverage counts (empty for designs without one, see
// CoverageLabel) and its wiring in every environment that runs it (nil
// elsewhere). Register new designs here.
var designTable = []struct {
	name     Design
	coverage string
	envs     envSpecs
}{
	{DesignVanilla, "", envSpecs{
		EnvNative: {wire: walkBase},
		EnvVirt:   {wire: walkBase},
		EnvNested: {wire: walkBase},
	}},
	{DesignShadow, "", envSpecs{
		EnvVirt: {build: buildShadow, wire: func(w *wiring) core.Walker {
			rw := core.NewRadixWalker(w.p.spt, w.p.hier, tlb.NewPWCScaled(w.cfg.CacheScale), 1)
			rw.Sink = w.m.sink
			// The shadow table splinters guest huge pages into host-sized
			// leaves, so only the physical address is asserted exactly.
			w.m.sizeExact = false
			w.resync(func() { rw.PT = w.p.spt })
			return rw
		}},
	}},
	{DesignDMT, "register coverage", envSpecs{
		EnvNative: {tea: teaPhys, wire: func(w *wiring) core.Walker {
			d := core.NewDMTWalker(w.p.mgr, w.p.as.Pool, w.p.hier, w.base)
			d.Sink = w.m.sink
			w.m.fastPath = check.Chain(check.TEALevel{Mgr: w.p.mgr, PT: w.p.as.PT})
			return d
		}},
		EnvVirt: {tea: teaPhys, wire: func(w *wiring) core.Walker {
			p := w.p
			w.m.fastPath = check.VirtChain(
				check.TEALevel{Mgr: p.mgr, PT: p.as.PT},
				check.TEALevel{Mgr: p.vm.HostTEA, PT: p.vm.HostAS.PT})
			return &virt.DMTVirtWalker{
				Guest: p.mgr, GuestPool: p.as.Pool,
				Host: p.vm.HostTEA, HostPool: p.vm.HostAS.Pool,
				Hier: p.hier, Fallback: w.base, Sink: w.m.sink,
			}
		}},
	}},
	{DesignPvDMT, "register coverage", envSpecs{
		EnvVirt: {tea: teaHypercall, wire: func(w *wiring) core.Walker {
			p := w.p
			pw := virt.NewPvDMTWalker(p.vm, p.mgr, p.as.Pool, p.hier, w.base)
			pw.Sink = w.m.sink
			w.m.fastPath = check.Chain(
				check.TEALevel{Mgr: p.mgr, PT: p.as.PT, GTEA: p.vm.GTEA},
				check.TEALevel{Mgr: p.vm.HostTEA, PT: p.vm.HostAS.PT})
			return pw
		}},
		// The three-register chain of Figure 9.
		EnvNested: {tea: teaHypercall, wire: func(w *wiring) core.Walker {
			p, l1 := w.p, w.p.vm.Parent
			pw := virt.NewPvDMTNestedWalker(p.vm, p.mgr, p.as.Pool, p.hier, w.base)
			pw.Sink = w.m.sink
			w.m.fastPath = check.Chain(
				check.TEALevel{Mgr: p.mgr, PT: p.as.PT, GTEA: p.vm.GTEA},
				check.TEALevel{Mgr: p.vm.HostTEA, PT: p.vm.HostAS.PT, GTEA: l1.GTEA},
				check.TEALevel{Mgr: l1.HostTEA, PT: l1.HostAS.PT})
			return pw
		}},
	}},
	{DesignECPT, "", envSpecs{
		EnvNative: {build: buildECPT, wire: func(w *wiring) core.Walker {
			ew := &ecpt.Walker{Sys: w.p.sys, Hier: w.p.hier, Sink: w.m.sink}
			w.resync(func() { ew.Sys = w.p.sys })
			w.m.footer = func(r *Result) { r.PTEBytes = ew.Sys.Table(mem.Size4K).FootprintBytes() }
			return ew
		}},
		EnvVirt: {build: buildECPT, wire: func(w *wiring) core.Walker {
			ew := &ecpt.VirtWalker{Guest: w.p.sys, Host: w.p.hsys, Hier: w.p.hier, Sink: w.m.sink}
			w.resync(func() { ew.Guest = w.p.sys })
			return ew
		}},
	}},
	{DesignFPT, "", envSpecs{
		EnvNative: {build: buildFPT, wire: func(w *wiring) core.Walker {
			fw := &fpt.Walker{T: w.p.ft, Hier: w.p.hier, Sink: w.m.sink}
			w.resync(func() { fw.T = w.p.ft })
			w.m.footer = func(r *Result) { r.PTEBytes = fw.T.FootprintBytes() }
			return fw
		}},
		EnvVirt: {build: buildFPT, wire: func(w *wiring) core.Walker {
			fw := &fpt.VirtWalker{Guest: w.p.ft, Host: w.p.hft, Hier: w.p.hier, Sink: w.m.sink}
			w.resync(func() { fw.Guest = w.p.ft })
			return fw
		}},
	}},
	{DesignAgile, "", envSpecs{
		EnvVirt: {build: buildAgile, wire: func(w *wiring) core.Walker {
			aw := agile.NewWalker(w.p.mirror, w.p.as.PT, w.p.vm.HostAS.PT, w.p.hier, 1)
			aw.HostPWC = tlb.NewPWCScaled(w.cfg.CacheScale)
			aw.NestedC = tlb.NewNestedCacheSized(38 / w.cfg.CacheScale)
			aw.Sink = w.m.sink
			w.m.sizeExact = false
			w.resync(func() { aw.Mirror = w.p.mirror })
			return aw
		}},
	}},
	{DesignASAP, "", envSpecs{
		EnvNative: {wire: func(w *wiring) core.Walker {
			var steps []pagetable.Step
			var refs []core.MemRef
			pt := w.p.as.PT
			src := asap.LastTwoLevelSource(func(va mem.VAddr) []core.MemRef {
				refs = refs[:0]
				walk := pt.WalkInto(va, steps[:0])
				steps = walk.Steps
				for _, s := range walk.Steps {
					refs = append(refs, core.MemRef{Addr: s.Addr, Level: s.Level})
				}
				return refs
			})
			return &asap.Walker{Inner: w.base, Hier: w.p.hier, Source: src, MemLatency: w.p.hier.Config().MemLatency}
		}},
		// Only the guest-dimension PTE lines are prefetchable in a
		// virtualized setup: ASAP's contiguity arithmetic can compute gPTE
		// locations, but the data page's host-dimension PTEs depend on the
		// gPTE *content* and stay demand-fetched (§6.2.2's dependency-chain
		// argument).
		EnvVirt: {wire: func(w *wiring) core.Walker {
			var steps []pagetable.Step
			var lines []mem.PAddr
			var stages [1][]mem.PAddr
			pt, vm := w.p.as.PT, w.p.vm
			src := func(gva mem.VAddr) [][]mem.PAddr {
				lines = lines[:0]
				walk := pt.WalkInto(gva, steps[:0])
				steps = walk.Steps
				for _, s := range walk.Steps {
					if s.Level > 2 {
						continue
					}
					if machineAddr, ok := vm.MachineAddr(s.Addr); ok {
						lines = append(lines, machineAddr)
					}
				}
				stages[0] = lines
				return stages[:]
			}
			return &asap.Walker{Inner: w.base, Hier: w.p.hier, Source: src, MemLatency: w.p.hier.Config().MemLatency}
		}},
	}},
	// The spilled entries hold full translations (what the L2 TLB holds,
	// gVA→machine under virtualization), so a spill hit skips the whole
	// walk. The spill blocks occupy machine L2 ways, so the store lives in
	// machine memory.
	{DesignVictima, "spill-hit share", envSpecs{
		EnvNative: {build: buildVictima, wire: wireVictima},
		EnvVirt:   {build: buildVictima, wire: wireVictima},
		EnvNested: {build: buildVictima, wire: wireVictima},
	}},
	// RestSegs map (guest-)virtual straight to machine addresses and live
	// in machine memory: a restrictive hit needs no second dimension, which
	// is the design's collapsed-2D-walk claim.
	{DesignUtopia, "RestSeg-hit share", envSpecs{
		EnvNative: {build: buildUtopia, wire: func(w *wiring) core.Walker {
			uw := wireUtopia(w)
			w.m.footer = func(r *Result) {
				w.p.footer(r)
				r.PTEBytes += uw.Seg.FootprintBytes()
			}
			return uw
		}},
		EnvVirt:   {build: buildUtopia, wire: func(w *wiring) core.Walker { return wireUtopia(w) }},
		EnvNested: {build: buildUtopia, wire: func(w *wiring) core.Walker { return wireUtopia(w) }},
	}},
}

// allDesigns lists every registered design in table order.
var allDesigns = func() []Design {
	out := make([]Design, len(designTable))
	for i, d := range designTable {
		out[i] = d.name
	}
	return out
}()

// CoverageLabel names what Result.RegisterCoverage counts for design d:
// register hits for the DMT family, spill hits for Victima, RestSeg hits
// for Utopia. It is empty for designs without a fast-path coverage.
func CoverageLabel(d Design) string {
	for _, e := range designTable {
		if e.name == d {
			return e.coverage
		}
	}
	return ""
}

// Designs returns the designs env supports, in registry order.
func Designs(env Environment) []Design {
	var out []Design
	for _, d := range designTable {
		if _, err := specFor(env, d.name); err == nil {
			out = append(out, d.name)
		}
	}
	return out
}

// specFor returns how design d runs in env, or an error naming both when
// the environment does not run it.
func specFor(env Environment, d Design) (*envSpec, error) {
	if env < EnvNative || env > EnvNested {
		return nil, fmt.Errorf("unknown environment %v", env)
	}
	for _, e := range designTable {
		if e.name != d {
			continue
		}
		if s := e.envs[env]; s != nil {
			return s, nil
		}
		return nil, fmt.Errorf("design %q not available in the %v environment", d, env)
	}
	return nil, fmt.Errorf("unknown design %q", d)
}

// walkBase runs the environment's own page walk: the vanilla design.
func walkBase(w *wiring) core.Walker { return w.base }

// wireVictima spills over the environment's walk; spilled translations
// cache page-table contents outside the TLB, so mapping mutations drop
// them like a TLB shootdown would.
func wireVictima(w *wiring) core.Walker {
	vw := victima.NewWalker(w.p.vic, w.p.hier, w.base, w.m.sink)
	w.m.addResync(func() error {
		vw.Flush()
		return nil
	})
	return vw
}

// wireUtopia falls back to the environment's walk for flexible pages.
func wireUtopia(w *wiring) *utopia.Walker {
	uw := &utopia.Walker{Seg: w.p.seg, Hier: w.p.hier, Fallback: w.base, Sink: w.m.sink}
	w.resync(func() { uw.Seg = w.p.seg })
	return uw
}

// buildShadow syncs shadow paging's gVA→machine table from the guest and
// host page tables.
func buildShadow(_ Config, p *parts) (err error) {
	p.spt, err = virt.BuildShadowVA(p.vm, p.as)
	return err
}

// buildECPT syncs the per-size cuckoo tables from the process's page
// table and, under virtualization, the host tables from the VM's host
// table once: faults mutate guest mappings only, so a Resync keeps them.
func buildECPT(cfg Config, p *parts) (err error) {
	if p.sys, err = syncedECPT(p.pa, p.as, cfg.THP, int(cfg.WSBytes>>mem.PageShift4K)/ecpt.GroupPages); err != nil {
		return err
	}
	if p.vm != nil && p.hsys == nil {
		p.hsys, err = syncedECPT(p.mpa, p.vm.HostAS, cfg.THP, p.vm.HostAS.Pool.NodeCount()*mem.EntriesPerNode/ecpt.GroupPages)
	}
	return err
}

func syncedECPT(alloc *phys.Allocator, as *kernel.AddressSpace, thp bool, slots int) (*ecpt.System, error) {
	sizes := []mem.PageSize{mem.Size4K}
	if thp {
		sizes = append(sizes, mem.Size2M)
	}
	sys, err := ecpt.NewSystem(alloc, sizes, slots)
	if err != nil {
		return nil, err
	}
	if err := sys.Sync(as); err != nil {
		return nil, err
	}
	return sys, nil
}

// buildFPT syncs the flattened table from the process's page table and,
// under virtualization, the host one once, like buildECPT.
func buildFPT(_ Config, p *parts) (err error) {
	if p.ft, err = syncedFPT(p.pa, p.as); err != nil {
		return err
	}
	if p.vm != nil && p.hft == nil {
		p.hft, err = syncedFPT(p.mpa, p.vm.HostAS)
	}
	return err
}

func syncedFPT(alloc *phys.Allocator, as *kernel.AddressSpace) (*fpt.Table, error) {
	t, err := fpt.New(alloc)
	if err != nil {
		return nil, err
	}
	if err := t.Sync(as); err != nil {
		return nil, err
	}
	return t, nil
}

// buildAgile mirrors the guest page table for agile paging's switch.
func buildAgile(_ Config, p *parts) (err error) {
	p.mirror, err = agile.BuildMirror(p.vm, p.as)
	return err
}

// buildVictima reserves the spill store. It is not a sync of the page
// tables, so a Resync flushes the walker instead of rebuilding it.
func buildVictima(_ Config, p *parts) (err error) {
	p.vic, err = victima.NewStore(p.mpa, p.hier.Config().L2)
	return err
}

// buildUtopia syncs the RestSegs from the process's page table, composed
// down to machine addresses under virtualization through the live VM
// mapping.
func buildUtopia(cfg Config, p *parts) error {
	seg, err := utopia.NewSeg(p.mpa, cfg.WSBytes)
	if err != nil {
		return err
	}
	var resolve utopia.Resolver
	if p.vm != nil {
		resolve = p.vm.MachineLeaf
	}
	if err := seg.Sync(p.as, resolve); err != nil {
		return err
	}
	p.seg = seg
	return nil
}
