// Package fault is a deterministic, seeded fault injector for the DMT
// simulation. It perturbs a running translation environment at scheduled
// operation counts with the events the paper's design must degrade
// gracefully under: TEA migrations that open the §4.6.1 P-bit-clear
// register window, register-file spills from VMA pressure (§4.2), TEA
// allocation failure under backend pressure (§4.3), transient unmap/remap
// of hot pages (demand paging), and 4K/2M leaf flips (§4.4 THP split and
// collapse). The differential checker (internal/check) then asserts that
// every walker still translates correctly while degraded.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"dmt/internal/cache"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/tea"
)

// Kind identifies one class of injected fault.
type Kind int

const (
	// StartMigration opens a TEA migration window on the hot mapping:
	// registers lose the size (P-bit clear) until pumps complete the move.
	StartMigration Kind = iota
	// PumpMigration advances pending migrations by Arg node slots
	// (a background-kthread analogue; Arg<=0 means drain completely).
	PumpMigration
	// RegisterPressure mmaps Arg decoy VMAs whose spans out-rank the
	// workload's mappings, spilling the 16-entry register file.
	RegisterPressure
	// DropDecoys munmaps every decoy VMA created so far.
	DropDecoys
	// AllocPressure makes the next Arg TEA allocations fail, driving the
	// manager down its split-and-retry and no-TEA fallback paths.
	AllocPressure
	// UnmapHot transiently unmaps Arg random populated pages of the hot
	// VMA (madvise(DONTNEED) analogue); the workload demand-faults them
	// back in.
	UnmapHot
	// TouchUnmapped faults every still-unmapped hot page back in.
	TouchUnmapped
	// FlushCaches empties the cache hierarchy and the TLBs (cold restart).
	FlushCaches
	// SplitHuge splits Arg random 2M leaves of the hot VMA into 4K pages.
	SplitHuge
	// PromoteHuge re-collapses eligible 4K runs of the hot VMA into 2M
	// pages (khugepaged analogue).
	PromoteHuge
)

func (k Kind) String() string {
	switch k {
	case StartMigration:
		return "start-migration"
	case PumpMigration:
		return "pump-migration"
	case RegisterPressure:
		return "register-pressure"
	case DropDecoys:
		return "drop-decoys"
	case AllocPressure:
		return "alloc-pressure"
	case UnmapHot:
		return "unmap-hot"
	case TouchUnmapped:
		return "touch-unmapped"
	case FlushCaches:
		return "flush-caches"
	case SplitHuge:
		return "split-huge"
	case PromoteHuge:
		return "promote-huge"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault: when the operation counter reaches At, the
// injector applies Kind with parameter Arg.
type Event struct {
	At   int
	Kind Kind
	Arg  int
}

// Plan is a named, fully deterministic fault schedule.
type Plan struct {
	Name   string
	Seed   int64
	Events []Event
}

// decoyBase places decoy VMAs far above any workload mapping; decoySpace
// spaces them so the bubble ratio defeats mapping merge (§4.2).
const (
	decoyBase  mem.VAddr = 0x7000_0000_0000
	decoySpan            = 1 << 30 // 1 GiB VA span out-ranks workload mappings
	decoySpace           = 4 << 30
)

// Target is the set of handles through which the injector perturbs one
// translation environment. Nil fields make the corresponding event kinds
// no-ops (counted in Skipped), so one plan applies to every design.
type Target struct {
	// AS is the address space whose virtual addresses the workload
	// translates (the guest's under virtualization).
	AS *kernel.AddressSpace
	// Hot is the workload VMA whose pages fault events perturb.
	Hot *kernel.VMA
	// Mgr is the TEA manager of AS; nil for non-DMT designs.
	Mgr *tea.Manager
	// Backend is the flaky wrapper installed under Mgr; nil without one.
	Backend *FlakyBackend
	Hier    *cache.Hierarchy
	// FlushTLB empties the TLBs (and walker caches) of the environment.
	FlushTLB func()
	// Resync rebuilds derived translation structures (shadow page table,
	// ECPT, FPT, agile mirror) after a mapping mutation; nil for designs
	// that walk the live page tables.
	Resync func() error
}

// Injector applies a Plan to a Target as the simulation's operation counter
// advances. All randomness derives from the plan seed, so a fixed
// (plan, workload) pair perturbs identical pages in every run.
type Injector struct {
	plan     Plan
	tgt      Target
	rng      *rand.Rand
	next     int
	decoys   []*kernel.VMA
	unmapped map[mem.VAddr]struct{}

	Applied  int // events applied
	Skipped  int // events that were no-ops for this target
	Refaults int // demand-paging waves served via Refault
}

// New builds an injector for plan against tgt. Events are applied in
// (At, declaration) order.
func New(plan Plan, tgt Target) *Injector {
	events := make([]Event, len(plan.Events))
	copy(events, plan.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	plan.Events = events
	return &Injector{
		plan:     plan,
		tgt:      tgt,
		rng:      rand.New(rand.NewSource(plan.Seed)),
		unmapped: make(map[mem.VAddr]struct{}),
	}
}

// Tick applies every event due at or before op. It returns an error only on
// environment corruption (a kernel operation that must succeed failing);
// injected degradation is never an error.
func (in *Injector) Tick(op int) error {
	for in.next < len(in.plan.Events) && in.plan.Events[in.next].At <= op {
		ev := in.plan.Events[in.next]
		in.next++
		if err := in.apply(ev); err != nil {
			return fmt.Errorf("fault %s@%d: %w", ev.Kind, ev.At, err)
		}
	}
	return nil
}

// Drain applies all remaining events (used at end of run so every schedule
// fully executes regardless of op count).
func (in *Injector) Drain() error { return in.Tick(1 << 62) }

// Events returns the number of events in the plan.
func (in *Injector) Events() int { return len(in.plan.Events) }

// NextAt returns the trigger op of the next pending event, or a sentinel far
// beyond any trace once the schedule is exhausted. The batched engine sizes
// its spans with it: ticking once at the start of a span whose end never
// overshoots NextAt applies every event at exactly the op a per-op Tick
// would, because ticks between events are no-ops.
func (in *Injector) NextAt() int {
	if in.next >= len(in.plan.Events) {
		return 1 << 62
	}
	return in.plan.Events[in.next].At
}

func (in *Injector) apply(ev Event) error {
	switch ev.Kind {
	case StartMigration:
		if in.tgt.Mgr == nil || in.tgt.Hot == nil {
			return in.skip()
		}
		if !in.tgt.Mgr.StartMigration(in.tgt.Hot.Start) {
			return in.skip()
		}
		// The migration target occupies freshly mapped TEA space: derived
		// host-side structures (the nested compressed shadow) must learn
		// the new frames before any node is placed or relocated there.
		return in.resync()
	case PumpMigration:
		if in.tgt.Mgr == nil {
			return in.skip()
		}
		batch := ev.Arg
		if batch <= 0 {
			batch = 1 << 30
		}
		in.tgt.Mgr.PumpMigration(batch)
		return in.resync()
	case RegisterPressure:
		if in.tgt.AS == nil {
			return in.skip()
		}
		for i := 0; i < ev.Arg; i++ {
			base := decoyBase + mem.VAddr(len(in.decoys))*decoySpace
			v, err := in.tgt.AS.MMap(base, decoySpan, kernel.VMAAnon, fmt.Sprintf("decoy%d", len(in.decoys)))
			if err != nil {
				return err
			}
			in.decoys = append(in.decoys, v)
		}
	case DropDecoys:
		if in.tgt.AS == nil || len(in.decoys) == 0 {
			return in.skip()
		}
		for _, v := range in.decoys {
			if err := in.tgt.AS.MUnmap(v); err != nil {
				return err
			}
		}
		in.decoys = in.decoys[:0]
	case AllocPressure:
		if in.tgt.Backend == nil {
			return in.skip()
		}
		in.tgt.Backend.FailNext(ev.Arg)
	case UnmapHot:
		if in.tgt.AS == nil || in.tgt.Hot == nil {
			return in.skip()
		}
		pages := in.tgt.Hot.PresentPages()
		if len(pages) == 0 {
			return in.skip()
		}
		for i := 0; i < ev.Arg; i++ {
			p := pages[in.rng.Intn(len(pages))]
			if _, gone := in.unmapped[p.VA]; gone {
				continue
			}
			if err := in.tgt.AS.UnmapPage(in.tgt.Hot, p.VA); err != nil {
				continue // page may share a since-unmapped 2M leaf
			}
			in.unmapped[p.VA] = struct{}{}
		}
		return in.resync()
	case TouchUnmapped:
		if in.tgt.AS == nil || len(in.unmapped) == 0 {
			return in.skip()
		}
		if err := in.touchAll(); err != nil {
			return err
		}
		return in.resync()
	case FlushCaches:
		if in.tgt.Hier != nil {
			in.tgt.Hier.Flush()
		}
		if in.tgt.FlushTLB != nil {
			in.tgt.FlushTLB()
		}
	case SplitHuge:
		if in.tgt.AS == nil || in.tgt.Hot == nil {
			return in.skip()
		}
		var huge []kernel.PresentPage
		for _, p := range in.tgt.Hot.PresentPages() {
			if p.Size == mem.Size2M {
				huge = append(huge, p)
			}
		}
		if len(huge) == 0 {
			return in.skip()
		}
		split := 0
		for i := 0; i < ev.Arg && len(huge) > 0; i++ {
			j := in.rng.Intn(len(huge))
			if err := in.tgt.AS.SplitHugePage(in.tgt.Hot, huge[j].VA); err == nil {
				split++
			}
			huge = append(huge[:j], huge[j+1:]...)
		}
		if split == 0 {
			return in.skip()
		}
		return in.resync()
	case PromoteHuge:
		if in.tgt.AS == nil || in.tgt.Hot == nil {
			return in.skip()
		}
		if in.tgt.AS.PromoteTHP(in.tgt.Hot) == 0 {
			return in.skip()
		}
		return in.resync()
	default:
		return fmt.Errorf("unknown fault kind %d", int(ev.Kind))
	}
	in.Applied++
	return nil
}

// resync records the event and rebuilds derived structures: a mapping
// mutation leaves one-shot structures (shadow PT, ECPT, FPT, agile mirror)
// stale, which is a correctness hazard rather than a latency one.
func (in *Injector) resync() error {
	in.Applied++
	if in.tgt.Resync != nil {
		return in.tgt.Resync()
	}
	return nil
}

func (in *Injector) skip() error {
	in.Skipped++
	return nil
}

// Unmapped reports how many hot pages are currently unmapped by the
// injector (the demand path in the simulator faults them back in).
func (in *Injector) Unmapped() int { return len(in.unmapped) }

// Refault is the simulator's demand-paging path: when the workload trips
// over an injected unmap, every still-unmapped page is faulted back in and
// derived structures are resynced, in one wave (batching keeps rebuild
// cost bounded for the one-shot designs).
func (in *Injector) Refault() error {
	if len(in.unmapped) == 0 {
		return nil
	}
	if err := in.touchAll(); err != nil {
		return err
	}
	in.Refaults++
	if in.tgt.Resync != nil {
		return in.tgt.Resync()
	}
	return nil
}

func (in *Injector) touchAll() error {
	vas := make([]mem.VAddr, 0, len(in.unmapped))
	for va := range in.unmapped {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	for _, va := range vas {
		if _, err := in.tgt.AS.Touch(va, true); err != nil {
			return err
		}
		delete(in.unmapped, va)
	}
	return nil
}

// FlakyBackend wraps a TEA backend and fails the next N allocations on
// demand, modelling machine-contiguous memory exhaustion (§4.3's motivation
// for split-and-retry and the no-TEA fallback).
type FlakyBackend struct {
	Inner    tea.Backend
	failN    int
	Failures int
}

// NewFlakyBackend wraps inner with zero pending failures.
func NewFlakyBackend(inner tea.Backend) *FlakyBackend { return &FlakyBackend{Inner: inner} }

// FailNext arms the next n AllocTEA calls to fail.
func (b *FlakyBackend) FailNext(n int) { b.failN = n }

// AllocTEA implements tea.Backend.
func (b *FlakyBackend) AllocTEA(frames int) (tea.Region, error) {
	if b.failN > 0 {
		b.failN--
		b.Failures++
		return tea.Region{}, fmt.Errorf("fault: injected TEA allocation failure (%d frames)", frames)
	}
	return b.Inner.AllocTEA(frames)
}

// FreeTEA implements tea.Backend.
func (b *FlakyBackend) FreeTEA(r tea.Region) { b.Inner.FreeTEA(r) }

// ExpandTEAInPlace implements tea.Backend; armed failures also refuse
// expansion (without consuming a failure credit).
func (b *FlakyBackend) ExpandTEAInPlace(r tea.Region, extra int) (tea.Region, bool) {
	if b.failN > 0 {
		return r, false
	}
	return b.Inner.ExpandTEAInPlace(r, extra)
}

var _ tea.Backend = (*FlakyBackend)(nil)
