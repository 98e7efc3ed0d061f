// Package asap implements the ASAP prefetched-address-translation baseline
// (Margaritov et al., MICRO'19) discussed in §6.2.2: the OS lays out the
// last two levels of page-table entries contiguously so their addresses can
// be *computed* when the TLB miss is detected and prefetched into the cache
// hierarchy while the walk's upper levels proceed.
//
// Two properties of ASAP that the paper leans on are modelled explicitly:
//
//   - Prefetching overlaps but does not remove latency: a prefetch issued
//     at walk start for an uncached line still takes a full memory round
//     trip, so the walk cannot finish earlier than that (it *can* hide the
//     sequential upper-level fetches behind it).
//
//   - The nested dependency chain is unbreakable (§6.2.2): the machine
//     address of a gPTE needs a host walk, and the data page's host PTEs
//     need the gPTE's content, so prefetches happen in dependent stages —
//     each stage with a cold line adds a full memory latency the walk
//     waits for.
package asap

import (
	"dmt/internal/cache"
	"dmt/internal/core"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
)

// Accuracy is the fraction of PTE addresses the contiguity-based computation
// predicts correctly (ASAP reports ~95% coverage; mispredicted lines leave
// the demand fetch to pay full latency).
const Accuracy = 0.95

// DefaultTimeliness is the fraction of correctly-predicted prefetches that
// complete before the walk consumes the line. Late prefetches still warm
// the caches for future walks (and still cost bandwidth) but do not help
// the triggering walk.
const DefaultTimeliness = 0.7

// AddrSource computes, ahead of the walk, the machine addresses of the
// prefetchable last-two-level PTEs for a VA, grouped into dependent stages:
// one stage natively; guest-dimension then final-host-dimension lines in a
// virtualized environment.
type AddrSource func(va mem.VAddr) [][]mem.PAddr

// Walker wraps an underlying walker (native radix or virtualized 2D) with
// the ASAP prefetcher.
type Walker struct {
	Inner  core.Walker
	Hier   *cache.Hierarchy
	Source AddrSource
	// MemLatency is the main-memory round trip the penalty model uses.
	MemLatency int
	// Timeliness overrides DefaultTimeliness when non-zero.
	Timeliness float64

	Prefetches     uint64
	ColdPrefetches uint64
	LatePrefetches uint64
	Walks          uint64

	late []mem.PAddr // per-walk scratch, reused across walks
}

// EmitCounters implements core.CounterSource: the prefetcher's issue/cold/
// late attribution plus the wrapped walker's own counters.
func (w *Walker) EmitCounters(emit func(name string, value uint64)) {
	emit("asap.walks", w.Walks)
	emit("asap.prefetches", w.Prefetches)
	emit("asap.cold_prefetches", w.ColdPrefetches)
	emit("asap.late_prefetches", w.LatePrefetches)
	if w.Inner != nil {
		core.EmitChained(w.Inner, emit)
	}
}

// Walk implements core.Walker.
func (w *Walker) Walk(va mem.VAddr) core.WalkOutcome {
	w.Walks++
	timeliness := w.Timeliness
	if timeliness == 0 {
		timeliness = DefaultTimeliness
	}
	// Issue the prefetches the TLB miss triggers, stage by stage; a
	// deterministic hash stands in for prediction accuracy and
	// timeliness. Late prefetches are deferred past the walk. Each
	// stage's fill latency (memory or LLC round trip for its slowest
	// line) is a floor the walk cannot finish before.
	penalty := 0
	late := w.late[:0]
	llcLatency := w.Hier.Config().LLC.LatencyRT
	for stage, addrs := range w.Source(va) {
		stageFill := 0
		for i, pa := range addrs {
			if !hit(va, stage*8+i) {
				continue
			}
			w.Prefetches++
			if !timely(va, stage*8+i, timeliness) {
				w.LatePrefetches++
				late = append(late, pa)
				continue
			}
			switch w.Hier.Prefetch(pa) {
			case cache.LevelMem:
				w.ColdPrefetches++
				if w.MemLatency > stageFill {
					stageFill = w.MemLatency
				}
			case cache.LevelLLC:
				if llcLatency > stageFill {
					stageFill = llcLatency
				}
			}
		}
		penalty += stageFill
	}
	out := w.Inner.Walk(va)
	// The walk observes the timely prefetched lines as cache hits, but it
	// cannot complete before the dependent cold prefetches themselves
	// complete.
	if out.Cycles < penalty {
		out.Cycles = penalty
	}
	// Late prefetches land after the walk: they warm future walks only.
	for _, pa := range late {
		if w.Hier.Prefetch(pa) == cache.LevelMem {
			w.ColdPrefetches++
		}
	}
	w.late = late
	return out
}

func timely(va mem.VAddr, i int, timeliness float64) bool {
	h := (uint64(va)>>12 + 0x51_7cc1b727220a95 + uint64(i)*0xbf58476d1ce4e5b9) * 0x94d049bb133111eb
	h ^= h >> 31
	return h%100 < uint64(timeliness*100)
}

func hit(va mem.VAddr, i int) bool {
	h := (uint64(va)>>12 + uint64(i)*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	h ^= h >> 33
	return h%100 < uint64(Accuracy*100)
}

var _ core.Walker = (*Walker)(nil)

// LastTwoLevels builds a single-stage AddrSource over pt: the level-2 and
// level-1 PTE lines of va's walk, in walk order. resolve, when non-nil,
// maps each line's address to a machine address (a guest table's gPTEs
// under virtualization) and drops the lines it cannot map; nil keeps the
// table's own addresses (native). The returned source reuses its buffers:
// each call invalidates the previous result.
func LastTwoLevels(pt *pagetable.Table, resolve func(mem.PAddr) (mem.PAddr, bool)) AddrSource {
	var steps []pagetable.Step
	var lines []mem.PAddr
	var stages [1][]mem.PAddr
	return func(va mem.VAddr) [][]mem.PAddr {
		lines = lines[:0]
		walk := pt.WalkInto(va, steps[:0])
		steps = walk.Steps
		for _, s := range walk.Steps {
			if s.Level > 2 {
				continue
			}
			addr, ok := s.Addr, true
			if resolve != nil {
				addr, ok = resolve(s.Addr)
			}
			if ok {
				lines = append(lines, addr)
			}
		}
		stages[0] = lines
		return stages[:]
	}
}
