package core

import (
	"dmt/internal/cache"
	"dmt/internal/mem"
)

// This file is the batch-walk entry point (DESIGN.md §11). The simulation
// engine generates trace operations into a reusable buffer and hands whole
// batches to RunBatch, so per-op harness work (injector ticks, context
// checks, histogram flushes) is hoisted to batch boundaries while the
// per-op machine semantics — TLB probe, walk on miss, TLB refill, data
// access, in exactly that order for every op — are preserved bit for bit.
// Ops inside a batch stay fully interleaved: every data access and TLB
// refill mutates state the next op observes, so batching restructures the
// loop around the ops, never the ops themselves. What the batch buys is
// locality (TLB/PWC/cache-set metadata stays hot in host caches across
// consecutive walks) and the removal of per-op bookkeeping.

// Req is one translation request of a batch: the trace operation's virtual
// address.
type Req struct {
	VA mem.VAddr
}

// Res is the per-op outcome of a batch walk.
type Res struct {
	PA     mem.PAddr
	Cycles int  // translation cycles charged (0 on a TLB hit)
	Missed bool // the TLB missed and the walker ran
	OK     bool
}

// WalkRecorder observes every walker invocation inside a batch — the
// engine's measurement harness (per-step aggregation, latency capture,
// differential oracle) implements it. RecordWalk runs after the walk and
// before the TLB refill, exactly where the scalar path's recording wrapper
// sits.
type WalkRecorder interface {
	RecordWalk(va mem.VAddr, out *WalkOutcome)
}

// TranslateChecker is the per-op oracle assertion (check.Checker satisfies
// it); nil disables verification.
type TranslateChecker interface {
	CheckTranslate(va mem.VAddr, pa mem.PAddr)
}

// Batch carries the shared machine state a batch of walks runs against.
// One Batch lives per engine instance and is reused across batches; the
// DataCycles accumulator is drained by the engine at batch boundaries.
type Batch struct {
	MMU  *MMU
	Hier *cache.Hierarchy
	Rec  WalkRecorder
	Chk  TranslateChecker

	// DataCycles accumulates the data-access charge of completed ops.
	DataCycles uint64

	// out is the reusable walk-outcome scratch. Passing a stack outcome's
	// address through the Rec interface would move it to the heap on every
	// miss; one preallocated slot keeps the loop allocation-free.
	out WalkOutcome

	// vas/pas are the hit-run scratch buffers handed to tlb.LookupBatch and
	// cache.AccessBatch; sized once (Reserve, or lazily on the first batch)
	// so steady-state batches stay allocation-free.
	vas []mem.VAddr
	pas []mem.PAddr
}

// Reserve sizes the hit-run scratch for batches of up to n requests; the
// engine calls it once at instance assembly so the first timed batch is as
// allocation-free as the rest.
func (b *Batch) Reserve(n int) {
	if cap(b.vas) < n {
		b.vas = make([]mem.VAddr, n)
		b.pas = make([]mem.PAddr, n)
	}
}

// NewBatch returns a Batch over the given machine state. rec and chk may be
// nil interfaces; a typed nil would pass the loop's presence checks, so
// callers convert only non-nil values.
func NewBatch(mmu *MMU, hier *cache.Hierarchy, rec WalkRecorder, chk TranslateChecker) *Batch {
	return &Batch{MMU: mmu, Hier: hier, Rec: rec, Chk: chk}
}

// RunBatch is the canonical batch loop: for each request, in op order —
// TLB probe; on a miss, walk and refill the TLB; verify; charge the data
// access. The sequence per op is exactly MMU.Translate plus the engine's
// per-op epilogue, so a batch of n ops is bit-identical to n scalar steps.
//
// It returns the number of fully completed ops. A short return means
// res[returned] holds a failed translation (out-of-sync page tables, e.g.
// an injected unmap): the op's TLB probe and walk have been charged, but
// no TLB refill or data access happened — the caller resolves the fault
// (demand paging) and resumes from that index, which is precisely the
// scalar engine's retry behaviour.
//
// Inside a run of consecutive TLB hits the per-op work decomposes into two
// independent state machines: the TLB probe touches only TLB state (LRU,
// promotion, hit counters) and the data access touches only hierarchy state
// (fills, LRU order, level counters) — and the checker reads neither. The
// loop therefore unzips each hit-run's L,D,L,D,… interleave into one
// tlb.LookupBatch pass over the run followed by one cache.AccessBatch pass:
// every structure is driven by a tight per-structure loop with its metadata
// hot, and every counter, LRU order, and hit/miss outcome is bit-identical
// to the scalar interleave. The first miss ends the run (its walk touches
// the hierarchy, so it must stay ordered after the run's data accesses).
func RunBatch(b *Batch, w Walker, reqs []Req, res []Res) int {
	m := b.MMU
	n := len(reqs)
	b.Reserve(n)
	vas, pas := b.vas[:n], b.pas[:n]
	for i := range reqs {
		vas[i] = reqs[i].VA
	}
	for i := 0; i < n; {
		hits, missProbed := m.TLB.LookupBatch(vas[i:], m.ASID, pas[i:])
		m.Lookups += uint64(hits)
		for k := i; k < i+hits; k++ {
			res[k] = Res{PA: pas[k], OK: true}
		}
		if b.Chk != nil {
			for k := i; k < i+hits; k++ {
				b.Chk.CheckTranslate(vas[k], pas[k])
			}
		}
		b.DataCycles += b.Hier.AccessBatch(pas[i : i+hits])
		i += hits
		if !missProbed {
			break
		}
		// Op i missed: its TLB probe is already charged (LookupBatch probed
		// it exactly once); walk, refill, and run its epilogue.
		va := vas[i]
		m.Lookups++
		m.Misses++
		m.Sink.Reset()
		out := &b.out
		*out = w.Walk(va)
		if b.Rec != nil {
			b.Rec.RecordWalk(va, out)
		}
		if !out.OK {
			res[i] = Res{Cycles: out.Cycles, Missed: true}
			return i
		}
		m.WalkCycles += uint64(out.Cycles)
		m.TLB.Insert(va, mem.AlignDownP(out.PA, out.Size.Bytes()), out.Size, m.ASID)
		res[i] = Res{PA: out.PA, Cycles: out.Cycles, Missed: true, OK: true}
		if b.Chk != nil {
			b.Chk.CheckTranslate(va, out.PA)
		}
		b.DataCycles += uint64(b.Hier.Access(out.PA).Cycles)
		i++
	}
	return n
}
