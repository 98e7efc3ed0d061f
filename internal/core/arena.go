package core

// RefSink is the one place a walk records its PTE fetches: a reusable
// MemRef buffer shared by every walker along one machine's fallback chain.
// Walkers only append; the caller owns the sink and resets it before each
// walk, so a walk's refs are whatever the sink holds since that Reset —
// a fast-path prefix followed by the fallback walker's own refs — and the
// walk hot path stays allocation-free. Every walker must have its Sink set
// before it walks.
type RefSink struct {
	buf []MemRef
}

// Reset empties the sink, retaining capacity.
func (s *RefSink) Reset() { s.buf = s.buf[:0] }

// Append records one memory reference.
func (s *RefSink) Append(r MemRef) { s.buf = append(s.buf, r) }

// Refs returns the references recorded since the last Reset. The slice
// aliases the sink's buffer.
func (s *RefSink) Refs() []MemRef { return s.buf }

// FetchGroup is one parallel fan-out of PTE fetches: DMT's per-size TEA
// probes (§4.4), ECPT's cuckoo ways, FPT's 4K/2M leaf slots. The group
// counts as one sequential step. Its latency is its slowest matching
// fetch — the walker proceeds once the fetches holding the entries it
// needs return, and the others cost only bandwidth and cache pollution —
// or its slowest fetch when nothing matches, since absence is known only
// once every probe has reported.
type FetchGroup struct {
	Sink    *RefSink
	matched int // slowest matching fetch
	slowest int
	any     bool
}

// Add records one fetch of the group; match reports that it returned an
// entry the walk goes on with.
func (g *FetchGroup) Add(r MemRef, match bool) {
	g.Sink.Append(r)
	if r.Cycles > g.slowest {
		g.slowest = r.Cycles
	}
	if match {
		g.any = true
		if r.Cycles > g.matched {
			g.matched = r.Cycles
		}
	}
}

// Commit charges the group to out as one sequential step.
func (g *FetchGroup) Commit(out *WalkOutcome) {
	if g.any {
		out.Cycles += g.matched
	} else {
		out.Cycles += g.slowest
	}
	out.SeqSteps++
}
