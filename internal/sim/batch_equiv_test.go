package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"testing"

	"dmt/internal/core"
	"dmt/internal/fault"
	"dmt/internal/mem"
)

// The batch-walk contract (DESIGN.md §11): the batched engine loop is a
// pure restructuring of the scalar one — every Result field, counter,
// histogram bucket, and walk must be bit-identical to the per-op reference
// path, for every environment, design, fault plan, verification mode, and
// batch size, including sizes that don't divide the op count. These are
// metamorphic tests: the scalar leg (runShardsWith driving Instance.Step per
// trace operation) is the oracle for the batched leg, and CI runs the suite
// under -race. Beyond the aggregates, each leg folds every walk into a
// per-shard digest (walkDigest), so the two legs must also agree walk by
// walk, in order.

// batchEquivConfig is detConfig plus two workers, so the engine leg also
// runs shards concurrently under the race detector.
func batchEquivConfig(t *testing.T, env Environment, d Design, plan *fault.Plan, verify bool) Config {
	cfg := detConfig(env, d, plan)
	cfg.Workload = detWorkload(t)
	cfg.Verify = verify
	cfg.Workers = 2
	return cfg
}

// walkDigest folds every walk one instance makes — its VA, cycles and
// fallback flag, then each ref the sink holds (address, cycles, level,
// dimension, step) — into an FNV-1a hash, in walk order.
type walkDigest struct {
	walks uint64
	h     hash.Hash64
	buf   []byte
}

func (d *walkDigest) fold(va mem.VAddr, out *core.WalkOutcome, refs []core.MemRef) {
	b := binary.LittleEndian.AppendUint64(d.buf[:0], uint64(va))
	b = binary.LittleEndian.AppendUint64(b, uint64(out.Cycles))
	if out.Fallback {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for i := range refs {
		r := &refs[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Addr))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Cycles))
		b = append(b, byte(r.Level), byte(r.Step), byte(len(r.Dim)))
		b = append(b, r.Dim...)
	}
	d.h.Write(b)
	d.buf = b
	d.walks++
}

// digestWalker folds an instance's walks: it wraps the recording walker's
// inner walker, which Step (through the MMU) and StepBatch (through
// translate) both reach via recordingWalker.Walk, so it sees each outcome
// and the sink's refs once per walk.
type digestWalker struct {
	core.Walker
	d    *walkDigest
	sink *core.RefSink
}

func (w digestWalker) Walk(va mem.VAddr) core.WalkOutcome {
	out := w.Walker.Walk(va)
	w.d.fold(va, &out, w.sink.Refs())
	return out
}

// digestWalks arms in so that every walk it makes, through Step or
// StepBatch, folds into the returned digest.
func digestWalks(in *Instance) *walkDigest {
	d := &walkDigest{h: fnv.New64a()}
	in.rec.inner = digestWalker{in.rec.inner, d, in.m.sink}
	return d
}

// requireEqualWalks asserts that two legs' per-shard digests agree and
// that together they saw every walk res counts.
func requireEqualWalks(t *testing.T, res *Result, a, b []*walkDigest) {
	t.Helper()
	var walks uint64
	for s := range a {
		if a[s].walks != b[s].walks || a[s].h.Sum64() != b[s].h.Sum64() {
			t.Fatalf("shard %d walks differ: %d walks (digest %#x) vs %d walks (digest %#x)",
				s, a[s].walks, a[s].h.Sum64(), b[s].walks, b[s].h.Sum64())
		}
		walks += a[s].walks
	}
	if walks != res.Walks {
		t.Fatalf("digests saw %d walks, the Result counts %d", walks, res.Walks)
	}
}

// runShardsWith is RunShards followed by MergeShards with the engine's
// step loop replaced by step, which advances an instance by at least one
// op. Shards run serially; results do not depend on scheduling. It also
// returns each shard's walk digest.
func runShardsWith(t *testing.T, cfg Config, step func(*Instance) error) (*Result, []*walkDigest) {
	t.Helper()
	cfg = cfg.withDefaults()
	parts := make([]ShardResult, cfg.Shards)
	digests := make([]*walkDigest, cfg.Shards)
	for s := range parts {
		in, err := newShardInstance(cfg, s, cfg.Shards)
		if err != nil {
			t.Fatal(err)
		}
		digests[s] = digestWalks(in)
		for in.op < in.ops {
			if err := step(in); err != nil {
				t.Fatalf("shard %d: %v", s, err)
			}
		}
		res, err := in.Finish()
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		parts[s] = ShardResult{Shard: s, Res: res}
	}
	res, err := MergeShards(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	return res, digests
}

// runBatchVsScalar runs cfg through the per-op reference loop and through
// StepBatch(batchCap), and asserts bit-identical Results and walk digests.
// With batchCap 0 the batched leg steps at BatchOps, and the engine itself
// (Run, shards on cfg.Workers goroutines) must reproduce the Result too.
func runBatchVsScalar(t *testing.T, cfg Config, batchCap int) *Result {
	t.Helper()
	want, wantWalks := runShardsWith(t, cfg, (*Instance).Step)
	n := batchCap
	if n == 0 {
		n = BatchOps
	}
	got, gotWalks := runShardsWith(t, cfg, func(in *Instance) error {
		_, err := in.StepBatch(n)
		return err
	})
	requireEqualResults(t, want, got)
	requireEqualWalks(t, want, wantWalks, gotWalks)
	if batchCap == 0 {
		eng, err := Run(cfg)
		if err != nil {
			t.Fatalf("engine leg: %v", err)
		}
		requireEqualResults(t, want, eng)
	}
	return want
}

// TestBatchScalarEquivalenceMatrix is the full metamorphic sweep: every
// (environment × design) cell, with and without a fault plan, with and
// without the verification oracle, batched at the production span size
// through both StepBatch and the engine's Run.
func TestBatchScalarEquivalenceMatrix(t *testing.T) {
	suite := fault.Suite(detOps)
	if len(suite) == 0 {
		t.Fatal("empty fault suite")
	}
	churn := &suite[0]

	for _, env := range []Environment{EnvNative, EnvVirt, EnvNested} {
		for _, d := range Designs(env) {
			for _, plan := range []*fault.Plan{nil, churn} {
				for _, verify := range []bool{false, true} {
					name := fmt.Sprintf("%v/%s/verify=%v", env, d, verify)
					if plan != nil {
						name += "/" + plan.Name
					}
					t.Run(name, func(t *testing.T) {
						cfg := batchEquivConfig(t, env, d, plan, verify)
						want := runBatchVsScalar(t, cfg, 0)
						if want.Walks == 0 || want.TLBMisses == 0 {
							t.Fatalf("degenerate run: %d walks, %d misses", want.Walks, want.TLBMisses)
						}
						if want.WalkHist == nil || want.WalkHist.Count != want.Walks {
							t.Fatalf("histogram lost walks: %+v vs %d walks", want.WalkHist, want.Walks)
						}
					})
				}
			}
		}
	}
}

// TestBatchCapSweep pins span-size independence on representative cells:
// awkward caps (1, 7) and the production cap, against an op count chosen so
// no cap divides it and every shard ends mid-span. The fault plan makes
// event boundaries land inside, between, and exactly on spans.
func TestBatchCapSweep(t *testing.T) {
	const oddOps = 2003 // prime: not divisible by any cap or shard count
	suite := fault.Suite(oddOps)
	if len(suite) == 0 {
		t.Fatal("empty fault suite")
	}
	churn := &suite[0]

	cells := []struct {
		env Environment
		d   Design
	}{
		{EnvNative, DesignDMT},
		{EnvVirt, DesignVanilla},
		{EnvVirt, DesignPvDMT},
		{EnvNested, DesignPvDMT},
	}
	for _, cell := range cells {
		for _, cap := range []int{1, 7, BatchOps} {
			t.Run(fmt.Sprintf("%v/%s/cap=%d", cell.env, cell.d, cap), func(t *testing.T) {
				cfg := batchEquivConfig(t, cell.env, cell.d, churn, true)
				cfg.Ops = oddOps
				want := runBatchVsScalar(t, cfg, cap)
				if want.Ops != oddOps {
					t.Fatalf("merged Ops = %d, want %d", want.Ops, oddOps)
				}
				if want.FaultsApplied+want.FaultsSkipped == 0 {
					t.Fatal("no fault events executed")
				}
			})
		}
	}
}

// TestBatchInstanceResume pins StepBatch's public contract on a bare
// instance: arbitrary interleavings of StepBatch sizes (including calls
// larger than BatchOps, which clamp) finish with the same Result as the
// scalar Step loop, and a finished instance reports zero further progress.
func TestBatchInstanceResume(t *testing.T) {
	cfg := Config{
		Env: EnvVirt, Design: DesignPvDMT, THP: true, Workload: detWorkload(t),
		WSBytes: detWS, Ops: 2003, Seed: 7, Verify: true, Shards: 1,
	}

	scalar, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scalarWalks := digestWalks(scalar)
	for i := 0; i < scalar.Ops(); i++ {
		if err := scalar.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := scalar.Finish()
	if err != nil {
		t.Fatal(err)
	}

	batched, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batchedWalks := digestWalks(batched)
	sizes := []int{1, 7, 100, 3 * BatchOps, 13, 1024}
	done := 0
	for i := 0; done < batched.Ops(); i++ {
		n, err := batched.StepBatch(sizes[i%len(sizes)])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("no progress at op %d", done)
		}
		if n > BatchOps {
			t.Fatalf("StepBatch(%d) completed %d ops, above the %d clamp", sizes[i%len(sizes)], n, BatchOps)
		}
		done += n
	}
	if n, err := batched.StepBatch(BatchOps); err != nil || n != 0 {
		t.Fatalf("StepBatch on exhausted instance = (%d, %v), want (0, nil)", n, err)
	}
	got, err := batched.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, want, got)
	requireEqualWalks(t, want, []*walkDigest{scalarWalks}, []*walkDigest{batchedWalks})
}

// fuzzBatchWalkCell drives one (environment × design) cell through both
// engine legs at a fuzzed op count, batch cap, and trace seed, asserting
// bit-identical Results and walks — the walker-level extension of the span
// fuzzing below: instead of checking the seam arithmetic in isolation, it
// checks that a real walker fed through those seams (including the batch
// probe paths tlb.LookupBatch / cache.AccessBatch) never diverges from the
// scalar oracle.
func fuzzBatchWalkCell(t *testing.T, env Environment, d Design, rawOps uint16, rawCap uint8, seed int64, withPlan bool) {
	ops := int(rawOps)%997 + 32 // small but non-degenerate; 997 prime, so caps rarely divide it
	var plan *fault.Plan
	if withPlan {
		suite := fault.Suite(ops)
		if len(suite) == 0 {
			t.Fatal("empty fault suite")
		}
		plan = &suite[0]
	}
	cfg := batchEquivConfig(t, env, d, plan, true)
	cfg.Ops = ops
	cfg.Seed = seed
	runBatchVsScalar(t, cfg, int(rawCap)%BatchOps+1)
}

// FuzzBatchWalkECPT covers a baseline walker whose walks fan out into many
// parallel probes per step (the richest per-walk hierarchy traffic).
func FuzzBatchWalkECPT(f *testing.F) {
	f.Add(uint16(200), uint8(0), int64(7), false)
	f.Add(uint16(1023), uint8(6), int64(11), true)
	f.Add(uint16(64), uint8(255), int64(3), true)
	f.Fuzz(func(t *testing.T, rawOps uint16, rawCap uint8, seed int64, withPlan bool) {
		fuzzBatchWalkCell(t, EnvNative, DesignECPT, rawOps, rawCap, seed, withPlan)
	})
}

// FuzzBatchWalkShadow covers a virt walker: shadow paging runs a radix walk
// over the shadow table, so this exercises the arena-backed page-table walk
// behind the batch seams as well.
func FuzzBatchWalkShadow(f *testing.F) {
	f.Add(uint16(200), uint8(0), int64(7), false)
	f.Add(uint16(1023), uint8(6), int64(11), true)
	f.Add(uint16(64), uint8(255), int64(3), true)
	f.Fuzz(func(t *testing.T, rawOps uint16, rawCap uint8, seed int64, withPlan bool) {
		fuzzBatchWalkCell(t, EnvVirt, DesignShadow, rawOps, rawCap, seed, withPlan)
	})
}

// FuzzBatchWalkVictima covers the L2-spill walker: its batch path threads
// spill-block probes, the shared LRU clock, and inner-radix fills through
// the batch loop's walk seam, so fuzzing it guards the fill/evict bookkeeping
// against batch/scalar divergence.
func FuzzBatchWalkVictima(f *testing.F) {
	f.Add(uint16(200), uint8(0), int64(7), false)
	f.Add(uint16(1023), uint8(6), int64(11), true)
	f.Add(uint16(64), uint8(255), int64(3), true)
	f.Fuzz(func(t *testing.T, rawOps uint16, rawCap uint8, seed int64, withPlan bool) {
		fuzzBatchWalkCell(t, EnvNative, DesignVictima, rawOps, rawCap, seed, withPlan)
	})
}

// FuzzBatchWalkDMTVirt covers the three-fetch DMT-virt walker: its host
// and guest fan-outs are core.FetchGroups that record into the machine's
// shared sink ahead of any nested fallback walk.
func FuzzBatchWalkDMTVirt(f *testing.F) {
	f.Add(uint16(200), uint8(0), int64(7), false)
	f.Add(uint16(1023), uint8(6), int64(11), true)
	f.Add(uint16(64), uint8(255), int64(3), true)
	f.Fuzz(func(t *testing.T, rawOps uint16, rawCap uint8, seed int64, withPlan bool) {
		fuzzBatchWalkCell(t, EnvVirt, DesignDMT, rawOps, rawCap, seed, withPlan)
	})
}

// FuzzBatchWalkPvDMTNested covers the three-level pvDMT chain of Figure 9:
// one core.FetchGroup per level, gTEA resolution at two of them, and the
// shadow-compressed nested walk as fallback.
func FuzzBatchWalkPvDMTNested(f *testing.F) {
	f.Add(uint16(200), uint8(0), int64(7), false)
	f.Add(uint16(1023), uint8(6), int64(11), true)
	f.Add(uint16(64), uint8(255), int64(3), true)
	f.Fuzz(func(t *testing.T, rawOps uint16, rawCap uint8, seed int64, withPlan bool) {
		fuzzBatchWalkCell(t, EnvNested, DesignPvDMT, rawOps, rawCap, seed, withPlan)
	})
}

// FuzzBatchSpan fuzzes the span arithmetic directly: spans always make
// progress, never exceed the remaining limit, and never cross the next
// fault-event boundary from below.
func FuzzBatchSpan(f *testing.F) {
	f.Add(0, 1024, 500)
	f.Add(500, 1024, 500)
	f.Add(0, 1, 0)
	f.Add(1000, 24, 1<<62)
	f.Add(7, 0, 3)
	f.Fuzz(func(t *testing.T, op, limit, nextAt int) {
		span := batchSpan(op, limit, nextAt)
		if limit < 1 {
			if span != 0 {
				t.Fatalf("batchSpan(%d, %d, %d) = %d, want 0 for empty limit", op, limit, nextAt, span)
			}
			return
		}
		if span < 1 || span > limit {
			t.Fatalf("batchSpan(%d, %d, %d) = %d, outside [1, %d]", op, limit, nextAt, span, limit)
		}
		if nextAt > op && op+span > nextAt {
			t.Fatalf("batchSpan(%d, %d, %d) = %d crosses the event at %d", op, limit, nextAt, span, nextAt)
		}
	})
}

// FuzzBatchBoundaries fuzzes the engine's span-slicing loop against a pure
// model of the scalar tick schedule: for arbitrary op counts, batch caps,
// and fault-event offsets, every event fires exactly once, at exactly the
// op a per-op Tick would fire it (no drops, no double-fires, no late fires
// at batch seams), and the loop always terminates with full coverage.
func FuzzBatchBoundaries(f *testing.F) {
	f.Add(uint16(2000), uint8(255), uint16(0), uint16(1023), uint16(1024))
	f.Add(uint16(5), uint8(1), uint16(0), uint16(0), uint16(4))
	f.Add(uint16(3000), uint8(7), uint16(1999), uint16(2000), uint16(2001))
	f.Add(uint16(1), uint8(255), uint16(500), uint16(500), uint16(500))
	f.Fuzz(func(t *testing.T, rawOps uint16, rawCap uint8, e1, e2, e3 uint16) {
		ops := int(rawOps)%5000 + 1
		cap := int(rawCap)%BatchOps + 1
		events := []int{int(e1) % (ops + 2), int(e2) % (ops + 2), int(e3) % (ops + 2)}
		sort.Ints(events)

		fired := make([]bool, len(events))
		nextEvent := func(op int) int {
			for i, at := range events {
				if !fired[i] && at > op {
					return at
				}
			}
			return 1 << 62
		}
		op, iter := 0, 0
		for op < ops {
			if iter++; iter > 3*ops+len(events)+8 {
				t.Fatalf("loop failed to terminate: op %d of %d, cap %d, events %v", op, ops, cap, events)
			}
			// The tick at the span start: everything due fires now, and
			// must be due *exactly* now — a later At reached here would be
			// a premature fire, an earlier unfired At a late one.
			for i, at := range events {
				if !fired[i] && at <= op {
					if at != op {
						t.Fatalf("event at %d fired late at op %d (cap %d, events %v)", at, op, cap, events)
					}
					fired[i] = true
				}
			}
			limit := cap
			if rem := ops - op; limit > rem {
				limit = rem
			}
			span := batchSpan(op, limit, nextEvent(op))
			if span < 1 {
				t.Fatalf("stalled span at op %d (cap %d, events %v)", op, cap, events)
			}
			if next := nextEvent(op); next > op && op+span > next {
				t.Fatalf("span [%d, %d) crosses event at %d (cap %d)", op, op+span, next, cap)
			}
			op += span
		}
		if op != ops {
			t.Fatalf("coverage hole: ended at op %d of %d", op, ops)
		}
		for i, at := range events {
			if at < ops && !fired[i] {
				t.Fatalf("event at %d (< %d ops) never fired at a batch seam (cap %d, events %v)", at, ops, cap, events)
			}
			if at >= ops && fired[i] {
				t.Fatalf("event at %d fired inside a %d-op trace (cap %d, events %v)", at, ops, cap, events)
			}
		}
	})
}
