package sim

import (
	"runtime"
	"testing"

	"dmt/internal/fault"
	"dmt/internal/mem"
)

// TestCloneBytesFollowWrites pins the copy-on-write clone (DESIGN.md §9,
// "Clone bytes scale with written state") on the bench's largest cell,
// virtualized FPT on GUPS at 192 MiB, whose eager deep copy allocated about
// 11 MiB per instance. Minting an instance copies chunk directories, the
// page-table slabs and the cache hierarchy: under 1 MiB. Driving it copies
// only the chunks it writes: nothing without a fault plan, the same bytes
// for the same plan on every instance, and under 1 MiB for a plan that
// unmaps and remaps pages and rebuilds the FPT.
func TestCloneBytesFollowWrites(t *testing.T) {
	cfg := Config{Env: EnvVirt, Design: DesignFPT, THP: true, Workload: detWorkload(t),
		WSBytes: 192 << 20, Ops: detOps, Seed: 7, Shards: 1}
	proto, err := NewPrototype(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := proto.NewInstance(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / rounds; got >= 1<<20 {
		t.Fatalf("NewInstance allocates %d bytes, want under 1 MiB", got)
	}

	copied := func(plan *fault.Plan) uint64 {
		c := cfg
		c.FaultPlan = plan
		in, err := proto.NewInstance(c)
		if err != nil {
			t.Fatal(err)
		}
		start := mem.CopiedBytes()
		for i := 0; i < in.Ops(); i++ {
			if err := in.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := in.Finish(); err != nil {
			t.Fatal(err)
		}
		return mem.CopiedBytes() - start
	}
	if got := copied(nil); got != 0 {
		t.Fatalf("a run without faults copied %d bytes of shared chunks, want 0", got)
	}
	churn := fault.PageChurn(detOps)
	first, second := copied(&churn), copied(&churn)
	if first == 0 || first >= 1<<20 {
		t.Fatalf("%s copied %d bytes of shared chunks, want some, under 1 MiB", churn.Name, first)
	}
	if second != first {
		t.Fatalf("%s copied %d bytes on one instance and %d on the next", churn.Name, first, second)
	}
}
