package sim

import (
	"fmt"
	"testing"
)

// TestStepBatchZeroAllocs pins the batched engine loop (StepBatch, DESIGN.md
// §11) at zero heap allocations per batch in every environment × design
// cell: trace generation, TLB probes, walks, cache accesses and histogram
// observation all run on buffers the instance owns. The first batch warms
// the machine (TLB, caches, walker scratch) before the count starts. The leg is
// named trace=false: the engine has no per-walk trace any more, so the
// untraced loop is the only one to pin.
func TestStepBatchZeroAllocs(t *testing.T) {
	const runs = 4
	wl := detWorkload(t)
	for _, env := range []Environment{EnvNative, EnvVirt, EnvNested} {
		for _, d := range Designs(env) {
			t.Run(fmt.Sprintf("%v/%s", env, d), func(t *testing.T) {
				t.Run("trace=false", func(t *testing.T) {
					in, err := NewInstance(Config{
						Env: env, Design: d, Workload: wl,
						WSBytes: detWS, Ops: (runs + 2) * BatchOps, Seed: 11, CacheScale: 16,
					})
					if err != nil {
						t.Fatal(err)
					}
					step := func() {
						if n, err := in.StepBatch(BatchOps); err != nil || n != BatchOps {
							t.Fatalf("StepBatch = (%d, %v), want (%d, nil)", n, err, BatchOps)
						}
					}
					step()
					if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
						t.Fatalf("StepBatch allocates %.1f times per %d-op batch, want 0", allocs, BatchOps)
					}
				})
			})
		}
	}
}
