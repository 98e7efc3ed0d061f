package experiments

import (
	"strings"
	"testing"

	"dmt/internal/sim"
	"dmt/internal/workload"
)

// TestWarmCollectsAllErrors injects failing cells into a Warm matrix —
// designs that don't exist under nested virtualization — and asserts that
// every failure is reported (joined, annotated with its cell) while the
// valid cells still complete and memoize.
func TestWarmCollectsAllErrors(t *testing.T) {
	wl := workload.GUPS()
	r := NewRunner(Options{
		Ops: 2_000, WSBytes: 24 << 20, CacheScale: 16, Seed: 3,
		Workloads: []workload.Spec{wl},
		Parallel:  3,
	})
	err := r.Warm(sim.EnvNested,
		[]sim.Design{sim.DesignVanilla, sim.DesignECPT, sim.DesignFPT},
		[]bool{false}, []workload.Spec{wl})
	if err == nil {
		t.Fatal("Warm swallowed the failing cells")
	}
	msg := err.Error()
	for _, frag := range []string{"ecpt", "fpt"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("joined error missing failing cell %q: %v", frag, msg)
		}
	}
	if strings.Contains(msg, "vanilla") {
		t.Errorf("joined error blames a healthy cell: %v", msg)
	}
	// The healthy cell must have been attempted and memoized despite the
	// failures.
	if _, err := r.Run(sim.EnvNested, sim.DesignVanilla, false, wl); err != nil {
		t.Errorf("healthy cell failed after Warm: %v", err)
	}
}

// TestWarmSequentialSkips pins the lazy path: with Parallel <= 1 Warm is a
// no-op and never surfaces errors early.
func TestWarmSequentialSkips(t *testing.T) {
	wl := workload.GUPS()
	r := NewRunner(Options{
		Ops: 1_000, WSBytes: 24 << 20, Seed: 3,
		Workloads: []workload.Spec{wl},
	})
	if err := r.Warm(sim.EnvNested, []sim.Design{sim.DesignECPT}, []bool{false}, []workload.Spec{wl}); err != nil {
		t.Fatalf("sequential Warm should defer errors to Run, got %v", err)
	}
}

// TestRunnerStageReuseFigureMatrix pins VM-stage reuse on the figure
// matrix's shape: the Fig 15/Table 5 virtualized configs and the Fig 17
// nested ones, for all seven workloads at one working set, share four VM
// stages (virt and nested, each with and without host DMT). The prototype
// counters keep counting machines only: one build per config, one clone
// for its second shard.
func TestRunnerStageReuseFigureMatrix(t *testing.T) {
	sim.ResetBuildCache()
	defer sim.ResetBuildCache()
	r := NewRunner(Options{Ops: 1_000, WSBytes: 16 << 20, CacheScale: 16, Seed: 3, Workers: 2})
	cells := []struct {
		env     sim.Environment
		designs []sim.Design
	}{
		{sim.EnvVirt, []sim.Design{sim.DesignVanilla, sim.DesignPvDMT, sim.DesignFPT, sim.DesignECPT, sim.DesignAgile, sim.DesignASAP}},
		{sim.EnvNested, []sim.Design{sim.DesignVanilla, sim.DesignPvDMT}},
	}
	configs := 0
	for _, wl := range workload.All() {
		for _, c := range cells {
			for _, d := range c.designs {
				if _, err := r.Run(c.env, d, false, wl); err != nil {
					t.Fatalf("%v/%s/%s: %v", c.env, d, wl.Name, err)
				}
				configs++
			}
		}
	}
	got := sim.ReadBuildCacheStats()
	if configs != 56 || got.StageMisses != 4 || got.StageHits != 52 {
		t.Errorf("%d configs: want 4 stage builds and 52 stage clones, got %d and %d",
			configs, got.StageMisses, got.StageHits)
	}
	if got.Misses != 56 || got.Hits != 56 {
		t.Errorf("want 56 prototype builds and 56 clones, got %d and %d", got.Misses, got.Hits)
	}
}
