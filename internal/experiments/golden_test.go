package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dmt/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden figure files under testdata/")

// The golden-figure suite locks the rendered evaluation outputs under a
// fixed seed: any change to the walkers, the caches, the workload
// generators, or the renderers that shifts a reported number shows up as a
// readable diff against testdata/. Regenerate intentionally with
//
//	go test ./internal/experiments -run Golden -update
//
// The options are deliberately small (the goldens assert determinism and
// rendering, not paper-scale magnitudes) but identical to the shape tests'.

func goldenRunner() *Runner {
	return NewRunner(Options{
		Ops: 20_000, WSBytes: 96 << 20, CacheScale: 16, Seed: 3,
		Workloads: []workload.Spec{workload.GUPS(), workload.Redis()},
		Parallel:  2,
		Workers:   2, // sharded runs must reproduce the same goldens
	})
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file %s.\ngot:\n%s\nwant:\n%s", name, path, got, want)
	}
}

// TestGoldenLayoutFigures covers the simulation-free renders (VMA layout
// statistics): cheap enough to run always.
func TestGoldenLayoutFigures(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func() (string, error)
	}{
		{"table1", Table1},
		{"figure5", Figure5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.fn()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, out)
		})
	}
}

// TestGoldenSimFigures locks every simulation-backed figure and table the
// harness renders. One memoizing runner serves all of them, exactly as
// cmd/figures does.
func TestGoldenSimFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := goldenRunner()
	for _, tc := range []struct {
		name string
		fn   func(*Runner) (string, error)
	}{
		{"figure4", Figure4},
		{"figure14", Figure14},
		{"figure15", Figure15},
		{"figure17", Figure17},
		{"table5", Table5},
		{"table6", Table6},
		{"headtohead", HeadToHead},
		{"ablations", Ablations},
		{"tails", LatencyTails},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.fn(r)
			if err != nil {
				t.Fatal(err)
			}
			if out == "" {
				t.Fatal("empty render")
			}
			checkGolden(t, tc.name, out)
		})
	}
}

// TestGoldenParallelismInvariance re-renders one speedup figure with
// different runner-level concurrency (and the same sim worker/shard counts)
// and asserts identical bytes: scheduling must never leak into reported
// numbers. Sim-level worker invariance is covered by the determinism suite
// in internal/sim.
func TestGoldenParallelismInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	base := Options{
		Ops: 20_000, WSBytes: 96 << 20, CacheScale: 16, Seed: 3,
		Workloads: []workload.Spec{workload.GUPS()},
		Workers:   2,
	}
	wide := base
	wide.Parallel = 4
	fa, err := Figure14(NewRunner(base))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Figure14(NewRunner(wide))
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("Figure 14 depends on runner parallelism:\nA:\n%s\nB:\n%s", fa, fb)
	}
}
