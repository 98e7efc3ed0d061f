package sim

import (
	"fmt"
	"testing"

	"dmt/internal/core"
)

// The native-batch-walk guarantee (DESIGN.md §12): every design the registry
// knows, in every environment that assembles it, must hand the engine a
// walker with a native WalkBatch. The engine would silently route a walker
// without one through core.ScalarWalkBatch — correct, but paying per-op
// interface dispatch — so a design losing its batch entry point is a perf
// regression that no correctness test would ever catch. This test makes it
// loud instead: it walks the design registry (allDesigns, the same list
// ParseDesign validates against), so a future design registered without a
// WalkBatch fails here by name before it ever reaches a benchmark.

// TestAllDesignsHaveNativeBatchWalk asserts no registered (environment ×
// design) cell resolves to the ScalarWalkBatch fallback. Cells an
// environment doesn't support are expected to fail assembly — but only the
// cells detDesigns doesn't list, so a supported cell breaking its build is
// also caught.
func TestAllDesignsHaveNativeBatchWalk(t *testing.T) {
	wl := detWorkload(t)
	for _, env := range []Environment{EnvNative, EnvVirt, EnvNested} {
		supported := make(map[Design]bool)
		for _, d := range detDesigns(env) {
			supported[d] = true
		}
		for _, d := range allDesigns {
			t.Run(fmt.Sprintf("%v/%s", env, d), func(t *testing.T) {
				cfg := detConfig(env, d, nil)
				cfg.Workload = wl
				cfg.Ops = 8
				in, err := NewInstance(cfg)
				if err != nil {
					if supported[d] {
						t.Fatalf("supported cell failed to assemble: %v", err)
					}
					t.Skipf("environment does not assemble this design: %v", err)
				}
				if !supported[d] {
					t.Fatalf("cell assembles but detDesigns does not list it; add %v/%s to the determinism matrix", env, d)
				}
				if in.bw == nil {
					t.Fatalf("walker %q (%T) does not implement core.BatchWalker: the engine would fall back to ScalarWalkBatch, paying per-op interface dispatch — add a native WalkBatch (see DESIGN.md §12 checklist)",
						in.m.walker.Name(), in.m.walker)
				}
				if _, ok := in.m.walker.(core.BatchWalker); !ok {
					t.Fatalf("instance batch walker set but %T lacks WalkBatch", in.m.walker)
				}
			})
		}
	}
}
