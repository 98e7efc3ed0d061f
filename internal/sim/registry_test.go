package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestDesignRegistry checks the design table (designs.go) against what the
// engine actually assembles: for every environment × registered design,
// NewInstance succeeds exactly when Designs(env) lists the design, and
// otherwise fails with an error naming both, and a design's coverage label
// is set exactly when its results report a coverage. The per-environment counts
// are pinned to the cells bench/ and the evaluation run.
func TestDesignRegistry(t *testing.T) {
	wantCount := map[Environment]int{EnvNative: 7, EnvVirt: 10, EnvNested: 4}
	wl := detWorkload(t)
	for _, env := range []Environment{EnvNative, EnvVirt, EnvNested} {
		supported := make(map[Design]bool)
		for _, d := range Designs(env) {
			supported[d] = true
		}
		if len(supported) != wantCount[env] {
			t.Errorf("Designs(%v) lists %d designs, want %d", env, len(supported), wantCount[env])
		}
		for _, d := range allDesigns {
			t.Run(fmt.Sprintf("%v/%s", env, d), func(t *testing.T) {
				cfg := detConfig(env, d, nil)
				cfg.Workload = wl
				cfg.Ops = 8
				in, err := NewInstance(cfg)
				switch {
				case supported[d] && err != nil:
					t.Fatalf("supported cell failed to assemble: %v", err)
				case supported[d]:
					// The registry's coverage label names exactly the
					// designs whose results report a coverage.
					res, err := in.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := res.RegisterCoverage(); ok != (CoverageLabel(d) != "") {
						t.Fatalf("result reports coverage %v, but the coverage label is %q", ok, CoverageLabel(d))
					}
				case !supported[d] && err == nil:
					t.Fatal("cell assembles but Designs does not list it")
				case err != nil:
					// NewInstance's wrapping names the cell; the cause must too.
					cause := errors.Unwrap(err).Error()
					if !strings.Contains(cause, env.String()) || !strings.Contains(cause, string(d)) {
						t.Fatalf("error %q does not name both %v and %s", cause, env, d)
					}
				}
			})
		}
	}
	if n := len(Designs(Environment(7))); n != 0 {
		t.Errorf("Designs of an unknown environment lists %d designs", n)
	}
}
