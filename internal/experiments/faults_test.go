package experiments

import (
	"strings"
	"testing"

	"dmt/internal/workload"
)

func TestFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(Options{
		Ops: 4_000, WSBytes: 24 << 20, CacheScale: 1, Seed: 42,
		Workloads: []workload.Spec{workload.GUPS()},
	})
	s, err := FaultCampaign(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"graceful degradation", "chaos", "pvdmt", "nested",
		"0 mismatches", "Walk infl."} {
		if !strings.Contains(s, frag) {
			t.Errorf("campaign output missing %q", frag)
		}
	}
	// Deterministic for a fixed seed: the degradation table is the
	// artifact the docs quote, so it must be bit-for-bit repeatable.
	s2, err := FaultCampaign(NewRunner(Options{
		Ops: 4_000, WSBytes: 24 << 20, CacheScale: 1, Seed: 42,
		Workloads: []workload.Spec{workload.GUPS()},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if s != s2 {
		t.Error("fault campaign output is not deterministic")
	}
}
