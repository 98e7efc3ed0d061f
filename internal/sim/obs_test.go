package sim

import (
	"fmt"
	"testing"

	"dmt/internal/fault"
	"dmt/internal/shard"
)

// TestDeterminismObservability extends the metamorphic determinism suite to
// the observability surface: a run at Workers 1 must produce bit-identical
// merged histograms and counter snapshots to the same run at Workers 8, for
// every environment × design cell with and without a fault plan.
// requireEqualResults covers those Result fields through DeepEqual; the
// explicit checks below pin the internal consistency of what was captured.
func TestDeterminismObservability(t *testing.T) {
	wl := detWorkload(t)
	suite := fault.Suite(detOps)
	if len(suite) == 0 {
		t.Fatal("empty fault suite")
	}
	plans := []*fault.Plan{nil, &suite[0]}

	for _, env := range []Environment{EnvNative, EnvVirt, EnvNested} {
		for _, d := range Designs(env) {
			for _, plan := range plans {
				name := fmt.Sprintf("%v/%s", env, d)
				if plan != nil {
					name += "/" + plan.Name
				}
				t.Run(name, func(t *testing.T) {
					cfg := detConfig(env, d, plan)
					cfg.Workload = wl

					serialCfg := cfg
					serialCfg.Workers = 1
					serial, err := Run(serialCfg)
					if err != nil {
						t.Fatal(err)
					}
					parCfg := cfg
					parCfg.Workers = 8
					parallel, err := Run(parCfg)
					if err != nil {
						t.Fatal(err)
					}
					requireEqualResults(t, serial, parallel)

					if serial.WalkHist == nil || serial.WalkHist.Count != serial.Walks {
						t.Fatalf("WalkHist covers %v walks, Result has %d",
							serial.WalkHist, serial.Walks)
					}
					if got := serial.WalkPercentile(100); got != serial.WalkHist.Max {
						t.Fatalf("WalkPercentile(100) = %d, want max %d", got, serial.WalkHist.Max)
					}
					if got := serial.Counters["tlb.misses"]; got != serial.TLBMisses {
						t.Fatalf("counter tlb.misses = %d, Result.TLBMisses = %d", got, serial.TLBMisses)
					}
					if plan != nil {
						applied := serial.Counters["fault.applied"] + serial.Counters["fault.skipped"]
						if applied != uint64(serial.FaultsApplied+serial.FaultsSkipped) {
							t.Fatalf("fault counters = %d, Result reports %d",
								applied, serial.FaultsApplied+serial.FaultsSkipped)
						}
					}
				})
			}
		}
	}
}

// TestShardPlanClampsEndOfTrace pins the shardPlan rounding fix: an event
// anywhere in the full trace's op range — including the very last op and
// schedule entries placed at or past the end — must land inside the shard's
// [0, ops-1] range, so it fires while the shard is still walking rather
// than in the post-trace Drain.
func TestShardPlanClampsEndOfTrace(t *testing.T) {
	const totalOps = 10_000
	plan := fault.Plan{
		Name: "clamp",
		Seed: 3,
		Events: []fault.Event{
			{At: 0, Kind: fault.FlushCaches},
			{At: totalOps / 2, Kind: fault.FlushCaches},
			{At: totalOps - 1, Kind: fault.FlushCaches},
			{At: totalOps, Kind: fault.FlushCaches},      // at-end schedule entry
			{At: totalOps + 99, Kind: fault.FlushCaches}, // pathological overshoot
		},
	}
	for _, shards := range []int{2, 3, 4, 7, 8} {
		for s := 0; s < shards; s++ {
			ops := shard.Ops(totalOps, s, shards)
			sp := shardPlan(plan, totalOps, ops, s, shards)
			if len(sp.Events) != len(plan.Events) {
				t.Fatalf("shards=%d shard=%d: %d events, want %d",
					shards, s, len(sp.Events), len(plan.Events))
			}
			for i, e := range sp.Events {
				if e.At < 0 || e.At >= ops {
					t.Errorf("shards=%d shard=%d event %d: At=%d outside [0,%d)",
						shards, s, i, e.At, ops)
				}
			}
			if sp.Seed == plan.Seed {
				t.Errorf("shards=%d shard=%d: plan RNG not decorrelated", shards, s)
			}
		}
	}
}

// TestFaultEventCountsShardInvariant is the integration half of the clamp
// fix: every shard replays the full schedule against its own replica, so
// each shard must execute exactly len(plan.Events) events regardless of the
// shard count — none may slip past the end of a short shard's trace.
func TestFaultEventCountsShardInvariant(t *testing.T) {
	wl := detWorkload(t)
	suite := fault.Suite(detOps)
	plan := &suite[0]
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := Config{
			Env: EnvNative, Design: DesignDMT, THP: true, Workload: wl,
			WSBytes: detWS, Ops: detOps, Seed: 7,
			FaultPlan: plan, Shards: shards, Workers: 1,
		}
		parts, err := RunShards(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, p := range parts {
			got := p.Res.FaultsApplied + p.Res.FaultsSkipped
			if got != len(plan.Events) {
				t.Errorf("shards=%d shard=%d: executed %d events, want %d",
					shards, p.Shard, got, len(plan.Events))
			}
		}
	}
}
