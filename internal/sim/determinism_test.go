package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dmt/internal/fault"
	"dmt/internal/workload"
)

// The sharded-determinism contract (DESIGN.md): a run's Result is a pure
// function of (Config minus Workers) — the worker count schedules shards
// onto goroutines but never changes what they compute. These tests pin
// Shards and compare serial against maximally-parallel execution for every
// (environment × design) cell, with and without a fault plan, under the
// race detector in CI.

const (
	detOps = 2000
	detWS  = 24 << 20
)

func detWorkload(t testing.TB) workload.Spec {
	t.Helper()
	wl, err := workload.ByName("GUPS")
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// requireEqualResults asserts two results are identical in every measured
// field (Config aside, which legitimately records the differing Workers).
func requireEqualResults(t *testing.T, a, b *Result) {
	t.Helper()
	ac, bc := *a, *b
	ac.Config, bc.Config = Config{}, Config{}
	if reflect.DeepEqual(&ac, &bc) {
		return
	}
	if !reflect.DeepEqual(a.Breakdown(), b.Breakdown()) {
		t.Errorf("breakdowns differ:\nA: %+v\nB: %+v", a.Breakdown(), b.Breakdown())
	}
	ac.breakdown, bc.breakdown = nil, nil
	t.Fatalf("results differ:\nA: %+v\nB: %+v", ac, bc)
}

func detConfig(env Environment, d Design, plan *fault.Plan) Config {
	return Config{
		Env: env, Design: d, THP: true,
		WSBytes: detWS, Ops: detOps, Seed: 7,
		FaultPlan: plan, Verify: true,
		Shards: 4, // pinned: results depend on Shards, never on Workers
	}
}

// TestDeterminismMatrix is the metamorphic suite: for every cell, a run at
// Workers 1 must be bit-identical to the same run at Workers 8.
func TestDeterminismMatrix(t *testing.T) {
	wl := detWorkload(t)
	var plans []*fault.Plan
	plans = append(plans, nil)
	suite := fault.Suite(detOps)
	if len(suite) == 0 {
		t.Fatal("empty fault suite")
	}
	churn := &suite[0]
	plans = append(plans, churn)

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
					if serial.Ops != detOps {
						t.Fatalf("merged Ops = %d, want %d", serial.Ops, detOps)
					}
					if serial.Walks == 0 || serial.TLBMisses == 0 {
						t.Fatalf("degenerate run: %d walks, %d misses", serial.Walks, serial.TLBMisses)
					}
					if cfg.Verify && serial.Checked == 0 {
						t.Fatal("verification ran zero checks")
					}
					if plan != nil && serial.FaultsApplied+serial.FaultsSkipped == 0 {
						t.Fatal("no fault events executed")
					}
				})
			}
		}
	}
}

// TestDeterminismSingleShardMatchesLegacy pins the other edge of the
// contract: Shards 1 under any worker count is the classic serial engine.
func TestDeterminismSingleShardMatchesLegacy(t *testing.T) {
	wl := detWorkload(t)
	base := Config{
		Env: EnvNative, Design: DesignDMT, THP: true, Workload: wl,
		WSBytes: detWS, Ops: detOps, Seed: 7, Verify: true, Shards: 1,
	}
	a := base
	a.Workers = 1
	b := base
	b.Workers = 8
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, ra, rb)
}

// TestDeterminismFailingRun: when every shard fails, the run reports the
// same error at Workers 1 and Workers 8 — the lowest shard's, annotated
// with its index.
func TestDeterminismFailingRun(t *testing.T) {
	const ops = 16_000
	cfg := Config{
		Env: EnvNative, Design: DesignVanilla, THP: true, Workload: detWorkload(t),
		WSBytes: detWS, Ops: ops, Seed: 7, Shards: 16,
		// An unknown kind fails the injector when the event fires, halfway
		// through each shard's trace.
		FaultPlan: &fault.Plan{Name: "poison", Seed: 9, Events: []fault.Event{
			{At: ops / 2, Kind: fault.Kind(99)},
		}},
	}
	var msgs []string
	for _, workers := range []int{1, 8} {
		cfg.Workers = workers
		res, err := Run(cfg)
		if err == nil {
			t.Fatalf("Workers %d: poisoned run succeeded (%d ops)", workers, res.Ops)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error text depends on Workers:\n  1: %s\n  8: %s", msgs[0], msgs[1])
	}
	if !strings.HasPrefix(msgs[0], "shard 0: ") || !strings.Contains(msgs[0], "unknown fault kind") {
		t.Fatalf("not shard 0's injector failure: %s", msgs[0])
	}
}

// TestMergePermutationProperty: folding shard results in any order yields
// the same aggregate as the in-order merge — the merge is commutative.
func TestMergePermutationProperty(t *testing.T) {
	wl := detWorkload(t)
	suite := fault.Suite(detOps)
	cfg := Config{
		Env: EnvVirt, Design: DesignPvDMT, THP: true, Workload: wl,
		WSBytes: detWS, Ops: detOps, Seed: 9, Verify: true,
		FaultPlan: &suite[0], Shards: 5, Workers: 1,
	}
	parts, err := RunShards(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MergeShards(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
		{1, 4, 0, 3, 2},
		{3, 2, 4, 0, 1},
	}
	for _, p := range perms {
		shuffled := make([]ShardResult, len(p))
		for i, idx := range p {
			shuffled[i] = parts[idx]
		}
		got, err := MergeShards(cfg, shuffled)
		if err != nil {
			t.Fatalf("perm %v: %v", p, err)
		}
		requireEqualResults(t, want, got)
	}

	if _, err := MergeShards(cfg, nil); err == nil {
		t.Fatal("merge of zero shards should fail")
	}
	dup := []ShardResult{parts[0], parts[0]}
	if _, err := MergeShards(cfg, dup); err == nil {
		t.Fatal("merge of duplicate shards should fail")
	}
}
