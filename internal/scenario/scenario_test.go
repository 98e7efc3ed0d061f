package scenario

import (
	"reflect"
	"testing"
)

// shortCfg is the bounded aging configuration the suite runs: small enough
// for -race CI, long enough that every event class (boot, kill, mmap,
// munmap, touch, split, promote, migrate) fires many times per epoch and
// the node visits genuinely fragmented states.
func shortCfg(design string) Config {
	return Config{
		Design: design, Seed: 7, Events: 30_000, VMs: 24, Epochs: 5,
		Shards: 2, Workers: 2, MemMiB: 96, THP: true, Verify: true,
	}
}

// TestAgingRuns exercises both designs end to end with the conservation
// oracle armed and sanity-checks the sampled metrics: churn actually
// happened, the TEA managers allocated storage, and walk sampling filled
// the histograms.
func TestAgingRuns(t *testing.T) {
	for _, design := range []string{"dmt", "pvdmt"} {
		t.Run(design, func(t *testing.T) {
			r, err := Run(shortCfg(design))
			if err != nil {
				t.Fatal(err)
			}
			if r.OracleChecks == 0 {
				t.Fatal("oracle never ran")
			}
			var boots, kills, allocs uint64
			for _, row := range r.Rows {
				t.Logf("epoch %d: live=%d boots=%d kills=%d teaOK=%.3f defrag=%.2f frag9=%.2f cov=%.2f p99=%d",
					row.Epoch, row.LiveVMs, row.Boots, row.Kills, row.TEASuccessRate(),
					row.DefragCost(), row.Frag9(), row.RegisterCoverage(), row.Walk.Quantile(99))
				boots += row.Boots
				kills += row.Kills
				allocs += row.TEAAllocs
				if row.Walk.Count == 0 {
					t.Errorf("epoch %d: empty walk histogram", row.Epoch)
				}
				if cov := row.RegisterCoverage(); cov < 0 || cov > 1 {
					t.Errorf("epoch %d: register coverage %.3f out of range", row.Epoch, cov)
				}
			}
			if boots == 0 || kills == 0 {
				t.Fatalf("no churn: %d boots, %d kills", boots, kills)
			}
			if allocs == 0 {
				t.Fatal("no TEA allocations recorded")
			}
			t.Logf("oracle checks: %d", r.OracleChecks)
		})
	}
}

// TestWorkerInvariance is the metamorphic determinism check of the
// DESIGN.md §12 contract: Workers decides only which goroutine simulates
// which shard, so a 1-worker and an 8-worker run of the same configuration
// must produce bit-identical results. Run under -race this also shakes out
// any shared state between shard replicas.
func TestWorkerInvariance(t *testing.T) {
	for _, design := range []string{"dmt", "pvdmt"} {
		t.Run(design, func(t *testing.T) {
			narrow := shortCfg(design)
			narrow.Shards = 4
			narrow.Workers = 1
			wide := narrow
			wide.Workers = 8

			a, err := Run(narrow)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(wide)
			if err != nil {
				t.Fatal(err)
			}
			// Config records the requested worker count; everything else
			// must match exactly.
			if !reflect.DeepEqual(a.Rows, b.Rows) {
				t.Errorf("epoch rows differ between Workers=1 and Workers=8:\nA: %+v\nB: %+v", a.Rows, b.Rows)
			}
			if a.OracleChecks != b.OracleChecks {
				t.Errorf("oracle check counts differ: %d vs %d", a.OracleChecks, b.OracleChecks)
			}
		})
	}
}

// TestRepeatDeterminism pins the pure-function contract: the same Config
// run twice yields a deeply equal Result.
func TestRepeatDeterminism(t *testing.T) {
	for _, design := range []string{"dmt", "pvdmt"} {
		t.Run(design, func(t *testing.T) {
			cfg := shortCfg(design)
			cfg.Events = 15_000
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("repeat run diverged:\nA: %+v\nB: %+v", a, b)
			}
		})
	}
}

// TestSeedSensitivity guards against the opposite failure: a driver that
// ignores its seed would pass every determinism check while measuring
// nothing. Different seeds must produce different event streams.
func TestSeedSensitivity(t *testing.T) {
	cfg := shortCfg("dmt")
	cfg.Events = 10_000
	cfg.Verify = false
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Rows, b.Rows) {
		t.Error("seeds 7 and 8 produced identical epoch rows")
	}
}

// TestCheckEvery verifies the mid-epoch oracle cadence: CheckEvery adds
// conservation runs between epoch boundaries.
func TestCheckEvery(t *testing.T) {
	cfg := shortCfg("dmt")
	cfg.Events = 10_000
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckEvery = 500
	dense, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dense.OracleChecks <= base.OracleChecks {
		t.Errorf("CheckEvery=500 ran %d checks, epoch-only ran %d", dense.OracleChecks, base.OracleChecks)
	}
}

// TestUnknownDesign pins the config validation error.
func TestUnknownDesign(t *testing.T) {
	if _, err := Run(Config{Design: "shadow"}); err == nil {
		t.Fatal("expected error for unknown design")
	}
}
