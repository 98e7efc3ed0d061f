package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmt/internal/fault"
	"dmt/internal/obs"
)

// These tests pin the engine's cancellation contract (DESIGN.md §8): a
// cancelled RunCtx/RunShardsCtx returns context.Canceled within one step
// batch per running shard, a failing shard aborts its siblings instead of
// letting them burn the full simulation cost, the error reported is
// deterministically the lowest-shard real failure, and neither path leaks
// goroutines or poisons the prototype cache.

// poisonPlan returns a fault plan whose single event has an unknown kind,
// so the injector errors the moment it fires. Placed mid-trace it poisons
// every shard at roughly half its local op budget.
func poisonPlan(ops int) *fault.Plan {
	return &fault.Plan{Name: "poison", Seed: 9, Events: []fault.Event{
		{At: ops / 2, Kind: fault.Kind(99)},
	}}
}

func stepsRun(t *testing.T) uint64 {
	t.Helper()
	return obs.Default.Snapshot()["engine.steps_run"]
}

// TestRunShardsAbortOnFirstError is the regression for the worker pool
// running every remaining shard to completion after one shard errors: with
// 64 shards poisoned mid-trace, only the shards already in flight when the
// first failure lands may finish their (half) traces — everything else must
// abort before stepping — and the returned error is shard 0's own failure,
// not a later shard's or a sibling-abort echo.
func TestRunShardsAbortOnFirstError(t *testing.T) {
	const (
		ops     = 64_000
		shards  = 64
		workers = 8
	)
	wl := detWorkload(t)
	cfg := Config{
		Env: EnvNative, Design: DesignVanilla, THP: true, Workload: wl,
		WSBytes: detWS, Ops: ops, Seed: 7,
		Shards: shards, Workers: workers,
		FaultPlan: poisonPlan(ops),
	}
	before := stepsRun(t)
	parts, err := RunShards(cfg)
	executed := stepsRun(t) - before
	if err == nil {
		t.Fatalf("poisoned run succeeded with %d parts", len(parts))
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("sibling-abort echo masked the real failure: %v", err)
	}
	if !strings.Contains(err.Error(), "unknown fault kind") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 0:") {
		t.Fatalf("error is not the lowest-shard failure: %v", err)
	}
	// Without the abort, all 64 shards run to their mid-trace poison:
	// ~32_000 steps. With it, only the <= 8 in-flight shards do (~4_000).
	// The bound sits well under the no-abort cost with room for scheduling
	// slack.
	if limit := uint64(ops / 4); executed > limit {
		t.Fatalf("executed %d steps after first failure; want <= %d (no-abort cost is ~%d)",
			executed, limit, ops/2)
	}
	t.Logf("executed %d steps across aborted campaign (no-abort cost ~%d)", executed, ops/2)
}

// TestRunCtxCancelPromptlyMatrix cancels an in-flight run for every
// environment × design cell and requires context.Canceled back promptly,
// with no goroutines leaked by the shard pool.
func TestRunCtxCancelPromptlyMatrix(t *testing.T) {
	wl := detWorkload(t)
	goroutinesBefore := runtime.NumGoroutine()
	for _, env := range []Environment{EnvNative, EnvVirt, EnvNested} {
		for _, d := range Designs(env) {
			t.Run(fmt.Sprintf("%v/%s", env, d), func(t *testing.T) {
				cfg := Config{
					Env: env, Design: d, THP: true, Workload: wl,
					WSBytes: detWS, Ops: 50_000_000, Seed: 7,
					Shards: 8, Workers: 4,
				}
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(15 * time.Millisecond)
					cancel()
				}()
				start := time.Now()
				res, err := RunCtx(ctx, cfg)
				elapsed := time.Since(start)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got res=%v err=%v", res, err)
				}
				if res != nil {
					t.Fatalf("cancelled run returned a result")
				}
				// 50M ops would run for minutes; a prompt abort is bounded
				// by machine build time plus one step batch per shard.
				if elapsed > 30*time.Second {
					t.Fatalf("cancellation took %v", elapsed)
				}
			})
		}
	}
	waitForGoroutines(t, goroutinesBefore)
}

// TestRunCtxPreCancelled: an already-dead context never builds a machine.
func TestRunCtxPreCancelled(t *testing.T) {
	wl := detWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	misses := ReadBuildCacheStats().Misses
	_, err := RunCtx(ctx, Config{
		Env: EnvNative, Design: DesignDMT, THP: true, Workload: wl,
		WSBytes: detWS, Ops: 1_000_000, Seed: 11, Shards: 4, Workers: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := ReadBuildCacheStats().Misses; got != misses {
		t.Fatalf("pre-cancelled run still built a prototype (%d -> %d misses)", misses, got)
	}
}

// TestRunCtxDeadline: deadline expiry is reported as DeadlineExceeded.
func TestRunCtxDeadline(t *testing.T) {
	wl := detWorkload(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := RunCtx(ctx, Config{
		Env: EnvNative, Design: DesignVanilla, THP: true, Workload: wl,
		WSBytes: detWS, Ops: 50_000_000, Seed: 7, Shards: 4, Workers: 2,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestProtoCacheBuildErrorNotMemoized is the regression for sync.Once
// poisoning: a transient build failure must fail the runs that raced on it,
// then heal — the next identical lookup re-probes the build instead of
// replaying the memoized error forever.
func TestProtoCacheBuildErrorNotMemoized(t *testing.T) {
	ResetBuildCache()
	transient := errors.New("transient build failure")
	failing := true
	buildFailureHook = func(Config) error {
		if failing {
			return transient
		}
		return nil
	}
	defer func() {
		buildFailureHook = nil
		ResetBuildCache()
	}()

	wl := detWorkload(t)
	cfg := Config{
		Env: EnvNative, Design: DesignVanilla, THP: true, Workload: wl,
		WSBytes: detWS, Ops: 5_000, Seed: 7,
	}
	if _, err := Run(cfg); !errors.Is(err, transient) {
		t.Fatalf("want injected build failure, got %v", err)
	}
	// Still failing: the retry must re-probe (a fresh miss), not replay a
	// memoized error from a wedged entry.
	if _, err := Run(cfg); !errors.Is(err, transient) {
		t.Fatalf("want injected build failure on re-probe, got %v", err)
	}
	failing = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("identical run still failing after transient error healed: %v", err)
	}
	if res.Ops != 5_000 {
		t.Fatalf("healed run returned %d ops", res.Ops)
	}
	stats := ReadBuildCacheStats()
	if stats.Misses != 3 {
		t.Fatalf("want 3 build probes (2 failed + 1 healed), got %d misses / %d hits",
			stats.Misses, stats.Hits)
	}

	// The same holds one level down: a VM stage build that fails fails
	// every prototype build waiting on it, then heals on the next lookup.
	buildFailureHook = nil
	ResetBuildCache()
	release := make(chan struct{})
	var stageBuilds atomic.Int32
	stageFailureHook = func(stageKey) error {
		if stageBuilds.Add(1) == 1 {
			<-release // hold the build until every waiter has joined it
			return transient
		}
		return nil
	}
	defer func() { stageFailureHook = nil }()
	designs := []Design{DesignVanilla, DesignECPT, DesignFPT, DesignASAP}
	virtCfg := func(d Design) Config {
		c := cfg
		c.Env, c.Design = EnvVirt, d
		return c
	}
	errs := make([]error, len(designs))
	var wg sync.WaitGroup
	for i, d := range designs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Run(virtCfg(d))
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for ReadBuildCacheStats().StageHits < uint64(len(designs)-1) {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never joined the stage build: %+v", ReadBuildCacheStats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, transient) {
			t.Fatalf("%s: want the failed stage build's error, got %v", designs[i], err)
		}
	}
	if _, err := Run(virtCfg(DesignVanilla)); err != nil {
		t.Fatalf("run still failing after the stage build healed: %v", err)
	}
	if stats := ReadBuildCacheStats(); stats.StageMisses != 2 {
		t.Fatalf("want 2 stage builds (1 failed + 1 healed), got %+v", stats)
	}
}

// TestProtoCacheStageBuiltOnce: designs of one shape racing on a cold
// cache build their shared VM stage exactly once, and each still matches
// its cold build bit for bit.
func TestProtoCacheStageBuiltOnce(t *testing.T) {
	ResetBuildCache()
	defer ResetBuildCache()
	wl := detWorkload(t)
	designs := []Design{DesignVanilla, DesignShadow, DesignECPT, DesignFPT, DesignAgile, DesignASAP}
	cfgFor := func(d Design) Config {
		cfg := detConfig(EnvVirt, d, nil)
		cfg.Workload = wl
		cfg.Workers = 2
		return cfg
	}
	got := make([]*Result, len(designs))
	errs := make([]error, len(designs))
	var wg sync.WaitGroup
	for i, d := range designs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(cfgFor(d))
		}()
	}
	wg.Wait()
	stats := ReadBuildCacheStats()
	if stats.StageMisses != 1 || stats.StageHits != uint64(len(designs)-1) {
		t.Fatalf("want 1 stage build and %d stage clones, got %+v", len(designs)-1, stats)
	}
	for i, d := range designs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", d, errs[i])
		}
		cold := cfgFor(d)
		cold.ColdBuild = true
		want, err := Run(cold)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, want, got[i])
	}
}

// TestRunCtxCancelDoesNotPoisonCache: cancelling a running job leaves the
// prototype cache fully usable — the machine built for the cancelled run
// serves the next identical configuration as a clone.
func TestRunCtxCancelDoesNotPoisonCache(t *testing.T) {
	ResetBuildCache()
	defer ResetBuildCache()
	wl := detWorkload(t)
	cfg := Config{
		Env: EnvNative, Design: DesignDMT, THP: true, Workload: wl,
		WSBytes: detWS, Ops: 50_000_000, Seed: 7, Shards: 4, Workers: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	if _, err := RunCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	cancel()

	cfg.Ops = 5_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("post-cancel run failed: %v", err)
	}
	if res.Ops != 5_000 {
		t.Fatalf("post-cancel run returned %d ops", res.Ops)
	}
	if stats := ReadBuildCacheStats(); stats.Hits == 0 {
		t.Fatalf("post-cancel run rebuilt from scratch: %+v (cancelled run's prototype was lost)", stats)
	}
}

// waitForGoroutines retries until the goroutine count returns to (near) the
// baseline; shard workers exit synchronously before RunShardsCtx returns,
// so only runtime bookkeeping should ever lag.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, now)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
