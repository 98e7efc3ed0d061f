package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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
		cold.coldBuild = true
		want, err := Run(cold)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, want, got[i])
	}
}
