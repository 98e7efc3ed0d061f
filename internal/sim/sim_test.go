package sim

import (
	"fmt"
	"strings"
	"testing"

	"dmt/internal/core"
	"dmt/internal/fault"
	"dmt/internal/mem"
	"dmt/internal/workload"
)

// small returns a quick test configuration.
func small(env Environment, design Design, thp bool, wl workload.Spec) Config {
	return Config{
		Env: env, Design: design, THP: thp, Workload: wl,
		WSBytes: 96 << 20, Ops: 30_000, Seed: 7, CacheScale: 16,
	}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNativeDesignMatrix(t *testing.T) {
	wl := workload.GUPS()
	for _, d := range []Design{DesignVanilla, DesignDMT, DesignECPT, DesignFPT, DesignASAP} {
		d := d
		t.Run(string(d), func(t *testing.T) {
			r := run(t, small(EnvNative, d, false, wl))
			if r.TLBMisses == 0 {
				t.Fatal("no TLB misses: trace does not stress translation")
			}
			if r.AvgWalkCycles() <= 0 {
				t.Fatal("no walk cycles recorded")
			}
		})
	}
}

func TestVirtDesignMatrix(t *testing.T) {
	wl := workload.GUPS()
	for _, d := range []Design{DesignVanilla, DesignShadow, DesignDMT, DesignPvDMT, DesignECPT, DesignFPT, DesignAgile, DesignASAP} {
		d := d
		t.Run(string(d), func(t *testing.T) {
			r := run(t, small(EnvVirt, d, false, wl))
			if r.TLBMisses == 0 || r.AvgWalkCycles() <= 0 {
				t.Fatalf("degenerate run: misses=%d avg=%.1f", r.TLBMisses, r.AvgWalkCycles())
			}
		})
	}
}

func TestNestedDesigns(t *testing.T) {
	wl := workload.Canneal()
	for _, d := range []Design{DesignVanilla, DesignPvDMT} {
		r := run(t, small(EnvNested, d, false, wl))
		if r.TLBMisses == 0 || r.AvgWalkCycles() <= 0 {
			t.Fatalf("%s: degenerate nested run", d)
		}
	}
}

func TestSequentialRefCountsMatchTable6(t *testing.T) {
	wl := workload.GUPS()
	cases := []struct {
		env  Environment
		d    Design
		want float64
		tol  float64
	}{
		{EnvNative, DesignDMT, 1, 0.05},
		{EnvNative, DesignECPT, 1, 0.01},
		{EnvNative, DesignFPT, 2, 0.01},
		{EnvVirt, DesignDMT, 3, 0.1},
		{EnvVirt, DesignPvDMT, 2, 0.05},
		{EnvVirt, DesignECPT, 3, 0.01},
		{EnvVirt, DesignFPT, 8, 0.01},
		{EnvNested, DesignPvDMT, 3, 0.05},
	}
	for _, c := range cases {
		r := run(t, small(c.env, c.d, false, wl))
		if got := r.AvgSeqRefs(); got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%v/%v: avg sequential refs %.3f, want %.1f (Table 6)", c.env, c.d, got, c.want)
		}
	}
}

func TestDMTCoverageHigh(t *testing.T) {
	for _, wl := range []workload.Spec{workload.GUPS(), workload.Redis(), workload.Memcached()} {
		r := run(t, small(EnvNative, DesignDMT, false, wl))
		if r.Coverage < 0.99 {
			t.Errorf("%s: DMT coverage %.4f < 0.99 (§6.1)", wl.Name, r.Coverage)
		}
	}
}

func TestPvDMTBeatsBaselineWalkLatency(t *testing.T) {
	wl := workload.GUPS()
	base := run(t, small(EnvVirt, DesignVanilla, false, wl))
	pv := run(t, small(EnvVirt, DesignPvDMT, false, wl))
	if pv.AvgWalkCycles() >= base.AvgWalkCycles() {
		t.Fatalf("pvDMT avg walk %.1f not faster than nested paging %.1f",
			pv.AvgWalkCycles(), base.AvgWalkCycles())
	}
	speedup := base.AvgWalkCycles() / pv.AvgWalkCycles()
	if speedup < 1.1 {
		t.Fatalf("pvDMT walk speedup %.2fx implausibly low", speedup)
	}
}

func TestNativeDMTBeatsVanilla(t *testing.T) {
	wl := workload.GUPS()
	base := run(t, small(EnvNative, DesignVanilla, false, wl))
	d := run(t, small(EnvNative, DesignDMT, false, wl))
	if d.AvgWalkCycles() >= base.AvgWalkCycles() {
		t.Fatalf("DMT avg walk %.1f not faster than radix %.1f", d.AvgWalkCycles(), base.AvgWalkCycles())
	}
}

func TestDeterminism(t *testing.T) {
	cfg := small(EnvVirt, DesignPvDMT, false, workload.GUPS())
	a := run(t, cfg)
	b := run(t, cfg)
	if a.WalkCycles != b.WalkCycles || a.TLBMisses != b.TLBMisses || a.DataCycles != b.DataCycles {
		t.Fatal("identical configs produced different measurements")
	}
}

func TestBreakdownStepsForNestedWalk(t *testing.T) {
	r := run(t, small(EnvVirt, DesignVanilla, false, workload.GUPS()))
	bd := r.Breakdown()
	if len(bd) == 0 {
		t.Fatal("no breakdown recorded")
	}
	// The 24 architectural steps must appear (possibly with low counts
	// for PWC-skipped ones, but the leaf steps must dominate).
	labels := map[string]bool{}
	for _, s := range bd {
		labels[s.Label] = true
	}
	for _, must := range []string{"05 gL4", "20 gL1", "24 hL1"} {
		if !labels[must] {
			t.Errorf("breakdown missing step %q; have %v", must, labels)
		}
	}
}

func TestTHPRunsAndReducesMisses(t *testing.T) {
	wl := workload.GUPS()
	base := run(t, small(EnvNative, DesignVanilla, false, wl))
	thp := run(t, small(EnvNative, DesignVanilla, true, wl))
	if thp.MissRatio() >= base.MissRatio() {
		t.Fatalf("THP miss ratio %.4f not below 4K %.4f", thp.MissRatio(), base.MissRatio())
	}
}

func TestShadowCheaperWalkButExits(t *testing.T) {
	wl := workload.GUPS()
	sh := run(t, small(EnvVirt, DesignShadow, false, wl))
	nested := run(t, small(EnvVirt, DesignVanilla, false, wl))
	if sh.AvgSeqRefs() >= nested.AvgSeqRefs() {
		t.Fatalf("shadow refs %.1f not below nested %.1f", sh.AvgSeqRefs(), nested.AvgSeqRefs())
	}
	if sh.ShadowSyncs == 0 {
		t.Fatal("shadow paging recorded no sync work")
	}
}

func TestAblationKnobs(t *testing.T) {
	wl := workload.Redis()
	for _, c := range []struct {
		env Environment
		d   Design
	}{
		{EnvNative, DesignDMT},
		{EnvVirt, DesignPvDMT},
		{EnvNested, DesignPvDMT},
	} {
		t.Run(fmt.Sprintf("%v/%s", c.env, c.d), func(t *testing.T) {
			// One register covers only the largest mapping: coverage must
			// drop far below the default-16 run.
			cfg := small(c.env, c.d, false, wl)
			cfg.TEARegisters = 1
			cfg.TEAMergeThreshold = -1
			one := run(t, cfg)
			full := run(t, small(c.env, c.d, false, wl))
			if one.Coverage >= 0.5 || full.Coverage < 0.99 {
				t.Fatalf("register knob ineffective: 1-reg coverage %.2f, 16-reg %.2f", one.Coverage, full.Coverage)
			}
		})
	}
	// Fragmentation forces splits and costs coverage.
	fcfg := small(EnvNative, DesignDMT, false, workload.GUPS())
	fcfg.FragmentTarget = 0.99
	frag := run(t, fcfg)
	if frag.Coverage >= 0.9 {
		t.Fatalf("fragmentation knob ineffective: coverage %.2f", frag.Coverage)
	}
}

// TestFragmentTargetNativeOnly pins the clean failure of a knob only the
// native build reads: a virtualized or nested run with FragmentTarget set
// is refused rather than silently built unfragmented.
func TestFragmentTargetNativeOnly(t *testing.T) {
	for _, env := range []Environment{EnvVirt, EnvNested} {
		cfg := small(env, DesignPvDMT, false, workload.GUPS())
		cfg.FragmentTarget = 0.5
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "FragmentTarget") {
			t.Fatalf("%v: Run with FragmentTarget = %v, want an error naming FragmentTarget", env, err)
		}
	}
}

// TestCanonicalKeyStable pins the key text byte for byte, requires it to
// be normalization-invariant and blind to Workers, and requires every one
// of the ten fields it renders to change it.
func TestCanonicalKeyStable(t *testing.T) {
	gups, err := workload.ByName("GUPS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Env: EnvNative, Design: DesignDMT, THP: true, Workload: gups,
		WSBytes: 24 << 20, Ops: 20_000, Seed: 3, Shards: 2}
	key := CanonicalKey(cfg)
	want := "v1 env=native design=dmt thp=true wl=GUPS ws=25165824 scale=16 ops=20000 seed=3 shards=2 verify=false"
	if key != want {
		t.Fatalf("CanonicalKey = %q, want %q", key, want)
	}
	if CanonicalKey(cfg.Normalized()) != key {
		t.Fatal("CanonicalKey must be normalization-invariant")
	}
	workers := cfg
	workers.Workers = 8
	if CanonicalKey(workers) != key {
		t.Fatal("CanonicalKey must ignore Workers (scheduling only)")
	}

	flips := []struct {
		field string
		flip  func(*Config)
	}{
		{"env", func(c *Config) { c.Env = EnvVirt }},
		{"design", func(c *Config) { c.Design = DesignVanilla }},
		{"thp", func(c *Config) { c.THP = false }},
		{"workload", func(c *Config) { c.Workload.Name = "Redis" }},
		{"ws", func(c *Config) { c.WSBytes = 32 << 20 }},
		{"scale", func(c *Config) { c.CacheScale = 4 }},
		{"ops", func(c *Config) { c.Ops = 30_000 }},
		{"seed", func(c *Config) { c.Seed = 4 }},
		{"shards", func(c *Config) { c.Shards = 4 }},
		{"verify", func(c *Config) { c.Verify = true }},
	}
	for _, f := range flips {
		c := cfg
		f.flip(&c)
		if CanonicalKey(c) == key {
			t.Errorf("CanonicalKey ignores %s: %q", f.field, key)
		}
	}
}

// fallbackOnly stands in for a DMT-family walker whose fast path never
// serves: every walk goes to the environment's full page walk.
type fallbackOnly struct {
	core.Walker // the design's walker, for Name
	base        core.Walker
}

func (w fallbackOnly) Walk(va mem.VAddr) core.WalkOutcome {
	return core.WalkFallback(w.base, va, core.WalkOutcome{})
}

// TestOracleFallbackSurvivesWrapper wraps each DMT-family cell's walker in
// a pass-through that always falls back. The fast-path reference comes
// from the design entry's page tables, not from the walker's type, so the
// oracle stays armed behind the wrapper and Finish reports the fallbacks
// the fast path could have served.
func TestOracleFallbackSurvivesWrapper(t *testing.T) {
	for _, c := range []struct {
		env Environment
		d   Design
	}{{EnvNative, DesignDMT}, {EnvVirt, DesignDMT}, {EnvVirt, DesignPvDMT}, {EnvNested, DesignPvDMT}} {
		t.Run(fmt.Sprintf("%v/%s", c.env, c.d), func(t *testing.T) {
			cfg := detConfig(c.env, c.d, nil)
			cfg.Workload = detWorkload(t)
			cfg.Shards = 1
			cfg = cfg.withDefaults()
			p, err := buildPrototype(cfg, buildVMStage)
			if err != nil {
				t.Fatal(err)
			}
			spec := *p.spec
			spec.wire = func(w *wiring) core.Walker {
				return fallbackOnly{Walker: p.spec.wire(w), base: w.base}
			}
			m, err := wireMachine(cfg, &spec, p.parts)
			if err != nil {
				t.Fatal(err)
			}
			in, err := assembleInstance(cfg, cfg, m, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for in.op < in.Ops() {
				if _, err := in.StepBatch(BatchOps); err != nil {
					t.Fatal(err)
				}
			}
			_, err = in.Finish()
			if err == nil || !strings.Contains(err.Error(), " fallback: ") {
				t.Fatalf("Finish = %v, want fallback mismatches", err)
			}
		})
	}
}

// TestOracleLeafSlotUnderMigration runs virtualized pvDMT on Memcached
// through a migration storm with the oracle on. Migration moves page-table
// nodes while registers still cover their VMAs, so some walks reach a leaf
// node outside its TEA slot. The fast path must fall back there, and the
// oracle's reference (check.TEALevel.Serves) must say so through its
// leaf-slot clause; without that clause this cell reports mismatches.
func TestOracleLeafSlotUnderMigration(t *testing.T) {
	mc, err := workload.ByName("Memcached")
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.MigrationStorm(10_000)
	res := run(t, Config{Env: EnvVirt, Design: DesignPvDMT, THP: true, Workload: mc,
		Ops: 10_000, Seed: 42, CacheScale: 16, FaultPlan: &plan, Verify: true})
	if res.Checked == 0 || res.Mismatches != 0 {
		t.Fatalf("checked %d translations, %d mismatches; want some and none", res.Checked, res.Mismatches)
	}
	if cov, _ := res.RegisterCoverage(); cov == 0 || cov == 1 {
		t.Fatalf("coverage %.4f: want both fast-path hits and fallbacks", cov)
	}
}
