package main

import (
	"strings"
	"testing"
)

// goodFlags is a baseline that must validate; each case below perturbs it.
func goodFlags() cliFlags {
	return cliFlags{
		envName: "native", design: "vanilla", wlName: "GUPS",
		ops: 400_000, scale: 16, seed: 42, workers: 1,
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliFlags)
		wantErr string
	}{
		{"zero ops", func(f *cliFlags) { f.ops = 0 }, "-ops must be positive"},
		{"negative ops", func(f *cliFlags) { f.ops = -5 }, "-ops must be positive"},
		{"negative workers", func(f *cliFlags) { f.workers = -1 }, "-workers must be >= 0"},
		{"negative shards", func(f *cliFlags) { f.shards = -4 }, "-shards must be >= 0"},
		{"negative ws", func(f *cliFlags) { f.wsMiB = -1 }, "-ws must be >= 0"},
		{"zero scale", func(f *cliFlags) { f.scale = 0 }, "-scale must be >= 1"},
		{"unknown env", func(f *cliFlags) { f.envName = "bare-metal" }, "unknown environment"},
		{"unknown design", func(f *cliFlags) { f.design = "radix64" }, "unknown design"},
		{"unknown workload", func(f *cliFlags) { f.wlName = "STREAM" }, "workload"},
		{"workers under faults", func(f *cliFlags) { f.faults, f.workers = true, 2 }, "-faults runs every cell on one worker"},
		{"shards under faults", func(f *cliFlags) { f.faults, f.shards = true, 4 }, "-faults runs every cell as one shard"},
		{"counters under faults", func(f *cliFlags) { f.faults, f.counters = true, true }, "-faults has no single run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := goodFlags()
			tc.mutate(&f)
			if _, _, _, err := f.validate(); err == nil {
				t.Fatalf("validate() accepted %+v", f)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateScenario(t *testing.T) {
	f := goodFlags()
	designs, err := f.validateScenario("")
	if err != nil {
		t.Fatalf("validateScenario rejected the defaults: %v", err)
	}
	if len(designs) != 2 || designs[0] != "dmt" || designs[1] != "pvdmt" {
		t.Fatalf("default designs = %v, want [dmt pvdmt]", designs)
	}
	if designs, err = f.validateScenario("pvdmt"); err != nil || len(designs) != 1 || designs[0] != "pvdmt" {
		t.Fatalf("explicit design = %v, %v", designs, err)
	}
	for name, tc := range map[string]struct {
		mutate  func(*cliFlags)
		design  string
		wantErr string
	}{
		"zero ops":        {func(f *cliFlags) { f.ops = 0 }, "", "-ops must be positive"},
		"negative vms":    {func(f *cliFlags) { f.vms = -1 }, "", "-vms must be >= 0"},
		"negative epochs": {func(f *cliFlags) { f.epochs = -1 }, "", "-epochs must be >= 0"},
		"negative mem":    {func(f *cliFlags) { f.memMiB = -1 }, "", "-mem must be >= 0"},
		"sim-only design": {func(*cliFlags) {}, "vanilla", "-scenario supports -design dmt or pvdmt"},
		"counters":        {func(f *cliFlags) { f.counters = true }, "", "-scenario has no single run"},
	} {
		t.Run(name, func(t *testing.T) {
			f := goodFlags()
			tc.mutate(&f)
			if _, err := f.validateScenario(tc.design); err == nil {
				t.Fatalf("validateScenario accepted %+v", f)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	f := goodFlags()
	env, design, wl, err := f.validate()
	if err != nil {
		t.Fatalf("validate() rejected the defaults: %v", err)
	}
	if env.String() != "native" || string(design) != "vanilla" || wl.Name != "GUPS" {
		t.Fatalf("validate() parsed (%v, %s, %s)", env, design, wl.Name)
	}
	// Zero values that mean "use the default" must stay accepted.
	f.workers, f.shards, f.wsMiB = 0, 0, 0
	if _, _, _, err := f.validate(); err != nil {
		t.Fatalf("validate() rejected zero defaults: %v", err)
	}
	// -faults accepts the worker and shard defaults, given or not.
	f.faults = true
	for _, w := range []int{0, 1} {
		f.workers = w
		if _, _, _, err := f.validate(); err != nil {
			t.Fatalf("validate() rejected -faults -workers %d: %v", w, err)
		}
	}
	// Env aliases (sim.ParseEnvironment) parse here too.
	for _, alias := range []string{"virt", "virtualized", "nested"} {
		f := goodFlags()
		f.envName = alias
		if _, _, _, err := f.validate(); err != nil {
			t.Fatalf("validate() rejected env %q: %v", alias, err)
		}
	}
}
