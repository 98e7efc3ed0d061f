package main

import (
	"strings"
	"testing"
)

func goodFlags() cliFlags {
	return cliFlags{ops: 400_000, scale: 16, parallel: 1}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	f := goodFlags()
	wls, err := f.validate()
	if err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if wls != nil {
		t.Fatalf("empty -workloads should map to nil (all seven), got %d", len(wls))
	}
	f.wlNames = "GUPS, Redis"
	wls, err = f.validate()
	if err != nil {
		t.Fatalf("workload subset rejected: %v", err)
	}
	if len(wls) != 2 || wls[0].Name != "GUPS" || wls[1].Name != "Redis" {
		t.Fatalf("workload subset mis-parsed: %+v", wls)
	}
}

func TestValidateRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*cliFlags)
		wantErr string
	}{
		{"zero ops", func(f *cliFlags) { f.ops = 0 }, "-ops must be positive"},
		{"negative ops", func(f *cliFlags) { f.ops = -1 }, "-ops must be positive"},
		{"negative ws", func(f *cliFlags) { f.wsMiB = -4 }, "-ws must be >= 0"},
		{"zero scale", func(f *cliFlags) { f.scale = 0 }, "-scale must be >= 1"},
		{"negative scale", func(f *cliFlags) { f.scale = -2 }, "-scale must be >= 1"},
		{"negative parallel", func(f *cliFlags) { f.parallel = -1 }, "-parallel must be >= 0"},
		{"unknown figure", func(f *cliFlags) { f.fig = 99 }, "-fig must be one of"},
		{"unknown table", func(f *cliFlags) { f.table = 2 }, "-table must be one of"},
		{"unknown workload", func(f *cliFlags) { f.wlNames = "NoSuchBench" }, "NoSuchBench"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := goodFlags()
			tc.mutate(&f)
			if _, err := f.validate(); err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func jobNames(f cliFlags) []string {
	var names []string
	for _, j := range selectJobs(f) {
		names = append(names, j.name)
	}
	return names
}

// TestJobSelectionMatrix pins the -fig/-table/default/-all selection
// semantics: explicit flags pick exactly their job, no selection at all
// (or -all) picks every job.
func TestJobSelectionMatrix(t *testing.T) {
	allNames := jobNames(cliFlags{all: true})
	if len(allNames) != len(jobList(cliFlags{})) {
		t.Fatalf("-all selected %d of %d jobs", len(allNames), len(jobList(cliFlags{})))
	}

	for _, tc := range []struct {
		name   string
		flags  cliFlags
		expect []string
	}{
		{"default runs everything", cliFlags{}, allNames},
		{"-all runs everything", cliFlags{all: true}, allNames},
		{"-fig 14", cliFlags{fig: 14}, []string{"Figure 14"}},
		{"-fig 5", cliFlags{fig: 5}, []string{"Figure 5"}},
		{"-table 1", cliFlags{table: 1}, []string{"Table 1"}},
		{"-table 5", cliFlags{table: 5}, []string{"Table 5"}},
		{"-fig 4 -table 6", cliFlags{fig: 4, table: 6}, []string{"Figure 4", "Table 6"}},
		{"-overheads", cliFlags{overheads: true}, []string{"§6.3 overheads", "Ablations"}},
		{"-tails", cliFlags{tails: true}, []string{"Walk-latency tails"}},
		{"-headtohead", cliFlags{headToHead: true},
			[]string{"Head-to-head: DMT vs Victima vs Utopia"}},
		{"-all overrides -fig", cliFlags{all: true, fig: 14}, allNames},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := jobNames(tc.flags)
			if len(got) != len(tc.expect) {
				t.Fatalf("selected %v, want %v", got, tc.expect)
			}
			for i := range got {
				if got[i] != tc.expect[i] {
					t.Fatalf("selected %v, want %v", got, tc.expect)
				}
			}
		})
	}
}
