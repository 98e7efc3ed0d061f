// Command figures regenerates the tables and figures of the paper's
// evaluation (DESIGN.md §4 maps each to its experiment).
//
// Usage:
//
//	figures [-fig 4|5|14|15|16|17] [-table 1|5|6] [-overheads] [-tails]
//	        [-headtohead] [-all] [-ops N] [-ws MiB] [-scale N]
//	        [-workloads Redis,GUPS,...] [-parallel N]
//
// With no selection flags, -all is assumed. Larger -ops / -ws sharpen the
// numbers at the cost of runtime; the defaults regenerate every experiment
// in a few minutes.
//
// Flag values are validated up front: nonsensical sizing (-ops 0,
// -scale 0, a negative -parallel, ...) and unknown -fig/-table numbers
// exit with status 2 and a one-line message instead of dividing a cache
// geometry by zero mid-run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dmt/internal/experiments"
	"dmt/internal/workload"
)

// cliFlags collects every user-supplied value so validation and job
// selection are pure, testable functions rather than scattered
// log.Fatalf calls (the same pattern as cmd/dmtsim).
type cliFlags struct {
	fig        int
	table      int
	overheads  bool
	tails      bool
	headToHead bool
	all        bool
	ops        int
	wsMiB      int
	scale      int
	wlNames    string
	parallel   int
	quiet      bool
}

// validFigs / validTables are the renderable selections; anything else is
// a typo the run should reject rather than silently render nothing.
var (
	validFigs   = map[int]bool{4: true, 5: true, 14: true, 15: true, 16: true, 17: true}
	validTables = map[int]bool{1: true, 5: true, 6: true}
)

// validate rejects nonsensical sizing and unknown selections up front and
// returns the parsed workload subset (nil = all seven); main maps any
// error to exit status 2.
func (f cliFlags) validate() ([]workload.Spec, error) {
	switch {
	case f.ops <= 0:
		return nil, fmt.Errorf("-ops must be positive (got %d)", f.ops)
	case f.wsMiB < 0:
		return nil, fmt.Errorf("-ws must be >= 0 (got %d; 0 means the scaled defaults)", f.wsMiB)
	case f.scale < 1:
		return nil, fmt.Errorf("-scale must be >= 1 (got %d)", f.scale)
	case f.parallel < 0:
		return nil, fmt.Errorf("-parallel must be >= 0 (got %d; 0 means sequential)", f.parallel)
	case f.fig != 0 && !validFigs[f.fig]:
		return nil, fmt.Errorf("-fig must be one of 4, 5, 14, 15, 16, 17 (got %d)", f.fig)
	case f.table != 0 && !validTables[f.table]:
		return nil, fmt.Errorf("-table must be one of 1, 5, 6 (got %d)", f.table)
	}
	var wls []workload.Spec
	if f.wlNames != "" {
		for _, name := range strings.Split(f.wlNames, ",") {
			s, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			wls = append(wls, s)
		}
	}
	return wls, nil
}

type job struct {
	name string
	run  func(*experiments.Runner) (string, error)
	sel  bool
}

func jobList(f cliFlags) []job {
	return []job{
		{"Table 1", func(*experiments.Runner) (string, error) { return experiments.Table1() }, f.table == 1},
		{"Figure 4", experiments.Figure4, f.fig == 4},
		{"Figure 5", func(*experiments.Runner) (string, error) { return experiments.Figure5() }, f.fig == 5},
		{"Figure 14", experiments.Figure14, f.fig == 14},
		{"Figure 15", experiments.Figure15, f.fig == 15},
		{"Figure 16", experiments.Figure16, f.fig == 16},
		{"Figure 17", experiments.Figure17, f.fig == 17},
		{"Table 5", experiments.Table5, f.table == 5},
		{"Table 6", experiments.Table6, f.table == 6},
		{"§6.3 overheads", experiments.Overheads, f.overheads},
		{"Ablations", experiments.Ablations, f.overheads},
		{"Walk-latency tails", experiments.LatencyTails, f.tails},
		{"Head-to-head: DMT vs Victima vs Utopia", experiments.HeadToHead, f.headToHead},
	}
}

// selectJobs is the one selection predicate: explicit flags pick their
// jobs, -all (or no selection at all) picks everything.
func selectJobs(f cliFlags) []job {
	nothing := f.fig == 0 && f.table == 0 &&
		!f.overheads && !f.tails && !f.headToHead
	want := func(selected bool) bool { return f.all || nothing || selected }
	var out []job
	for _, j := range jobList(f) {
		if !want(j.sel) {
			continue
		}
		out = append(out, j)
	}
	return out
}

func main() {
	var f cliFlags
	flag.IntVar(&f.fig, "fig", 0, "figure to regenerate (4, 5, 14, 15, 16, 17)")
	flag.IntVar(&f.table, "table", 0, "table to regenerate (1, 5, 6)")
	flag.BoolVar(&f.overheads, "overheads", false, "run the §6.3 overhead analyses and the design ablations")
	flag.BoolVar(&f.tails, "tails", false, "render the walk-latency tail table (p50/p90/p99/max)")
	flag.BoolVar(&f.headToHead, "headtohead", false, "render the DMT vs Victima vs Utopia comparison table")
	flag.BoolVar(&f.all, "all", false, "regenerate everything")
	flag.IntVar(&f.ops, "ops", 400_000, "trace length per configuration")
	flag.IntVar(&f.wsMiB, "ws", 0, "working-set override in MiB (0 = per-workload scaled defaults)")
	flag.IntVar(&f.scale, "scale", 16, "cache/TLB capacity scaling divisor")
	flag.StringVar(&f.wlNames, "workloads", "", "comma-separated benchmark subset (default: all seven)")
	flag.IntVar(&f.parallel, "parallel", 1, "concurrent simulations (each holds its machine in RAM)")
	flag.BoolVar(&f.quiet, "q", false, "suppress progress output")
	flag.Parse()

	wls, err := f.validate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}

	opt := experiments.Options{
		Ops:        f.ops,
		WSBytes:    uint64(f.wsMiB) << 20,
		CacheScale: f.scale,
		Parallel:   f.parallel,
		Workloads:  wls,
	}
	if !f.quiet {
		opt.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}
	r := experiments.NewRunner(opt)

	for _, j := range selectJobs(f) {
		out, err := j.run(r)
		if err != nil {
			log.Fatalf("%s: %v", j.name, err)
		}
		fmt.Printf("==== %s ====\n%s\n", j.name, out)
	}
}
