// Command dmtsim runs a single (environment × design × page-size ×
// workload) simulation and prints its measurements — the low-level
// entry point behind cmd/figures.
//
// Usage:
//
//	dmtsim -env native|virt|nested -design vanilla|shadow|dmt|pvdmt|ecpt|fpt|agile|asap|victima|utopia
//	       -workload GUPS [-thp] [-ops N] [-ws MiB] [-scale N] [-seed N] [-breakdown]
//	       [-workers N] [-shards N]
//
// -workers shards the trace across goroutines; a run's results are
// bit-identical for any worker count (they depend on -shards only, which
// defaults to the worker count — pin -shards to compare worker counts).
//
// With -scenario, dmtsim instead runs the long-horizon cloud-node aging
// scenario (internal/scenario): one node per design churned through -ops
// lifecycle events (VM boots/deaths, guest mmap/munmap, THP splits and
// collapses, compaction, TEA-migration windows) with the lifecycle
// conservation oracle armed, printing the node-age × metric table. -design
// restricts the campaign to dmt or pvdmt; -vms, -epochs, and -mem size the
// node; -no-check disables the oracle.
//
// With -faults, dmtsim instead runs the fault-injection campaign: every
// (environment × design × fault schedule) cell for the selected workload,
// with the differential oracle re-checking each translation against the
// live page tables, and prints the graceful-degradation table. The output
// is deterministic for a fixed -seed.
//
// Flag values are validated up front: nonsensical sizing (-ops 0, a
// negative -workers, -workers or -shards under -faults, which runs every
// cell on one worker and one shard, -counters under -faults or -scenario,
// which have no single run to report, ...) exits with status 2 and a
// one-line message instead of running — or silently misrunning — the
// simulation.
//
// Observability (see DESIGN.md §10):
//
//	-pprof f      write a CPU profile of the run to f
//	-trace-out f  write a runtime execution trace to f
//	-counters     print the run's counters, then the build-cache traffic
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"runtime/trace"

	"dmt/internal/experiments"
	"dmt/internal/obs"
	"dmt/internal/sim"
	"dmt/internal/workload"
)

// cliFlags collects every user-supplied value so validation is a pure,
// testable function rather than scattered log.Fatalf calls.
type cliFlags struct {
	envName   string
	design    string
	wlName    string
	thp       bool
	ops       int
	wsMiB     int
	scale     int
	seed      int64
	breakdown bool
	faults    bool
	quiet     bool
	workers   int
	shards    int
	pprofOut  string
	traceOut  string
	counters  bool

	scenario bool
	vms      int
	epochs   int
	memMiB   int
	noCheck  bool
}

// validateScenario checks the aging-mode flag subset. -design restricts
// the campaign to one node stack when set explicitly; the empty string
// (the caller passes "" when the flag was left at its default) runs both.
func (f cliFlags) validateScenario(design string) ([]string, error) {
	switch {
	case f.ops <= 0:
		return nil, fmt.Errorf("-ops must be positive (got %d)", f.ops)
	case f.workers < 0:
		return nil, fmt.Errorf("-workers must be >= 0 (got %d; 0 means 1)", f.workers)
	case f.shards < 0:
		return nil, fmt.Errorf("-shards must be >= 0 (got %d; 0 means the default)", f.shards)
	case f.vms < 0:
		return nil, fmt.Errorf("-vms must be >= 0 (got %d; 0 means the default)", f.vms)
	case f.epochs < 0:
		return nil, fmt.Errorf("-epochs must be >= 0 (got %d; 0 means the default)", f.epochs)
	case f.memMiB < 0:
		return nil, fmt.Errorf("-mem must be >= 0 (got %d; 0 means the default)", f.memMiB)
	case f.counters:
		return nil, fmt.Errorf("-counters prints one run's counters; -scenario has no single run")
	}
	switch design {
	case "":
		return []string{"dmt", "pvdmt"}, nil
	case "dmt", "pvdmt":
		return []string{design}, nil
	default:
		return nil, fmt.Errorf("-scenario supports -design dmt or pvdmt (got %q)", design)
	}
}

// validate rejects nonsensical sizing and unknown names up front. It
// returns the parsed environment, design, and workload so the happy path
// never re-parses; main maps any error to exit status 2.
func (f cliFlags) validate() (sim.Environment, sim.Design, workload.Spec, error) {
	switch {
	case f.ops <= 0:
		return 0, "", workload.Spec{}, fmt.Errorf("-ops must be positive (got %d)", f.ops)
	case f.workers < 0:
		return 0, "", workload.Spec{}, fmt.Errorf("-workers must be >= 0 (got %d; 0 means 1)", f.workers)
	case f.shards < 0:
		return 0, "", workload.Spec{}, fmt.Errorf("-shards must be >= 0 (got %d; 0 means -workers)", f.shards)
	case f.wsMiB < 0:
		return 0, "", workload.Spec{}, fmt.Errorf("-ws must be >= 0 (got %d; 0 means the scaled default)", f.wsMiB)
	case f.scale < 1:
		return 0, "", workload.Spec{}, fmt.Errorf("-scale must be >= 1 (got %d)", f.scale)
	case f.faults && f.workers > 1:
		return 0, "", workload.Spec{}, fmt.Errorf("-faults runs every cell on one worker; drop -workers %d", f.workers)
	case f.faults && f.shards != 0:
		return 0, "", workload.Spec{}, fmt.Errorf("-faults runs every cell as one shard; drop -shards %d", f.shards)
	case f.faults && f.counters:
		return 0, "", workload.Spec{}, fmt.Errorf("-counters prints one run's counters; -faults has no single run")
	}
	env, err := sim.ParseEnvironment(f.envName)
	if err != nil {
		return 0, "", workload.Spec{}, err
	}
	design, err := sim.ParseDesign(f.design)
	if err != nil {
		return 0, "", workload.Spec{}, err
	}
	wl, err := workload.ByName(f.wlName)
	if err != nil {
		return 0, "", workload.Spec{}, err
	}
	return env, design, wl, nil
}

// startProfiling opens the -pprof / -trace-out sinks and returns the
// stop function to defer; a zero-value pair of flags is a no-op.
func startProfiling(pprofPath, tracePath string) func() {
	var stops []func()
	if pprofPath != "" {
		f, err := os.Create(pprofPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.Start(f); err != nil {
			log.Fatal(err)
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
}

func main() {
	var f cliFlags
	flag.StringVar(&f.envName, "env", "native", "environment: native, virt, nested")
	flag.StringVar(&f.design, "design", "vanilla", "translation design")
	flag.StringVar(&f.wlName, "workload", "GUPS", "benchmark name (Table 4)")
	flag.BoolVar(&f.thp, "thp", false, "enable transparent huge pages")
	flag.IntVar(&f.ops, "ops", 400_000, "trace length")
	flag.IntVar(&f.wsMiB, "ws", 0, "working set in MiB (0 = scaled default)")
	flag.IntVar(&f.scale, "scale", 16, "cache/TLB scaling divisor")
	flag.Int64Var(&f.seed, "seed", 42, "trace seed")
	flag.BoolVar(&f.breakdown, "breakdown", false, "print the per-step walk breakdown")
	flag.BoolVar(&f.faults, "faults", false, "run the fault-injection campaign and print the degradation table")
	flag.BoolVar(&f.quiet, "q", false, "suppress progress output (with -faults)")
	flag.IntVar(&f.workers, "workers", 1, "goroutines simulating trace shards (results are identical for any value)")
	flag.IntVar(&f.shards, "shards", 0, "trace shards (0 = workers); results depend on shards, not workers")
	flag.StringVar(&f.pprofOut, "pprof", "", "write a CPU profile to this file")
	flag.StringVar(&f.traceOut, "trace-out", "", "write a runtime execution trace to this file")
	flag.BoolVar(&f.counters, "counters", false, "print the run's counters, then the build-cache traffic")
	flag.BoolVar(&f.scenario, "scenario", false, "run the long-horizon node-aging scenario and print the node-age table")
	flag.IntVar(&f.vms, "vms", 0, "aging: per-shard live-VM target (0 = default)")
	flag.IntVar(&f.epochs, "epochs", 0, "aging: node-age sampling points (0 = default)")
	flag.IntVar(&f.memMiB, "mem", 0, "aging: node physical memory in MiB (0 = default)")
	flag.BoolVar(&f.noCheck, "no-check", false, "aging: skip the conservation oracle")
	flag.Parse()

	if f.scenario {
		// -design defaults to "vanilla" for the single-run mode; only an
		// explicit value restricts the aging campaign.
		designArg := ""
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "design" {
				designArg = f.design
			}
		})
		designs, err := f.validateScenario(designArg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmtsim: %v\n", err)
			os.Exit(2)
		}
		opt := experiments.AgingOptions{
			Designs: designs, Events: f.ops, VMs: f.vms, Epochs: f.epochs,
			Shards: f.shards, Workers: f.workers, MemMiB: f.memMiB,
			Seed: f.seed, THP: f.thp, Verify: !f.noCheck,
		}
		if !f.quiet {
			opt.Logf = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
			}
		}
		out, err := experiments.AgingCampaign(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return
	}

	env, design, wl, err := f.validate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmtsim: %v\n", err)
		os.Exit(2)
	}

	defer startProfiling(f.pprofOut, f.traceOut)()

	if f.faults {
		campaignOps := f.ops
		opsSet := false
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "ops" {
				opsSet = true
			}
		})
		// The campaign runs ~100 simulations; default to a shorter trace
		// than a single run unless -ops was given explicitly.
		if !opsSet {
			campaignOps = 40_000
		}
		opt := experiments.Options{
			Ops: campaignOps, WSBytes: uint64(f.wsMiB) << 20,
			CacheScale: f.scale, Seed: f.seed,
			Workloads: []workload.Spec{wl},
		}
		if !f.quiet {
			opt.Logf = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
			}
		}
		out, err := experiments.FaultCampaign(experiments.NewRunner(opt))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return
	}
	res, err := sim.Run(sim.Config{
		Env: env, Design: design, THP: f.thp, Workload: wl,
		WSBytes: uint64(f.wsMiB) << 20, Ops: f.ops, Seed: f.seed, CacheScale: f.scale,
		Workers: f.workers, Shards: f.shards,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("config:            %s / %s / %s (THP=%v)\n", f.envName, design, wl.Name, f.thp)
	fmt.Printf("trace ops:         %d\n", res.Ops)
	fmt.Printf("TLB miss ratio:    %.4f (%d misses)\n", res.MissRatio(), res.TLBMisses)
	fmt.Printf("avg walk latency:  %.1f cycles\n", res.AvgWalkCycles())
	if res.WalkHist != nil && res.WalkHist.Count > 0 {
		fmt.Printf("walk latency tail: p50<=%d p90<=%d p99<=%d max=%d cycles\n",
			res.WalkPercentile(50), res.WalkPercentile(90),
			res.WalkPercentile(99), res.WalkHist.Max)
	}
	fmt.Printf("avg seq refs/walk: %.2f (total refs/walk %.2f)\n",
		res.AvgSeqRefs(), float64(res.TotalRefs)/float64(max64(res.Walks, 1)))
	if cov, ok := res.RegisterCoverage(); ok {
		fmt.Printf("%-19s%.2f%%\n", sim.CoverageLabel(design)+":", cov*100)
	}
	fmt.Printf("data cycles:       %d\n", res.DataCycles)
	fmt.Printf("PT structures:     %.2f MiB\n", float64(res.PTEBytes)/(1<<20))
	if res.Hypercalls+res.VMExits+res.ShadowSyncs > 0 {
		fmt.Printf("hypercalls:        %d, VM exits: %d, shadow syncs: %d\n",
			res.Hypercalls, res.VMExits, res.ShadowSyncs)
	}
	if f.breakdown {
		fmt.Println("\nper-step breakdown (amortized cycles/walk, share of walk latency):")
		for _, s := range res.Breakdown() {
			fmt.Printf("  %-10s %8.2f cyc  %5.1f%%  (%d hits)\n", s.Label,
				float64(s.Cycles)/float64(res.Walks),
				100*float64(s.Cycles)/float64(max64(res.WalkCycles, 1)), s.Count)
		}
	}
	if f.counters {
		b := sim.ReadBuildCacheStats()
		fmt.Print("\ncounters:\n" + res.Counters.Dump())
		fmt.Print("\nbuild cache:\n" + obs.Counters{
			"build.clone": b.Hits, "build.cold": b.Misses,
			"build.stage_clone": b.StageHits, "build.stage_cold": b.StageMisses,
		}.Dump())
	}
}

func max64(a uint64, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
