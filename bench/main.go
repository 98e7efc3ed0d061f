// Command bench is the simulator's benchmark: four workloads, each a closed
// loop driven from this one process, timed in sim.BatchOps spans with the
// simulator's outputs checked against per-cell digests and the differential
// oracle. A traced run (-trace 1) repeats the workload with spans around
// every call into a layer, replays each layer on its own, and reports the
// per-layer ledger. README.md describes the workloads and metrics.
//
//	go build -o dmtbench . && ./dmtbench -workload walk-gups4k -seed 11 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
	quick    bool
	repeat   int
	update   bool
	expected string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(wdefs))
	for i, w := range wdefs {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", wdefs[0].name, "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", expectedSeed, "seed of trace generation (the only input to it)")
	fs.IntVar(&o.seconds, "seconds", 10, "how long the timed passes run, after one warm-up pass")
	trace := fs.Int("trace", 0, "1: also run traced, replay each layer, and report the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "JSONL file for the traced run's spans (default .bench_build/spans-<workload>.jsonl)")
	fs.BoolVar(&o.quick, "quick", false, "tiny working set and op counts (smoke test)")
	fs.IntVar(&o.repeat, "repeat", 1, "run k times in this process and print each metric's median, IQR and range")
	fs.BoolVar(&o.update, "update", false, "rewrite this profile's digests in the expected file (seed 11 only)")
	fs.StringVar(&o.expected, "expected", filepath.Join("bench", "testdata", "expected-seed11.json"), "expected-digest file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case o.seconds < 1 || o.seconds > 600:
		return o, fmt.Errorf("-seconds must be in [1, 600], got %d", o.seconds)
	case o.repeat < 1:
		return o, fmt.Errorf("-repeat must be at least 1, got %d", o.repeat)
	case o.update && o.seed != expectedSeed:
		return o, fmt.Errorf("-update needs -seed %d", expectedSeed)
	}
	if _, err := findWorkload(o.workload); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+o.workload+".jsonl")
	}
	return o, nil
}

// run is main without the exit: 0 with a result line, 1 when the benchmark
// could not run, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	expected, err := loadExpected(opt.expected)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	w, _ := findWorkload(opt.workload)
	printRecord(stdout, opt, w)
	var outs []*outcome
	for i := 0; i < opt.repeat; i++ {
		o, err := runOnce(opt, w, expected, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		outs = append(outs, o)
	}
	res := summarize(stdout, outs, opt.trace)
	if opt.update {
		expected[outs[0].profile] = outs[0].digests
		if err := expected.save(opt.expected); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# wrote %d digests for %s to %s\n", len(outs[0].digests), outs[0].profile, opt.expected)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// printRecord states what ran where, so every result can be traced to its
// host, toolchain and commit.
func printRecord(w io.Writer, opt options, wd *wdef) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	procs := runtime.GOMAXPROCS(0)
	workers, shards := 1, 1
	if wd.matrix {
		workers, shards = matrixShards, matrixShards
	}
	fmt.Fprintf(w, "# bench workload=%s seed=%d seconds=%d quick=%v trace=%v repeat=%d\n",
		opt.workload, opt.seed, opt.seconds, opt.quick, opt.trace, opt.repeat)
	fmt.Fprintf(w, "# host numcpu=%d gomaxprocs=%d go=%s commit=%s workers=%d shards=%d\n",
		runtime.NumCPU(), procs, runtime.Version(), commit, workers, shards)
	if wd.matrix && procs < shards {
		fmt.Fprintf(w, "# note: %d CPU for %d shards; shards take turns, so wall_s is not comparable with hosts of %d+ CPUs (results are)\n",
			procs, shards, shards)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is one run of a workload: its end-to-end metrics, and the
// per-layer ledger when traced.
type outcome struct {
	e2e, layers       map[string]metric
	attempted, failed int64
	profile           string
	digests           map[string]string
}

// runOnce makes one warm-up pass, which also runs the oracle and checks the
// digests, then timed passes for -seconds (at least minPasses, one with
// -quick), each of which must reproduce the warm-up's digests.
func runOnce(opt options, w *wdef, expected expectedFile, stdout, stderr io.Writer) (*outcome, error) {
	sz := sizeFor(w, opt.quick)
	warm := runPass(w, sz, opt.seed, nil)
	o := &outcome{attempted: warm.attempted, failed: warm.failed, profile: sz.profile(w), digests: warm.digests}
	for _, f := range warm.failures {
		fmt.Fprintln(stderr, "bench: failed:", f)
	}
	if opt.seed == expectedSeed && !opt.update {
		if want, ok := expected[o.profile]; ok {
			for _, c := range mismatches(want, warm.digests) {
				fmt.Fprintf(stderr, "bench: failed: %s: digest %s, expected %q\n", c, warm.digests[c], want[c])
				o.failed += warm.perCell
			}
		} else {
			fmt.Fprintf(stderr, "bench: no expected digests for %s; outputs checked by the oracle only\n", o.profile)
		}
	}

	timedSz := sz
	timedSz.oracleOps = 0
	minN, budget := minPasses, time.Duration(opt.seconds)*time.Second
	if opt.quick {
		minN, budget = 1, 0
	}
	var passes []*pass
	start := time.Now()
	for {
		// Stop before a pass that would, at the mean pass time so far, end
		// past the budget.
		if n := len(passes); n >= minN {
			if el := time.Since(start); el+el/time.Duration(n) > budget {
				break
			}
		}
		p := runPass(w, timedSz, opt.seed, nil)
		o.attempted += p.attempted
		o.failed += p.failed
		for _, f := range p.failures {
			fmt.Fprintln(stderr, "bench: failed:", f)
		}
		for _, c := range mismatches(warm.digests, p.digests) {
			fmt.Fprintf(stderr, "bench: failed: %s: pass %d digest %s differs from the warm-up's %s\n",
				c, len(passes)+1, p.digests[c], warm.digests[c])
			o.failed += p.perCell
		}
		passes = append(passes, p)
	}
	base := medianOf(passes)
	fmt.Fprintf(stdout, "# %d timed passes in %.1f s after a warm-up pass; per cell, the median over passes\n",
		len(passes), time.Since(start).Seconds())
	fmt.Fprintf(stdout, "# reference kernel: median %.2f ns/iteration; times are scaled to %.0f ns\n",
		median(base.refNs), refNominalNs)
	printCells(stdout, base, w.matrix)
	if opt.trace {
		if err := traceRun(opt, w, timedSz, base, o, stdout, stderr); err != nil {
			return nil, err
		}
	}
	o.e2e = endToEnd(base, w.matrix, o.attempted, o.failed)
	return o, nil
}

// traceRun repeats one pass of the workload with spans, replays each layer
// on its own, and fills in the per-layer ledger. The traced pass must
// reproduce the untraced passes' digests.
func traceRun(opt options, w *wdef, sz size, base *pass, o *outcome, stdout, stderr io.Writer) error {
	tr := newTracer(w.name)
	traced := runPass(w, sz, opt.seed, tr)
	o.attempted += traced.attempted
	o.failed += traced.failed
	for _, f := range traced.failures {
		fmt.Fprintln(stderr, "bench: failed: traced:", f)
	}
	for _, c := range mismatches(base.digests, traced.digests) {
		fmt.Fprintf(stderr, "bench: failed: %s: traced run digest %s differs from untraced %s\n",
			c, traced.digests[c], base.digests[c])
		o.failed += base.perCell
	}
	cells := traced
	if w.matrix {
		// The matrix's unit is the config; the per-cell rows come from a
		// short sweep of all 21 cells on the replay's layout.
		gups, _ := findWorkload("walk-gups4k")
		id := tr.begin(0, "bench.sweep")
		cells = runCells(gups, size{ws: sz.ws, ops: sz.sweepOps}, allCells, opt.seed, tr, id)
		tr.end(id)
	}
	reps := 5
	if opt.quick {
		reps = 1
	}
	r0 := refNs()
	led, err := replay(w, sz, opt.seed, reps, tr, 0)
	if err != nil {
		return err
	}
	led.scale(scaleFor(r0, refNs()))
	o.layers = perLayer(base, traced, cells, led, w.matrix)
	printUnattributed(stdout, cells, led)
	printSelfTimes(stdout, tr.spans)
	if err := writeSpans(opt.spans, tr.spans); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# wrote %d spans to %s\n", len(tr.spans), opt.spans)
	return nil
}

func runPass(w *wdef, sz size, seed int64, tr *tracer) *pass {
	id := tr.begin(0, "bench."+w.name)
	defer tr.end(id)
	if w.matrix {
		return runMatrix(sz, seed, tr, id)
	}
	return runCells(w, sz, allCells, seed, tr, id)
}

// endToEnd is what a user of the simulator waits for, from the merged timed
// passes. Span-timed workloads take each cell's median (p90) over its spans
// and the geometric mean over cells; the matrix takes the median (p90) over
// its per-config Runner.Run times.
func endToEnd(p *pass, matrix bool, attempted, failed int64) map[string]metric {
	p50, p90 := opNs(p, matrix)
	return map[string]metric{
		"ops_per_s":     {float64(p.stepOps) / (p.stepNs / 1e9), "1/s"},
		"op_ns_p50":     {p50, "ns"},
		"op_ns_p90":     {p90, "ns"},
		"setup_s":       {p.setupNs / 1e9, "s"},
		"wall_s":        {p.wallNs / 1e9, "s"},
		"live_heap_mib": {float64(p.liveHeap) / (1 << 20), "MiB"},
		"ok_share":      {1 - ratio(float64(failed), float64(attempted)), "ratio"},
	}
}

func opNs(p *pass, matrix bool) (p50, p90 float64) {
	if matrix {
		return median(p.cellP50), quantile(p.cellP50, 0.9)
	}
	return geomean(p.cellP50), geomean(p.cellP90)
}

// perLayer is the traced run's ledger. cells is the pass the per-cell rows
// come from: the traced pass itself, or figure-matrix's sweep.
func perLayer(base, traced, cells *pass, led *ledger, matrix bool) map[string]metric {
	m := map[string]metric{}
	for i, name := range cells.cellNames {
		m["cell."+name+".op_ns_p50"] = metric{cells.cellP50[i], "ns"}
	}
	for _, rc := range replayCells {
		m[rc.metric] = metric{led.walkNs[rc.span], "ns"}
	}
	for name, v := range map[string]float64{
		"tlb.lookup_batch_ns": led.lookupNs, "tlb.insert_ns": led.insertNs,
		"cache.access_batch_ns": led.accessBatchNs, "cache.access_ns": led.accessNs,
		"workload.gen_ns": led.genNs, "obs.observe_batch_ns": led.observeNs,
		"check.translate_ns": led.checkNs, "host.calib_ns": median(base.refNs),
	} {
		m[name] = metric{v, "ns"}
	}
	m["fault.tick_us"] = metric{led.tickUs, "us"}
	m["kernel.layout_ms"] = metric{led.layoutMs, "ms"}
	for _, env := range []string{"native", "virt", "nested"} {
		m["sim.build_ms."+env] = metric{median(cells.buildMs[env]), "ms"}
		m["sim.clone_ms."+env] = metric{median(cells.cloneMs[env]), "ms"}
	}
	m["sim.finish_us"] = metric{median(cells.finishUs), "us"}
	m["sim.step_allocs_per_op"] = metric{ratio(float64(cells.mallocs), float64(cells.allocOps)), "1/op"}

	setupShare := ratio(traced.setupNs, traced.setupNs+traced.stepNs)
	if matrix {
		setupShare = ratio(traced.setupNs, traced.stepNs) // Runner.Run includes its builds
	}
	m["experiments.build_share"] = metric{setupShare, "ratio"}
	m["experiments.clone_hits"] = metric{float64(traced.cloneHits), "count"}

	ops := float64(traced.ops)
	m["tlb.miss_ratio"] = metric{ratio(float64(traced.misses), float64(traced.lookups)), "ratio"}
	m["cache.accesses_per_op"] = metric{ratio(float64(traced.accesses), ops), "1/op"}
	m["cache.mem_fetches_per_op"] = metric{ratio(float64(traced.memFetches), ops), "1/op"}
	m["walk.refs_per_walk"] = metric{ratio(float64(traced.refs), float64(traced.walks)), "1/walk"}
	m["walk.cycles_per_walk"] = metric{ratio(float64(traced.walkCycles), float64(traced.walks)), "cycles"}
	m["check.checked_per_op"] = metric{ratio(float64(traced.checked), ops), "1/op"}
	m["fault.events"] = metric{float64(traced.faultEvents), "count"}

	var shares []float64
	for _, u := range unattributed(cells, led) {
		shares = append(shares, u.share)
	}
	m["layers.unattributed_share"] = metric{mean(shares), "ratio"}
	b, _ := opNs(base, matrix)
	t, _ := opNs(traced, matrix)
	m["trace.overhead_share"] = metric{t/b - 1, "ratio"}
	return m
}

type attribution struct {
	cell                       string
	measured, predicted, share float64
}

// unattributed reconciles the ledger for the cells whose walkers the replay
// times: each op generates a VA and probes the TLB; a hit then costs its
// share of a batched data access, a miss a walk, a TLB refill, a scalar
// data access and a histogram sample. The share of the measured p50 this
// does not explain is cost no layer accounts for.
func unattributed(cells *pass, led *ledger) []attribution {
	var out []attribution
	for _, rc := range replayCells {
		name := rc.cell.name()
		for i, n := range cells.cellNames {
			if n != name {
				continue
			}
			miss := cells.cellMiss[i]
			pred := led.genNs + led.lookupNs + (1-miss)*led.accessBatchNs +
				miss*(led.walkNs[rc.span]+led.insertNs+led.accessNs+led.observeNs)
			out = append(out, attribution{name, cells.cellP50[i], pred, 1 - pred/cells.cellP50[i]})
		}
	}
	return out
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func printUnattributed(w io.Writer, cells *pass, led *ledger) {
	fmt.Fprintln(w, "# reconciliation: measured p50 vs sum of layer costs x counts (ns/op)")
	for _, u := range unattributed(cells, led) {
		fmt.Fprintf(w, "#   %-16s measured %8.1f  layers %8.1f  unattributed %6.1f%%\n",
			u.cell, u.measured, u.predicted, 100*u.share)
	}
}

func printCells(w io.Writer, p *pass, matrix bool) {
	if matrix {
		fmt.Fprintf(w, "# %d configs; Runner.Run host ns/op over configs: p50 %.1f p90 %.1f (samples %d)\n",
			len(p.cellP50), median(p.cellP50), quantile(p.cellP50, 0.9), len(p.cellP50))
		return
	}
	fmt.Fprintf(w, "# %-16s %11s %10s %10s\n", "cell", "spans/pass", "p50 ns/op", "p90 ns/op")
	for i, name := range p.cellNames {
		fmt.Fprintf(w, "# %-16s %11d %10.1f %10.1f\n", name, len(p.cellSpans[i]), p.cellP50[i], p.cellP90[i])
	}
}

// summarize prints every metric and returns the result line: medians over
// the repeats, with every repeat's failures counted. Repeats whose digests
// disagree are a determinism failure.
func summarize(w io.Writer, outs []*outcome, traced bool) result {
	res := result{Metrics: map[string]metric{}}
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		if bad := mismatches(outs[0].digests, o.digests); len(bad) > 0 {
			fmt.Fprintf(w, "# repeats disagree on %d cells: %s\n", len(bad), strings.Join(bad, ", "))
			res.Failed += o.attempted
		}
	}
	res.Correct = res.Failed == 0
	var sets []map[string]metric
	for _, o := range outs {
		s := maps.Clone(o.e2e)
		maps.Copy(s, o.layers)
		sets = append(sets, s)
	}
	names := make([]string, 0, len(sets[0]))
	for name := range sets[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(outs) > 1 {
		fmt.Fprintf(w, "# %-34s %14s %14s %8s %14s %14s\n", "metric", "median", "iqr", "iqr/med", "min", "max")
	}
	for _, name := range names {
		xs := make([]float64, len(sets))
		for i, s := range sets {
			xs[i] = s[name].Value
		}
		med, unit := median(xs), sets[0][name].Unit
		if len(outs) > 1 {
			iqr := quantile(xs, 0.75) - quantile(xs, 0.25)
			sort.Float64s(xs)
			fmt.Fprintf(w, "# %-34s %14.6g %14.6g %7.2f%% %14.6g %14.6g %s\n",
				name, med, iqr, 100*ratio(iqr, med), xs[0], xs[len(xs)-1], unit)
		} else {
			fmt.Fprintf(w, "# %-34s %14.6g %s\n", name, med, unit)
		}
		// With -trace 1 the result line carries the per-layer metrics.
		if _, layer := outs[0].layers[name]; layer == traced {
			res.Metrics[name] = metric{med, unit}
		}
	}
	return res
}
