// Command dmtsweep runs a resumable local sweep: it expands a
// configuration template (env × design × workload × THP × seed) into
// cells, serves each cell from a checksummed result store when it is
// there, and otherwise simulates it in-process and records the result.
//
// Usage:
//
//	dmtsweep [-store DIR] [-envs native,virt] [-designs vanilla,dmt]
//	         [-workloads GUPS] [-thp true] [-seeds 1,2,3] [-ops N]
//	         [-ws-mib N] [-cache-scale N] [-shards N] [-verify]
//	         [-concurrency N] [-out FILE] [-quiet]
//
// With -store, completed cells are durable: a sweep interrupted with
// Ctrl-C (or SIGTERM) and re-run with the same -store simulates only what
// is missing and produces byte-identical results (DESIGN.md §11). Per-cell
// progress streams to stderr; the machine-readable report goes to -out (or
// stdout). Exit status: 0 every cell completed and was stored, 1 a cell
// failed, a result could not be stored, or the sweep was interrupted,
// 2 bad flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"dmt/internal/obs"
	"dmt/internal/sim"
	"dmt/internal/store"
	"dmt/internal/workload"
)

// Template describes a sweep as the cartesian product of its axes: every
// env × design × workload × THP × seed combination becomes one cell, all
// sharing the scalar knobs (ops, working set, cache scale, shards,
// verify). Empty axes default to a single representative value so the
// zero template is still a valid one-cell sweep.
type Template struct {
	Envs      []string
	Designs   []string
	Workloads []string
	THP       []bool
	Seeds     []int64

	Ops        int
	WSMiB      int
	CacheScale int
	Shards     int
	Verify     bool
}

func (t Template) withDefaults() Template {
	if len(t.Envs) == 0 {
		t.Envs = []string{"native"}
	}
	if len(t.Designs) == 0 {
		t.Designs = []string{"vanilla"}
	}
	if len(t.Workloads) == 0 {
		t.Workloads = []string{"GUPS"}
	}
	if len(t.THP) == 0 {
		t.THP = []bool{true}
	}
	if len(t.Seeds) == 0 {
		t.Seeds = []int64{1}
	}
	return t
}

// cell is one simulation of a sweep. Two cells with equal key are the same
// simulation (they produce byte-identical payloads), so expansion dedupes
// on it and the result store is addressed by it.
type cell struct {
	cfg sim.Config // normalized
	key string     // sim.CanonicalKey(cfg)
}

// Expand enumerates the template's cells in deterministic order (env,
// design, workload, THP, seed — outermost to innermost), rejecting unknown
// names and deduping identical cells by canonical key (first occurrence
// wins, so re-listed axis values cannot double-schedule a simulation).
func (t Template) Expand() ([]cell, error) {
	t = t.withDefaults()
	seen := map[string]bool{}
	var cells []cell
	for _, envName := range t.Envs {
		env, err := sim.ParseEnvironment(envName)
		if err != nil {
			return nil, err
		}
		for _, designName := range t.Designs {
			design, err := sim.ParseDesign(designName)
			if err != nil {
				return nil, err
			}
			for _, wlName := range t.Workloads {
				wl, err := workload.ByName(wlName)
				if err != nil {
					return nil, err
				}
				for _, thp := range t.THP {
					for _, seed := range t.Seeds {
						cfg := sim.Config{
							Env: env, Design: design, THP: thp, Workload: wl,
							WSBytes: uint64(t.WSMiB) << 20, Ops: t.Ops, Seed: seed,
							CacheScale: t.CacheScale, Shards: t.Shards, Verify: t.Verify,
						}.Normalized()
						key := sim.CanonicalKey(cfg)
						if seen[key] {
							continue
						}
						seen[key] = true
						cells = append(cells, cell{cfg: cfg, key: key})
					}
				}
			}
		}
	}
	return cells, nil
}

// resultPayload is the stored and reported form of one Result. Every
// integer field is carried verbatim, so a payload can be compared byte for
// byte against a direct sim.Run of the same configuration; the float
// fields are pure functions of the integers. The field order and tags are
// the store's on-disk schema: stores written by earlier versions resume
// unchanged only while they stay as they are.
type resultPayload struct {
	Env      string `json:"env"`
	Design   string `json:"design"`
	Workload string `json:"workload"`
	THP      bool   `json:"thp"`
	Shards   int    `json:"shards"`

	Ops             int     `json:"ops"`
	TLBMisses       uint64  `json:"tlb_misses"`
	Walks           uint64  `json:"walks"`
	WalkCycles      uint64  `json:"walk_cycles"`
	AvgWalkCycles   float64 `json:"avg_walk_cycles"`
	WalkP50         uint64  `json:"walk_p50"`
	WalkP99         uint64  `json:"walk_p99"`
	WalkMax         uint64  `json:"walk_max"`
	SeqRefs         uint64  `json:"seq_refs"`
	TotalRefs       uint64  `json:"total_refs"`
	DataCycles      uint64  `json:"data_cycles"`
	Coverage        float64 `json:"coverage"`
	Fallbacks       uint64  `json:"fallbacks"`
	Hypercalls      uint64  `json:"hypercalls"`
	VMExits         uint64  `json:"vm_exits"`
	ShadowSyncs     uint64  `json:"shadow_syncs"`
	IsolationFaults uint64  `json:"isolation_faults"`
	PTEBytes        int     `json:"pte_bytes"`
	Checked         uint64  `json:"checked"`
	Mismatches      uint64  `json:"mismatches"`

	// Counters is the run's named-counter snapshot (TLB/PWC/cache splits,
	// walker-chain attribution — DESIGN.md §10).
	Counters map[string]uint64 `json:"counters"`
}

// payloadFor flattens a Result into its stored form.
func payloadFor(res *sim.Result) resultPayload {
	cfg := res.Config.Normalized()
	var max uint64
	if res.WalkHist != nil {
		max = res.WalkHist.Max
	}
	return resultPayload{
		Env: cfg.Env.String(), Design: string(cfg.Design), Workload: cfg.Workload.Name,
		THP: cfg.THP, Shards: cfg.Shards,
		Ops:       res.Ops,
		TLBMisses: res.TLBMisses, Walks: res.Walks, WalkCycles: res.WalkCycles,
		AvgWalkCycles: res.AvgWalkCycles(),
		WalkP50:       res.WalkPercentile(50), WalkP99: res.WalkPercentile(99), WalkMax: max,
		SeqRefs: res.SeqRefs, TotalRefs: res.TotalRefs, DataCycles: res.DataCycles,
		Coverage: res.Coverage, Fallbacks: res.Fallbacks,
		Hypercalls: res.Hypercalls, VMExits: res.VMExits,
		ShadowSyncs: res.ShadowSyncs, IsolationFaults: res.IsolationFaults,
		PTEBytes: res.PTEBytes, Checked: res.Checked, Mismatches: res.Mismatches,
		Counters: res.Counters,
	}
}

// Where a completed cell's result came from.
const (
	sourceStore = "store" // a verified store entry
	sourceLocal = "local" // simulated by this sweep
)

const notAttempted = "interrupted before this cell was attempted"

// cellOut is one cell in the machine-readable report.
type cellOut struct {
	Key    string          `json:"key"`
	Source string          `json:"source,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`

	// putErr records that the cell completed but its result could not be
	// stored; the result stands, but a resume would re-simulate the cell.
	putErr error
}

type report struct {
	Cells     []cellOut `json:"cells"`
	FromStore int       `json:"from_store"`
	RanLocal  int       `json:"ran_local"`
	Failed    int       `json:"failed"`
}

func buildReport(cells []cellOut) report {
	rep := report{Cells: cells}
	for _, c := range cells {
		switch {
		case c.Error != "":
			rep.Failed++
		case c.Source == sourceStore:
			rep.FromStore++
		default:
			rep.RanLocal++
		}
	}
	return rep
}

// runCell serves one cell from the store when it is there, and otherwise
// simulates it under ctx and stores the result.
func runCell(ctx context.Context, st *store.Store, c cell) cellOut {
	out := cellOut{Key: c.key}
	if st != nil {
		if payload, ok := st.Get(c.key); ok {
			out.Source, out.Result = sourceStore, payload
			return out
		}
	}
	res, err := sim.RunCtx(ctx, c.cfg)
	if err == nil {
		out.Result, err = json.Marshal(payloadFor(res))
	}
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.Source = sourceLocal
	if st != nil {
		out.putErr = st.Put(c.key, out.Result)
	}
	return out
}

// sweep resolves every cell with at most conc in flight and returns their
// outcomes in expansion order, calling done after each one. Cells not
// started before ctx ends are reported as interrupted; everything that
// completed is already in the store.
func sweep(ctx context.Context, st *store.Store, cells []cell, conc int, done func(i int, c cellOut)) []cellOut {
	outs := make([]cellOut, len(cells))
	next := make(chan int, len(cells))
	for i, c := range cells {
		outs[i] = cellOut{Key: c.key, Error: notAttempted}
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(conc, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return
				}
				outs[i] = runCell(ctx, st, cells[i])
				done(i, outs[i])
			}
		}()
	}
	wg.Wait()
	return outs
}

// cliFlags is what validate checks: the template and the cells in flight.
type cliFlags struct {
	Template
	concurrency int
}

// splitList parses a comma-separated flag value, trimming blanks so
// "a, b," and "a,b" mean the same list.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range splitList(s) {
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %q is not an integer", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseBools(s, name string) ([]bool, error) {
	var out []bool
	for _, part := range splitList(s) {
		v, err := strconv.ParseBool(part)
		if err != nil {
			return nil, fmt.Errorf("%s: %q is not a boolean", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// validate rejects nonsensical sizing up front (exit 2), mirroring the
// other dmt commands. Unknown envs/designs/workloads are rejected at
// expansion, also with exit 2, before any cell runs.
func (f cliFlags) validate() error {
	switch {
	case f.Ops < 0:
		return fmt.Errorf("-ops must be >= 0 (got %d)", f.Ops)
	case f.WSMiB < 0:
		return fmt.Errorf("-ws-mib must be >= 0 (got %d)", f.WSMiB)
	case f.CacheScale < 0:
		return fmt.Errorf("-cache-scale must be >= 0 (got %d)", f.CacheScale)
	case f.Shards < 0:
		return fmt.Errorf("-shards must be >= 0 (got %d)", f.Shards)
	case f.concurrency < 1:
		return fmt.Errorf("-concurrency must be >= 1 (got %d)", f.concurrency)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmtsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		storeDir  = fs.String("store", "", "durable result store directory (empty disables resume/dedupe)")
		envs      = fs.String("envs", "native", "environments to sweep (comma-separated)")
		designs   = fs.String("designs", "vanilla", "designs to sweep (comma-separated)")
		workloads = fs.String("workloads", "GUPS", "workloads to sweep (comma-separated)")
		thp       = fs.String("thp", "true", "THP settings to sweep (comma-separated booleans)")
		seeds     = fs.String("seeds", "1", "seeds to sweep (comma-separated integers)")

		ops        = fs.Int("ops", 0, "trace length per cell (0: engine default)")
		wsMiB      = fs.Int("ws-mib", 0, "working-set MiB per cell (0: engine default)")
		cacheScale = fs.Int("cache-scale", 0, "page-walk cache scale (0: engine default)")
		shards     = fs.Int("shards", 0, "engine shards per cell (0: engine default)")
		verify     = fs.Bool("verify", false, "run cells with the differential oracle armed")

		concurrency = fs.Int("concurrency", 2, "cells in flight at once")
		out         = fs.String("out", "", "write the report JSON to this file (default stdout)")
		quiet       = fs.Bool("quiet", false, "suppress per-cell progress lines on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	badFlags := func(err error) int {
		fmt.Fprintf(stderr, "dmtsweep: %v\n", err)
		return 2
	}

	sds, err := parseSeeds(*seeds)
	if err != nil {
		return badFlags(err)
	}
	thps, err := parseBools(*thp, "-thp")
	if err != nil {
		return badFlags(err)
	}
	f := cliFlags{
		Template: Template{
			Envs: splitList(*envs), Designs: splitList(*designs),
			Workloads: splitList(*workloads), THP: thps, Seeds: sds,
			Ops: *ops, WSMiB: *wsMiB, CacheScale: *cacheScale,
			Shards: *shards, Verify: *verify,
		},
		concurrency: *concurrency,
	}
	if err := f.validate(); err != nil {
		return badFlags(err)
	}
	cells, err := f.Expand()
	if err != nil {
		return badFlags(err)
	}
	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir, obs.Default); err != nil {
			return badFlags(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Acknowledge Ctrl-C at once, from its own goroutine (stderr must take
	// concurrent writes): in-flight cells stop at their next step batch and
	// no new cell starts.
	defer context.AfterFunc(ctx, func() {
		fmt.Fprintln(stderr, "dmtsweep: interrupted; stopping (re-run with the same -store to resume)")
	})()
	fmt.Fprintf(stderr, "dmtsweep: %d cells, store=%q\n", len(cells), *storeDir)

	var mu sync.Mutex
	progress := func(i int, c cellOut) {
		if *quiet {
			return
		}
		event := "done"
		switch {
		case c.Error != "":
			event = "failed err=" + c.Error
		case c.Source == sourceStore:
			event = "store-hit"
		}
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(stderr, "cell %d/%d %-9s [%s]\n", i+1, len(cells), event, c.Key)
	}
	rep := buildReport(sweep(ctx, st, cells, f.concurrency, progress))

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "dmtsweep: encoding report: %v\n", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintf(stderr, "dmtsweep: writing %s: %v\n", *out, err)
			return 1
		}
	} else {
		stdout.Write(enc)
	}

	fmt.Fprintf(stderr, "dmtsweep: done: %d from store, %d local, %d failed\n",
		rep.FromStore, rep.RanLocal, rep.Failed)
	code := 0
	for i, c := range rep.Cells {
		if c.putErr != nil {
			fmt.Fprintf(stderr, "dmtsweep: cell %d/%d [%s] was not stored: %v\n",
				i+1, len(cells), c.Key, c.putErr)
			code = 1
		}
	}
	if rep.Failed > 0 {
		code = 1
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
