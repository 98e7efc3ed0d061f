// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index of DESIGN.md §4). It is shared by
// cmd/figures and the root benchmark harness: each experiment runs the
// relevant (environment × design × page size × workload) simulations and
// renders the same rows/series the paper reports.
package experiments

import (
	"errors"
	"fmt"
	"sync"

	"dmt/internal/sim"
	"dmt/internal/workload"
)

// Options scales the experiment runs. The defaults are sized for the
// command-line harness; benchmarks pass smaller values.
type Options struct {
	// Ops is the trace length per configuration.
	Ops int
	// WSBytes overrides every workload's working set (0 keeps each
	// workload's scaled default).
	WSBytes uint64
	// CacheScale is the structure-scaling divisor (DESIGN.md §6).
	CacheScale int
	// Seed drives trace generation.
	Seed int64
	// Workloads restricts the benchmark set (nil = all seven).
	Workloads []workload.Spec
	// Parallel bounds how many simulations run concurrently when an
	// experiment warms its configuration matrix (1 = sequential). Each
	// in-flight simulation holds its machine in memory, so size this to
	// available RAM.
	Parallel int
	// Workers is passed through to sim.Config.Workers: each simulation
	// shards its trace and runs the shards on this many goroutines.
	// Results are identical for any value (sharded determinism).
	Workers int
	// Verbose emits progress lines via Logf.
	Logf func(format string, args ...interface{})
}

func (o Options) withDefaults() Options {
	if o.Ops == 0 {
		o.Ops = 400_000
	}
	if o.CacheScale == 0 {
		o.CacheScale = 16
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workload.All()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	if o.Parallel == 0 {
		o.Parallel = 1
	}
	return o
}

// Runner memoizes simulation results across experiments (Figures 14/15 and
// Table 5 share the same runs). Each configuration runs exactly once even
// under concurrent callers (singleflight), and Warm fans the matrix out
// across Options.Parallel goroutines.
type Runner struct {
	opt   Options
	mu    sync.Mutex
	cache map[string]*flight
	sem   chan struct{}
}

type flight struct {
	once sync.Once
	res  *sim.Result
	err  error
}

// NewRunner creates a runner.
func NewRunner(opt Options) *Runner {
	o := opt.withDefaults()
	return &Runner{opt: o, cache: map[string]*flight{}, sem: make(chan struct{}, o.Parallel)}
}

// Options returns the effective options.
func (r *Runner) Options() Options { return r.opt }

// Run returns the (memoized) result for one configuration; concurrent
// callers of the same configuration share a single simulation.
func (r *Runner) Run(env sim.Environment, design sim.Design, thp bool, wl workload.Spec) (*sim.Result, error) {
	key := fmt.Sprintf("%d/%s/%v/%s", env, design, thp, wl.Name)
	r.mu.Lock()
	f, ok := r.cache[key]
	if !ok {
		f = &flight{}
		r.cache[key] = f
	}
	r.mu.Unlock()
	f.once.Do(func() {
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		r.opt.Logf("running %v/%s thp=%v %s ...", env, design, thp, wl.Name)
		f.res, f.err = sim.Run(sim.Config{
			Env: env, Design: design, THP: thp, Workload: wl,
			WSBytes: r.opt.WSBytes, Ops: r.opt.Ops, Seed: r.opt.Seed,
			CacheScale: r.opt.CacheScale, Workers: r.opt.Workers,
		})
	})
	return f.res, f.err
}

// Warm runs the given configuration matrix concurrently (bounded by
// Options.Parallel), so subsequent Run calls return memoized results. All
// configurations are attempted; every failure is reported, joined in matrix
// order and annotated with its cell.
func (r *Runner) Warm(env sim.Environment, designs []sim.Design, thps []bool, wls []workload.Spec) error {
	if r.opt.Parallel <= 1 {
		return nil // nothing to gain; let callers run lazily
	}
	type cell struct {
		d   sim.Design
		thp bool
		wl  workload.Spec
	}
	var cells []cell
	for _, d := range designs {
		for _, thp := range thps {
			for _, wl := range wls {
				cells = append(cells, cell{d, thp, wl})
			}
		}
	}
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(env, c.d, c.thp, c.wl); err != nil {
				errs[i] = fmt.Errorf("warm %v/%s thp=%v %s: %w", env, c.d, c.thp, c.wl.Name, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// WalkRatio returns O_sim_target / O_sim_vanilla for a configuration: the
// quantity the §5 model consumes.
func (r *Runner) WalkRatio(env sim.Environment, design sim.Design, thp bool, wl workload.Spec) (float64, error) {
	base, err := r.Run(env, sim.DesignVanilla, thp, wl)
	if err != nil {
		return 0, err
	}
	target, err := r.Run(env, design, thp, wl)
	if err != nil {
		return 0, err
	}
	if target.WalkCycles == 0 {
		return 0, fmt.Errorf("experiments: zero walk cycles for %v/%s", env, design)
	}
	return float64(target.WalkCycles) / float64(base.WalkCycles), nil
}
