package experiments

import (
	"fmt"
	"strings"

	"dmt/internal/sim"
	"dmt/internal/stats"
	"dmt/internal/workload"
)

// ablation is one knob swept on native DMT (4 KiB pages): set applies
// setting i of labels to the config.
type ablation struct {
	title, knob string
	wl          workload.Spec
	labels      []string
	set         func(c *sim.Config, i int)
	cycles      bool // also report the average walk cycles
}

// Ablations renders the DMT design ablations of DESIGN.md §5 at the
// runner's scale: the register count on Redis with clustering off, so each
// of its six disjoint major VMAs (Table 1) needs a register of its own; the
// clustering bubble threshold t on Memcached (the paper's t is 2 %); and
// physical memory pre-fragmented to index 0.99 on GUPS (the §6.3
// methodology), where TEA allocation falls back to mapping splits. The
// knobs are outside the Runner's memoized matrix, so each cell runs here.
func Ablations(r *Runner) (string, error) {
	regs, ts, frags := []int{1, 2, 4, 8, 16}, []float64{-1, 0.005, 0.02, 0.08}, []float64{0, 0.99}
	var b strings.Builder
	for _, a := range []ablation{
		{"Ablation: DMT register count (Redis, clustering off)", "Registers", workload.Redis(),
			[]string{"1", "2", "4", "8", "16"},
			func(c *sim.Config, i int) { c.TEARegisters, c.TEAMergeThreshold = regs[i], -1 }, true},
		{"Ablation: clustering bubble threshold t (Memcached)", "t", workload.Memcached(),
			[]string{"off", "0.5%", "2%", "8%"},
			func(c *sim.Config, i int) { c.TEAMergeThreshold = ts[i] }, false},
		{"Ablation: fragmented physical memory (GUPS)", "Fragmentation target", workload.GUPS(),
			[]string{"0.00", "0.99"},
			func(c *sim.Config, i int) { c.FragmentTarget = frags[i] }, true},
	} {
		t := &stats.Table{Title: a.title, Header: []string{a.knob, "Coverage"}}
		if a.cycles {
			t.Header = append(t.Header, "Avg walk cycles")
		}
		for i, label := range a.labels {
			o := r.Options()
			cfg := sim.Config{
				Env: sim.EnvNative, Design: sim.DesignDMT, Workload: a.wl,
				WSBytes: o.WSBytes, Ops: o.Ops, Seed: o.Seed,
				CacheScale: o.CacheScale, Workers: o.Workers,
			}
			a.set(&cfg, i)
			o.Logf("ablation %s %s=%s ...", a.wl.Name, a.knob, label)
			res, err := sim.Run(cfg)
			if err != nil {
				return "", fmt.Errorf("ablation %s %s=%s: %w", a.wl.Name, a.knob, label, err)
			}
			row := []interface{}{label, fmt.Sprintf("%.2f%%", res.Coverage*100)}
			if a.cycles {
				row = append(row, res.AvgWalkCycles())
			}
			t.Add(row...)
		}
		b.WriteString(t.String() + "\n")
	}
	return b.String(), nil
}
