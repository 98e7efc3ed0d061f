package experiments

import (
	"fmt"

	"dmt/internal/scenario"
	"dmt/internal/stats"
)

// AgingOptions sizes the long-horizon cloud-node aging campaign (§7 of the
// paper's discussion: TEA contiguity under memory fragmentation). Unlike
// the trace-driven experiments above, an aging cell is not a sim.Config —
// it drives real kernel/tea/virt state through millions of lifecycle
// events — so the campaign takes its own options rather than a Runner.
type AgingOptions struct {
	// Designs lists the node stacks to age (nil = native dmt and pvdmt).
	Designs []string
	// Events is the lifecycle-event count per design cell.
	Events int
	// VMs is the per-shard live-VM target.
	VMs int
	// Epochs is the number of node-age sampling points.
	Epochs int
	// Shards / Workers configure the replica pool (results depend on
	// Shards only; Workers is results-invariant).
	Shards  int
	Workers int
	// MemMiB is each node's physical memory.
	MemMiB int
	// Seed drives the event streams.
	Seed int64
	// THP enables transparent huge pages and the split/collapse events.
	THP bool
	// Verify arms the lifecycle conservation oracle at every epoch.
	Verify bool
	// CheckEvery adds an oracle run every N events (0 = epochs only).
	CheckEvery int
	// Logf emits progress lines.
	Logf func(format string, args ...interface{})
}

func (o AgingOptions) withDefaults() AgingOptions {
	if len(o.Designs) == 0 {
		o.Designs = []string{"dmt", "pvdmt"}
	}
	if o.Events <= 0 {
		o.Events = 200_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	return o
}

// AgingCampaign ages one simulated cloud node per design through the full
// lifecycle-churn scenario and renders the node-age × metric table: TEA
// allocation success against fragmentation, the defrag cost of keeping
// TEAs machine-contiguous, free-memory fragmentation indices, DMT register
// coverage, and the sampled walk-latency tail. With Verify set the
// conservation oracle runs at every epoch boundary and any leak or double
// free aborts the campaign with an error.
func AgingCampaign(opt AgingOptions) (string, error) {
	opt = opt.withDefaults()
	t := &stats.Table{
		Title: fmt.Sprintf("Node aging: lifecycle churn over %d events (seed %d, %d MiB nodes, THP=%v)",
			opt.Events, opt.Seed, cfgFor(opt, "dmt").MemMiB, opt.THP),
		Header: []string{"Design", "Epoch", "Live", "Boots", "Kills",
			"TEA ok", "Defrag", "Frag(4)", "Frag(9)", "Reg cov", "p50", "p99", "Max"},
	}
	checks := 0
	for _, design := range opt.Designs {
		opt.Logf("aging %s: %d events x %d shards ...", design, opt.Events, cfgFor(opt, design).Shards)
		res, err := scenario.Run(cfgFor(opt, design))
		if err != nil {
			return "", fmt.Errorf("aging %s: %w", design, err)
		}
		checks += res.OracleChecks
		for i := range res.Rows {
			row := &res.Rows[i]
			t.Add(design, row.Epoch, row.LiveVMs, row.Boots, row.Kills,
				fmt.Sprintf("%.1f%%", row.TEASuccessRate()*100),
				fmt.Sprintf("%.1f", row.DefragCost()),
				fmt.Sprintf("%.2f", row.Frag4()),
				fmt.Sprintf("%.2f", row.Frag9()),
				fmt.Sprintf("%.1f%%", row.RegisterCoverage()*100),
				row.Walk.Quantile(50), row.Walk.Quantile(99), row.Walk.Max)
		}
	}
	out := t.String()
	if opt.Verify {
		out += fmt.Sprintf("conservation oracle: %d checks, every frame accounted at every epoch.\n\n", checks)
	}
	return out, nil
}

// cfgFor builds the scenario config for one design cell.
func cfgFor(opt AgingOptions, design string) scenario.Config {
	return scenario.Config{
		Design: design, Seed: opt.Seed, Events: opt.Events, VMs: opt.VMs,
		Epochs: opt.Epochs, Shards: opt.Shards, Workers: opt.Workers,
		MemMiB: opt.MemMiB, THP: opt.THP, Verify: opt.Verify,
		CheckEvery: opt.CheckEvery,
	}.WithDefaults()
}
