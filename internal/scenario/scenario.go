// Package scenario drives long-horizon cloud-node aging experiments: one
// simulated node hosting hundreds of VMs over millions of lifecycle events
// — boots, deaths, guest mmap/munmap churn, THP splits and collapses,
// periodic compaction, and background TEA-migration windows reusing the
// §4.3 machinery. Where internal/sim measures steady-state walk latency,
// this package measures what a node looks like after days of churn: TEA
// allocation success versus fragmentation, the defrag cost of keeping TEAs
// machine-contiguous, and how register coverage and walk tails age.
//
// Determinism contract (DESIGN.md §8/§12): a run's Result is a pure
// function of its Config. Shards are independent node replicas seeded by
// splitmix64(Seed, shard); Workers only decides which goroutine simulates
// which shard, and per-epoch rows are merged in shard order — Workers: 1
// and Workers: 8 are bit-identical.
//
// With Verify set, the lifecycle conservation oracle (internal/check) runs
// at every epoch boundary: every frame allocated is freed exactly once,
// FreeFrames plus live claims tiles the machine at all times, VMAs never
// overlap, and TEA region/register bookkeeping stays consistent after
// every churn event. An oracle violation aborts the run with an error.
package scenario

import (
	"fmt"

	"dmt/internal/obs"
	"dmt/internal/shard"
)

// Config parameterizes one aging campaign cell.
type Config struct {
	// Design selects the node's translation stack: "dmt" runs native
	// processes under DMT-Linux (TEA manager + phys backend); "pvdmt"
	// boots real virt.VMs whose guests allocate gTEAs by hypercall.
	Design string
	Seed   int64
	// Events is the total number of churn events across all shards.
	Events int
	// VMs is the per-shard target of concurrently live VMs; the event mix
	// boots toward it and kills above half of it, so occupancy oscillates
	// in [VMs/2, VMs] at steady state.
	VMs int
	// Epochs is the number of node-age sampling points per shard.
	Epochs int
	// Shards is the number of independent node replicas.
	Shards int
	// Workers sizes the goroutine pool over shards (results-invariant).
	Workers int
	// MemMiB is each node's physical memory.
	MemMiB int
	// THP enables transparent huge pages (and the split/collapse events).
	THP bool
	// Verify runs the conservation oracle at every epoch boundary.
	Verify bool
	// CheckEvery adds an oracle run every N events (0 = epochs only).
	CheckEvery int
	// WalkSamples is the number of translation walks sampled per VM at
	// each epoch boundary for the latency-tail histogram.
	WalkSamples int
}

// WithDefaults returns the config with every unset field filled in,
// exactly as Run applies them — callers (the experiments campaign) use it
// to report the effective cell parameters.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Design == "" {
		c.Design = "dmt"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Events <= 0 {
		c.Events = 200_000
	}
	if c.VMs <= 0 {
		c.VMs = 64
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Workers <= 0 {
		c.Workers = c.Shards
	}
	if c.MemMiB <= 0 {
		c.MemMiB = 256
	}
	if c.WalkSamples <= 0 {
		c.WalkSamples = 48
	}
	return c
}

// EpochRow is one node-age sample, merged across shards: counters are
// per-epoch deltas summed over shards, fragmentation indices are summed
// (divide by Shards for the mean), and the walk histogram is merged.
type EpochRow struct {
	Epoch   int
	Events  int // events processed during this epoch (all shards)
	LiveVMs int // live VMs at the boundary (all shards)

	Boots, BootFailures, Kills uint64

	// TEAAllocs counts successful machine-contiguous TEA allocations
	// (phys.AllocContig successes: every TEA and gTEA goes through it);
	// TEAFailures counts TEA allocation failures reported by the managers.
	TEAAllocs   uint64
	TEAFailures uint64
	// FramesMigrated counts buddy-allocator frame migrations — the work
	// spent defragmenting for contiguity (AllocContig windows + Compact).
	FramesMigrated uint64

	// Frag4Sum and Frag9Sum are FragmentationIndex(4) and (9) summed over
	// shards at the boundary.
	Frag4Sum, Frag9Sum float64

	// RegCovered / RegSpan are bytes of VA covered by present DMT
	// registers versus bytes of VA carrying TEA mappings.
	RegCovered, RegSpan uint64

	// Walk is the latency histogram (simulated cycles) of the boundary's
	// sampled translations.
	Walk obs.Hist

	// Shards is the replica count the row aggregates (for means).
	Shards int
}

// TEASuccessRate returns successful TEA allocations over attempts.
func (r *EpochRow) TEASuccessRate() float64 {
	attempts := r.TEAAllocs + r.TEAFailures
	if attempts == 0 {
		return 1
	}
	return float64(r.TEAAllocs) / float64(attempts)
}

// DefragCost returns frames migrated per successful contiguous allocation.
func (r *EpochRow) DefragCost() float64 {
	if r.TEAAllocs == 0 {
		return 0
	}
	return float64(r.FramesMigrated) / float64(r.TEAAllocs)
}

// Frag4 and Frag9 return the mean fragmentation index across shards.
func (r *EpochRow) Frag4() float64 { return r.Frag4Sum / float64(r.Shards) }
func (r *EpochRow) Frag9() float64 { return r.Frag9Sum / float64(r.Shards) }

// RegisterCoverage returns the fraction of TEA-mapped VA bytes covered by
// a present register.
func (r *EpochRow) RegisterCoverage() float64 {
	if r.RegSpan == 0 {
		return 1
	}
	return float64(r.RegCovered) / float64(r.RegSpan)
}

// Result is the outcome of one aging run.
type Result struct {
	Config       Config
	Rows         []EpochRow
	OracleChecks int // conservation-oracle executions across shards
}

type shardResult struct {
	rows   []EpochRow
	checks int
}

// Run executes the scenario and merges per-shard epoch rows in shard
// order. The Result is bit-identical for any Workers value.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Design != "dmt" && cfg.Design != "pvdmt" {
		return nil, fmt.Errorf("scenario: unknown design %q (want dmt or pvdmt)", cfg.Design)
	}
	outs := make([]shardResult, cfg.Shards)
	err := shard.Run(cfg.Shards, cfg.Workers, func(s int) error {
		out, err := runShard(cfg, s)
		if err != nil {
			return fmt.Errorf("scenario: shard %d: %w", s, err)
		}
		outs[s] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Config: cfg, Rows: make([]EpochRow, cfg.Epochs)}
	for e := range res.Rows {
		res.Rows[e].Epoch = e
		res.Rows[e].Shards = cfg.Shards
	}
	for _, out := range outs {
		res.OracleChecks += out.checks
		for e, row := range out.rows {
			dst := &res.Rows[e]
			dst.Events += row.Events
			dst.LiveVMs += row.LiveVMs
			dst.Boots += row.Boots
			dst.BootFailures += row.BootFailures
			dst.Kills += row.Kills
			dst.TEAAllocs += row.TEAAllocs
			dst.TEAFailures += row.TEAFailures
			dst.FramesMigrated += row.FramesMigrated
			dst.Frag4Sum += row.Frag4Sum
			dst.Frag9Sum += row.Frag9Sum
			dst.RegCovered += row.RegCovered
			dst.RegSpan += row.RegSpan
			dst.Walk.Merge(&row.Walk)
		}
	}
	return res, nil
}
