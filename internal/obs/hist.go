// Package obs is the observability substrate of the simulator: power-of-two
// latency histograms with exact extrema, and named counter snapshots. The
// package is built for the engine's determinism contract — histograms and
// counters merge commutatively across shards, so a run's observability
// output is a pure function of (Config minus Workers) exactly like its
// Result (DESIGN.md §10).
//
// Cost model: histogram observation and counter snapshots are unconditional
// and allocation-free (two array increments per walk; counters are read once
// at Finish), so the walk hot path allocates nothing.
// sim.TestStepBatchZeroAllocs pins this at 0 allocs per batch in every
// environment × design cell.
package obs

import (
	"fmt"
	"math"
	"math/bits"
)

// histBuckets is one bucket per possible bits.Len64 value: bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// Bucket 0 holds exact zeros.
const histBuckets = 65

// Hist is a power-of-two-bucketed histogram of uint64 samples (walk latency
// in simulated cycles). Count, Sum, Min, and Max are exact; quantiles are
// resolved to the upper bound of the containing bucket, so any reported
// quantile is within one power-of-two bucket of the exact order statistic
// (FuzzHistMergeQuantiles pins both properties). The zero value is an empty,
// ready-to-use histogram; Observe and Merge never allocate.
type Hist struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(v)]++
}

// ObserveBatch records every sample of vs, exactly as if Observe had been
// called once per element in order: Count, Sum, Min, Max, and every bucket
// end up bit-identical (TestHistObserveBatchEquivalence pins this). Extrema
// and the sum are accumulated in locals and folded in once, so flushing a
// buffer of samples touches the struct O(1) times. Only the benchmark's
// layer ledger (bench/) calls it.
func (h *Hist) ObserveBatch(vs []uint64) {
	if len(vs) == 0 {
		return
	}
	mn, mx := vs[0], vs[0]
	var sum uint64
	for _, v := range vs {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		sum += v
		h.Buckets[bits.Len64(v)]++
	}
	if h.Count == 0 || mn < h.Min {
		h.Min = mn
	}
	if mx > h.Max {
		h.Max = mx
	}
	h.Count += uint64(len(vs))
	h.Sum += sum
}

// Merge folds o into h bucket-wise. Merging is commutative and associative,
// matching the shard-merge contract: merge(a,b) == merge(b,a) for every
// derived quantity.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
}

// Mean returns the exact arithmetic mean of the samples (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the p-th percentile (0–100) resolved to bucket
// granularity: the upper bound of the bucket containing the p-th order
// statistic, clamped into [Min, Max] so exact extrema are never exceeded.
// Quantile(100) == Max exactly.
func (h *Hist) Quantile(p float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= rank {
			ub := bucketUpper(i)
			if ub > h.Max {
				ub = h.Max
			}
			if ub < h.Min {
				ub = h.Min
			}
			return ub
		}
	}
	return h.Max
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// String renders the headline quantities, the shape dmtsim and the figure
// tables print.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p90=%d p99=%d max=%d",
		h.Count, h.Mean(), h.Quantile(50), h.Quantile(90), h.Quantile(99), h.Max)
}
