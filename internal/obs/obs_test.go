package obs

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestHistExactExtremaAndMean(t *testing.T) {
	var h Hist
	samples := []uint64{0, 1, 7, 8, 100, 1000, 1000, 65536}
	var sum uint64
	for _, s := range samples {
		h.Observe(s)
		sum += s
	}
	if h.Count != uint64(len(samples)) {
		t.Fatalf("Count = %d, want %d", h.Count, len(samples))
	}
	if h.Min != 0 || h.Max != 65536 {
		t.Fatalf("Min/Max = %d/%d, want 0/65536", h.Min, h.Max)
	}
	if got, want := h.Mean(), float64(sum)/float64(len(samples)); got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if h.Quantile(100) != h.Max {
		t.Fatalf("Quantile(100) = %d, want Max %d", h.Quantile(100), h.Max)
	}
}

// exactPercentile mirrors stats.Percentile's nearest-rank definition.
func exactPercentile(xs []uint64, p float64) uint64 {
	sorted := append([]uint64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// withinOneBucket reports whether approx is in the same power-of-two
// bucket as exact or above it by at most the bucket's width (the histogram
// reports the containing bucket's upper bound).
func withinOneBucket(exact, approx uint64) bool {
	if exact == approx {
		return true
	}
	if approx < exact {
		return false
	}
	// approx must be < 2*exact+2 (same bucket upper bound).
	return approx <= 2*exact+1
}

func TestHistQuantileWithinOneBucket(t *testing.T) {
	samples := []uint64{3, 5, 9, 17, 33, 120, 121, 122, 4000, 4096, 9999}
	var h Hist
	for _, s := range samples {
		h.Observe(s)
	}
	for _, p := range []float64{0, 10, 50, 90, 99, 100} {
		exact := exactPercentile(samples, p)
		got := h.Quantile(p)
		if !withinOneBucket(exact, got) {
			t.Errorf("Quantile(%v) = %d, exact %d: outside one bucket", p, got, exact)
		}
	}
}

// TestHistObserveBatchEquivalence pins the batch-flush contract: one
// ObserveBatch call is exactly N scalar Observes — Count, Sum, Min, Max,
// every bucket, and therefore every quantile — including batches that are
// empty, all-zero, single element, split at arbitrary points, or appended
// to a pre-populated histogram.
func TestHistObserveBatchEquivalence(t *testing.T) {
	batches := [][]uint64{
		{},
		{0},
		{42},
		{0, 0, 0},
		{1, 2, 4, 8, 16, 1 << 40, 7, 7, 7},
		{math.MaxUint64, 0, math.MaxUint64},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
	}
	// A deterministic pseudo-random batch, long enough to cross internal
	// accumulation boundaries.
	long := make([]uint64, 4096)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range long {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		long[i] = x >> (i % 48)
	}
	batches = append(batches, long)

	for i, vs := range batches {
		var scalar, batched Hist
		for _, v := range vs {
			scalar.Observe(v)
		}
		batched.ObserveBatch(vs)
		if !reflect.DeepEqual(scalar, batched) {
			t.Fatalf("batch %d: ObserveBatch diverged from %d Observes:\nscalar:  %+v\nbatched: %+v",
				i, len(vs), scalar, batched)
		}
		for _, p := range []float64{0, 50, 99, 100} {
			if scalar.Quantile(p) != batched.Quantile(p) {
				t.Fatalf("batch %d: Quantile(%v) differs", i, p)
			}
		}

		// Splitting a batch anywhere must not change anything either —
		// the engine flushes one batch per StepBatch call, at whatever
		// span boundaries the fault schedule produced.
		for _, cut := range []int{0, len(vs) / 3, len(vs) / 2, len(vs)} {
			var split Hist
			split.ObserveBatch(vs[:cut])
			split.ObserveBatch(vs[cut:])
			if !reflect.DeepEqual(scalar, split) {
				t.Fatalf("batch %d split at %d diverged:\nscalar: %+v\nsplit:  %+v", i, cut, scalar, split)
			}
		}
	}
}

func TestHistMergeCommutes(t *testing.T) {
	var a, b Hist
	for i := uint64(0); i < 100; i++ {
		a.Observe(i * 3)
		b.Observe(i*7 + 1)
	}
	m1 := a
	m1.Merge(&b)
	m2 := b
	m2.Merge(&a)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("merge(a,b) != merge(b,a)")
	}
	if m1.Count != a.Count+b.Count {
		t.Fatalf("merged Count = %d, want %d", m1.Count, a.Count+b.Count)
	}
	var empty Hist
	m3 := a
	m3.Merge(&empty)
	if !reflect.DeepEqual(m3, a) {
		t.Fatal("merging an empty histogram changed the receiver")
	}
}

func TestCountersMergeAndDump(t *testing.T) {
	a := Counters{"x": 1, "y": 2}
	b := Counters{"y": 3, "z": 4}
	a.Merge(b)
	want := Counters{"x": 1, "y": 5, "z": 4}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("merged = %v, want %v", a, want)
	}
	d := a.Dump()
	if !strings.Contains(d, "x") || !strings.Contains(d, "5") {
		t.Fatalf("dump missing entries:\n%s", d)
	}
	lines := strings.Split(strings.TrimSpace(d), "\n")
	if len(lines) != 3 || !sort.StringsAreSorted(lines) {
		t.Fatalf("dump not sorted:\n%s", d)
	}
}
