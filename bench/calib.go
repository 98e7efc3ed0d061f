package main

import (
	"math"
	"time"
)

// The host this benchmark runs on is shared: for minutes at a time it runs
// the simulator 30–80 % slower, and set-up and stepping slow together. No
// statistic over one run removes a slowdown that lasts the whole run, so
// every host time is scaled by how fast the host ran a fixed reference
// kernel just before and just after the timed work:
//
//	reported = measured × refNominalNs / mean(kernel before, kernel after)
//
// The kernel is this file's code alone and must never change: changing it
// re-bases every time the benchmark reports.

// refNominalNs is the kernel's ns per iteration on a 2-vCPU Xeon at
// 2.1 GHz (42.4, the median of 1,872 runs over 8 minutes there, beside
// simulator cells), so that on such a host reported times are close to
// measured ones.
const refNominalNs = 42.0

// refWays is the kernel's associativity. Its two tables hold 8-byte tags:
// 4 MiB, larger than the L2 and a share of the L3, and 64 MiB, which lives
// in DRAM; the simulator's own tables span both.
const refWays = 8

var refTables = [2][]uint64{make([]uint64, 1<<19), make([]uint64, 1<<23)}

// refIters per table take about 2.3 ms each at the nominal speed: short
// enough to sit within the same host state as the work beside them.
var refIters = [2]int{50_000, 25_000}

var refSink uint64

// refNs runs the reference kernel, a set-associative cache model with LRU
// order driven by a xorshift address stream: tag compares, data-dependent
// branches and loads, the kind of host work the simulator does. It runs
// over both tables and returns the geometric mean of their host ns per
// iteration: over the smaller it slows when a neighbour shares the core or
// the L3, over the larger when one shares memory bandwidth.
func refNs() float64 {
	return math.Sqrt(refRun(refTables[0], refIters[0]) * refRun(refTables[1], refIters[1]))
}

func refRun(tags []uint64, iters int) float64 {
	sets := uint64(len(tags) / refWays)
	x := uint64(88172645463325252)
	var hits uint64
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x >> 6 & (1<<30 - 1)
		base := addr % sets * refWays
		tag := addr/sets + 1
		way := refWays - 1 // on a miss the LRU way is evicted
		for w := uint64(0); w < refWays; w++ {
			if tags[base+w] == tag {
				way = int(w)
				hits++
				break
			}
		}
		copy(tags[base+1:base+uint64(way)+1], tags[base:base+uint64(way)])
		tags[base] = tag
	}
	d := time.Since(t0)
	refSink += hits
	return float64(d.Nanoseconds()) / float64(iters)
}

// refBytes is the kernel's share of the heap, which the live-heap metric
// leaves out.
var refBytes = uint64(8 * (len(refTables[0]) + len(refTables[1])))

// scaleFor is the factor that takes host times measured between two kernel
// runs to the nominal speed.
func scaleFor(before, after float64) float64 {
	return refNominalNs / ((before + after) / 2)
}
