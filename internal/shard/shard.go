// Package shard is the deterministic shard runner shared by the trace
// engine (internal/sim) and the aging scenarios (internal/scenario). A run
// is split into n independent shards: shard s gets Ops(total, s, n) of the
// work and a stream seeded by Seed(seed, s), and Run simulates the shards
// serially or on a goroutine pool. Each shard's outcome depends only on its
// index, so the worker count never changes what a run computes or which
// error it reports (DESIGN.md §8).
package shard

import (
	"sync"
	"sync/atomic"
)

// Ops slices a budget of total over n shards: total/n each, the remainder
// spread one at a time over the leading shards.
func Ops(total, s, n int) int {
	base := total / n
	if s < total%n {
		base++
	}
	return base
}

// Seed decorrelates per-shard randomness with a splitmix64 step, so shard
// streams are independent rather than offset copies. It never returns 0,
// which callers would re-default.
func Seed(seed int64, s int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(s+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return int64(z)
}

// Run calls f at most once for each shard in [0, shards), every shard when
// none fails, and returns the error of the lowest-index shard that failed,
// or nil. When min(workers, shards) <= 1 it calls f serially and stops at
// the first failure. Otherwise that many goroutines take shards in index
// order and stop taking new ones after any failure: every shard below a
// failed one has already been taken, so the lowest failure is the same as
// the serial run's. f annotates its own error; Run returns it unchanged.
func Run(shards, workers int, f func(s int) error) error {
	workers = min(workers, shards)
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			if err := f(s); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, shards)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				s := int(next.Add(1) - 1)
				if s >= shards {
					return
				}
				if errs[s] = f(s); errs[s] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
