package shard

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunLowestFailure runs f serially and on pools of several sizes: every
// schedule must report the lowest failing shard's error, no shard may run
// twice, and a run without failures must call f exactly once per shard.
func TestRunLowestFailure(t *testing.T) {
	const shards = 32
	cases := []struct {
		name string
		fail []int // failing shard indices
		want string
	}{
		{"none", nil, ""},
		{"first", []int{0}, "shard 0"},
		{"last", []int{shards - 1}, "shard 31"},
		{"several", []int{5, 17, 3, 30}, "shard 3"},
		{"all", allShards(shards), "shard 0"},
	}
	for _, tc := range cases {
		failing := map[int]bool{}
		for _, s := range tc.fail {
			failing[s] = true
		}
		for _, workers := range []int{0, 1, 2, 8, shards, 4 * shards} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				calls := make([]atomic.Int32, shards)
				err := Run(shards, workers, func(s int) error {
					calls[s].Add(1)
					// Lower shards finish later, so a pool records its
					// failures out of index order.
					time.Sleep(time.Duration(shards-s) * 50 * time.Microsecond)
					if failing[s] {
						return fmt.Errorf("shard %d", s)
					}
					return nil
				})
				got := ""
				if err != nil {
					got = err.Error()
				}
				if got != tc.want {
					t.Fatalf("error %q, want %q", got, tc.want)
				}
				for s := range calls {
					if n := calls[s].Load(); n > 1 || (tc.fail == nil && n != 1) {
						t.Fatalf("shard %d ran %d times", s, n)
					}
				}
			})
		}
	}
}

func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestOps: the slices cover the budget exactly, leading shards take the
// remainder, and no two shards differ by more than one.
func TestOps(t *testing.T) {
	for _, tc := range []struct{ total, n int }{{0, 1}, {10, 1}, {10, 3}, {7, 8}, {1_000_003, 16}} {
		sum := 0
		for s := 0; s < tc.n; s++ {
			o := Ops(tc.total, s, tc.n)
			if o != tc.total/tc.n && o != tc.total/tc.n+1 {
				t.Fatalf("Ops(%d, %d, %d) = %d", tc.total, s, tc.n, o)
			}
			if s > 0 && o > Ops(tc.total, s-1, tc.n) {
				t.Fatalf("Ops(%d, %d, %d) = %d exceeds shard %d", tc.total, s, tc.n, o, s-1)
			}
			sum += o
		}
		if sum != tc.total {
			t.Fatalf("Ops over %d shards sums to %d, want %d", tc.n, sum, tc.total)
		}
	}
}

// TestSeed pins splitmix64 values: every shard's trace and fault-plan
// stream, and so every sharded golden, derives from them.
func TestSeed(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		s    int
		want int64
	}{
		{42, 0, -4767286540954276203},
		{42, 1, 2949826092126892291},
		{11, 7, -4058614896001378838},
		{0, 0, -2152535657050944081},
		{-1, 3, 7862637804313477842},
	} {
		if got := Seed(tc.seed, tc.s); got != tc.want {
			t.Errorf("Seed(%d, %d) = %d, want %d", tc.seed, tc.s, got, tc.want)
		}
	}
	seen := map[int64]bool{}
	for s := 0; s < 64; s++ {
		v := Seed(11, s)
		if v == 0 || seen[v] {
			t.Fatalf("Seed(11, %d) = %d repeats or is zero", s, v)
		}
		seen[v] = true
	}
}
