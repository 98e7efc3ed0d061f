package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Counters is a named-counter snapshot: the per-run (and per-shard)
// counter surface carried in sim.Result. Merging sums by name, so shard
// merges and run aggregation stay commutative.
type Counters map[string]uint64

// Add increments name by v, materializing the entry.
func (c Counters) Add(name string, v uint64) { c[name] += v }

// Merge folds o into c by name.
func (c Counters) Merge(o Counters) {
	for k, v := range o {
		c[k] += v
	}
}

// Names returns the counter names in sorted order.
func (c Counters) Names() []string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Dump renders the counters as sorted "name value" lines.
func (c Counters) Dump() string {
	var b strings.Builder
	for _, k := range c.Names() {
		fmt.Fprintf(&b, "%-40s %d\n", k, c[k])
	}
	return b.String()
}

// Registry is the process-wide counter accumulator: runs fold their merged
// Result counters into it, and the build cache records clone-vs-cold-build
// traffic. It is concurrency-safe and deliberately off the walk hot path —
// nothing in Step/Walk touches it.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]uint64{}}
}

// Default is the process-wide registry that cmd/dmtsim -counters dumps.
var Default = NewRegistry()

// Add increments a counter.
func (r *Registry) Add(name string, v uint64) {
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// AddAll folds a counter snapshot into the registry.
func (r *Registry) AddAll(c Counters) {
	r.mu.Lock()
	for k, v := range c {
		r.counters[k] += v
	}
	r.mu.Unlock()
}

// Snapshot copies the current counters.
func (r *Registry) Snapshot() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Counters, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Dump renders the registry as sorted text lines.
func (r *Registry) Dump() string { return r.Snapshot().Dump() }
