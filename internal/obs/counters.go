package obs

import (
	"fmt"
	"sort"
	"strings"
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
