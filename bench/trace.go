package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer, or a phase of the
// benchmark itself. A span's layer is its name up to the first dot.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay untraced: every call site costs
// one nil check.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span whose end is set later by end; its id is the parent
// of the spans recorded inside it.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	return t.push(span{Parent: parent, Name: name, StartNs: now, EndNs: now})
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
}

// add records a finished span from timestamps the caller already took.
func (t *tracer) add(parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.push(span{Parent: parent, Name: name, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) push(s span) int {
	s.ID = len(t.spans) + 1
	s.Workload = t.workload
	t.spans = append(t.spans, s)
	return s.ID
}

// reserve makes room for n more spans up front, so the step loop's own
// allocation count stays that of the simulator alone.
func (t *tracer) reserve(n int) {
	if t == nil || cap(t.spans)-len(t.spans) >= n {
		return
	}
	grown := make([]span, len(t.spans), len(t.spans)+n+cap(t.spans)/2)
	copy(grown, t.spans)
	t.spans = grown
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// child spans cover.
func selfTimes(spans []span) map[string]int64 {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[layerOf(s.Name)] += s.EndNs - s.StartNs - child[s.ID]
	}
	return out
}

func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	var total int64
	for l, ns := range self {
		layers = append(layers, l)
		total += ns
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "# self time by layer (%d spans)\n", len(spans))
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-12s %10.1f ms  %5.1f%%\n", l, float64(self[l])/1e6, 100*ratio(float64(self[l]), float64(total)))
	}
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
