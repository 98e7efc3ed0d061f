// Command benchcheck is the benchmark's regression gate. It compares runs of
// bench/run.sh on the parent commit with runs on the change, made on the same
// runner, and applies the end-to-end bounds BENCHMARK.json declares:
//
//	go run ./cmd/benchcheck -parent p1.txt,p2.txt,p3.txt -change c1.txt,c2.txt,c3.txt
//
// Each file holds one run's standard output: its "# bench workload=NAME"
// header names the workload, and its last non-empty line is the JSON result.
// For each workload and each end-to-end metric, benchcheck takes the median of
// each side and fails when the change is worse than the parent by more than
// the metric's bound in its better direction. It also fails when a change run
// reports correct: false, or when the change fails a larger share of the
// operations it attempted than the parent. Both sides run on one host, so host
// speed cancels out of the comparison instead of being estimated.
//
// Exit status: 0 when every bound holds, 1 on a regression, 2 on bad input
// (a missing file, workload or metric is an error, never a pass).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dmt/internal/stats"
)

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is bench/run.sh's JSON result line, tagged with its workload.
type result struct {
	workload  string
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseResult reads one run's output: the workload from its header line and
// the result from its last non-empty line.
func parseResult(name, out string) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "# bench workload="); ok {
			r.workload, _, _ = strings.Cut(rest, " ")
		}
	}
	if r.workload == "" {
		return r, fmt.Errorf("%s: no \"# bench workload=\" line", name)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return r, nil
}

// check compares the two sides workload by workload. It returns one report
// line per metric and one line per violation; an error means the inputs
// cannot be compared.
func check(bounds []bound, parent, change []result) (report, bad []string, err error) {
	if len(bounds) == 0 {
		return nil, nil, fmt.Errorf("no end-to-end metrics declared")
	}
	ps, cs := map[string][]result{}, map[string][]result{}
	for _, r := range parent {
		ps[r.workload] = append(ps[r.workload], r)
	}
	for _, r := range change {
		cs[r.workload] = append(cs[r.workload], r)
	}
	var names []string
	for w := range ps {
		names = append(names, w)
	}
	for w := range cs {
		if ps[w] == nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		p, c := ps[w], cs[w]
		if p == nil || c == nil {
			return nil, nil, fmt.Errorf("workload %s: %d parent and %d change runs", w, len(p), len(c))
		}
		for i, r := range c {
			if !r.Correct {
				bad = append(bad, fmt.Sprintf("%s: change run %d reports correct: false", w, i+1))
			}
		}
		if pf, cf := failedShare(p), failedShare(c); cf > pf {
			bad = append(bad, fmt.Sprintf("%s: change fails %.3g of its operations, parent %.3g", w, cf, pf))
		}
		for _, b := range bounds {
			pm, err := median(w, b.Name, p)
			if err != nil {
				return nil, nil, fmt.Errorf("parent: %w", err)
			}
			cm, err := median(w, b.Name, c)
			if err != nil {
				return nil, nil, fmt.Errorf("change: %w", err)
			}
			rel := cm/pm - 1
			worse := rel > b.Bound
			if b.Better == "higher" {
				worse = -rel > b.Bound
			}
			line := fmt.Sprintf("%s %s: parent %.4g, change %.4g (%+.1f %%, bound %.1f %%, %s is better)",
				w, b.Name, pm, cm, 100*rel, 100*b.Bound, b.Better)
			report = append(report, line)
			if worse {
				bad = append(bad, line)
			}
		}
	}
	return report, bad, nil
}

func failedShare(rs []result) float64 {
	var att, failed int64
	for _, r := range rs {
		att, failed = att+r.Attempted, failed+r.Failed
	}
	if att == 0 {
		return 1
	}
	return float64(failed) / float64(att)
}

// median is the nearest-rank median: the lower middle for an even count.
func median(workload, metric string, rs []result) (float64, error) {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		m, ok := r.Metrics[metric]
		if !ok {
			return 0, fmt.Errorf("workload %s: run %d has no metric %s", workload, i+1, metric)
		}
		xs[i] = m.Value
	}
	return stats.Percentile(xs, 50), nil
}

// readBounds reads the end-to-end metrics of a benchmark declaration.
func readBounds(path string) ([]bound, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, b := range spec.EndToEnd {
		if b.Better != "lower" && b.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, b.Name, b.Better)
		}
	}
	return spec.EndToEnd, nil
}

func load(files string) ([]result, error) {
	var rs []result
	for _, f := range strings.Split(files, ",") {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r, err := parseResult(f, string(buf))
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	return rs, nil
}

func run(parentFiles, changeFiles string) (int, error) {
	if parentFiles == "" || changeFiles == "" {
		return 2, fmt.Errorf("-parent and -change are both required")
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return 2, err
	}
	parent, err := load(parentFiles)
	if err != nil {
		return 2, err
	}
	change, err := load(changeFiles)
	if err != nil {
		return 2, err
	}
	report, bad, err := check(bounds, parent, change)
	if err != nil {
		return 2, err
	}
	for _, l := range report {
		fmt.Println(l)
	}
	if len(bad) > 0 {
		fmt.Printf("benchcheck: %d violation(s):\n", len(bad))
		for _, l := range bad {
			fmt.Println("  " + l)
		}
		return 1, nil
	}
	fmt.Printf("benchcheck: every end-to-end metric within its bound (%d parent, %d change runs)\n",
		len(parent), len(change))
	return 0, nil
}

func main() {
	parent := flag.String("parent", "", "comma-separated bench/run.sh outputs of the parent commit")
	change := flag.String("change", "", "comma-separated bench/run.sh outputs of the change")
	flag.Parse()
	code, err := run(*parent, *change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
	}
	os.Exit(code)
}
