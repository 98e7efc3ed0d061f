package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// out is one bench/run.sh output: the header naming the workload, then the
// result line.
func out(workload string, correct bool, failed int64, opNs, opsPerS float64) string {
	return fmt.Sprintf("# bench workload=%s seed=11 seconds=5 quick=false trace=false repeat=1\n"+
		`{"correct":%v,"attempted":1000,"failed":%d,"metrics":{"op_ns_p50":{"value":%g,"unit":"ns"},"ops_per_s":{"value":%g,"unit":"1/s"}}}`+"\n",
		workload, correct, failed, opNs, opsPerS)
}

var testBounds = []bound{{"op_ns_p50", "lower", 0.25}, {"ops_per_s", "higher", 0.25}}

func parseAll(t *testing.T, outs []string) []result {
	t.Helper()
	rs := make([]result, len(outs))
	for i, o := range outs {
		r, err := parseResult(fmt.Sprint("run", i), o)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	return rs
}

func TestCheck(t *testing.T) {
	ok := out("w1", true, 0, 100, 1e6)
	three := func(s string) []string { return []string{s, s, s} }
	for _, tc := range []struct {
		name           string
		parent, change []string
		bad            []string // per expected violation, a substring of its line
		err            string   // substring of the expected error
	}{
		{name: "identical sides pass", parent: three(ok), change: three(ok)},
		{name: "lower is better and worse than its bound",
			parent: three(ok), change: three(out("w1", true, 0, 130, 1e6)), bad: []string{"w1 op_ns_p50"}},
		{name: "higher is better and worse than its bound",
			parent: three(ok), change: three(out("w1", true, 0, 100, 0.7e6)), bad: []string{"w1 ops_per_s"}},
		{name: "worse inside the bound passes",
			parent: three(ok), change: three(out("w1", true, 0, 124, 0.76e6))},
		{name: "better by more than the bound passes",
			parent: three(ok), change: three(out("w1", true, 0, 50, 2e6))},
		{name: "median leaves one outlier per side out",
			parent: []string{ok, out("w1", true, 0, 300, 0.1e6), ok},
			change: []string{out("w1", true, 0, 90, 1e6), out("w1", true, 0, 200, 0.5e6), ok}},
		{name: "median of three runs worse than its bound",
			parent: three(ok),
			change: []string{out("w1", true, 0, 130, 1e6), out("w1", true, 0, 140, 1e6), out("w1", true, 0, 90, 1e6)},
			bad:    []string{"w1 op_ns_p50"}},
		{name: "correct false fails",
			parent: three(ok), change: []string{ok, out("w1", false, 0, 100, 1e6), ok}, bad: []string{"run 2 reports correct: false"}},
		{name: "higher failed share fails",
			parent: three(ok), change: []string{ok, out("w1", true, 1, 100, 1e6), ok}, bad: []string{"w1: change fails"}},
		{name: "only the worse workload is named",
			parent: []string{ok, out("w2", true, 0, 100, 1e6)},
			change: []string{ok, out("w2", true, 0, 130, 1e6)}, bad: []string{"w2 op_ns_p50"}},
		{name: "metric missing on the change side is an error",
			parent: three(ok), change: []string{"# bench workload=w1\n" + `{"correct":true,"attempted":1,"metrics":{"op_ns_p50":{"value":100}}}`},
			err: "change: workload w1: run 1 has no metric ops_per_s"},
		{name: "metric missing on the parent side is an error",
			parent: []string{"# bench workload=w1\n" + `{"correct":true,"attempted":1,"metrics":{"ops_per_s":{"value":1e6}}}`}, change: three(ok),
			err: "parent: workload w1: run 1 has no metric op_ns_p50"},
		{name: "workload missing on the change side is an error",
			parent: []string{ok, out("w2", true, 0, 100, 1e6)}, change: three(ok), err: "workload w2: 1 parent and 0 change runs"},
		{name: "workload missing on the parent side is an error",
			parent: three(ok), change: []string{ok, out("w2", true, 0, 100, 1e6)}, err: "workload w2: 0 parent and 1 change runs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report, bad, err := check(testBounds, parseAll(t, tc.parent), parseAll(t, tc.change))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("error = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(report) == 0 || len(report)%len(testBounds) != 0 {
				t.Errorf("%d report lines, want one per workload and metric:\n%s", len(report), strings.Join(report, "\n"))
			}
			if len(bad) != len(tc.bad) {
				t.Fatalf("violations %q, want %d matching %q", bad, len(tc.bad), tc.bad)
			}
			for i, want := range tc.bad {
				if !strings.Contains(bad[i], want) {
					t.Errorf("violation %q does not name %q", bad[i], want)
				}
			}
		})
	}
}

// fullStdout is bench/run.sh's standard output as it prints it, shortened.
const fullStdout = `# bench workload=hit-btree-thp seed=11 seconds=10 quick=true trace=false repeat=1
# host numcpu=2 gomaxprocs=2 go=go1.24.0 commit=f7c3651 workers=1 shards=1
# 1 timed passes in 0.3 s after a warm-up pass; per cell, the median over passes
# cell              spans/pass  p50 ns/op  p90 ns/op
# native.vanilla            16       41.8       42.6
# ops_per_s                             2.21124e+07 1/s
{"correct":true,"attempted":688128,"failed":0,"metrics":{"ok_share":{"value":1,"unit":"ratio"},"op_ns_p50":{"value":42.48,"unit":"ns"}}}

`

func TestParseResult(t *testing.T) {
	r, err := parseResult("stdout", fullStdout)
	if err != nil {
		t.Fatal(err)
	}
	if r.workload != "hit-btree-thp" || !r.Correct || r.Attempted != 688128 || r.Metrics["op_ns_p50"].Value != 42.48 {
		t.Errorf("parsed %+v", r)
	}
	for in, want := range map[string]string{
		strings.Replace(fullStdout, "# bench ", "# ", 1):        `no "# bench workload=" line`,
		strings.SplitAfter(fullStdout, "1/s\n")[0] + "# cell\n": "last line is not a result",
	} {
		if _, err := parseResult("stdout", in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error = %v, want one containing %q", err, want)
		}
	}
}

func TestReadBounds(t *testing.T) {
	bounds, err := readBounds(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bound{}
	for _, b := range bounds {
		got[b.Name] = b
	}
	for _, want := range []bound{{"op_ns_p50", "lower", 0.25}, {"ok_share", "higher", 0.001}} {
		if got[want.Name] != want {
			t.Errorf("%s = %+v, want %+v", want.Name, got[want.Name], want)
		}
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bad, []byte(`{"end_to_end":[{"name":"x","better":"up","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBounds(bad); err == nil {
		t.Error("better: up accepted")
	}
}
