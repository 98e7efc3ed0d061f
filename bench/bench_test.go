package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const expectedPath = "testdata/expected-seed11.json"

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func quickRun(t *testing.T, workload string, trace bool, expected expectedFile) *outcome {
	t.Helper()
	w, err := findWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	opt := options{workload: workload, seed: expectedSeed, seconds: 10, quick: true, trace: trace,
		spans: filepath.Join(t.TempDir(), "spans.jsonl"), repeat: 1}
	o, err := runOnce(opt, w, expected, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func mustExpected(t *testing.T) expectedFile {
	t.Helper()
	e, err := loadExpected(expectedPath)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkMetrics asserts got holds exactly the declared metrics, each finite
// and with its declared unit.
func checkMetrics(t *testing.T, workload, kind string, want []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s metric %s not emitted", workload, kind, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s unit %q, declared %q", workload, d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d %s metrics emitted, %d declared", workload, len(got), kind, len(want))
	}
}

func TestQuickEmitsEveryDeclaredMetric(t *testing.T) {
	d := loadDeclared(t)
	expected := mustExpected(t)
	if len(d.Workloads) != len(wdefs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(wdefs))
	}
	for _, w := range d.Workloads {
		o := quickRun(t, w.Name, true, expected)
		if o.failed != 0 {
			t.Errorf("%s: %d of %d ops failed", w.Name, o.failed, o.attempted)
		}
		if _, ok := expected[o.profile]; !ok {
			t.Errorf("%s: no expected digests for %s", w.Name, o.profile)
		}
		checkMetrics(t, w.Name, "end-to-end", d.EndToEnd, o.e2e)
		checkMetrics(t, w.Name, "per-layer", d.PerLayer, o.layers)
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	expected := mustExpected(t)
	a := quickRun(t, "walk-gups4k", false, expected)
	b := quickRun(t, "walk-gups4k", false, expected)
	if bad := mismatches(a.digests, b.digests); len(bad) > 0 || len(a.digests) != len(allCells) {
		t.Errorf("two runs disagree on %v (%d cells digested)", bad, len(a.digests))
	}
	if a.failed != 0 || b.failed != 0 {
		t.Errorf("failed ops: %d, %d", a.failed, b.failed)
	}
}

func TestCorruptDigestFails(t *testing.T) {
	expected := mustExpected(t)
	w, _ := findWorkload("walk-gups4k")
	profile := sizeFor(w, true).profile(w)
	corrupt := expectedFile{profile: maps.Clone(expected[profile])}
	corrupt[profile]["native.dmt"] = "0000000000000000"
	o := quickRun(t, "walk-gups4k", false, corrupt)
	if o.failed == 0 || o.e2e["ok_share"].Value >= 1 {
		t.Errorf("corrupted digest not caught: failed %d, ok_share %v", o.failed, o.e2e["ok_share"].Value)
	}
}

// TestResultLine runs the command path: flags in, and as the last line out
// one JSON object with exactly the keys correct, attempted, failed, metrics.
func TestResultLine(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "walk-gups4k", "--seed", "3", "--seconds", "10", "--trace", "0",
		"-quick", "-expected", expectedPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
	if code := run([]string{"-trace", "2"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("-trace 2: exit %d, want 2", code)
	}
}
