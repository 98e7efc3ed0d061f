package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"dmt/internal/obs"
	"dmt/internal/sim"
	"dmt/internal/store"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{" a , b ,", []string{"a", "b"}},
		{",,", nil},
	}
	for _, tc := range cases {
		got := splitList(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("splitList(%q) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("splitList(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestParseSeedsAndBools(t *testing.T) {
	seeds, err := parseSeeds("1, 2,3")
	if err != nil || len(seeds) != 3 || seeds[2] != 3 {
		t.Fatalf("parseSeeds = %v, %v", seeds, err)
	}
	if _, err := parseSeeds("1,x"); err == nil {
		t.Fatal("parseSeeds accepted a non-integer")
	}
	bools, err := parseBools("true,false", "-thp")
	if err != nil || len(bools) != 2 || bools[0] != true || bools[1] != false {
		t.Fatalf("parseBools = %v, %v", bools, err)
	}
	if _, err := parseBools("maybe", "-thp"); err == nil {
		t.Fatal("parseBools accepted a non-boolean")
	}
}

// TestFlagValidation pins the exit-2 surface: sizing mistakes are rejected
// before any cell runs.
func TestFlagValidation(t *testing.T) {
	ok := cliFlags{concurrency: 2}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*cliFlags)
		want   string
	}{
		{"negative ops", func(f *cliFlags) { f.Ops = -1 }, "-ops"},
		{"negative ws", func(f *cliFlags) { f.WSMiB = -1 }, "-ws-mib"},
		{"negative cache-scale", func(f *cliFlags) { f.CacheScale = -1 }, "-cache-scale"},
		{"negative shards", func(f *cliFlags) { f.Shards = -1 }, "-shards"},
		{"negative concurrency", func(f *cliFlags) { f.concurrency = -1 }, "-concurrency"},
		{"zero concurrency", func(f *cliFlags) { f.concurrency = 0 }, "-concurrency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.mutate(&f)
			err := f.validate()
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}

	// Unknown names are exit 2 as well, caught at expansion.
	var stderr bytes.Buffer
	if code := run([]string{"-envs", "bare-metal"}, io.Discard, &stderr); code != 2 {
		t.Fatalf("unknown env: exit %d, want 2 (%s)", code, stderr.String())
	}
}

// TestBuildReport: failures carry their error, successes their payload,
// and the tallies count each source.
func TestBuildReport(t *testing.T) {
	rep := buildReport([]cellOut{
		{Key: "k0", Source: sourceStore, Result: []byte(`{"ops":1}`)},
		{Key: "k1", Source: sourceLocal, Result: []byte(`{"ops":2}`)},
		{Key: "k2", Error: notAttempted},
	})
	if len(rep.Cells) != 3 || rep.FromStore != 1 || rep.RanLocal != 1 || rep.Failed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Cells[0].Error != "" || string(rep.Cells[0].Result) != `{"ops":1}` {
		t.Fatalf("success cell = %+v", rep.Cells[0])
	}
	if rep.Cells[2].Error == "" || rep.Cells[2].Result != nil {
		t.Fatalf("failed cell = %+v", rep.Cells[2])
	}
}

// TestTemplateExpand: deterministic order, full cartesian coverage, and
// dedupe by canonical key.
func TestTemplateExpand(t *testing.T) {
	tmpl := Template{
		Envs:    []string{"native", "virt"},
		Designs: []string{"vanilla", "dmt"},
		Seeds:   []int64{1, 2, 3},
		Ops:     10_000, WSMiB: 24, Shards: 2,
	}
	cells, err := tmpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*3 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.key] {
			t.Fatalf("duplicate key %q", c.key)
		}
		seen[c.key] = true
		if c.key != sim.CanonicalKey(c.cfg) {
			t.Fatalf("cell key %q is not its config's canonical key", c.key)
		}
	}
	// Outermost axis varies slowest.
	if cells[0].cfg.Env != sim.EnvNative || cells[len(cells)-1].cfg.Env != sim.EnvVirt {
		t.Fatalf("expansion order broken: first env %v, last env %v",
			cells[0].cfg.Env, cells[len(cells)-1].cfg.Env)
	}

	// Re-listed axis values dedupe instead of double-scheduling.
	tmpl.Envs = []string{"native", "native", "virt"}
	again, err := tmpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(cells) {
		t.Fatalf("dedupe failed: %d cells, want %d", len(again), len(cells))
	}

	for _, bad := range []Template{
		{Envs: []string{"bare-metal"}},
		{Designs: []string{"nope"}},
		{Workloads: []string{"NoSuchWL"}},
	} {
		if _, err := bad.Expand(); err == nil {
			t.Fatalf("expanding %+v did not fail", bad)
		}
	}
}

// sweepResult is one in-process dmtsweep invocation.
type sweepResult struct {
	code   int
	rep    report
	stderr string
}

// runSweep runs the CLI with args (plus -quiet and a temp -out) and
// decodes its report.
func runSweep(t *testing.T, args ...string) sweepResult {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	var stderr bytes.Buffer
	code := run(sweepArgs(args, out), io.Discard, &stderr)
	return readReport(t, out, code, stderr.String())
}

func sweepArgs(args []string, out string) []string {
	return append(append([]string{}, args...), "-quiet", "-out", out)
}

func readReport(t *testing.T, out string, code int, stderr string) sweepResult {
	t.Helper()
	r := sweepResult{code: code, stderr: stderr}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("no report (exit %d): %v\n%s", code, err, stderr)
	}
	if err := json.Unmarshal(raw, &r.rep); err != nil {
		t.Fatalf("undecodable report: %v", err)
	}
	return r
}

// payloads returns each cell's result, compacted back to the canonical
// bytes the store holds (the report indents them).
func (r sweepResult) payloads(t *testing.T) map[string]string {
	t.Helper()
	m := map[string]string{}
	for _, c := range r.rep.Cells {
		if c.Error != "" {
			continue
		}
		var b bytes.Buffer
		if err := json.Compact(&b, c.Result); err != nil {
			t.Fatal(err)
		}
		m[c.Key] = b.String()
	}
	return m
}

// groundTruth runs every cell of tmpl directly through the engine and
// returns the canonical payload per key.
func groundTruth(t *testing.T, tmpl Template) map[string]string {
	t.Helper()
	cells, err := tmpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, c := range cells {
		res, err := sim.Run(c.cfg)
		if err != nil {
			t.Fatalf("direct run of %s: %v", c.key, err)
		}
		p, err := json.Marshal(payloadFor(res))
		if err != nil {
			t.Fatal(err)
		}
		want[c.key] = string(p)
	}
	return want
}

func assertPayloads(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d completed cells, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("%s: cell %s diverged from a direct run:\ngot  %s\nwant %s", what, k, got[k], w)
		}
	}
}

func counter(name string) uint64 { return obs.Default.Snapshot()[name] }

// oneCell is the default cell (native vanilla GUPS, THP, seed 1) at
// -ops 20000 -ws-mib 24, the cell of the committed store entry.
var oneCell = Template{Ops: 20_000, WSMiB: 24}

func expandOne(t *testing.T) cell {
	t.Helper()
	cells, err := oneCell.Expand()
	if err != nil || len(cells) != 1 {
		t.Fatalf("oneCell expands to %d cells (%v)", len(cells), err)
	}
	return cells[0]
}

// TestSweepServesParentStore: a store entry written by the distributed
// sweep tool this command replaced (testdata/store, one native GUPS cell)
// is served as a store hit, with no simulation, and its payload is
// byte-identical to a fresh sim.Run of the same cell.
func TestSweepServesParentStore(t *testing.T) {
	// The entry must sit exactly where this tool addresses the cell.
	h := store.HashKey(expandOne(t).key)
	entry := filepath.Join(h[:2], h+".json")
	raw, err := os.ReadFile(filepath.Join("testdata", "store", entry))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, h[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, entry), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	stepsBefore := counter("engine.steps_run")
	r := runSweep(t, "-store", dir, "-ops", "20000", "-ws-mib", "24")
	if r.code != 0 {
		t.Fatalf("exit %d: %s", r.code, r.stderr)
	}
	if r.rep.FromStore != 1 || r.rep.RanLocal != 0 || r.rep.Cells[0].Source != sourceStore {
		t.Fatalf("parent store entry not served: %+v", r.rep)
	}
	if d := counter("engine.steps_run") - stepsBefore; d != 0 {
		t.Fatalf("a store hit simulated %d steps", d)
	}
	assertPayloads(t, "parent store", r.payloads(t), groundTruth(t, oneCell))
}

// TestRunCellHonoursCancel: a cell that starts after the sweep's context
// ended aborts before simulating anything and is not stored.
func TestRunCellHonoursCancel(t *testing.T) {
	st, err := store.Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stepsBefore := counter("engine.steps_run")
	out := runCell(ctx, st, expandOne(t))
	if out.Error != context.Canceled.Error() || out.Result != nil {
		t.Fatalf("cancelled cell = %+v", out)
	}
	if d := counter("engine.steps_run") - stepsBefore; d != 0 {
		t.Fatalf("a cancelled cell simulated %d steps", d)
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Fatalf("a cancelled cell was stored (%d entries, %v)", n, err)
	}
}

// TestSweepPutFailureExits1: a cell that ran but could not be stored keeps
// its result in the report, is named on stderr, and fails the exit code,
// since a resume would silently re-simulate it. A regular file sits where
// the entry's <hh> shard directory belongs (permissions do not stop root).
func TestSweepPutFailureExits1(t *testing.T) {
	key := expandOne(t).key
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.HashKey(key)[:2]), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := runSweep(t, "-store", dir, "-ops", "20000", "-ws-mib", "24")
	if r.code != 1 {
		t.Fatalf("exit %d after a failed Put, want 1: %s", r.code, r.stderr)
	}
	if !strings.Contains(r.stderr, key) || !strings.Contains(r.stderr, "not stored") {
		t.Fatalf("stderr does not name the unstored cell %q:\n%s", key, r.stderr)
	}
	if r.rep.RanLocal != 1 || r.rep.Failed != 0 || r.rep.Cells[0].Error != "" {
		t.Fatalf("the cell's result must stay in the report: %+v", r.rep)
	}
	assertPayloads(t, "unstored cell", r.payloads(t), groundTruth(t, oneCell))
}

// TestSweepSIGINTResume interrupts an 8-cell sweep with a real SIGINT
// after two cells are stored, then resumes on the same store: the resume
// serves every stored cell from the store, simulates exactly the missing
// cells' steps, and every payload is byte-identical to an uninterrupted
// sweep and to a direct sim.Run.
func TestSweepSIGINTResume(t *testing.T) {
	const ops = 30_000
	tmpl := Template{
		Envs: []string{"native"}, Designs: []string{"vanilla", "dmt"},
		Workloads: []string{"GUPS"}, Seeds: []int64{1, 2, 3, 4},
		Ops: ops, WSMiB: 24, Shards: 2,
	}
	args := []string{"-envs", "native", "-designs", "vanilla,dmt", "-workloads", "GUPS",
		"-seeds", "1,2,3,4", "-ops", "30000", "-ws-mib", "24", "-shards", "2"}
	want := groundTruth(t, tmpl)

	ref := runSweep(t, append([]string{"-store", t.TempDir()}, args...)...)
	if ref.code != 0 || ref.rep.RanLocal != 8 {
		t.Fatalf("reference sweep: exit %d, %+v\n%s", ref.code, ref.rep, ref.stderr)
	}
	assertPayloads(t, "reference sweep", ref.payloads(t), want)

	dir := t.TempDir()
	args = append([]string{"-store", dir}, args...)
	out := filepath.Join(t.TempDir(), "report.json")
	stderr := &interruptAfter{t: t, n: 2, cut: make(chan struct{})}
	code := run(append(append([]string{}, args...), "-out", out), io.Discard, stderr)
	// The notice's write happened before the worker it released returned.
	cut := readReport(t, out, code, stderr.buf.String())
	if cut.code != 1 || !strings.Contains(cut.stderr, "interrupted") {
		t.Fatalf("interrupted sweep: exit %d, want 1 and a resume hint:\n%s", cut.code, cut.stderr)
	}
	st, err := store.Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	preStored, err := st.Len()
	if err != nil {
		t.Fatal(err)
	}
	if preStored < 2 || preStored > 3 {
		t.Fatalf("%d of 8 cells stored before the interrupt, want 2 or 3", preStored)
	}

	hitsBefore, stepsBefore := counter("store.hits"), counter("engine.steps_run")
	res := runSweep(t, args...)
	if res.code != 0 {
		t.Fatalf("resumed sweep: exit %d\n%s", res.code, res.stderr)
	}
	missing := 8 - preStored
	if res.rep.FromStore != preStored || res.rep.RanLocal != missing {
		t.Fatalf("resumed sweep %+v, want %d from the store and %d run", res.rep, preStored, missing)
	}
	if hits := counter("store.hits") - hitsBefore; hits != uint64(preStored) {
		t.Fatalf("store.hits advanced by %d, want %d", hits, preStored)
	}
	if d := counter("engine.steps_run") - stepsBefore; d != uint64(missing*ops) {
		t.Fatalf("resume simulated %d steps, want %d (%d missing cells × %d ops)", d, missing*ops, missing, ops)
	}
	got := res.payloads(t)
	assertPayloads(t, "resumed sweep", got, want)
	assertPayloads(t, "resumed vs uninterrupted sweep", got, ref.payloads(t))
}

// interruptAfter is the interrupted sweep's stderr. On the n-th "done"
// progress line it sends the process a real SIGINT and holds the worker
// that wrote the line until the sweep reports the interrupt, so its
// context has ended before that worker can start another cell. The
// progress lock holds the other worker after its in-flight cell meanwhile,
// so n or n+1 cells complete.
type interruptAfter struct {
	t   *testing.T
	n   int           // progress lines are serialized by the sweep
	cut chan struct{} // closed on the sweep's interrupt notice

	mu  sync.Mutex // the notice is written from its own goroutine
	buf bytes.Buffer
}

func (w *interruptAfter) Write(p []byte) (int, error) {
	w.mu.Lock()
	n, err := w.buf.Write(p)
	w.mu.Unlock()
	switch {
	case bytes.HasPrefix(p, []byte("dmtsweep: interrupted")):
		close(w.cut)
	case bytes.HasPrefix(p, []byte("cell ")) && bytes.Contains(p, []byte(" done ")):
		if w.n--; w.n == 0 {
			if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
				w.t.Error(err)
			}
			<-w.cut
		}
	}
	return n, err
}

// TestSweepCorruptStoreEntryReRuns: a bit-flipped store entry is
// quarantined and re-simulated exactly once, the result is still
// byte-identical, and a third sweep serves every cell from the store.
func TestSweepCorruptStoreEntryReRuns(t *testing.T) {
	const ops = 20_000
	tmpl := Template{
		Envs: []string{"native"}, Designs: []string{"vanilla", "dmt"},
		Workloads: []string{"GUPS"}, Ops: ops, WSMiB: 24, Shards: 2,
	}
	args := []string{"-envs", "native", "-designs", "vanilla,dmt", "-workloads", "GUPS",
		"-ops", "20000", "-ws-mib", "24", "-shards", "2"}
	want := groundTruth(t, tmpl)
	dir := t.TempDir()
	args = append([]string{"-store", dir}, args...)

	if r := runSweep(t, args...); r.code != 0 || r.rep.RanLocal != len(want) {
		t.Fatalf("first sweep: exit %d, %+v\n%s", r.code, r.rep, r.stderr)
	}
	corruptOneStoreFile(t, dir)

	corruptBefore, stepsBefore := counter("store.corrupt"), counter("engine.steps_run")
	r := runSweep(t, args...)
	if r.code != 0 {
		t.Fatalf("sweep over a corrupt store: exit %d\n%s", r.code, r.stderr)
	}
	if c := counter("store.corrupt") - corruptBefore; c != 1 {
		t.Fatalf("store.corrupt advanced by %d, want 1", c)
	}
	if r.rep.FromStore != len(want)-1 || r.rep.RanLocal != 1 {
		t.Fatalf("sweep result %+v, want %d store hits and 1 re-run", r.rep, len(want)-1)
	}
	if d := counter("engine.steps_run") - stepsBefore; d != ops {
		t.Fatalf("repair simulated %d steps, want one cell's %d", d, ops)
	}
	assertPayloads(t, "repaired sweep", r.payloads(t), want)

	r3 := runSweep(t, args...)
	if r3.code != 0 || r3.rep.FromStore != len(want) {
		t.Fatalf("post-repair sweep: exit %d, %+v, want all cells from the store", r3.code, r3.rep)
	}
	assertPayloads(t, "post-repair sweep", r3.payloads(t), want)
}

// corruptOneStoreFile flips one bit in the lexically first entry under
// dir.
func corruptOneStoreFile(t *testing.T, dir string) {
	t.Helper()
	var target string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" && (target == "" || path < target) {
			target = path
		}
		return nil
	})
	if err != nil || target == "" {
		t.Fatalf("no store entry found under %s (%v)", dir, err)
	}
	raw, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(target, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
