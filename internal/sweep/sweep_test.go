package sweep

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dmt/internal/obs"
	"dmt/internal/serve"
	"dmt/internal/sim"
	"dmt/internal/store"
)

// testWorker is one in-process dmtserved: the real serve.Server behind the
// real HTTP handler, so the coordinator exercises the genuine wire path.
type testWorker struct {
	srv *serve.Server
	ts  *httptest.Server
	reg *obs.Registry
}

func newTestWorker() *testWorker {
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{QueueDepth: 64, Workers: 2, Registry: reg})
	return &testWorker{srv: srv, ts: httptest.NewServer(srv.Handler()), reg: reg}
}

func (w *testWorker) url() string { return w.ts.URL }

// waitIdle blocks until every job the worker admitted has finished, and
// reports whether any was still running when called. A job whose requester
// went away (a crashed coordinator) keeps running until its next span
// boundary and only then adds its steps to engine.steps_run.
func (w *testWorker) waitIdle(t *testing.T) bool {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for waited := false; ; waited = true {
		c := w.reg.Snapshot()
		if c["serve.admitted"] == c["serve.completed"]+c["serve.deadline_exceeded"]+c["serve.cancelled"]+c["serve.failed"] {
			return waited
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still busy after 30 s: %v", c)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close is the graceful path: drain, stop the listener, join the pool.
func (w *testWorker) close() {
	w.srv.Drain(context.Background())
	w.ts.Close()
	w.srv.Close()
}

// kill is the SIGKILL-shaped path: every open connection is torn down
// mid-flight (clients see resets, not FINs after clean responses) and the
// job pool is aborted — the closest an in-process worker gets to an
// abrupt process death.
func (w *testWorker) kill() {
	w.ts.CloseClientConnections()
	w.srv.Close()
	w.ts.Close()
}

// newTestClient returns an HTTP client with an isolated connection pool;
// drain() must run before goroutine-leak checks (idle keep-alive
// connections hold goroutines).
func newTestClient() (*http.Client, func()) {
	tr := &http.Transport{}
	return &http.Client{Transport: tr}, tr.CloseIdleConnections
}

func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// groundTruth runs every cell directly through the engine and returns the
// canonical payload per key — the bit-identity reference for every
// delivery path (worker, local fallback, store).
func groundTruth(t *testing.T, cells []Cell) map[string]json.RawMessage {
	t.Helper()
	want := map[string]json.RawMessage{}
	for _, cell := range cells {
		res, err := sim.Run(cell.Cfg)
		if err != nil {
			t.Fatalf("direct run of %s: %v", cell.Key, err)
		}
		payload, err := json.Marshal(serve.ResponseFor(res))
		if err != nil {
			t.Fatal(err)
		}
		want[cell.Key] = payload
	}
	return want
}

func assertBitIdentical(t *testing.T, res *Result, want map[string]json.RawMessage) {
	t.Helper()
	for _, cr := range res.Cells {
		if cr.Err != nil {
			t.Fatalf("cell %d (%s): %v", cr.Cell.Index, cr.Cell.Key, cr.Err)
		}
		if string(cr.Payload) != string(want[cr.Cell.Key]) {
			t.Fatalf("cell %d (%s, source %s) diverged from direct run:\ngot  %s\nwant %s",
				cr.Cell.Index, cr.Cell.Key, cr.Source, cr.Payload, want[cr.Cell.Key])
		}
	}
}

func smallCells(t *testing.T, seeds ...int64) []Cell {
	t.Helper()
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	cells, err := Template{
		Envs: []string{"native"}, Designs: []string{"vanilla", "dmt"},
		Workloads: []string{"GUPS"}, Seeds: seeds,
		Ops: 20_000, WSMiB: 24, Shards: 2,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// deadURL returns an address nothing listens on (connection refused).
func deadURL(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u := "http://" + l.Addr().String()
	l.Close()
	return u
}

// TestSweepDistributedBitIdentical: a two-worker sweep completes with
// results bit-identical to direct engine runs, populates the store, and a
// second sweep over the same cells costs zero simulations — every cell is
// a store hit, proven by the engine.steps_run counter standing still.
func TestSweepDistributedBitIdentical(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	cells := smallCells(t)
	want := groundTruth(t, cells)
	client, drainClient := newTestClient()

	w1, w2 := newTestWorker(), newTestWorker()
	st, err := store.Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := New(Config{
		Workers: []string{w1.url(), w2.url()}, Store: st, Registry: reg,
		HTTPClient: client, BackoffBase: time.Millisecond, DisableLocal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.RanWorker != len(cells) || res.FromStore != 0 || res.RanLocal != 0 {
		t.Fatalf("first sweep: %+v, want all %d cells run on workers", res, len(cells))
	}
	assertBitIdentical(t, res, want)
	if n, err := st.Len(); err != nil || n != len(cells) {
		t.Fatalf("store holds %d entries (%v), want %d", n, err, len(cells))
	}

	// Second sweep: pure store traffic, zero redundant simulations.
	regStore := obs.NewRegistry()
	st2, err := store.Open(st.Dir(), regStore)
	if err != nil {
		t.Fatal(err)
	}
	coord2, err := New(Config{
		Workers: []string{w1.url(), w2.url()}, Store: st2, Registry: obs.NewRegistry(),
		HTTPClient: client, DisableLocal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stepsBefore := obs.Default.Snapshot()["engine.steps_run"]
	res2, err := coord2.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FromStore != len(cells) || res2.RanWorker != 0 || res2.Failed != 0 {
		t.Fatalf("resumed sweep: %+v, want all %d cells from the store", res2, len(cells))
	}
	assertBitIdentical(t, res2, want)
	if delta := obs.Default.Snapshot()["engine.steps_run"] - stepsBefore; delta != 0 {
		t.Fatalf("store-served sweep simulated %d steps, want 0", delta)
	}
	if hits := regStore.Snapshot()["store.hits"]; hits != uint64(len(cells)) {
		t.Fatalf("store.hits = %d, want %d", hits, len(cells))
	}

	w1.close()
	w2.close()
	drainClient()
	waitForGoroutines(t, goroutinesBefore)
}

// TestSweepRetryTransient: a worker that answers 503 twice before
// recovering costs exactly two retries — the attempt sequence is
// transient-failure → backoff → success, never a permanent cell failure.
func TestSweepRetryTransient(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	cells := smallCells(t, 1)[:1]
	want := groundTruth(t, cells)
	client, drainClient := newTestClient()

	w := newTestWorker()
	var mu sync.Mutex
	fails := 0
	flaky := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" {
			mu.Lock()
			failNow := fails < 2
			if failNow {
				fails++
			}
			mu.Unlock()
			if failNow {
				rw.Header().Set("Content-Type", "application/json")
				rw.WriteHeader(http.StatusServiceUnavailable)
				rw.Write([]byte(`{"error":"synthetic drain"}`))
				return
			}
		}
		w.srv.Handler().ServeHTTP(rw, r)
	}))

	reg := obs.NewRegistry()
	coord, err := New(Config{
		Workers: []string{flaky.URL}, Store: nil, Registry: reg,
		HTTPClient: client, BackoffBase: time.Millisecond, MaxAttempts: 4,
		FailThreshold: 10, // keep the circuit closed; this test is about retries
		DisableLocal:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.RanWorker != 1 {
		t.Fatalf("sweep result %+v, want the one cell to complete", res)
	}
	if got := res.Cells[0].Attempts; got != 3 {
		t.Fatalf("cell took %d attempts, want 3 (two 503s, then success)", got)
	}
	if retries := reg.Snapshot()["sweep.retries"]; retries != 2 {
		t.Fatalf("sweep.retries = %d, want 2", retries)
	}
	assertBitIdentical(t, res, want)

	flaky.Close()
	w.close()
	drainClient()
	waitForGoroutines(t, goroutinesBefore)
}

// TestSweepEvictsUnhealthyWorker: a worker that persistently fails /run
// (while passing readiness probes) trips the circuit breaker after the
// failure threshold and is evicted; the sweep completes entirely on the
// healthy worker.
func TestSweepEvictsUnhealthyWorker(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	cells := smallCells(t, 1, 2, 3)
	want := groundTruth(t, cells)
	client, drainClient := newTestClient()

	healthy := newTestWorker()
	sick := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.URL.Path == "/healthz" {
			rw.WriteHeader(http.StatusOK)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusServiceUnavailable)
		rw.Write([]byte(`{"error":"always failing"}`))
	}))

	reg := obs.NewRegistry()
	coord, err := New(Config{
		Workers: []string{sick.URL, healthy.url()}, Registry: reg,
		HTTPClient: client, BackoffBase: time.Millisecond, MaxAttempts: 6,
		FailThreshold: 2, Cooldown: time.Hour, // evicted stays out for the test
		Concurrency: 1, DisableLocal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.RanWorker != len(cells) {
		t.Fatalf("sweep result %+v, want all %d cells to complete", res, len(cells))
	}
	assertBitIdentical(t, res, want)
	snap := reg.Snapshot()
	if snap["sweep.worker_evictions"] != 1 {
		t.Fatalf("sweep.worker_evictions = %d, want 1", snap["sweep.worker_evictions"])
	}
	if coord.ReadyWorkers() != 1 {
		t.Fatalf("ReadyWorkers = %d, want 1 (sick worker evicted)", coord.ReadyWorkers())
	}
	// Every completed cell ran on the healthy worker.
	for _, cr := range res.Cells {
		if cr.Worker != healthy.url() {
			t.Fatalf("cell %d completed on %s, want %s", cr.Cell.Index, cr.Worker, healthy.url())
		}
	}

	sick.Close()
	healthy.close()
	drainClient()
	waitForGoroutines(t, goroutinesBefore)
}

// TestSweepLocalFallback: with no workers (none configured, or only a
// dead endpoint that fails its readiness probe) the coordinator degrades
// to in-process execution — the sweep still completes, bit-identical, and
// the store still fills for later resumes.
func TestSweepLocalFallback(t *testing.T) {
	cells := smallCells(t, 1, 2)
	want := groundTruth(t, cells)
	for _, tc := range []struct {
		name    string
		workers []string
	}{
		{"no workers configured", nil},
		{"only a dead worker", []string{""}}, // filled in below
	} {
		t.Run(tc.name, func(t *testing.T) {
			goroutinesBefore := runtime.NumGoroutine()
			if len(tc.workers) == 1 {
				tc.workers[0] = deadURL(t)
			}
			client, drainClient := newTestClient()
			st, err := store.Open(t.TempDir(), obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			coord, err := New(Config{
				Workers: tc.workers, Store: st, Registry: reg,
				HTTPClient: client, BackoffBase: time.Millisecond,
				Cooldown: time.Hour, ProbeTimeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.Run(context.Background(), cells)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.RanLocal != len(cells) {
				t.Fatalf("sweep result %+v, want all %d cells run locally", res, len(cells))
			}
			assertBitIdentical(t, res, want)
			if snap := reg.Snapshot(); snap["sweep.cells_run_local"] != uint64(len(cells)) {
				t.Fatalf("sweep.cells_run_local = %d, want %d",
					snap["sweep.cells_run_local"], len(cells))
			}
			if n, err := st.Len(); err != nil || n != len(cells) {
				t.Fatalf("store holds %d entries (%v), want %d", n, err, len(cells))
			}
			drainClient()
			waitForGoroutines(t, goroutinesBefore)
		})
	}
}

// TestSweepHedgesStraggler: a cell stuck on a stalling worker is hedged
// onto the healthy one after HedgeAfter; the hedge wins, the straggler
// leg is cancelled, and the result is still bit-identical.
func TestSweepHedgesStraggler(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	cells := smallCells(t, 1)[:1]
	want := groundTruth(t, cells)
	client, drainClient := newTestClient()

	healthy := newTestWorker()
	stall := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.URL.Path == "/healthz" {
			rw.WriteHeader(http.StatusOK)
			return
		}
		// Drain the body so the server's background read can notice the
		// client abort, then stall until the leg is cancelled.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))

	reg := obs.NewRegistry()
	coord, err := New(Config{
		// Round-robin starts at the stalling worker, so the first attempt
		// straggles and the hedge lands on the healthy one.
		Workers: []string{stall.URL, healthy.url()}, Registry: reg,
		HTTPClient: client, BackoffBase: time.Millisecond,
		HedgeAfter: 50 * time.Millisecond, CellTimeout: time.Minute,
		DisableLocal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.RanWorker != 1 {
		t.Fatalf("sweep result %+v, want the one cell to complete", res)
	}
	if res.Cells[0].Worker != healthy.url() {
		t.Fatalf("cell completed on %s, want the hedge target %s", res.Cells[0].Worker, healthy.url())
	}
	if hedges := reg.Snapshot()["sweep.hedges"]; hedges != 1 {
		t.Fatalf("sweep.hedges = %d, want 1", hedges)
	}
	assertBitIdentical(t, res, want)

	stall.Close()
	healthy.close()
	drainClient()
	waitForGoroutines(t, goroutinesBefore)
}

// TestSweepChaosResumeBitIdentical is the chaos gate of ISSUE 6: three
// workers, one killed abruptly mid-sweep, then the coordinator itself
// "crashes" (context cancelled). A fresh coordinator over the same store
// resumes with the two survivors and must (a) finish with results
// bit-identical to an uninterrupted single-worker sweep, (b) serve every
// pre-crash cell from the store — proven by store.hits — and (c) run zero
// redundant simulations — proven by engine.steps_run advancing exactly
// (missing cells × ops). No goroutine leaks at any stage, under -race in
// CI.
func TestSweepChaosResumeBitIdentical(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	const ops = 30_000
	cells, err := Template{
		Envs: []string{"native"}, Designs: []string{"vanilla", "dmt"},
		Workloads: []string{"GUPS"}, Seeds: []int64{1, 2, 3, 4},
		Ops: ops, WSMiB: 24, Shards: 2,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := groundTruth(t, cells)

	// Reference: an uninterrupted single-worker sweep.
	client, drainClient := newTestClient()
	wRef := newTestWorker()
	stRef, err := store.Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	coordRef, err := New(Config{
		Workers: []string{wRef.url()}, Store: stRef, Registry: obs.NewRegistry(),
		HTTPClient: client, BackoffBase: time.Millisecond, DisableLocal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resRef, err := coordRef.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if resRef.Failed != 0 {
		t.Fatalf("reference sweep failed cells: %+v", resRef)
	}
	assertBitIdentical(t, resRef, want)
	wRef.close()

	// Chaos phase: three workers; kill one after two cells complete, then
	// crash the coordinator after four.
	storeDir := t.TempDir()
	stChaos, err := store.Open(storeDir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	w1, w2, w3 := newTestWorker(), newTestWorker(), newTestWorker()
	cctx, crash := context.WithCancel(context.Background())
	var (
		mu     sync.Mutex
		dones  int
		killed bool
		killWG sync.WaitGroup
	)
	onUpdate := func(u Update) {
		if u.Event != EventDone {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		dones++
		if dones == 2 && !killed {
			killed = true
			killWG.Add(1)
			go func() { defer killWG.Done(); w3.kill() }()
		}
		if dones == 4 {
			crash()
		}
	}
	coordChaos, err := New(Config{
		Workers: []string{w1.url(), w2.url(), w3.url()}, Store: stChaos,
		Registry: obs.NewRegistry(), HTTPClient: client,
		BackoffBase: time.Millisecond, MaxAttempts: 6,
		FailThreshold: 2, Cooldown: time.Hour, Concurrency: 2,
		CellTimeout: time.Minute, DisableLocal: true, OnUpdate: onUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The partial result is allowed to carry failures/interruptions — the
	// whole point is that the store, not this coordinator, is the record.
	if _, err := coordChaos.Run(cctx, cells); err == nil {
		t.Fatal("chaos sweep was not interrupted — crash() never fired?")
	}
	crash()
	killWG.Wait()
	preStored, err := stChaos.Len()
	if err != nil {
		t.Fatal(err)
	}
	if preStored < 4 || preStored >= len(cells) {
		t.Fatalf("chaos timing off: %d of %d cells stored before the crash (want 4..%d)",
			preStored, len(cells), len(cells)-1)
	}

	// Resume: a fresh coordinator (the restart), the two survivors, the
	// same store directory.
	regStore := obs.NewRegistry()
	stResume, err := store.Open(storeDir, regStore)
	if err != nil {
		t.Fatal(err)
	}
	regResume := obs.NewRegistry()
	coordResume, err := New(Config{
		Workers: []string{w1.url(), w2.url()}, Store: stResume, Registry: regResume,
		HTTPClient: client, BackoffBase: time.Millisecond, MaxAttempts: 6,
		CellTimeout: time.Minute, DisableLocal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The crashed coordinator's orphaned runs on the survivors still add
	// their steps when they stop; let them, or they count as resume work.
	for _, w := range []*testWorker{w1, w2} {
		if w.waitIdle(t) {
			t.Logf("waited for an orphaned chaos-phase run on %s", w.url())
		}
	}
	stepsBefore := obs.Default.Snapshot()["engine.steps_run"]
	resResume, err := coordResume.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if resResume.Failed != 0 {
		t.Fatalf("resumed sweep failed cells: %+v", resResume)
	}
	if resResume.FromStore != preStored {
		t.Fatalf("resumed sweep took %d cells from the store, want %d", resResume.FromStore, preStored)
	}
	missing := len(cells) - preStored
	if resResume.RanWorker != missing {
		t.Fatalf("resumed sweep ran %d cells, want exactly the %d missing ones",
			resResume.RanWorker, missing)
	}
	if hits := regStore.Snapshot()["store.hits"]; hits != uint64(preStored) {
		t.Fatalf("store.hits = %d, want %d", hits, preStored)
	}
	// The zero-redundancy proof: the engine advanced exactly the missing
	// cells' worth of steps, nothing recomputed.
	if delta := obs.Default.Snapshot()["engine.steps_run"] - stepsBefore; delta != uint64(missing*ops) {
		t.Fatalf("resume simulated %d steps, want %d (%d missing cells × %d ops — redundant work detected)",
			delta, missing*ops, missing, ops)
	}

	// Bit-identity: resumed results equal the uninterrupted sweep's equal
	// the direct engine's, cell for cell.
	assertBitIdentical(t, resResume, want)
	for i := range cells {
		if string(resResume.Cells[i].Payload) != string(resRef.Cells[i].Payload) {
			t.Fatalf("cell %d: resumed payload differs from uninterrupted sweep", i)
		}
	}

	w1.close()
	w2.close()
	drainClient()
	waitForGoroutines(t, goroutinesBefore)
}

// TestSweepCorruptStoreEntryReRuns: a bit-flipped store entry is detected
// on resume, re-simulated, overwritten, and the final payload is still
// bit-identical — corruption costs one extra run, never a wrong result.
func TestSweepCorruptStoreEntryReRuns(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	cells := smallCells(t, 1)
	want := groundTruth(t, cells)
	client, drainClient := newTestClient()

	dir := t.TempDir()
	st, err := store.Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorker()
	mk := func(reg *obs.Registry, s *store.Store) *Coordinator {
		c, err := New(Config{Workers: []string{w.url()}, Store: s, Registry: reg,
			HTTPClient: client, BackoffBase: time.Millisecond, DisableLocal: true})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if _, err := mk(obs.NewRegistry(), st).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}

	// Flip one bit of one stored entry on disk.
	corruptOneStoreFile(t, dir)

	regStore := obs.NewRegistry()
	st2, err := store.Open(dir, regStore)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mk(obs.NewRegistry(), st2).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("sweep over a corrupt store failed cells: %+v", res)
	}
	snap := regStore.Snapshot()
	if snap["store.corrupt"] != 1 {
		t.Fatalf("store.corrupt = %d, want 1", snap["store.corrupt"])
	}
	if res.FromStore != len(cells)-1 || res.RanWorker != 1 {
		t.Fatalf("sweep result %+v, want %d store hits and 1 re-run", res, len(cells)-1)
	}
	assertBitIdentical(t, res, want)

	// The overwritten entry is healthy again.
	regAfter := obs.NewRegistry()
	st3, err := store.Open(dir, regAfter)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := mk(obs.NewRegistry(), st3).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if res3.FromStore != len(cells) {
		t.Fatalf("post-repair sweep: %+v, want all cells from the store", res3)
	}

	w.close()
	drainClient()
	waitForGoroutines(t, goroutinesBefore)
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
