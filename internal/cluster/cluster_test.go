package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// testRequest is the shared small machine grid: 2 taus × 2 replicates =
// 4 deterministic cells, the same shape the asgdbench byte-identity test
// uses.
func testRequest() serve.SweepRequest {
	seed, adv := uint64(11), 6
	return serve.SweepRequest{
		Taus: []int{2, 4}, Workers: []int{2}, Sparsity: []float64{0.4},
		Dim: 8, Replicates: 2, Iters: 40, Seed: &seed, Adversary: &adv,
		Runtime: "machine",
	}
}

// localDocument runs the request through the in-process executor path
// and returns the canonical document bytes.
func localDocument(t *testing.T, req serve.SweepRequest) []byte {
	t.Helper()
	report, err := serve.RunRequest(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stripTiming drops the two documented nondeterministic fields
// (DESIGN.md §6: seconds, updates_per_sec).
func stripTiming(doc []byte) string {
	var keep []string
	for _, line := range strings.Split(string(doc), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "\"seconds\"") || strings.HasPrefix(trimmed, "\"updates_per_sec\"") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// waitResult blocks until the job is done and returns its document.
func waitResult(t *testing.T, job *serve.Job) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("waiting for job %s: %v", job.ID(), err)
	}
	if st.State != serve.JobDone {
		t.Fatalf("job %s finished %s (err %q), want done", job.ID(), st.State, st.Err)
	}
	doc, ok := job.Result()
	if !ok {
		t.Fatalf("job %s done but no result", job.ID())
	}
	return doc
}

// leaseWithRetry polls grantLease until the executor has made the job's
// batches available.
func leaseWithRetry(t *testing.T, c *Coordinator, workerID string) *LeaseResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ls, err := c.grantLease(workerID)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if ls != nil {
			return ls
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no lease granted within deadline")
	return nil
}

// executeLease runs a leased batch exactly as a worker does.
func executeLease(t *testing.T, ls *LeaseResponse) []sweep.CellResult {
	t.Helper()
	specs, err := ls.Request.Specs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.RunSubset(context.Background(), specs[0], ls.Cells)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// reportAll applies a batch's results to the coordinator.
func reportAll(t *testing.T, c *Coordinator, leaseID string, results []sweep.CellResult) {
	t.Helper()
	for _, r := range results {
		if _, err := c.applyResult(leaseID, r); err != nil {
			t.Fatalf("report %s cell %d: %v", leaseID, r.Index, err)
		}
	}
}

// checkCoverage asserts the document has one result per grid cell, with
// indices 0..n-1 ascending, no duplicates, no errors.
func checkCoverage(t *testing.T, doc []byte, req serve.SweepRequest) {
	t.Helper()
	want, err := req.CellCount()
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.Report
	if err := json.Unmarshal(doc, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sweep == nil {
		t.Fatal("document has no sweep record")
	}
	if got := len(rep.Sweep.Results); got != want {
		t.Fatalf("document has %d results, want %d", got, want)
	}
	for i, r := range rep.Sweep.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d: duplicate or missing cell", i, r.Index)
		}
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", i, r.Err)
		}
	}
}

// TestClusterOneLocalWorkerByteIdentity: the degenerate single-node
// cluster reproduces the in-process executor's bytes modulo timing.
func TestClusterOneLocalWorkerByteIdentity(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c, WorkerConfig{Name: "local-0"})
	go func() { _ = w.Run(ctx) }()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("cluster and local documents diverge beyond timing:\n--- cluster\n%s\n--- local\n%s", g, w)
	}
}

// TestClusterHTTPWorkerByteIdentity drives a worker over the real HTTP
// transport (register, lease, NDJSON report stream, heartbeat) against
// the mounted protocol endpoints and pins the same byte contract.
func TestClusterHTTPWorkerByteIdentity(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()
	ts := httptest.NewServer(c.Mount(srv.Handler()))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := NewWorker(WorkerConfig{Coordinator: ts.URL, Name: "http-0", Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = w.Run(ctx) }()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("HTTP cluster and local documents diverge beyond timing:\n--- cluster\n%s\n--- local\n%s", g, w)
	}
	if c.RemoteCells() == 0 {
		t.Fatal("no cells traveled through the HTTP worker")
	}
}

// TestClusterThreeWorkersShuffledReportOrderByteIdentity leases the grid
// across three workers batch by batch and reports the batches in
// reversed order — the document must still be byte-identical to the
// local run, because reassembly is by document-global index, never by
// arrival order.
func TestClusterThreeWorkersShuffledReportOrderByteIdentity(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 1, LeaseTTL: time.Minute})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := req.CellCount()
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]RegisterResponse, 3)
	for i := range workers {
		workers[i] = c.register(RegisterRequest{Name: fmt.Sprintf("shuffle-%d", i)})
	}
	type granted struct {
		ls      *LeaseResponse
		results []sweep.CellResult
	}
	var grants []granted
	for got := 0; got < cells; {
		ls := leaseWithRetry(t, c, workers[len(grants)%3].WorkerID)
		grants = append(grants, granted{ls: ls, results: executeLease(t, ls)})
		got += len(ls.Cells)
	}
	for i := len(grants) - 1; i >= 0; i-- { // reversed lease order
		reportAll(t, c, grants[i].ls.LeaseID, grants[i].results)
	}

	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("shuffled-order cluster document diverges beyond timing:\n--- cluster\n%s\n--- local\n%s", g, w)
	}
}

// TestClusterBothRuntimesShuffledByteIdentity: a runtime "both" grid —
// machine cells then hogwild cells, one spec — leased in batches of 3
// so the second lease straddles the machine/hogwild boundary, spread
// over three workers and reported in reversed order. The hogwild cells
// run one worker goroutine each, so they are bit-reproducible and the
// document must equal the local run modulo timing.
func TestClusterBothRuntimesShuffledByteIdentity(t *testing.T) {
	req := testRequest()
	req.Workers = []int{1}
	req.Runtime = "both"
	c := NewCoordinator(Config{BatchSize: 3, LeaseTTL: time.Minute})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := req.CellCount()
	if err != nil {
		t.Fatal(err)
	}
	if cells != 8 {
		t.Fatalf("grid has %d cells, want 8 (4 machine + 4 hogwild)", cells)
	}

	workers := make([]RegisterResponse, 3)
	for i := range workers {
		workers[i] = c.register(RegisterRequest{Name: fmt.Sprintf("both-%d", i)})
	}
	type granted struct {
		ls      *LeaseResponse
		results []sweep.CellResult
	}
	var grants []granted
	straddled := false
	for got := 0; got < cells; {
		ls := leaseWithRetry(t, c, workers[len(grants)%3].WorkerID)
		results := executeLease(t, ls)
		runtimes := map[string]bool{}
		for i, r := range results {
			if r.Index != ls.Cells[i] {
				t.Fatalf("lease %s cell %d came back as index %d", ls.LeaseID, ls.Cells[i], r.Index)
			}
			runtimes[r.Runtime] = true
		}
		straddled = straddled || len(runtimes) == 2
		grants = append(grants, granted{ls: ls, results: results})
		got += len(ls.Cells)
	}
	if !straddled {
		t.Fatal("no lease straddled the machine/hogwild boundary")
	}
	for i := len(grants) - 1; i >= 0; i-- { // reversed lease order
		reportAll(t, c, grants[i].ls.LeaseID, grants[i].results)
	}

	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("both-runtime cluster document diverges beyond timing:\n--- cluster\n%s\n--- local\n%s", g, w)
	}
}

// TestClusterHTTPWorkerReregistersOnGoneLease: an HTTP worker whose
// identity the coordinator forgot (presumed dead, or a coordinator
// restart) gets 410 on its next lease, re-registers under a fresh id, and
// goes on to run the next job.
func TestClusterHTTPWorkerReregistersOnGoneLease(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()
	ts := httptest.NewServer(c.Mount(srv.Handler()))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := NewWorker(WorkerConfig{Coordinator: ts.URL, Name: "http-rejoin", Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = w.Run(ctx) }()

	// workerIDs polls until the comma-joined registered worker ids are
	// non-empty and differ from prev, then returns them.
	workerIDs := func(prev string) string {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			var ids []string
			for _, sw := range c.Status().Workers {
				ids = append(ids, sw.ID)
			}
			if got := strings.Join(ids, ","); got != "" && got != prev {
				return got
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("registered workers never moved off %q", prev)
		return ""
	}
	first := workerIDs("")
	c.mu.Lock()
	delete(c.workers, first) // the coordinator forgets the worker
	c.mu.Unlock()
	workerIDs(first) // the 410 made the worker re-register under a fresh id

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if c.RemoteCells() == 0 {
		t.Fatal("no cells traveled through the re-registered worker")
	}
}

// TestClusterWorkerCrashMidBatchRequeues: a worker leases a batch and
// dies without reporting (a SIGKILL's observable effect: no report, no
// heartbeat). After the lease TTL the cells requeue, a healthy worker
// completes the sweep with full coverage and no duplicate indices, and
// the requeue counter records the loss. The final document is still
// byte-identical to the local run — the acceptance criterion.
func TestClusterWorkerCrashMidBatchRequeues(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: 100 * time.Millisecond, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// The crashing worker: takes one batch, reports nothing, never
	// heartbeats again.
	evil := c.register(RegisterRequest{Name: "crasher"})
	stolen := leaseWithRetry(t, c, evil.WorkerID)
	if len(stolen.Cells) == 0 {
		t.Fatal("empty lease")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c, WorkerConfig{Name: "healthy"})
	go func() { _ = w.Run(ctx) }()

	got := waitResult(t, job)
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("post-crash cluster document diverges beyond timing:\n--- cluster\n%s\n--- local\n%s", g, w)
	}
	if n := c.Requeues(); n < int64(len(stolen.Cells)) {
		t.Fatalf("requeued %d cells, want ≥ %d (the crashed lease)", n, len(stolen.Cells))
	}
}

// TestClusterZombieWorkerDuplicateReportDropped: the crashed worker's
// batch is re-executed by a healthy worker; when the "dead" worker then
// reports late, the results are duplicates of completed cells and must
// be dropped (counted, not applied) — and its lease is long revoked, so
// the report errors ErrLeaseRevoked.
func TestClusterZombieWorkerDuplicateReportDropped(t *testing.T) {
	req := testRequest()
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: 50 * time.Millisecond, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()

	job, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	zombie := c.register(RegisterRequest{Name: "zombie"})
	stolen := leaseWithRetry(t, c, zombie.WorkerID)
	results := executeLease(t, stolen) // executes, but reports only later

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c, WorkerConfig{Name: "healthy"})
	go func() { _ = w.Run(ctx) }()
	_ = waitResult(t, job) // sweep completes without the zombie

	if _, err := c.applyResult(stolen.LeaseID, results[0]); err != ErrLeaseRevoked {
		t.Fatalf("late report on expired lease: got %v, want ErrLeaseRevoked", err)
	}
}

// TestClusterCoordinatorCrashRecovery kills the coordinator after a
// partial sweep (some cells reported and logged) and restarts it from
// the job log: the queue replays, the completed cells are not
// re-executed, and the finished document is byte-identical to the local
// run.
func TestClusterCoordinatorCrashRecovery(t *testing.T) {
	req := testRequest()
	path := filepath.Join(t.TempDir(), "joblog")

	// Phase 1: accept the job, complete one batch, then "crash" — the
	// log's file handle closes (no more durable writes) and the phase-1
	// coordinator/server are simply abandoned, exactly what SIGKILL
	// leaves behind.
	c1, err := NewCoordinatorWithLog(Config{BatchSize: 2, LeaseTTL: time.Minute}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	srv1 := serve.New(serve.Config{Dispatcher: c1, Journal: c1})
	defer srv1.Close()
	if jobs, err := c1.Recover(srv1); err != nil || len(jobs) != 0 {
		t.Fatalf("fresh log recovered %d jobs, err %v", len(jobs), err)
	}
	if _, err := srv1.Submit(req); err != nil {
		t.Fatal(err)
	}
	reg := c1.register(RegisterRequest{Name: "phase1"})
	ls := leaseWithRetry(t, c1, reg.WorkerID)
	phase1 := executeLease(t, ls)
	reportAll(t, c1, ls.LeaseID, phase1)
	if err := c1.cfg.Log.Close(); err != nil { // the crash point
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator replays the log and finishes the job.
	c2, err := NewCoordinatorWithLog(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	srv2 := serve.New(serve.Config{Dispatcher: c2, Journal: c2})
	defer srv2.Close()
	jobs, err := c2.Recover(srv2)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c2, WorkerConfig{Name: "phase2"})
	go func() { _ = w.Run(ctx) }()

	got := waitResult(t, jobs[0])
	checkCoverage(t, got, req)
	if g, w := stripTiming(got), stripTiming(localDocument(t, req)); g != w {
		t.Fatalf("recovered document diverges beyond timing:\n--- recovered\n%s\n--- local\n%s", g, w)
	}
	if n := c2.RecoveredCells(); n != int64(len(phase1)) {
		t.Fatalf("replayed %d cells from the log, want %d", n, len(phase1))
	}
	cells, err := req.CellCount()
	if err != nil {
		t.Fatal(err)
	}
	if n := c2.RemoteCells(); n != int64(cells-len(phase1)) {
		t.Fatalf("re-executed %d cells, want %d (recovered cells must not re-run)", n, cells-len(phase1))
	}
}

// TestClusterJobLogTornTailRecovery appends a torn record (a crash
// mid-append) to a live log and verifies reopening tolerates it: the
// whole-record prefix replays, the tail is truncated, and the log is
// appendable again.
func TestClusterJobLogTornTailRecoversCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	log, records, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh log has %d records", len(records))
	}
	req := testRequest()
	norm, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(Record{Type: recSubmit, Job: "j1", Request: &norm}); err != nil {
		t.Fatal(err)
	}
	res := sweep.CellResult{Cell: sweep.Cell{Index: 2, Runtime: "machine"}, Iters: 40}
	if err := log.Append(Record{Type: recComplete, Job: "j1", Cell: &res}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn tail: a length prefix promising 100 bytes, then only 7.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{100, 0, 0, 0, 'g', 'a', 'r', 'b', 'a', 'g', 'e'}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sizeBefore, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	log2, records, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(records) != 2 {
		t.Fatalf("replayed %d records past the torn tail, want 2", len(records))
	}
	jobs := ReplayQueueState(records)
	if len(jobs) != 1 || jobs[0].OldID != "j1" {
		t.Fatalf("replay state: %+v, want one unfinished job j1", jobs)
	}
	if got, ok := jobs[0].Results[2]; !ok || got.Iters != 40 {
		t.Fatalf("replayed cell 2 = %+v, want the logged result", got)
	}
	sizeAfter, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter.Size() >= sizeBefore.Size() {
		t.Fatalf("torn tail not truncated: %d → %d bytes", sizeBefore.Size(), sizeAfter.Size())
	}
	// Appendable on a whole-record boundary after truncation.
	if err := log2.Append(Record{Type: recFinish, Job: "j1", State: serve.JobDone}); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	_, records, err = OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("after post-truncation append: %d records, want 3", len(records))
	}
	if len(ReplayQueueState(records)) != 0 {
		t.Fatal("finished job must not replay as queued")
	}
}

// TestClusterReplayQueueStateFolding pins the replay semantics: terminal
// jobs drop, lease records are ignored, submission order is preserved,
// duplicate submits keep the first.
func TestClusterReplayQueueStateFolding(t *testing.T) {
	req := testRequest()
	norm, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cellRes := func(i int) *sweep.CellResult {
		return &sweep.CellResult{Cell: sweep.Cell{Index: i}, Iters: 1}
	}
	records := []Record{
		{Type: recSubmit, Job: "a", Request: &norm},
		{Type: recSubmit, Job: "b", Request: &norm},
		{Type: recLease, Job: "a", Lease: "L1", Worker: "w1", Cells: []int{0, 1}},
		{Type: recComplete, Job: "a", Cell: cellRes(0)},
		{Type: recComplete, Job: "b", Cell: cellRes(3)},
		{Type: recSubmit, Job: "a", Request: &norm}, // duplicate: ignored
		{Type: recFinish, Job: "b", State: serve.JobDone},
		{Type: recSubmit, Job: "c", Request: &norm},
		{Type: recCancel, Job: "c"},
	}
	jobs := ReplayQueueState(records)
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1 (only a is unfinished)", len(jobs))
	}
	if jobs[0].OldID != "a" || len(jobs[0].Results) != 1 || jobs[0].Results[0].Iters != 1 {
		t.Fatalf("job a replayed wrong: %+v", jobs[0])
	}
}

// TestClusterHogwildNeverCachedAndCacheShortCircuitsDispatch: worker-
// executed hogwild sweeps must not populate the result cache, and a
// cache hit on a machine sweep must short-circuit lease dispatch
// entirely (no cells travel to workers for the second submission).
func TestClusterHogwildNeverCachedAndCacheShortCircuitsDispatch(t *testing.T) {
	c := NewCoordinator(Config{BatchSize: 2, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond})
	defer c.Close()
	srv := serve.New(serve.Config{Dispatcher: c, Journal: c})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewLocalWorker(c, WorkerConfig{Name: "cachetest"})
	go func() { _ = w.Run(ctx) }()

	cached := func() int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h serve.Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		return h.CachedSweeps
	}

	// A hogwild sweep through the cluster: completes, never cached.
	seed, adv := uint64(7), 4
	hog := serve.SweepRequest{
		Taus: []int{2}, Workers: []int{1}, Sparsity: []float64{0.5},
		Dim: 8, Replicates: 1, Iters: 30, Seed: &seed, Adversary: &adv,
		Runtime: "hogwild",
	}
	if hog.Cacheable() {
		t.Fatal("hogwild request must not be cacheable")
	}
	job, err := srv.Submit(hog)
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, job)
	if n := cached(); n != 0 {
		t.Fatalf("hogwild sweep populated the cache (%d entries)", n)
	}

	// A machine sweep: first run travels through workers, the identical
	// resubmission is a cache hit and dispatches nothing.
	req := testRequest()
	first, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := waitResult(t, first)
	if n := cached(); n != 1 {
		t.Fatalf("machine sweep not cached (%d entries)", n)
	}
	remoteBefore, leasesBefore := c.RemoteCells(), c.leasesGranted.Load()
	second, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := second.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("identical machine resubmission missed the cache")
	}
	doc2, ok := second.Result()
	if !ok {
		t.Fatal("cached job has no result")
	}
	if !bytes.Equal(doc1, doc2) {
		t.Fatal("cache hit returned different bytes (must be the original computation's, timing included)")
	}
	if c.RemoteCells() != remoteBefore || c.leasesGranted.Load() != leasesBefore {
		t.Fatal("cache hit dispatched cells to workers; it must short-circuit lease dispatch entirely")
	}
}
