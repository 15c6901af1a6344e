package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asyncsgd/internal/metrics"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/sweep"
)

// Config parameterizes a Coordinator. The zero value is usable.
type Config struct {
	// LeaseTTL is the lease deadline: a lease neither completed nor
	// heartbeat-extended within it is revoked and its incomplete cells
	// requeue (default 10s).
	LeaseTTL time.Duration
	// BatchSize is the number of cells per lease (default 8).
	BatchSize int
	// Poll is the idle poll interval suggested to workers (default
	// 250ms).
	Poll time.Duration
	// Log, when set, makes the queue durable: submissions, leases, cell
	// completions and terminal transitions are appended so a restarted
	// coordinator recovers queued and partially-complete sweeps (see
	// Recover). Nil disables durability.
	Log *JobLog
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.Poll <= 0 {
		c.Poll = 250 * time.Millisecond
	}
	return c
}

// Protocol failure modes.
var (
	// ErrUnknownWorker: the worker id is not registered (the coordinator
	// restarted, or the worker never registered). Workers re-register
	// under a fresh identity.
	ErrUnknownWorker = errors.New("cluster: unknown worker")
	// ErrLeaseRevoked: the lease expired or its job ended; the worker
	// abandons the batch (its cells are already requeued or moot).
	ErrLeaseRevoked = errors.New("cluster: lease revoked")
)

// activeJob is one sweep currently dispatching on the cluster.
type activeJob struct {
	id  string
	req serve.SweepRequest
	// pending holds the batches awaiting lease dispatch, each a list of
	// document cell indices.
	pending   [][]int
	results   map[int]sweep.CellResult
	total     int
	completed int
	onCell    func(sweep.CellResult)
	done      chan struct{}
}

// lease is one granted batch with its deadline.
type lease struct {
	id     string
	worker string
	job    *activeJob
	// remaining holds the document indices the lease has not yet
	// reported.
	remaining map[int]bool
	deadline  time.Time
}

type workerState struct {
	id       string
	name     string
	lastSeen time.Time
}

// Coordinator owns the cluster side of the sweep service: it plugs into
// a serve.Server as its Dispatcher (jobs fan out to leased workers
// instead of the in-process pool) and Journal (the durable job log), and
// Mount exposes the worker protocol around the server's HTTP API. The
// job queue, grid expansion, result cache, event streams and metrics
// endpoint all stay in internal/serve — the coordinator only decides
// which process runs which cells and reassembles the document by
// index.
type Coordinator struct {
	cfg Config

	mu         sync.Mutex
	workers    map[string]*workerState
	leases     map[string]*lease
	jobs       map[string]*activeJob
	jobOrder   []string
	nextWorker int
	nextLease  int

	// Recovery state: replayed is what OpenJobLog found (consumed by
	// Recover), pendingRecovery is the in-order queue JobSubmitted pops
	// during Recover, recovered maps fresh job ids to their replayed
	// cell results until DispatchSweep claims them.
	replayed        []*RecoveredJob
	pendingRecovery []*RecoveredJob
	recovered       map[string]map[int]sweep.CellResult

	// Monotone counters (atomics so tests and metrics read them without
	// the lock).
	leasesGranted  atomic.Int64
	requeuedCells  atomic.Int64
	remoteCells    atomic.Int64
	duplicateCells atomic.Int64
	recoveredCells atomic.Int64
	mLeasesGranted *metrics.Counter
	mRequeues      *metrics.Counter
	mRemoteCells   *metrics.Counter
	mDuplicates    *metrics.Counter
	mRecovered     *metrics.Counter

	closed   chan struct{}
	scanDone chan struct{}
}

// NewCoordinator builds a coordinator and starts its lease-expiry
// scanner. When cfg.Log is set, the log's replayed records are folded
// into recoverable queue state — call Recover with the serve.Server to
// resubmit them before exposing the handler.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		workers:   make(map[string]*workerState),
		leases:    make(map[string]*lease),
		jobs:      make(map[string]*activeJob),
		recovered: make(map[string]map[int]sweep.CellResult),
		closed:    make(chan struct{}),
		scanDone:  make(chan struct{}),
	}
	go c.expiryScanner()
	return c
}

// NewCoordinatorWithLog opens (or creates) the durable job log at path,
// replays it, and builds a coordinator around it.
func NewCoordinatorWithLog(cfg Config, path string) (*Coordinator, error) {
	log, records, err := OpenJobLog(path)
	if err != nil {
		return nil, err
	}
	cfg.Log = log
	c := NewCoordinator(cfg)
	c.replayed = ReplayQueueState(records)
	return c, nil
}

// Close stops the expiry scanner and closes the job log (if any). It
// does not cancel jobs — that is the serve.Server's business; a closed
// coordinator simply stops granting and expiring leases.
func (c *Coordinator) Close() {
	c.mu.Lock()
	select {
	case <-c.closed:
		c.mu.Unlock()
		return
	default:
	}
	close(c.closed)
	c.mu.Unlock()
	<-c.scanDone
	if c.cfg.Log != nil {
		_ = c.cfg.Log.Close()
	}
}

// Counter accessors for tests and introspection.

// Requeues returns the total number of cells requeued after lease loss.
func (c *Coordinator) Requeues() int64 { return c.requeuedCells.Load() }

// RemoteCells returns the total number of cell results accepted from
// workers.
func (c *Coordinator) RemoteCells() int64 { return c.remoteCells.Load() }

// DuplicateCells returns the number of reported results dropped because
// the cell was already complete (requeue overlap).
func (c *Coordinator) DuplicateCells() int64 { return c.duplicateCells.Load() }

// RecoveredCells returns the number of cell results replayed from the
// job log instead of re-executed.
func (c *Coordinator) RecoveredCells() int64 { return c.recoveredCells.Load() }

// AttachMetrics registers the asgdserve_cluster_* families into the
// server's registry (serve.New calls this automatically when the
// coordinator is the configured Dispatcher).
func (c *Coordinator) AttachMetrics(reg *metrics.Registry) {
	c.mLeasesGranted = reg.NewCounter("asgdserve_cluster_leases_granted_total",
		"cell batches leased to workers")
	c.mRequeues = reg.NewCounter("asgdserve_cluster_requeues_total",
		"cells requeued after a lease expired (worker crash, disconnect, or missed heartbeat)")
	c.mRemoteCells = reg.NewCounter("asgdserve_cluster_cells_remote_total",
		"cell results accepted from workers")
	c.mDuplicates = reg.NewCounter("asgdserve_cluster_duplicate_results_total",
		"reported results dropped because the cell was already complete")
	c.mRecovered = reg.NewCounter("asgdserve_cluster_recovered_cells_total",
		"cell results replayed from the durable job log instead of re-executed")
	reg.NewGaugeFunc("asgdserve_cluster_workers",
		"workers currently registered", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.workers))
		})
	reg.NewGaugeFunc("asgdserve_cluster_leases_active",
		"leases currently outstanding", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.leases))
		})
	reg.NewGaugeFunc("asgdserve_cluster_cells_pending",
		"cells of active jobs awaiting lease dispatch", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, j := range c.jobs {
				for _, b := range j.pending {
					n += len(b)
				}
			}
			return float64(n)
		})
}

func inc(m *metrics.Counter, a *atomic.Int64, n int64) {
	a.Add(n)
	if m != nil {
		m.Add(float64(n))
	}
}

// --- serve.Journal ---

// JobSubmitted persists the submission and, during Recover, rebinds the
// next replayed job's completed cells to the fresh job id — re-logging
// them under that id so the log stays self-contained across any number
// of restarts. Invoked synchronously inside serve.Submit before the job
// is visible to the executor.
func (c *Coordinator) JobSubmitted(id string, req serve.SweepRequest) {
	var rec *RecoveredJob
	c.mu.Lock()
	if len(c.pendingRecovery) > 0 && reflect.DeepEqual(c.pendingRecovery[0].Request, req) {
		rec = c.pendingRecovery[0]
		c.pendingRecovery = c.pendingRecovery[1:]
		if len(rec.Results) > 0 {
			c.recovered[id] = rec.Results
		}
	}
	log := c.cfg.Log
	c.mu.Unlock()
	if log == nil {
		return
	}
	_ = log.Append(Record{Type: recSubmit, Job: id, Request: &req})
	if rec != nil {
		for _, idx := range sortedKeys(rec.Results) {
			res := rec.Results[idx]
			_ = log.Append(Record{Type: recComplete, Job: id, Cell: &res})
		}
	}
}

// JobFinished persists the terminal transition.
func (c *Coordinator) JobFinished(id string, state string) {
	c.mu.Lock()
	delete(c.recovered, id) // e.g. canceled while queued, never dispatched
	log := c.cfg.Log
	c.mu.Unlock()
	if log == nil {
		return
	}
	if state == serve.JobCanceled {
		_ = log.Append(Record{Type: recCancel, Job: id})
		return
	}
	_ = log.Append(Record{Type: recFinish, Job: id, State: state})
}

// Recover resubmits every unfinished job the log replayed to the fresh
// server, in original submission order, carrying each job's completed
// cells forward (they are replayed into the document, not re-executed).
// Call it after serve.New and before exposing the HTTP handler — it
// relies on being the only submitter while it runs. Returns the
// resubmitted jobs in submission order.
func (c *Coordinator) Recover(s *serve.Server) ([]*serve.Job, error) {
	c.mu.Lock()
	jobs := c.replayed
	c.replayed = nil
	c.pendingRecovery = jobs
	c.mu.Unlock()
	resubmitted := make([]*serve.Job, 0, len(jobs))
	for _, rj := range jobs {
		job, err := s.Submit(rj.Request)
		if err != nil {
			return resubmitted, fmt.Errorf("cluster: resubmitting recovered job %s: %w", rj.OldID, err)
		}
		resubmitted = append(resubmitted, job)
	}
	c.mu.Lock()
	c.pendingRecovery = nil
	c.mu.Unlock()
	return resubmitted, nil
}

// --- serve.Dispatcher ---

// DispatchSweep expands the request's grid, seeds it with any recovered
// cell results, queues the remaining cells as lease batches, and blocks
// until every cell has a result (workers lease, execute, report) or ctx
// is canceled. The document is reassembled by cell index through the
// same serve.AssembleReport the in-process executor uses, so for a
// deterministic grid the distributed bytes equal the local bytes modulo
// the documented timing fields — no matter which worker ran which
// cell, how many times, or in what order.
func (c *Coordinator) DispatchSweep(ctx context.Context, jobID string, req serve.SweepRequest,
	onCell func(sweep.CellResult), _ func(sweep.TelemetrySample)) (*serve.Report, error) {
	norm, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	specs, err := norm.Specs()
	if err != nil {
		return nil, err
	}
	cells, err := specs[0].Cells()
	if err != nil {
		return nil, err
	}
	total := len(cells)

	start := time.Now()
	job := &activeJob{
		id:      jobID,
		req:     norm,
		results: make(map[int]sweep.CellResult, total),
		total:   total,
		onCell:  onCell,
		done:    make(chan struct{}),
	}

	c.mu.Lock()
	recovered := c.recovered[jobID]
	delete(c.recovered, jobID)
	for idx, res := range recovered {
		if idx >= 0 && idx < total {
			job.results[idx] = res
			job.completed++
		}
	}
	// Queue the incomplete cells as batches in index order.
	var b []int
	for i := 0; i < total; i++ {
		if _, done := job.results[i]; done {
			continue
		}
		b = append(b, i)
		if len(b) == c.cfg.BatchSize {
			job.pending = append(job.pending, b)
			b = nil
		}
	}
	if len(b) > 0 {
		job.pending = append(job.pending, b)
	}
	allDone := job.completed == job.total
	if allDone {
		close(job.done)
	}
	c.jobs[jobID] = job
	c.jobOrder = append(c.jobOrder, jobID)
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.jobs, jobID)
		for i, id := range c.jobOrder {
			if id == jobID {
				c.jobOrder = append(c.jobOrder[:i], c.jobOrder[i+1:]...)
				break
			}
		}
		// Revoke any lease still referencing the job (cancellation, or a
		// zombie lease whose cells another lease completed): late reports
		// answer 410 and the worker abandons the batch.
		for id, ls := range c.leases {
			if ls.job == job {
				delete(c.leases, id)
			}
		}
		c.mu.Unlock()
	}()

	// Replay recovered cells onto the event stream in index order so a
	// recovered job's subscribers see every cell exactly once.
	if onCell != nil && len(recovered) > 0 {
		n := int64(0)
		for _, idx := range sortedKeys(recovered) {
			if idx >= 0 && idx < total {
				onCell(recovered[idx])
				n++
			}
		}
		inc(c.mRecovered, &c.recoveredCells, n)
	} else if len(recovered) > 0 {
		inc(c.mRecovered, &c.recoveredCells, int64(len(recovered)))
	}

	select {
	case <-job.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	ordered := make([]sweep.CellResult, total)
	c.mu.Lock()
	for i := 0; i < total; i++ {
		ordered[i] = job.results[i]
	}
	c.mu.Unlock()
	return serve.AssembleReport(norm, []string{specs[0].Name}, ordered, time.Since(start)), nil
}

// --- worker protocol core (shared by the HTTP handlers and in-process
// local workers) ---

// register assigns a fresh worker identity.
func (c *Coordinator) register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	c.nextWorker++
	id := fmt.Sprintf("w%d", c.nextWorker)
	name := req.Name
	if name == "" {
		name = id
	}
	c.workers[id] = &workerState{id: id, name: name, lastSeen: time.Now()}
	c.mu.Unlock()
	return RegisterResponse{
		WorkerID:   id,
		LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds(),
		PollMS:     c.cfg.Poll.Milliseconds(),
	}
}

// grantLease hands the next pending batch (FIFO over active jobs, then
// batches) to the worker, or returns (nil, nil) when there is no work.
func (c *Coordinator) grantLease(workerID string) (*LeaseResponse, error) {
	now := time.Now()
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok {
		c.mu.Unlock()
		return nil, ErrUnknownWorker
	}
	w.lastSeen = now
	for _, jid := range c.jobOrder {
		job := c.jobs[jid]
		if job == nil || len(job.pending) == 0 {
			continue
		}
		b := job.pending[0]
		job.pending = job.pending[1:]
		c.nextLease++
		id := fmt.Sprintf("L%d", c.nextLease)
		ls := &lease{
			id:        id,
			worker:    workerID,
			job:       job,
			remaining: make(map[int]bool, len(b)),
			deadline:  now.Add(c.cfg.LeaseTTL),
		}
		for _, i := range b {
			ls.remaining[i] = true
		}
		c.leases[id] = ls
		log := c.cfg.Log
		c.mu.Unlock()
		inc(c.mLeasesGranted, &c.leasesGranted, 1)
		if log != nil {
			_ = log.Append(Record{Type: recLease, Job: job.id, Lease: id, Worker: workerID, Cells: b})
		}
		return &LeaseResponse{
			LeaseID:    id,
			JobID:      job.id,
			Request:    job.req,
			Cells:      b,
			DeadlineMS: c.cfg.LeaseTTL.Milliseconds(),
		}, nil
	}
	c.mu.Unlock()
	return nil, nil
}

// heartbeat extends the lease deadline.
func (c *Coordinator) heartbeat(req HeartbeatRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[req.WorkerID]; ok {
		w.lastSeen = time.Now()
	} else {
		return ErrUnknownWorker
	}
	ls, ok := c.leases[req.LeaseID]
	if !ok || ls.worker != req.WorkerID {
		return ErrLeaseRevoked
	}
	ls.deadline = time.Now().Add(c.cfg.LeaseTTL)
	return nil
}

// applyResult records one reported cell, keyed by its document index
// res.Index (sweep.RunSubset keeps grid indices). Duplicates — the cell
// was completed under another lease after a requeue — are dropped, which
// is safe precisely because re-execution is byte-stable: both copies
// carry identical deterministic fields, so first-wins changes nothing
// but the timing columns. Returns whether the result was applied (false
// for duplicates) or ErrLeaseRevoked for dead leases.
func (c *Coordinator) applyResult(leaseID string, res sweep.CellResult) (bool, error) {
	c.mu.Lock()
	ls, ok := c.leases[leaseID]
	if !ok {
		c.mu.Unlock()
		return false, ErrLeaseRevoked
	}
	if w, ok := c.workers[ls.worker]; ok {
		w.lastSeen = time.Now()
	}
	job := ls.job
	if !ls.remaining[res.Index] {
		// Not part of this lease (already reported under it, or a
		// protocol error): drop.
		c.mu.Unlock()
		inc(c.mDuplicates, &c.duplicateCells, 1)
		return false, nil
	}
	delete(ls.remaining, res.Index)
	if len(ls.remaining) == 0 {
		delete(c.leases, leaseID)
	}
	if _, dup := job.results[res.Index]; dup {
		c.mu.Unlock()
		inc(c.mDuplicates, &c.duplicateCells, 1)
		return false, nil
	}
	job.results[res.Index] = res
	job.completed++
	last := job.completed == job.total
	onCell := job.onCell
	log := c.cfg.Log
	c.mu.Unlock()

	inc(c.mRemoteCells, &c.remoteCells, 1)
	if log != nil {
		_ = log.Append(Record{Type: recComplete, Job: job.id, Cell: &res})
	}
	if onCell != nil {
		onCell(res)
	}
	if last {
		close(job.done)
	}
	return true, nil
}

// expiryScanner revokes overdue leases and requeues their incomplete
// cells — the failure-detection half of the lease protocol (Aspnes-style
// timeout detection: a worker that stopped heartbeating is
// indistinguishable from a crashed one, and requeueing is safe either
// way because re-execution is byte-stable and duplicates dedupe by
// index).
func (c *Coordinator) expiryScanner() {
	defer close(c.scanDone)
	interval := c.cfg.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-ticker.C:
			c.expireLeases(time.Now())
		}
	}
}

// expireLeases revokes every lease whose deadline passed before now and
// requeues its incomplete cells.
func (c *Coordinator) expireLeases(now time.Time) {
	requeued := int64(0)
	c.mu.Lock()
	for id, ls := range c.leases {
		if !ls.deadline.Before(now) {
			continue
		}
		delete(c.leases, id)
		if len(ls.remaining) == 0 {
			continue
		}
		// Requeue the incomplete cells (skipping any a parallel lease
		// already completed) as a fresh batch at the back of the job's
		// queue, in index order.
		var cells []int
		for g := range ls.remaining {
			if _, done := ls.job.results[g]; !done {
				cells = append(cells, g)
			}
		}
		if len(cells) == 0 {
			continue
		}
		sort.Ints(cells)
		ls.job.pending = append(ls.job.pending, cells)
		requeued += int64(len(cells))
	}
	c.mu.Unlock()
	if requeued > 0 {
		inc(c.mRequeues, &c.requeuedCells, requeued)
	}
}

// Status snapshots the cluster for GET /cluster/v1/status.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Jobs: make(map[string]int)}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		st.Workers = append(st.Workers, StatusWorker{
			ID: w.id, Name: w.name, LastSeen: w.lastSeen.UTC().Format(time.RFC3339Nano),
		})
	}
	lids := make([]string, 0, len(c.leases))
	for id := range c.leases {
		lids = append(lids, id)
	}
	sort.Strings(lids)
	for _, id := range lids {
		ls := c.leases[id]
		cells := make([]int, 0, len(ls.remaining))
		for g := range ls.remaining {
			cells = append(cells, g)
		}
		sort.Ints(cells)
		st.Leases = append(st.Leases, StatusLease{
			ID: ls.id, Worker: ls.worker, Job: ls.job.id, Cells: cells,
			Deadline: ls.deadline.UTC().Format(time.RFC3339Nano),
		})
	}
	for id, job := range c.jobs {
		n := 0
		for _, b := range job.pending {
			n += len(b)
		}
		st.Jobs[id] = n
	}
	return st
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[int]sweep.CellResult) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Mount wraps next (usually the serve.Server handler) with the worker
// protocol endpoints.
func (c *Coordinator) Mount(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	mux.HandleFunc("POST /cluster/v1/lease", c.handleLease)
	mux.HandleFunc("POST /cluster/v1/report/{lease}", c.handleReport)
	mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /cluster/v1/status", c.handleStatus)
	if next != nil {
		mux.Handle("/", next)
	}
	return mux
}
