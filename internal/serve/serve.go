package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"asyncsgd/internal/metrics"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/version"
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to its default.
type Config struct {
	// QueueDepth bounds the job queue: submissions beyond it are refused
	// with 429 rather than buffered without bound (default 16).
	QueueDepth int
	// CacheSize bounds the LRU result cache in completed sweeps; < 0
	// disables caching (default 32).
	CacheSize int
	// History bounds how many finished jobs are retained for
	// introspection and event replay; the oldest finished jobs are
	// pruned beyond it (default 128).
	History int
	// DrainTimeout bounds the SIGTERM graceful drain in ListenAndServe
	// (default 60s).
	DrainTimeout time.Duration
	// Dispatcher is the execution backend jobs run on (nil ⇒ the
	// in-process sweep pool). The cluster coordinator plugs in here to
	// fan cells out to leased remote workers.
	Dispatcher Dispatcher
	// Journal, when set, receives every accepted submission and terminal
	// transition so queue state survives a restart (the cluster
	// coordinator's durable job log).
	Journal Journal
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheSize == 0 { // negative = caching disabled (lruCache no-ops)
		c.CacheSize = 32
	}
	if c.History <= 0 {
		c.History = 128
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 60 * time.Second
	}
	return c
}

// Submission failure modes (mapped to HTTP statuses by the handler).
var (
	// ErrDraining: the server is draining (SIGTERM) and accepts no new
	// jobs (503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrQueueFull: the bounded job queue is at capacity (429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrUnknownJob: no job has the requested id (404).
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Server is the sweep job server: a bounded FIFO queue of sweep
// requests, one executor goroutine running them in submission order on
// the internal/sweep weighted pool (the pool already saturates
// GOMAXPROCS per job, so serializing jobs keeps cell-level parallelism
// while making job completion order equal submission order — the queue
// fairness the load-smoke test pins), an LRU cache serving repeated
// deterministic specs without recomputation, and streaming introspection
// over HTTP. Create with New, expose with Handler, stop with Drain
// (graceful) or Close (immediate).
type Server struct {
	cfg Config

	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond // signaled on pending append and on drain
	jobs     map[string]*Job
	order    []string // submission order
	finished []string // completion order (the fairness observable)
	nextID   int
	// pending is the FIFO queue of jobs awaiting the executor. A slice
	// rather than a channel so cancellation can compact a canceled job
	// out of the queue immediately: with a buffered channel, a job
	// canceled while queued kept occupying its slot until the executor
	// reached and skipped it, so a full queue of canceled jobs still
	// answered 429 and /healthz over-counted queued work.
	pending  []*Job
	draining bool
	cache    *lruCache
	met      *serverMetrics

	dispatcher Dispatcher
	journal    Journal

	execDone chan struct{}
}

// New builds a Server and starts its executor.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		cancelAll:  cancel,
		jobs:       make(map[string]*Job),
		cache:      newLRUCache(cfg.CacheSize),
		dispatcher: cfg.Dispatcher,
		journal:    cfg.Journal,
		execDone:   make(chan struct{}),
	}
	if s.dispatcher == nil {
		s.dispatcher = localDispatcher{}
	}
	s.cond = sync.NewCond(&s.mu)
	s.met = newServerMetrics(s)
	if ma, ok := s.dispatcher.(MetricsAttacher); ok {
		ma.AttachMetrics(s.met.reg)
	}
	go s.executor()
	return s
}

// MetricsRegistry exposes the server's metric registry (the document
// GET /metrics renders) so embedders can add their own families.
func (s *Server) MetricsRegistry() *metrics.Registry { return s.met.reg }

// Submit validates and enqueues a sweep request (or answers it from the
// cache), returning the job. Errors: ErrBadRequest (invalid spec),
// ErrDraining, ErrQueueFull.
func (s *Server) Submit(req SweepRequest) (*Job, error) {
	norm, key, cells, err := req.expand()
	if err != nil {
		s.met.submissions.With("rejected_invalid").Inc()
		if errors.Is(err, ErrBadRequest) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.submissions.With("rejected_draining").Inc()
		return nil, ErrDraining
	}
	if norm.Cacheable() {
		if hit, ok := s.cache.get(key); ok {
			s.met.cacheHits.Inc()
			s.met.submissions.With("cache_hit").Inc()
			job := s.cachedJobLocked(norm, key, cells, hit)
			return job, nil
		}
		s.met.cacheMisses.Inc()
	}
	// Capacity gates on live queued jobs only: canceled jobs are
	// compacted out of pending by noteFinished, so they cannot occupy
	// slots and force spurious 429s.
	if len(s.pending) >= s.cfg.QueueDepth {
		s.met.submissions.With("rejected_full").Inc()
		return nil, ErrQueueFull
	}
	id := fmt.Sprintf("j%d", s.nextID+1)
	ctx, cancel := context.WithCancel(s.baseCtx)
	job := newJob(id, key, norm, cells, ctx, cancel)
	// Journal before the job becomes visible to the executor (we still
	// hold s.mu, so the executor cannot pop it yet): a journaled job's
	// submit record always precedes any of its execution records.
	if s.journal != nil {
		s.journal.JobSubmitted(id, norm)
	}
	s.pending = append(s.pending, job)
	s.cond.Signal()
	s.nextID++
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.met.submissions.With("accepted").Inc()
	return job, nil
}

// cachedJobLocked registers a pre-completed job that replays a cache
// hit: its event stream and document are the original computation's,
// byte for byte. Callers hold s.mu.
func (s *Server) cachedJobLocked(req SweepRequest, key string, cells int, hit *cached) *Job {
	id := fmt.Sprintf("j%d", s.nextID+1)
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	job := newJob(id, key, req, cells, ctx, cancel)
	cancel() // terminal at birth: release the base-context registration
	job.cached = true
	job.state = JobDone
	job.events = hit.events
	job.report = hit.report
	for _, e := range hit.events {
		if e.Type == "cell" {
			job.completed++
			if e.Cell != nil && e.Cell.Err != "" {
				job.failed++
			}
		}
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.finished = append(s.finished, id)
	s.met.jobsFinished.With(JobDone).Inc()
	s.pruneLocked()
	return job
}

// Cancel cancels a job: a queued job never starts, a running job stops
// admitting cells (in-flight cells finish; see sweep.RunContext). It
// reports whether the call changed anything — canceling a finished job
// is a recorded no-op.
func (s *Server) Cancel(id string) (bool, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false, ErrUnknownJob
	}
	// Decide and act under job.mu so the queued→running transition in
	// runJob (guarded by the same mutex) cannot interleave: either the
	// job is still queued here — it becomes terminal and the executor
	// will skip it — or it is already running and only the context
	// cancellation reaches it (runJob owns the terminal transition).
	job.mu.Lock()
	switch {
	case job.terminal():
		job.mu.Unlock()
		return false, nil
	case job.state == JobQueued:
		job.finishLocked(JobCanceled, nil, "canceled while queued")
		job.mu.Unlock()
		job.cancel()
		s.noteFinished(job)
	default: // running
		job.mu.Unlock()
		job.cancel()
	}
	return true, nil
}

// Drain stops accepting submissions, lets every queued and running job
// finish, and returns when the executor is idle (or ctx expires).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	select {
	case <-s.execDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels every job and stops the executor without waiting for
// queued work. Safe after Drain.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.cancelAll()
	<-s.execDone
}

// executor is the single job runner: FIFO over the pending queue. It
// exits once the server is draining and the queue is empty — draining
// still runs every job queued before the drain began.
func (s *Server) executor() {
	defer close(s.execDone)
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		job := s.pending[0]
		s.pending[0] = nil // release the Job for GC under History pruning
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.runJob(job)
	}
}

func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.terminal() { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.events = make([]Event, 0, j.cells+1) // every cell, then the aggregate
	//asgdvet:allow nondet(queue-wait metric and status seconds are wall-clock; the document is not)
	j.started = time.Now()
	j.bump()
	j.mu.Unlock()

	s.met.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
	s.met.running.Inc()
	defer s.met.running.Dec()

	onCell := func(r sweep.CellResult) {
		j.appendCell(r)
		s.met.cells.Inc()
		s.met.cellSeconds.Observe(r.Seconds)
		fault := func(kind string, n int64) {
			if n > 0 {
				s.met.cellFaults.With(kind).Add(float64(n))
			}
		}
		fault("crashed", int64(r.Crashed))
		fault("rejoined", int64(r.Rejoined))
		fault("recovered_tickets", r.RecoveredTickets)
		fault("stalled", int64(r.Stalled))
		fault("corrupted_updates", r.CorruptedUpdates)
		fault("clipped_updates", r.ClippedUpdates)
	}
	onTelemetry := func(ts sweep.TelemetrySample) {
		j.appendTelemetry(ts)
		s.met.telemetrySamples.Inc()
	}
	doc, err := s.dispatcher.DispatchSweep(j.ctx, j.id, j.req, onCell, onTelemetry)
	switch {
	case err == nil:
		// The document is encoded on every read; encode it once now so
		// an unencodable report fails the job instead of its readers.
		if encErr := doc.Encode(io.Discard); encErr != nil {
			j.finish(JobFailed, nil, encErr.Error())
			break
		}
		j.finish(JobDone, doc, "")
		if j.req.Cacheable() {
			j.mu.Lock()
			// Copy the event buffer: the cached entry outlives the job
			// and is shared by every future cache-hit job, so it must not
			// alias a live slice anyone could append to.
			entry := &cached{events: append([]Event(nil), j.events...), report: j.report}
			key := j.key
			j.mu.Unlock()
			s.mu.Lock()
			s.cache.put(key, entry)
			s.mu.Unlock()
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.finish(JobCanceled, nil, "canceled")
	default:
		j.finish(JobFailed, nil, err.Error())
	}
	s.noteFinished(j)
}

// noteFinished records completion order, compacts the job out of the
// pending queue if it is still there (a job canceled while queued frees
// its slot immediately — the queue-capacity fix), and prunes history.
func (s *Server) noteFinished(j *Job) {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	s.met.jobsFinished.With(state).Inc()
	if s.journal != nil {
		s.journal.JobFinished(j.id, state)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.pending {
		if q == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.finished = append(s.finished, j.id)
	s.pruneLocked()
}

// pruneLocked drops the oldest finished jobs beyond the history bound so
// a long-lived server's job map (each entry holds a full event buffer)
// stays bounded. Callers hold s.mu.
func (s *Server) pruneLocked() {
	excess := len(s.finished) - s.cfg.History
	if excess <= 0 {
		return
	}
	for _, id := range s.finished[:excess] {
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.finished = append([]string(nil), s.finished[excess:]...)
}

// job looks a job up by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// FinishedOrder returns job ids in completion order — the observable the
// load-smoke test compares against submission order to pin FIFO
// fairness.
func (s *Server) FinishedOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.finished...)
}

// Health is the /healthz document.
type Health struct {
	OK           bool   `json:"ok"`
	Version      string `json:"version"`
	Draining     bool   `json:"draining"`
	Jobs         int    `json:"jobs"`
	Queued       int    `json:"queued"`
	Running      int    `json:"running"`
	QueueDepth   int    `json:"queue_depth"`
	CachedSweeps int    `json:"cached_sweeps"`
}

// Handler returns the HTTP API:
//
//	GET    /healthz                 liveness + queue gauges
//	GET    /metrics                 Prometheus text-format metrics
//	GET    /v1/jobs                 all retained jobs, submission order
//	POST   /v1/sweeps               submit a SweepRequest → 202 JobStatus
//	GET    /v1/sweeps/{id}          one job's status
//	GET    /v1/sweeps/{id}/events   stream events (NDJSON; SSE on Accept)
//	GET    /v1/sweeps/{id}/result   final asgdbench/v2 document bytes
//	DELETE /v1/sweeps/{id}          cancel
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := Health{
		OK:           true,
		Version:      version.Version,
		Draining:     s.draining,
		Jobs:         len(s.jobs),
		Queued:       len(s.pending),
		QueueDepth:   s.cfg.QueueDepth,
		CachedSweeps: s.cache.len(),
	}
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == JobRunning {
			h.Running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	// Snapshot completion order under the same lock so jobs and finished
	// are coherent: the FIFO-fairness observable over HTTP (asgdload
	// checks finished ids are increasing for its non-cached jobs).
	finished := append([]string(nil), s.finished...)
	s.mu.Unlock()
	statuses := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses, "finished": finished})
}

// maxSubmitBytes bounds a POST /v1/sweeps body (the same 1 MiB limit as
// the cluster control plane); a larger body is refused with 413.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decoding request: %w", err))
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrQueueFull):
			writeError(w, http.StatusTooManyRequests, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+job.id)
	writeJSON(w, http.StatusAccepted, job.status())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	changed, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		// Pruned between the cancel and the lookup.
		writeError(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	if !changed {
		// Already terminal: report the state, flag the no-op.
		w.Header().Set("X-Serve-Cancel", "noop")
	}
	writeJSON(w, http.StatusOK, job.status())
}

// handleResult returns the final document bytes. For a cached job they
// encode the original computation's Report, so two submissions of an
// identical deterministic spec answer with identical bodies — including
// the timing fields a recomputation would perturb.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	job.mu.Lock()
	state, rep := job.state, job.report
	job.mu.Unlock()
	switch state {
	case JobDone:
	case JobFailed, JobCanceled:
		// Terminal without a document: a retryable 409 here would make
		// pollers spin forever; 410 says the result will never exist.
		writeError(w, http.StatusGone,
			fmt.Errorf("serve: job %s is %s, no result will be produced", job.id, state))
		return
	default:
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s is %s, result available once done", job.id, state))
		return
	}
	doc, err := rep.encoded()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(doc)
}

// handleEvents streams the job's event buffer and then follows live
// events until the job reaches a terminal state. Default framing is
// NDJSON (one Event per line); an Accept header containing
// text/event-stream switches to SSE with the event type in the `event:`
// field. Late subscribers replay from the first event, so the stream a
// client sees is independent of when it connected.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	s.met.subscribers.Inc()
	defer s.met.subscribers.Dec()
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	next := 0
	for {
		job.mu.Lock()
		pending := make([]Event, len(job.events)-next)
		copy(pending, job.events[next:])
		next = len(job.events)
		terminal := job.terminal()
		rep := job.report
		wake := job.notify
		job.mu.Unlock()

		for _, e := range pending {
			if e.Type == "aggregate" {
				doc, err := rep.encoded()
				if err != nil {
					return
				}
				e.Document = doc
			}
			payload, err := json.Marshal(e)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, payload)
			} else {
				fmt.Fprintf(w, "%s\n", payload)
			}
		}
		if len(pending) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"err": err.Error()})
}

// ListenAndServe runs the full service on addr until ctx is canceled
// (SIGTERM in cmd/asgdserve), then drains gracefully: submissions are
// refused, queued and running jobs finish (bounded by
// Config.DrainTimeout), and the HTTP listener shuts down.
func ListenAndServe(ctx context.Context, addr string, cfg Config) error {
	s := New(cfg)
	defer s.Close()
	return s.ListenAndServe(ctx, addr, s.Handler())
}

// ListenAndServe runs handler (usually s.Handler(), possibly wrapped —
// the cluster coordinator mounts its /cluster/v1/* endpoints around it)
// on addr until ctx is canceled, then drains exactly like the package
// function: submissions refused, queued and running jobs finish bounded
// by Config.DrainTimeout, then the listener shuts down gracefully.
func (s *Server) ListenAndServe(ctx context.Context, addr string, handler http.Handler) error {
	hs := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		// Drain timed out: cancel the still-running jobs now, before the
		// HTTP shutdown, so open event streams receive their terminal
		// event and close instead of pinning Shutdown to its deadline.
		s.Close()
	}
	// Shutdown gets its own fresh timeout. Reusing dctx here would hand
	// Shutdown an already-expired context whenever Drain timed out,
	// making it abort in-flight responses immediately instead of closing
	// them gracefully.
	sctx, scancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer scancel()
	return hs.Shutdown(sctx)
}
