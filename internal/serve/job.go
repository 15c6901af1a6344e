package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"asyncsgd/internal/sweep"
)

// Job states. A job moves queued → running → {done, failed}, or to
// canceled from either non-terminal state.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// Event is one element of a job's event stream (NDJSON line / SSE
// event). Exactly one of Cell, Telemetry, Document, Err is set, per Type:
//
//   - "cell": one completed grid cell, in completion order, carrying the
//     same document-global index as the final aggregate's results array.
//   - "telemetry": a live progress snapshot of one running hogwild cell
//     (staleness gauge, contention counters, iteration progress).
//     Emitted only when the request opted in via telemetry_ms; never
//     emitted by machine cells, and never terminal. Telemetry events are
//     buffered like every other event, so a late subscriber replays the
//     identical interleaved stream an early subscriber saw.
//   - "aggregate": the terminal success event; Document is the full
//     asgdbench/v2 report (the bytes GET …/result returns, compacted
//     into the event line). A job's buffered aggregate event leaves
//     Document empty: the stream encodes it from the job's Report as
//     the event is written.
//   - "error": the terminal failure/cancellation event.
type Event struct {
	Type      string                 `json:"type"`
	Cell      *sweep.CellResult      `json:"cell,omitempty"`
	Telemetry *sweep.TelemetrySample `json:"telemetry,omitempty"`
	Document  json.RawMessage        `json:"document,omitempty"`
	Err       string                 `json:"err,omitempty"`
}

// Job is one submitted sweep: its normalized request, its position in
// the queue, its buffered event stream (kept whole so late subscribers
// replay from the beginning), and — once done — the final Report. A
// finished job holds its results once: its cell events point into
// Report.Sweep.Results, and the document bytes are encoded on demand.
type Job struct {
	// Immutable after creation.
	id    string
	key   string
	req   SweepRequest
	cells int

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	cached    bool
	errMsg    string
	events    []Event
	completed int     // cell events so far
	failed    int     // … of which carried an error
	report    *Report // set once done
	submitted time.Time
	started   time.Time
	finished  time.Time
	notify    chan struct{} // closed and replaced on every mutation
}

func newJob(id, key string, req SweepRequest, cells int, ctx context.Context, cancel context.CancelFunc) *Job {
	return &Job{
		id: id, key: key, req: req, cells: cells,
		ctx: ctx, cancel: cancel,
		state: JobQueued,
		//asgdvet:allow nondet(queue timestamps feed status seconds and metrics, never the result document)
		submitted: time.Now(),
		notify:    make(chan struct{}),
	}
}

// bump wakes every subscriber. Callers hold j.mu.
func (j *Job) bump() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendCell records one streamed cell result. Events arriving after
// the job is already terminal (a cancellation landed mid-stream) are
// dropped: subscribers rely on the terminal event being last.
func (j *Job) appendCell(r sweep.CellResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal() {
		return
	}
	j.events = append(j.events, Event{Type: "cell", Cell: &r})
	j.completed++
	if r.Err != "" {
		j.failed++
	}
	j.bump()
}

// appendTelemetry records one live telemetry snapshot. Like appendCell,
// samples arriving after the terminal event are dropped so the terminal
// event stays last in every replay.
func (j *Job) appendTelemetry(ts sweep.TelemetrySample) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal() {
		return
	}
	j.events = append(j.events, Event{Type: "telemetry", Telemetry: &ts})
	j.bump()
}

// finish moves the job to a terminal state, appending the terminal
// event: the aggregate document on success, the error otherwise. A job
// can reach a terminal state exactly once — late calls (a cancellation
// racing the executor) are no-ops. Terminal jobs also release their
// context's cancel registration so a long-lived server does not
// accumulate one child context per submission.
func (j *Job) finish(state string, rep *Report, errMsg string) {
	j.mu.Lock()
	j.finishLocked(state, rep, errMsg)
	j.mu.Unlock()
	j.cancel()
}

// finishLocked is finish without the locking or the context release.
// Callers hold j.mu and must call j.cancel() after unlocking.
func (j *Job) finishLocked(state string, rep *Report, errMsg string) {
	if j.terminal() {
		return
	}
	j.state = state
	j.errMsg = errMsg
	//asgdvet:allow nondet(queue timestamps feed status seconds and metrics, never the result document)
	j.finished = time.Now()
	if state == JobDone {
		j.report = rep
		j.shareCells()
		j.events = append(j.events, Event{Type: "aggregate"})
	} else {
		j.events = append(j.events, Event{Type: "error", Err: errMsg})
	}
	j.bump()
}

// shareCells re-points each cell event at the report's copy of the same
// result, so a finished job keeps one copy of its cells. An event whose
// value differs from the report's keeps its own. Callers hold j.mu.
func (j *Job) shareCells() {
	if j.report == nil || j.report.Sweep == nil {
		return
	}
	results := j.report.Sweep.Results
	for i := range j.events {
		c := j.events[i].Cell
		if c == nil || c.Index < 0 || c.Index >= len(results) {
			continue
		}
		if r := &results[c.Index]; *r == *c {
			j.events[i].Cell = r
		}
	}
}

// terminal reports whether the job has reached a final state. Callers
// hold j.mu.
func (j *Job) terminal() bool {
	return j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
}

// ID returns the job's server-assigned identifier ("j1", "j2", … in
// submission order).
func (j *Job) ID() string { return j.id }

// Status snapshots the job's introspection record (the GET
// /v1/sweeps/{id} document).
func (j *Job) Status() JobStatus { return j.status() }

// Wait blocks until the job reaches a terminal state (or ctx expires)
// and returns its final status.
func (j *Job) Wait(ctx context.Context) (JobStatus, error) {
	for {
		j.mu.Lock()
		if j.terminal() {
			st := j.statusLocked()
			j.mu.Unlock()
			return st, nil
		}
		wake := j.notify
		j.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
	}
}

// Result returns the final document bytes of a done job (exactly the
// GET /v1/sweeps/{id}/result body), or false while the job is not done.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	state, rep := j.state, j.report
	j.mu.Unlock()
	if state != JobDone {
		return nil, false
	}
	doc, err := rep.encoded()
	return doc, err == nil
}

// JobStatus is the introspection record of one job (GET /v1/sweeps/{id}
// and the /v1/jobs listing).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Cached marks a job served from the LRU result cache without
	// recomputation.
	Cached bool `json:"cached,omitempty"`
	// Key is the request's deterministic cache key (shared by every job
	// submitted with an equivalent spec).
	Key     string `json:"key"`
	Runtime string `json:"runtime"`
	// Cells is the grid size; Completed counts cells finished so far
	// (equal to Cells once the job is done); Failed counts completed
	// cells that recorded an error.
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed,omitempty"`
	Submitted string `json:"submitted"`
	// Seconds is the execution time so far (0 until the job starts;
	// frozen at completion; 0 forever for cache hits).
	Seconds float64 `json:"seconds,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// status snapshots the job.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is status for callers already holding j.mu.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Cached:    j.cached,
		Key:       j.key,
		Runtime:   j.req.Runtime,
		Cells:     j.cells,
		Completed: j.completed,
		Failed:    j.failed,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
		Err:       j.errMsg,
	}
	switch {
	case j.started.IsZero():
	case j.finished.IsZero():
		//asgdvet:allow nondet(status seconds field is documented wall-clock)
		st.Seconds = time.Since(j.started).Seconds()
	default:
		st.Seconds = j.finished.Sub(j.started).Seconds()
	}
	return st
}
