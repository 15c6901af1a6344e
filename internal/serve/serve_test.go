package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncsgd/internal/sweep"
)

// newTestServer boots a Server behind httptest and tears both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// submit POSTs a request and decodes the accepted JobStatus.
func submit(t *testing.T, base string, req SweepRequest) JobStatus {
	t.Helper()
	st, code := trySubmit(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func trySubmit(t *testing.T, base string, req SweepRequest) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		_, _ = io.Copy(io.Discard, resp.Body)
		return JobStatus{}, resp.StatusCode
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode
}

// waitDone polls a job until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case JobDone, JobFailed, JobCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// fetchResult GETs the final document bytes.
func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d body %s", resp.StatusCode, body)
	}
	return body
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Draining || h.Jobs != 0 || h.Version == "" {
		t.Fatalf("unexpected health %+v", h)
	}
}

// TestSubmitStreamCacheRoundTrip is the end-to-end happy path: submit,
// stream NDJSON events, fetch the result document, then resubmit the
// identical spec and require a cache hit with byte-identical results.
func TestSubmitStreamCacheRoundTrip(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := tinyRequest(21)

	st := submit(t, hs.URL, req)
	if st.Cached {
		t.Fatal("first submission must compute, not hit the cache")
	}
	if st.Cells != 2 {
		t.Fatalf("cells = %d, want 2", st.Cells)
	}

	// Stream the events: 2 cell events then the aggregate.
	resp, err := http.Get(hs.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 2 cells + aggregate", len(events))
	}
	for i, e := range events[:2] {
		if e.Type != "cell" || e.Cell == nil || e.Cell.Err != "" {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
	agg := events[2]
	if agg.Type != "aggregate" || len(agg.Document) == 0 {
		t.Fatalf("terminal event: %+v", agg)
	}

	final := waitDone(t, hs.URL, st.ID)
	if final.State != JobDone || final.Completed != 2 || final.Failed != 0 {
		t.Fatalf("final status %+v", final)
	}
	doc1 := fetchResult(t, hs.URL, st.ID)

	// The aggregate event embeds the same document (compacted).
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc1); err != nil {
		t.Fatal(err)
	}
	var aggCompact bytes.Buffer
	if err := json.Compact(&aggCompact, agg.Document); err != nil {
		t.Fatal(err)
	}
	if compact.String() != aggCompact.String() {
		t.Fatal("aggregate event document differs from /result document")
	}

	// Identical resubmission: cache hit, byte-identical document —
	// including the timing fields a recomputation would perturb.
	st2 := submit(t, hs.URL, req)
	if !st2.Cached {
		t.Fatal("second submission of an identical spec must hit the cache")
	}
	if st2.ID == st.ID {
		t.Fatal("cache hits still get fresh job ids")
	}
	doc2 := fetchResult(t, hs.URL, st2.ID)
	if !bytes.Equal(doc1, doc2) {
		t.Fatal("cached result bytes differ from the computed bytes")
	}

	// A spec that only spells out the same values differently (extra
	// replicate axis order etc. is not possible here, so vary nothing)
	// still hits; a genuinely different spec must not.
	other := tinyRequest(22)
	st3 := submit(t, hs.URL, other)
	if st3.Cached {
		t.Fatal("different seed must not hit the cache")
	}
	waitDone(t, hs.URL, st3.ID)
}

// TestLoadSmoke fires N concurrent submissions and asserts queue
// fairness: jobs complete in submission order (the executor is FIFO), no
// submission is lost, and a duplicate of an already-computed spec is
// served from cache with identical bytes.
func TestLoadSmoke(t *testing.T) {
	s, hs := newTestServer(t, Config{QueueDepth: 32})
	const n = 6
	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := submit(t, hs.URL, tinyRequest(uint64(100+i)))
			mu.Lock()
			ids = append(ids, st.ID)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if len(ids) != n {
		t.Fatalf("submitted %d, accepted %d", n, len(ids))
	}
	for _, id := range ids {
		if st := waitDone(t, hs.URL, id); st.State != JobDone {
			t.Fatalf("job %s: %+v", id, st)
		}
	}

	// Fairness: completion order must equal submission order. The
	// server's own submission order is s.order (ids are handed out under
	// the same lock that appends to it), so compare against that rather
	// than the racy client-side append order.
	s.mu.Lock()
	submitted := append([]string(nil), s.order...)
	s.mu.Unlock()
	finished := s.FinishedOrder()
	if len(finished) != n {
		t.Fatalf("finished %d jobs, want %d", len(finished), n)
	}
	for i := range submitted {
		if submitted[i] != finished[i] {
			t.Fatalf("FIFO violated: submitted %v, finished %v", submitted, finished)
		}
	}

	// Duplicate of one of the specs: cached, byte-identical to the
	// original computation (matched by cache key — submission order of
	// the racing goroutines is arbitrary).
	dup := submit(t, hs.URL, tinyRequest(100))
	if !dup.Cached {
		t.Fatal("duplicate spec must be served from cache")
	}
	original := ""
	for _, id := range submitted {
		st := waitDone(t, hs.URL, id)
		if st.Key == dup.Key {
			original = id
			break
		}
	}
	if original == "" {
		t.Fatalf("no computed job shares the duplicate's key %s", dup.Key)
	}
	if !bytes.Equal(fetchResult(t, hs.URL, original), fetchResult(t, hs.URL, dup.ID)) {
		t.Fatal("cached duplicate returned different bytes")
	}
}

// TestCancelQueuedJobDirect pins cancel-while-queued semantics at the
// library level, where the interleaving is controllable: submit a job the
// executor is busy with, then a second one, and cancel the second before
// the executor can reach it.
func TestCancelQueuedJobDirect(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	busy, err := s.Submit(SweepRequest{
		Taus: []int{1, 2, 4}, Workers: []int{3}, Sparsity: []float64{0.3},
		Dim: 32, Replicates: 6, Iters: 4000, Runtime: "machine",
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(tinyRequest(31))
	if err != nil {
		t.Fatal(err)
	}
	changed, err := s.Cancel(queued.id)
	if err != nil || !changed {
		t.Fatalf("cancel: changed=%v err=%v", changed, err)
	}
	if st := queued.status(); st.State != JobCanceled {
		t.Fatalf("canceled queued job is %q", st.State)
	}
	// Canceling again is a recorded no-op; unknown ids error.
	if changed, err := s.Cancel(queued.id); err != nil || changed {
		t.Fatalf("double cancel: changed=%v err=%v", changed, err)
	}
	if _, err := s.Cancel("nosuch"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown id: %v", err)
	}
	// The canceled job's event stream ends in an error event and the
	// busy job is unaffected.
	queued.mu.Lock()
	events := append([]Event(nil), queued.events...)
	queued.mu.Unlock()
	if len(events) != 1 || events[0].Type != "error" {
		t.Fatalf("canceled job events: %+v", events)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st := busy.status(); st.State == JobDone {
			break
		} else if st.State == JobFailed || st.State == JobCanceled {
			t.Fatalf("busy job: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("busy job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelOverHTTP exercises the DELETE endpoint. Scheduling on a
// loaded single-core host can let both jobs finish before the DELETE
// lands (the handler goroutine starves behind the sweep), so the test
// retries the race a few times and requires that a successful
// cancellation — whenever it lands — behaves correctly; a cancel that
// arrives late must be reported as a no-op against a terminal job.
func TestCancelOverHTTP(t *testing.T) {
	_, hs := newTestServer(t, Config{QueueDepth: 32})
	for attempt := 0; attempt < 10; attempt++ {
		busy := SweepRequest{
			Taus: []int{1, 2, 4}, Workers: []int{3}, Sparsity: []float64{0.3},
			Dim: 32, Replicates: 6, Iters: 4000 << attempt, Runtime: "machine",
		}
		busySt := submit(t, hs.URL, busy)
		queued := submit(t, hs.URL, tinyRequest(uint64(31+attempt)))
		delReq, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/sweeps/"+queued.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(delReq)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		noop := resp.Header.Get("X-Serve-Cancel") == "noop"
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, hs.URL, busySt.ID)
		if noop {
			// Lost the race: the job finished before the DELETE. The
			// response must reflect the terminal state; try again with a
			// busier busy job.
			if st.State == JobQueued || st.State == JobRunning {
				t.Fatalf("no-op cancel reported non-terminal state %+v", st)
			}
			continue
		}
		if final := waitDone(t, hs.URL, queued.ID); final.State != JobCanceled {
			t.Fatalf("canceled job reached state %s", final.State)
		}
		// The canceled job must answer its result endpoint with a
		// non-retryable 410 (a 409 would make pollers spin forever on a
		// job that will never produce a document).
		rr, err := http.Get(hs.URL + "/v1/sweeps/" + queued.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, rr.Body)
		rr.Body.Close()
		if rr.StatusCode != http.StatusGone {
			t.Fatalf("result of canceled job: status %d, want 410", rr.StatusCode)
		}
		// Unknown job id: 404.
		resp2, err := http.Get(hs.URL + "/v1/sweeps/nosuch")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: status %d", resp2.StatusCode)
		}
		return
	}
	t.Fatal("never won the cancellation race in 10 attempts")
}

// TestQueueFullAndDrain: submissions beyond the queue bound are refused
// with 429; after Drain the server refuses everything with 503 but
// finishes the work it accepted.
func TestQueueFullAndDrain(t *testing.T) {
	s, hs := newTestServer(t, Config{QueueDepth: 1})
	// The executor takes jobs off the queue quickly, so to observe a
	// full queue deterministically, stuff it directly under the lock
	// with a job the executor is already busy with plus one queued.
	busy := submit(t, hs.URL, SweepRequest{
		Taus: []int{1, 2}, Workers: []int{3}, Sparsity: []float64{0.3},
		Dim: 32, Replicates: 8, Iters: 8000, Runtime: "machine",
	})
	// Each follow-up job is sized so the executor takes far longer to run
	// one than the client takes to submit the next: even if the busy job
	// finished already, the depth-1 queue must overflow within a few
	// submissions.
	var accepted []JobStatus
	overflowed := false
	for i := 0; i < 50 && !overflowed; i++ {
		slow := tinyRequest(uint64(300 + i))
		slow.Iters = 30000
		st, code := trySubmit(t, hs.URL, slow)
		switch code {
		case http.StatusAccepted:
			accepted = append(accepted, st)
		case http.StatusTooManyRequests:
			overflowed = true
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if !overflowed {
		t.Fatal("never saw a 429 with queue depth 1")
	}

	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	// Draining: eventually every new submission is refused with 503.
	deadline := time.Now().Add(10 * time.Second)
	saw503 := false
	for time.Now().Before(deadline) {
		if _, code := trySubmit(t, hs.URL, tinyRequest(999)); code == http.StatusServiceUnavailable {
			saw503 = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !saw503 {
		t.Fatal("draining server kept accepting jobs")
	}
	// Accepted work still completes.
	if st := waitDone(t, hs.URL, busy.ID); st.State != JobDone {
		t.Fatalf("busy job: %+v", st)
	}
	for _, a := range accepted {
		if st := waitDone(t, hs.URL, a.ID); st.State != JobDone {
			t.Fatalf("accepted job %s: %+v", a.ID, st)
		}
	}
}

// TestSSEFraming: Accept: text/event-stream switches the events endpoint
// to SSE frames.
func TestSSEFraming(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	st := submit(t, hs.URL, tinyRequest(41))
	waitDone(t, hs.URL, st.ID)

	req, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/sweeps/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: cell\ndata: {") ||
		!strings.Contains(text, "event: aggregate\ndata: {") {
		t.Fatalf("missing SSE frames in:\n%s", text[:min(len(text), 400)])
	}
}

// TestJobsListing: /v1/jobs returns every retained job in submission
// order.
func TestJobsListing(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	a := submit(t, hs.URL, tinyRequest(51))
	waitDone(t, hs.URL, a.ID)
	b := submit(t, hs.URL, tinyRequest(52))
	waitDone(t, hs.URL, b.ID)

	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 2 || listing.Jobs[0].ID != a.ID || listing.Jobs[1].ID != b.ID {
		t.Fatalf("unexpected listing %+v", listing.Jobs)
	}
}

// TestHistoryPruning: finished jobs beyond Config.History are forgotten.
func TestHistoryPruning(t *testing.T) {
	_, hs := newTestServer(t, Config{History: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		st := submit(t, hs.URL, tinyRequest(uint64(60+i)))
		waitDone(t, hs.URL, st.ID)
		ids = append(ids, st.ID)
	}
	resp, err := http.Get(hs.URL + "/v1/sweeps/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pruned job still served: status %d", resp.StatusCode)
	}
	resp2, err := http.Get(hs.URL + "/v1/sweeps/" + ids[3])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("recent job missing: status %d", resp2.StatusCode)
	}
}

// TestBadSubmissions: malformed JSON and unknown fields are 400s.
func TestBadSubmissions(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"malformed":     `{"taus": [1,`,
		"unknown field": `{"gpu": true}`,
		"bad runtime":   `{"runtime": "quantum"}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestOversizedSubmissionRejected: a POST /v1/sweeps body past the 1 MiB
// bound is refused with 413 before it is decoded, and queues no job.
func TestOversizedSubmissionRejected(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	body := strings.Repeat(" ", maxSubmitBytes+1) + "{}"
	resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("oversized body queued %d jobs", n)
	}
}

// TestListenAndServeDrainsOnCancel drives the cmd/asgdserve code path:
// serve on a real listener, cancel the context (the SIGTERM path), and
// require a clean exit.
func TestListenAndServeDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	addr := "127.0.0.1:0"
	// Pick a concrete free port first (ListenAndServe takes addr only).
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	addr = l.Addr().String()
	l.Close()
	go func() { errc <- ListenAndServe(ctx, addr, Config{DrainTimeout: 10 * time.Second}) }()

	// Wait for /healthz to come up.
	up := false
	for i := 0; i < 200 && !up; i++ {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !up {
		cancel()
		t.Fatal("server never became healthy")
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("ListenAndServe: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain and exit")
	}
}

// TestNegativeConfigNormalized: negative knobs must not crash the
// server (a negative History used to panic pruneLocked on the first
// finished job).
func TestNegativeConfigNormalized(t *testing.T) {
	s := New(Config{QueueDepth: -3, History: -1, DrainTimeout: -time.Second})
	defer s.Close()
	job, err := s.Submit(tinyRequest(71))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st := job.status(); st.State == JobDone {
			break
		} else if st.State == JobFailed || st.State == JobCanceled {
			t.Fatalf("job: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Trigger prune accounting with a second (cached) submission.
	if _, err := s.Submit(tinyRequest(71)); err != nil {
		t.Fatal(err)
	}
}

// TestFinishIsIdempotent: a second terminal transition (the
// cancel-vs-executor race) must not append a second terminal event or
// flip the state.
func TestFinishIsIdempotent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	j := newJob("j1", "k", SweepRequest{}, 1, ctx, cancel)
	j.finish(JobCanceled, nil, "canceled")
	j.finish(JobDone, []byte("{}"), "")
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobCanceled || len(j.events) != 1 || j.events[0].Type != "error" {
		t.Fatalf("second finish mutated the job: state=%s events=%+v", j.state, j.events)
	}
	// Cell events after terminal are dropped, keeping the terminal
	// event last for replaying subscribers.
	j.mu.Unlock()
	j.appendCell(sweep.CellResult{})
	j.mu.Lock()
	if len(j.events) != 1 {
		t.Fatalf("cell event appended after terminal: %+v", j.events)
	}
}
