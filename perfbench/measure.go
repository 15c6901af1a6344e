package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"asyncsgd/internal/serve"
)

// setupRuns is how many times a run sets the service up — boots it and
// runs one warm-up job — to time set-up; the last instance serves the
// measured window.
const setupRuns = 7

// jobRecord is one submission as the client saw it.
type jobRecord struct {
	req    serve.SweepRequest
	repeat int // index of the job whose request this one resubmits, or -1
	id     string
	cached bool

	postStart, postEnd, done time.Time

	doc    []byte
	rep    *serve.Report
	events int
	err    error

	// Traced runs only: direct timings of the submit handler's expand
	// (SweepRequest.Key) and of spec expansion (SweepRequest.Specs).
	expand, specs time.Duration
}

// latency runs from the submission to the verified document.
func (j *jobRecord) latency() time.Duration { return j.done.Sub(j.postStart) }

// result is everything one run measured.
type result struct {
	attempted, failed int
	failures          []string
	e2e, layers       map[string]metric
	details           []string // per-job and per-boot lines for people
	tracePath         string
}

func (r *result) correct() bool { return r.failed == 0 }

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// runState is the state of one measured run.
type runState struct {
	o       options
	sys     *system
	tr      *tracer
	jobs    []*jobRecord
	start   time.Time
	boot    []time.Duration // boot alone, per set-up
	setup   []time.Duration // boot plus warm-up job, per set-up
	rssMB   float64
	leases  float64 // coordinator leases granted in the window (cluster)
	logInfo logStats
}

// measure boots the service, drives the workload for the window, checks
// every document and computes the metrics.
func measure(o options) (*result, error) {
	dir, err := workDir(o.out, o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st := &runState{o: o}
	if o.traced {
		st.tr = newTracer()
	}
	warm := warmupRequest(o.w, o.seed)
	for i := 0; i < setupRuns; i++ {
		bootDir := filepath.Join(dir, strconv.Itoa(i))
		if err := os.Mkdir(bootDir, 0o755); err != nil {
			return nil, err
		}
		last := i == setupRuns-1
		var tr *tracer // only the instance that serves the window is traced
		if last {
			tr = st.tr
		}
		t0 := time.Now()
		sys, err := boot(o.w, bootDir, tr)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		st.boot = append(st.boot, time.Since(t0))
		if err := sys.warmUp(warm); err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		st.setup = append(st.setup, time.Since(t0))
		if last {
			st.sys = sys
		} else {
			sys.close()
		}
	}

	var (
		leases0  float64
		logSize0 int64
	)
	if o.w.cluster {
		if leases0, logSize0, err = st.sys.clusterCounts(); err != nil {
			st.sys.close()
			return nil, err
		}
	}
	st.closedLoop(time.Duration(o.seconds) * time.Second)
	st.rssMB = peakRSSMB()
	var leases1 float64
	if o.w.cluster {
		if leases1, _, err = st.sys.clusterCounts(); err != nil {
			st.sys.close()
			return nil, err
		}
	}
	st.sys.close()
	if o.w.cluster {
		st.leases = leases1 - leases0
		if st.logInfo, err = readLog(st.sys.logPath, logSize0, st.jobs); err != nil {
			return nil, err
		}
	}

	res := &result{attempted: len(st.jobs)}
	refs := st.verify(res)
	for i, j := range st.jobs {
		res.details = append(res.details, fmt.Sprintf("job %3d %-5s at %7.3fs latency %8.4fs submit %8.3fms cached=%v",
			i, j.id, j.postStart.Sub(st.start).Seconds(), j.latency().Seconds(),
			j.postEnd.Sub(j.postStart).Seconds()*1e3, j.cached))
	}
	res.details = append(res.details, fmt.Sprintf("boots: %v", st.boot), fmt.Sprintf("set-ups: %v", st.setup))
	res.e2e = st.endToEnd()
	if o.traced {
		res.layers = st.perLayer(res, refs)
		res.tracePath = spanPath(o.out, o)
		if err := os.MkdirAll(filepath.Dir(res.tracePath), 0o755); err != nil {
			return nil, err
		}
		if err := st.tr.write(res.tracePath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// closedLoop runs one client: each job is submitted when the previous
// job's document has arrived, until the window ends.
func (st *runState) closedLoop(window time.Duration) {
	jobs := newJobStream(st.o.w, st.o.seed)
	st.start = time.Now()
	for time.Since(st.start) < window {
		req, repeat := jobs.next()
		j := &jobRecord{req: req, repeat: repeat}
		st.jobs = append(st.jobs, j)
		st.runJob(j)
	}
}

// runJob submits one job, follows its event stream to the document and,
// when traced, records the client-side spans and probes.
func (st *runState) runJob(j *jobRecord) {
	j.postStart = time.Now()
	status, err := st.sys.submit(j.req)
	j.postEnd = time.Now()
	if err != nil {
		j.err, j.done = err, j.postEnd
		return
	}
	j.id, j.cached = status.ID, status.Cached
	j.doc, j.events, j.err = st.sys.await(j.id)
	j.done = time.Now()
	if st.tr == nil {
		return
	}
	st.tr.add(0, 0, j.id, "job", j.postStart, j.done)
	st.tr.add(0, 0, j.id, "serve.submit", j.postStart, j.postEnd)
	t0 := time.Now()
	_, _ = j.req.Key()
	t1 := time.Now()
	_, _ = j.req.Specs()
	t2 := time.Now()
	j.expand, j.specs = t1.Sub(t0), t2.Sub(t1)
	st.tr.add(0, 0, j.id, "probe/serve.expand", t0, t1)
	st.tr.add(0, 0, j.id, "probe/experiments.specs", t1, t2)
}

// reference is an independently computed document for one job, and how
// long computing it took.
type reference struct {
	rep     *serve.Report
	elapsed time.Duration
}

// verify checks every job's document and returns the reference runs it
// made. Each failure counts once per job.
func (st *runState) verify(res *result) []reference {
	var refs []reference
	for i, j := range st.jobs {
		if err := st.check(i, j, &refs); err != nil {
			res.failed++
			res.fail("job %d (%s): %v", i, j.id, err)
		}
	}
	return refs
}

func (st *runState) check(i int, j *jobRecord, refs *[]reference) error {
	if j.err != nil {
		return j.err
	}
	rep, err := decodeDoc(j.doc)
	if err != nil {
		return err
	}
	j.rep = rep
	if err := checkCells(rep, j.req); err != nil {
		return err
	}
	if j.repeat >= 0 && j.cached {
		// A cache hit replays the original computation's bytes.
		orig := st.jobs[j.repeat]
		if orig.err != nil || string(orig.doc) != string(j.doc) {
			return fmt.Errorf("cache hit does not replay job %d's document", j.repeat)
		}
		return nil
	}
	norm, err := j.req.Normalized()
	if err != nil {
		return err
	}
	if !norm.Cacheable() {
		// Hogwild documents race real goroutines: the cell rules above
		// are the check. A traced run still times one untraced run of
		// the first job, for the tracing overhead.
		if st.tr != nil && i == 0 {
			ref, err := recompute(j.req, false)
			if err != nil {
				return err
			}
			*refs = append(*refs, ref)
			return checkCells(ref.rep, j.req)
		}
		return nil
	}
	// Machine documents are deterministic. The cluster's reference is
	// the in-process executor; the grid workloads compare the traced
	// and untraced executors, whichever this run did not use — in full
	// for the first job, on a seeded sample of cells for later ones.
	if i > 0 && !st.o.w.cluster {
		return st.spotCheck(i, rep, norm)
	}
	ref, err := recompute(j.req, !st.o.w.cluster && st.tr == nil)
	if err != nil {
		return err
	}
	*refs = append(*refs, ref)
	return sameDoc(rep, ref.rep)
}

// recompute builds a request's document in process, untraced through
// serve.RunRequest or traced through the tracing dispatcher.
func recompute(req serve.SweepRequest, traced bool) (reference, error) {
	ctx := context.Background()
	t0 := time.Now()
	var (
		rep *serve.Report
		err error
	)
	if traced {
		rep, err = (&tracingDispatcher{tr: newTracer()}).DispatchSweep(ctx, "ref", req, nil, nil)
	} else {
		rep, err = serve.RunRequest(ctx, req, nil)
	}
	if err != nil {
		return reference{}, fmt.Errorf("reference run: %w", err)
	}
	return reference{rep: rep, elapsed: time.Since(t0)}, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
