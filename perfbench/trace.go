package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"asyncsgd/internal/cluster"
	"asyncsgd/internal/grad"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/serve"
	"asyncsgd/internal/shm"
	"asyncsgd/internal/sweep"
	"asyncsgd/internal/vec"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent links a span to the span that caused it (0 for the job's
// root, resolved when the trace is written).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    string  `json:"job,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
	start  time.Time
	end    time.Time
}

// jobTrace is what the server-side wrappers learned about one job.
type jobTrace struct {
	accepted      time.Time // Journal.JobSubmitted entered (inside Submit)
	dispatchStart time.Time
	dispatchEnd   time.Time
	firstCell     time.Time
	journal       time.Duration // Σ Journal call time
	decisions     int64         // Σ scheduler decisions over the job's cells
	makes         []time.Duration
	cells         []time.Duration // per cell, oracle ready → result emitted
}

// tracer keeps spans and per-job records in memory until the run ends.
// A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int
	spans []*span
	jobs  map[string]*jobTrace
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), jobs: make(map[string]*jobTrace)}
}

// newID reserves a span id, so children can name a parent that ends
// later.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved (id > 0) or fresh id.
func (t *tracer) add(id, parent int, job, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, &span{ID: id, Parent: parent, Job: job, Name: name, start: start, end: end})
	t.mu.Unlock()
}

// job returns the record of a job, creating it on first use, and runs f
// on it under the tracer lock.
func (t *tracer) job(id string, f func(*jobTrace)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	jt := t.jobs[id]
	if jt == nil {
		jt = &jobTrace{}
		t.jobs[id] = jt
	}
	f(jt)
}

// lookup returns a copy of a job's record.
func (t *tracer) lookup(id string) (jobTrace, bool) {
	if t == nil {
		return jobTrace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	jt, ok := t.jobs[id]
	if !ok {
		return jobTrace{}, false
	}
	return *jt, true
}

// write stores every span as JSON, with parents resolved and self time
// (duration minus the union of the children's intervals) computed.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := make(map[string]int)
	for _, s := range t.spans {
		if s.Name == "job" {
			roots[s.Job] = s.ID
		}
	}
	children := make(map[int][]*span)
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name != "job" {
			s.Parent = roots[s.Job]
		}
		children[s.Parent] = append(children[s.Parent], s)
		s.Start = s.start.Sub(t.epoch).Seconds()
		s.End = s.end.Sub(t.epoch).Seconds()
	}
	for _, s := range t.spans {
		s.Self = s.End - s.Start - covered(s, children[s.ID])
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, hi := 0.0, p.Start
	for _, v := range ivs {
		if v.b <= hi {
			continue
		}
		total += v.b - max(v.a, hi)
		hi = v.b
	}
	return total
}

// acceptJournal is the in-process server's journal in traced runs: it
// persists nothing and only stamps the moment Submit accepts a job.
type acceptJournal struct{ tr *tracer }

func (j acceptJournal) JobSubmitted(id string, _ serve.SweepRequest) {
	now := time.Now()
	j.tr.job(id, func(jt *jobTrace) { jt.accepted = now })
}

func (acceptJournal) JobFinished(string, string) {}

// tracingDispatcher is the traced in-process executor. It rebuilds
// serve.RunRequestStream from the same public calls (Normalized, Specs,
// sweep.RunContext, AssembleReport), so its documents equal the
// untraced executor's, and on the way it wraps every cell's
// Oracle.Make and the machine scheduling Policy.
type tracingDispatcher struct{ tr *tracer }

func (d *tracingDispatcher) DispatchSweep(ctx context.Context, jobID string, req serve.SweepRequest,
	onCell func(sweep.CellResult), onTelemetry func(sweep.TelemetrySample)) (*serve.Report, error) {
	tr := d.tr
	begin := time.Now()
	dispatchID := tr.newID()
	var cells cellTimes
	defer func() {
		end := time.Now()
		tr.add(dispatchID, 0, jobID, "serve.dispatch", begin, end)
		tr.job(jobID, func(jt *jobTrace) {
			jt.dispatchStart, jt.dispatchEnd = begin, end
			jt.decisions = cells.decisions()
			jt.makes, jt.cells = cells.makes, cells.runs
		})
	}()

	norm, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	specs, err := norm.Specs()
	tr.add(0, dispatchID, jobID, "experiments.specs", t0, time.Now())
	if err != nil {
		return nil, err
	}
	runID := tr.newID()
	start := time.Now()
	var (
		all   []sweep.CellResult
		names []string
	)
	for _, spec := range specs {
		names = append(names, spec.Name)
		offset := len(all)
		cells.instrument(&spec)
		spec.OnResult = func(r sweep.CellResult) {
			r.Index += offset
			cells.done(tr, runID, jobID, r.Index)
			if onCell != nil {
				onCell(r)
			}
		}
		if onTelemetry != nil && norm.TelemetryMS > 0 {
			spec.TelemetryEvery = time.Duration(norm.TelemetryMS) * time.Millisecond
			spec.OnTelemetry = func(ts sweep.TelemetrySample) {
				ts.Index += offset
				onTelemetry(ts)
			}
		}
		results, err := sweep.RunContext(ctx, spec)
		if err != nil {
			return nil, err
		}
		for i := range results {
			results[i].Index += offset
		}
		all = append(all, results...)
	}
	elapsed := time.Since(start)
	tr.add(runID, dispatchID, jobID, "sweep.run", start, start.Add(elapsed))
	t1 := time.Now()
	rep := serve.AssembleReport(norm, names, all, elapsed)
	tr.add(0, dispatchID, jobID, "serve.assemble", t1, time.Now())
	return rep, nil
}

// cellTimes pairs each cell's Oracle.Make with its result emission.
// sweep runs a cell's Make and emits its result on the same goroutine,
// so the goroutine id joins the two.
type cellTimes struct {
	mu       sync.Mutex
	open     map[uint64][2]time.Time // goroutine → make start, make end
	makes    []time.Duration
	runs     []time.Duration
	policies []*countingPolicy
}

// instrument wraps the spec's oracle factories and scheduling policy.
func (c *cellTimes) instrument(spec *sweep.Spec) {
	oracles := make([]sweep.Oracle, len(spec.Oracles))
	copy(oracles, spec.Oracles)
	for i := range oracles {
		inner := oracles[i].Make
		oracles[i].Make = func(d int, r *rng.Rand) (grad.Oracle, vec.Dense, error) {
			t0 := time.Now()
			o, x, err := inner(d, r)
			t1 := time.Now()
			c.mu.Lock()
			if c.open == nil {
				c.open = make(map[uint64][2]time.Time)
			}
			c.open[goid()] = [2]time.Time{t0, t1}
			c.mu.Unlock()
			return o, x, err
		}
	}
	spec.Oracles = oracles
	if inner := spec.Policy; inner != nil {
		spec.Policy = func(threads int, r *rng.Rand) shm.Policy {
			p := &countingPolicy{inner: inner(threads, r)}
			c.mu.Lock()
			c.policies = append(c.policies, p)
			c.mu.Unlock()
			return p
		}
	}
}

// done closes the cell span of the goroutine emitting a result.
func (c *cellTimes) done(tr *tracer, parent int, job string, index int) {
	now := time.Now()
	g := goid()
	c.mu.Lock()
	mk, ok := c.open[g]
	delete(c.open, g)
	if ok {
		c.makes = append(c.makes, mk[1].Sub(mk[0]))
		c.runs = append(c.runs, now.Sub(mk[1]))
	}
	c.mu.Unlock()
	if ok {
		id := tr.newID()
		tr.add(id, parent, job, "sweep.cell/"+strconv.Itoa(index), mk[0], now)
		tr.add(0, id, job, "grad.make", mk[0], mk[1])
	}
}

// decisions sums the scheduler decisions of every policy built so far.
// Call it after the run returned: each policy is owned by its cell's
// goroutine until then.
func (c *cellTimes) decisions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, p := range c.policies {
		n += p.n
	}
	return n
}

// countingPolicy counts the decisions of one machine cell's adversary.
type countingPolicy struct {
	inner shm.Policy
	n     int64
}

func (p *countingPolicy) Next(v *shm.View) shm.Decision {
	p.n++
	return p.inner.Next(v)
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[len("goroutine "):n])
	id, _ := strconv.ParseUint(string(f[0]), 10, 64)
	return id
}

// tracedCoordinator is the cluster coordinator as the server sees it in
// traced runs: it times DispatchSweep (and the first cell event) and
// both Journal calls, and forwards everything else — AttachMetrics
// through the embedded coordinator.
type tracedCoordinator struct {
	*cluster.Coordinator
	tr *tracer
}

func (c *tracedCoordinator) DispatchSweep(ctx context.Context, jobID string, req serve.SweepRequest,
	onCell func(sweep.CellResult), onTelemetry func(sweep.TelemetrySample)) (*serve.Report, error) {
	begin := time.Now()
	id := c.tr.newID()
	var (
		mu    sync.Mutex
		first time.Time
	)
	rep, err := c.Coordinator.DispatchSweep(ctx, jobID, req, func(r sweep.CellResult) {
		mu.Lock()
		if first.IsZero() {
			first = time.Now()
			c.tr.add(0, id, jobID, "cluster.first_cell", begin, first)
		}
		mu.Unlock()
		if onCell != nil {
			onCell(r)
		}
	}, onTelemetry)
	end := time.Now()
	c.tr.add(id, 0, jobID, "serve.dispatch", begin, end)
	mu.Lock()
	defer mu.Unlock()
	c.tr.job(jobID, func(jt *jobTrace) {
		jt.dispatchStart, jt.dispatchEnd, jt.firstCell = begin, end, first
	})
	return rep, err
}

func (c *tracedCoordinator) JobSubmitted(id string, req serve.SweepRequest) {
	t0 := time.Now()
	c.Coordinator.JobSubmitted(id, req)
	t1 := time.Now()
	c.tr.add(0, 0, id, "cluster.journal", t0, t1)
	c.tr.job(id, func(jt *jobTrace) { jt.accepted, jt.journal = t0, jt.journal+t1.Sub(t0) })
}

func (c *tracedCoordinator) JobFinished(id string, state string) {
	t0 := time.Now()
	c.Coordinator.JobFinished(id, state)
	t1 := time.Now()
	c.tr.add(0, 0, id, "cluster.journal", t0, t1)
	c.tr.job(id, func(jt *jobTrace) { jt.journal += t1.Sub(t0) })
}
