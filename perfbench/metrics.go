package main

import (
	"os"
	"runtime"
	"sort"
	"time"

	"asyncsgd/internal/cluster"
	"asyncsgd/internal/sweep"
)

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten
// samples beyond it, and that percentile. Below 21 samples that
// percentile lies under the median, so the median is reported instead
// (as percentile 50): a run that short makes no tail claim.
func tail(xs []float64) (float64, float64) {
	n := len(xs)
	if n < 21 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11
	return s[k], 100 * float64(k) / float64(n-1)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ok returns the jobs that produced a document that passed its checks.
func (st *runState) ok() []*jobRecord {
	var out []*jobRecord
	for _, j := range st.jobs {
		if j.err == nil && j.rep != nil {
			out = append(out, j)
		}
	}
	return out
}

// computed returns the latencies of the jobs the service computed
// rather than answered from its result cache (cache hits are reported
// on their own, as serve.hit_latency_s).
func (st *runState) computed() []float64 {
	var lat []float64
	for _, j := range st.ok() {
		if !j.cached {
			lat = append(lat, j.latency().Seconds())
		}
	}
	return lat
}

// endToEnd computes the metrics a user of the service sees.
func (st *runState) endToEnd() map[string]metric {
	var cells, iters float64
	var last time.Time
	for _, j := range st.ok() {
		if j.done.After(last) {
			last = j.done
		}
		if !j.cached {
			cells += float64(len(j.rep.Sweep.Results))
			for _, r := range j.rep.Sweep.Results {
				iters += float64(r.Iters)
			}
		}
	}
	wall := last.Sub(st.start).Seconds()
	lat := st.computed()
	latTail, _ := tail(lat)
	return map[string]metric{
		"setup_s":            {median(seconds(st.setup)), "s"},
		"job_latency_p50_s":  {median(lat), "s"},
		"job_latency_tail_s": {latTail, "s"},
		"cells_per_s":        {ratio(cells, wall), "1/s"},
		"sgd_iters_per_s":    {ratio(iters, wall), "1/s"},
		"peak_rss_mb":        {st.rssMB, "MB"},
	}
}

// perLayer computes the traced run's per-layer metrics. Layers a
// workload never enters report 0.
func (st *runState) perLayer(res *result, refs []reference) map[string]metric {
	var (
		submit, expand, specs, queue, dispatch, finish, unattr, hits []float64
		firstCell, journal, makes, cellRuns                          []float64
		sumMake, sumCell, sumDispatch                                float64
		machineIters, machineSecs, hogIters, hogSecs, hogOps         float64
		hogLoss                                                      []float64
		hogStale, cellErrors                                         int
	)
	lat := st.computed()
	for _, j := range st.jobs {
		submit = append(submit, j.postEnd.Sub(j.postStart).Seconds())
	}
	for _, j := range st.ok() {
		l := j.latency().Seconds()
		expand = append(expand, j.expand.Seconds())
		specs = append(specs, j.specs.Seconds())
		if j.cached {
			hits = append(hits, l)
			continue
		}
		for _, r := range j.rep.Sweep.Results {
			if r.Err != "" {
				cellErrors++
			}
			switch r.Runtime {
			case sweep.Machine.String():
				machineIters += float64(r.Iters)
				machineSecs += r.Seconds
			case sweep.Hogwild.String():
				hogIters += float64(r.Iters)
				hogSecs += r.Seconds
				hogOps += float64(r.CoordOps)
				hogLoss = append(hogLoss, r.FinalLoss)
				hogStale = max(hogStale, r.MaxStaleness)
			}
		}
		jt, ok := st.tr.lookup(j.id)
		if !ok || jt.dispatchStart.IsZero() {
			continue
		}
		sub := j.postEnd.Sub(j.postStart)
		qw := jt.dispatchStart.Sub(jt.accepted)
		dp := jt.dispatchEnd.Sub(jt.dispatchStart)
		fin := j.done.Sub(jt.dispatchEnd)
		queue = append(queue, qw.Seconds())
		dispatch = append(dispatch, dp.Seconds())
		finish = append(finish, fin.Seconds())
		unattr = append(unattr, (j.latency() - sub - qw - dp - fin).Seconds())
		if st.o.w.cluster && !jt.firstCell.IsZero() {
			firstCell = append(firstCell, jt.firstCell.Sub(jt.dispatchStart).Seconds())
		}
		journal = append(journal, jt.journal.Seconds())
		sumDispatch += dp.Seconds()
		for _, m := range jt.makes {
			makes = append(makes, m.Seconds())
			sumMake += m.Seconds()
		}
		for _, c := range jt.cells {
			cellRuns = append(cellRuns, c.Seconds())
			sumCell += c.Seconds()
		}
		st.tr.add(0, 0, j.id, "serve.queue_wait", jt.accepted, jt.dispatchStart)
		st.tr.add(0, 0, j.id, "serve.finish", jt.dispatchEnd, j.done)
	}
	if len(cellRuns) == 0 {
		// The cluster's worker builds its cells inside internal/cluster,
		// out of the wrappers' reach; the documents' run times stand in.
		for _, j := range st.ok() {
			if !j.cached {
				for _, r := range j.rep.Sweep.Results {
					cellRuns = append(cellRuns, r.Seconds)
				}
			}
		}
	}

	// Exact counters come from the run's first job, which every run
	// completes and whose request depends on the seed alone.
	var coreIters, coreOps, decisions, docBytes, events, cells float64
	if len(st.jobs) > 0 && st.jobs[0].rep != nil {
		first := st.jobs[0]
		for _, r := range first.rep.Sweep.Results {
			if r.Runtime == sweep.Machine.String() {
				coreIters += float64(r.Iters)
				coreOps += float64(r.CoordOps)
			}
		}
		if jt, ok := st.tr.lookup(first.id); ok {
			decisions = float64(jt.decisions)
		}
		if c, err := canonical(first.rep); err == nil {
			docBytes = float64(len(c))
		}
		events = float64(first.events)
		cells = float64(len(first.rep.Sweep.Results))
	}

	// Tracing overhead: the warm traced dispatches against the untraced
	// reference runs made after the window (in-process workloads only).
	// The first job runs cold, so it is left out when others ran.
	var untraced []float64
	for _, r := range refs {
		untraced = append(untraced, r.elapsed.Seconds())
	}
	overhead := 0.0
	if warm := dispatch; !st.o.w.cluster && len(untraced) > 0 && len(warm) > 0 {
		if len(warm) > 1 {
			warm = warm[1:]
		}
		overhead = ratio(median(warm), median(untraced)) - 1
	}

	var requeues, dups, remote float64
	if st.sys.coord != nil {
		requeues = float64(st.sys.coord.Requeues())
		dups = float64(st.sys.coord.DuplicateCells())
		remote = float64(st.sys.coord.RemoteCells())
	}
	_, latPct := tail(lat)
	subTail, _ := tail(submit)
	procs := float64(runtime.GOMAXPROCS(0))
	return map[string]metric{
		"serve.boot_s":          {median(seconds(st.boot)), "s"},
		"serve.submit_s":        {median(submit), "s"},
		"serve.submit_tail_s":   {subTail, "s"},
		"serve.expand_s":        {median(expand), "s"},
		"serve.queue_wait_s":    {median(queue), "s"},
		"serve.dispatch_s":      {median(dispatch), "s"},
		"serve.finish_s":        {median(finish), "s"},
		"serve.hit_latency_s":   {median(hits), "s"},
		"serve.unattributed_s":  {median(unattr), "s"},
		"serve.cache_hit_ratio": {ratio(float64(len(hits)), float64(len(hits)+len(lat))), "ratio"},
		"serve.doc_bytes":       {docBytes, "bytes"},
		"serve.events_per_job":  {events, "count"},

		"experiments.specs_s": {median(specs), "s"},

		"grad.make_s":     {median(makes), "s"},
		"grad.make_share": {ratio(sumMake, sumMake+sumCell), "ratio"},

		"sweep.cell_s":          {median(cellRuns), "s"},
		"sweep.cells":           {cells, "count"},
		"sweep.cell_errors":     {float64(cellErrors), "count"},
		"sweep.pool_busy_ratio": {ratio(sumMake+sumCell, sumDispatch*procs), "ratio"},

		"core.iters":              {coreIters, "count"},
		"core.coord_ops":          {coreOps, "count"},
		"core.coord_ops_per_iter": {ratio(coreOps, coreIters), "count"},
		"core.iters_per_s":        {ratio(machineIters, machineSecs), "1/s"},
		"sched.decisions":         {decisions, "count"},

		"hogwild.iters_per_s":          {ratio(hogIters, hogSecs), "1/s"},
		"hogwild.coord_ops_per_iter":   {ratio(hogOps, hogIters), "count"},
		"hogwild.bytes_moved_per_iter": {8 * ratio(hogOps, hogIters), "bytes"},
		"hogwild.max_staleness":        {float64(hogStale), "count"},
		"hogwild.final_loss_median":    {median(hogLoss), "loss"},

		"cluster.first_cell_s":        {median(firstCell), "s"},
		"cluster.journal_s":           {median(journal), "s"},
		"cluster.log_bytes_per_job":   {ratio(st.logInfo.bytes, float64(len(lat))), "bytes"},
		"cluster.log_records_per_job": {ratio(st.logInfo.records, float64(len(lat))), "count"},
		"cluster.leases_per_job":      {ratio(st.leases, float64(len(lat))), "count"},
		"cluster.requeues":            {requeues, "count"},
		"cluster.duplicate_results":   {dups, "count"},
		"cluster.useful_ratio":        {ratio(remote, remote+dups), "ratio"},

		"job_latency.tail_pct": {latPct, "pct"},
		"job_latency.samples":  {float64(len(lat)), "count"},
		"bench.failed_ratio":   {ratio(float64(res.failed), float64(res.attempted)), "ratio"},
		"trace.overhead_ratio": {overhead, "ratio"},
	}
}

// logStats summarizes what the measured window added to the cluster's
// durable job log.
type logStats struct{ bytes, records float64 }

// readLog measures the window's share of the job log: the bytes
// appended after set-up and the records of the window's jobs.
func readLog(path string, sizeBefore int64, jobs []*jobRecord) (logStats, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return logStats{}, err
	}
	l, recs, err := cluster.OpenJobLog(path)
	if err != nil {
		return logStats{}, err
	}
	_ = l.Close() // opened only to replay the records
	ids := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		ids[j.id] = true
	}
	n := 0
	for _, r := range recs {
		if ids[r.Job] {
			n++
		}
	}
	return logStats{bytes: float64(fi.Size() - sizeBefore), records: float64(n)}, nil
}
