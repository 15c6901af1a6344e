package main

import (
	"asyncsgd/internal/rng"
	"asyncsgd/internal/serve"
)

// workload is one traffic mix the benchmark can drive: a closed loop of
// one client that submits its next job when the previous job's
// document has arrived. Every job request is generated from the
// workload seed; the service sees only the requests.
type workload struct {
	name string
	// cluster boots `asgdserve -cluster` with a durable job log, one
	// HTTP worker and one cell per lease instead of the in-process
	// executor.
	cluster bool
	// repeatEvery > 0 makes every repeatEvery-th submission resubmit an
	// earlier request, which the result cache answers.
	repeatEvery int
	// request builds the job for one generated seed.
	request func(seed uint64) serve.SweepRequest
}

var workloads = []workload{
	{
		// Default 108-cell phase diagram at d=128: oracle construction
		// (and the α probe in the submit handler) dominates.
		name: "grid-setup",
		request: func(seed uint64) serve.SweepRequest {
			return serve.SweepRequest{Dim: 128, Iters: 400, Seed: &seed}
		},
	},
	{
		// Same grid at d=32 with 10× the iterations: the simulated
		// machine, its scheduler and the contention tracker dominate.
		name: "grid-loop",
		request: func(seed uint64) serve.SweepRequest {
			return serve.SweepRequest{Dim: 32, Iters: 4000, Seed: &seed}
		},
	},
	{
		// Same axes on real goroutines: the bounded-staleness gate and
		// the atomic run kernels.
		name: "hogwild-gate",
		request: func(seed uint64) serve.SweepRequest {
			return serve.SweepRequest{Runtime: "hogwild", Dim: 32, Iters: 100000, Seed: &seed}
		},
	},
	{
		// Small 4-cell jobs through the leased cluster path.
		name:        "jobs-cluster",
		cluster:     true,
		repeatEvery: 4,
		request: func(seed uint64) serve.SweepRequest {
			return serve.SweepRequest{
				Taus: []int{1, 4}, Workers: []int{1, 2}, Sparsity: []float64{0.3},
				Replicates: 1, Dim: 32, Iters: 60, Seed: &seed,
			}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repeatWindow bounds how far back a repeat reaches: the last 16 fresh
// requests all still sit in the server's 32-entry result cache.
const repeatWindow = 16

// Generator streams, split from the workload seed.
const (
	jobSeedStream = 1
	repeatStream  = 2
	warmupStream  = 3
	spotStream    = 1 << 32 // + job index: the cells a spot check reruns
)

// jobStream yields a run's requests in submission order.
type jobStream struct {
	w     workload
	seeds *rng.Rand
	picks *rng.Rand
	reqs  []serve.SweepRequest
	fresh []int // indices of the fresh requests so far
}

func newJobStream(w workload, seed uint64) *jobStream {
	return &jobStream{
		w:     w,
		seeds: rng.NewStream(seed, jobSeedStream),
		picks: rng.NewStream(seed, repeatStream),
	}
}

// next returns the next request and, for a repeat, the index of the
// submission it repeats (-1 for a fresh request).
func (s *jobStream) next() (serve.SweepRequest, int) {
	i := len(s.reqs)
	if s.w.repeatEvery > 0 && (i+1)%s.w.repeatEvery == 0 && len(s.fresh) > 0 {
		recent := s.fresh[max(0, len(s.fresh)-repeatWindow):]
		k := recent[s.picks.Intn(len(recent))]
		s.reqs = append(s.reqs, s.reqs[k])
		return s.reqs[k], k
	}
	req := s.w.request(s.seeds.Uint64())
	s.fresh = append(s.fresh, i)
	s.reqs = append(s.reqs, req)
	return req, -1
}

// warmupRequest is the job every set-up runs before the window: the
// workload's request cut to its first grid point, with a seed of its own.
func warmupRequest(w workload, seed uint64) serve.SweepRequest {
	// The workload requests are constants that always normalize.
	req, _ := w.request(rng.NewStream(seed, warmupStream).Uint64()).Normalized()
	req.Taus, req.Workers, req.Sparsity, req.Replicates = req.Taus[:1], req.Workers[:1], req.Sparsity[:1], 1
	return req
}
