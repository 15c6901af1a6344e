// Package serve turns the concurrent scenario-sweep engine into a
// long-running service: sweep specifications arrive as JSON over HTTP,
// execute on the internal/sweep weighted pool, and stream per-cell
// results back as NDJSON or SSE, ending with the same asgdbench/v2
// aggregate document `asgdbench sweep -json` prints — byte-identical
// modulo the two timing fields, because both front ends run the request
// through this package's RunRequest.
//
// The package splits into three layers:
//
//   - SweepRequest (this file): the JSON job specification, its defaults
//     (exactly the asgdbench sweep flag defaults), validation, expansion
//     into sweep.Specs, and the deterministic cache key derived from the
//     expanded cells' seed-split coordinates.
//   - RunRequest (document.go): request → asgdbench/v2 Report, shared
//     verbatim with cmd/asgdbench.
//   - Server (serve.go): the bounded job queue, the in-memory LRU result
//     cache, the streaming endpoints and graceful drain.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"asyncsgd/internal/experiments"
	"asyncsgd/internal/sweep"
)

// Default axis values of a SweepRequest: the `asgdbench sweep` flag
// defaults, so an empty request ({}) is the CLI's default 108-cell
// machine grid.
var (
	DefaultTaus     = []int{1, 2, 4, 8}
	DefaultWorkers  = []int{1, 2, 4}
	DefaultSparsity = []float64{0.15, 0.3, 0.6}
)

// Remaining request defaults.
const (
	DefaultDim        = 32
	DefaultReplicates = 3
	DefaultIters      = 400
	DefaultSeed       = 1701
	DefaultAdversary  = 24
	DefaultRuntime    = "machine"
)

// SweepRequest is the JSON body of POST /v1/sweeps: the staleness
// phase-diagram grid of experiments.PhaseDiagramSpec, one field per
// `asgdbench sweep` flag. Zero/absent fields take the CLI defaults
// (Seed and Adversary are pointers because 0 is a meaningful value for
// both: seed 0 is a valid spec seed, adversary 0 selects the round-robin
// scheduler).
type SweepRequest struct {
	// Taus is the bounded-staleness gate axis (default 1,2,4,8).
	Taus []int `json:"taus,omitempty"`
	// Workers is the goroutine/thread-count axis (default 1,2,4).
	Workers []int `json:"workers,omitempty"`
	// Sparsity is the oracle row-density axis (default 0.15,0.3,0.6).
	Sparsity []float64 `json:"sparsity,omitempty"`
	// Dim is the model dimension (default 32).
	Dim int `json:"dim,omitempty"`
	// Replicates is the number of seed replicates per grid point
	// (default 3).
	Replicates int `json:"replicates,omitempty"`
	// Iters is the per-cell iteration budget (default 400).
	Iters int `json:"iters,omitempty"`
	// Seed is the spec seed per-cell seeds are split from (default 1701).
	Seed *uint64 `json:"seed,omitempty"`
	// Adversary is the MaxStale budget of machine cells; 0 selects the
	// round-robin scheduler (default 24).
	Adversary *int `json:"adversary,omitempty"`
	// Runtime is "machine", "hogwild" or "both" (default "machine").
	// Only machine sweeps are deterministic and therefore cacheable.
	Runtime string `json:"runtime,omitempty"`
	// Pin pins hogwild worker goroutines to OS threads
	// (sweep.Spec.PinWorkers). It affects timing only, never results,
	// so it is deliberately excluded from the cache key: a pinned and an
	// unpinned request for the same machine grid share cached results.
	Pin bool `json:"pin_workers,omitempty"`
	// Faults is the crash/rejoin fault axis: sweep.ParseFaults labels
	// ("none", "crash/1", "ticket/1/rejoin", …; default ["none"]).
	Faults []string `json:"faults,omitempty"`
	// Byzantine is the gradient-corruption axis: sweep.ParseByzantine
	// labels ("none", "signflip/1", "scale/2", "nan/1"; default ["none"]).
	Byzantine []string `json:"byzantine,omitempty"`
	// Defenses is the defense axis: sweep.ParseDefense labels ("none",
	// "clip/5", "median"; default ["none"]). "median" replaces the cell
	// strategy with the hogwild coordinate-median aggregator and is only
	// accepted when Runtime is "hogwild".
	Defenses []string `json:"defenses,omitempty"`
	// TelemetryMS opts the job into live "telemetry" events on its event
	// stream: every running hogwild cell is sampled at this period (in
	// milliseconds) and the snapshots interleave with "cell" events. 0
	// disables telemetry. Machine cells never emit telemetry (the
	// simulator has no live gauges), so a machine-only request with
	// TelemetryMS set streams exactly as if it were 0 — which is also why
	// the field is excluded from the cache key: only machine sweeps are
	// cacheable, and for them telemetry changes nothing.
	TelemetryMS int `json:"telemetry_ms,omitempty"`
}

// ErrBadRequest reports an invalid sweep request.
var ErrBadRequest = fmt.Errorf("serve: invalid sweep request")

// Normalized returns a copy with every absent field replaced by its
// default, or an error when an explicit field is invalid. Two requests
// with equal normalized forms describe the same grid.
func (q SweepRequest) Normalized() (SweepRequest, error) {
	if len(q.Taus) == 0 {
		q.Taus = DefaultTaus
	}
	if len(q.Workers) == 0 {
		q.Workers = DefaultWorkers
	}
	if len(q.Sparsity) == 0 {
		q.Sparsity = DefaultSparsity
	}
	if q.Dim == 0 {
		q.Dim = DefaultDim
	}
	if q.Replicates == 0 {
		q.Replicates = DefaultReplicates
	}
	if q.Iters == 0 {
		q.Iters = DefaultIters
	}
	if q.Seed == nil {
		seed := uint64(DefaultSeed)
		q.Seed = &seed
	}
	if q.Adversary == nil {
		adv := DefaultAdversary
		q.Adversary = &adv
	}
	if q.Runtime == "" {
		q.Runtime = DefaultRuntime
	}

	for _, tau := range q.Taus {
		if tau < 1 {
			return q, fmt.Errorf("%w: tau %d (want ≥ 1)", ErrBadRequest, tau)
		}
	}
	for _, w := range q.Workers {
		if w < 1 {
			return q, fmt.Errorf("%w: workers %d (want ≥ 1)", ErrBadRequest, w)
		}
	}
	for _, keep := range q.Sparsity {
		if keep <= 0 || keep > 1 {
			return q, fmt.Errorf("%w: sparsity %g (want in (0,1])", ErrBadRequest, keep)
		}
	}
	if q.Dim < 1 {
		return q, fmt.Errorf("%w: dim %d (want ≥ 1)", ErrBadRequest, q.Dim)
	}
	if q.Replicates < 1 {
		return q, fmt.Errorf("%w: replicates %d (want ≥ 1)", ErrBadRequest, q.Replicates)
	}
	if q.Iters < 1 {
		return q, fmt.Errorf("%w: iters %d (want ≥ 1)", ErrBadRequest, q.Iters)
	}
	if *q.Adversary < 0 {
		return q, fmt.Errorf("%w: adversary %d (want ≥ 0)", ErrBadRequest, *q.Adversary)
	}
	switch q.Runtime {
	case "machine", "hogwild", "both":
	default:
		return q, fmt.Errorf("%w: runtime %q (want machine, hogwild or both)", ErrBadRequest, q.Runtime)
	}
	if q.TelemetryMS < 0 {
		return q, fmt.Errorf("%w: telemetry_ms %d (want ≥ 0)", ErrBadRequest, q.TelemetryMS)
	}
	if len(q.Faults) == 0 {
		q.Faults = []string{"none"}
	}
	if len(q.Byzantine) == 0 {
		q.Byzantine = []string{"none"}
	}
	if len(q.Defenses) == 0 {
		q.Defenses = []string{"none"}
	}
	for _, label := range q.Faults {
		if _, err := sweep.ParseFaults(label); err != nil {
			return q, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	for _, label := range q.Byzantine {
		if _, err := sweep.ParseByzantine(label); err != nil {
			return q, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	for _, label := range q.Defenses {
		d, err := sweep.ParseDefense(label)
		if err != nil {
			return q, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		// Coordinate-median aggregation is a round-membership barrier; it
		// has no machine implementation, so a request whose machine cells
		// would all fail under it is rejected up front.
		if d.Median && q.Runtime != "hogwild" {
			return q, fmt.Errorf("%w: defense %q requires runtime \"hogwild\" (got %q)", ErrBadRequest, label, q.Runtime)
		}
	}
	return q, nil
}

// runtimes expands the Runtime field in the CLI's fixed order
// (machine before hogwild under "both"). The request must be normalized.
func (q SweepRequest) runtimes() []sweep.Runtime {
	switch q.Runtime {
	case "machine":
		return []sweep.Runtime{sweep.Machine}
	case "hogwild":
		return []sweep.Runtime{sweep.Hogwild}
	default: // "both"
		return []sweep.Runtime{sweep.Machine, sweep.Hogwild}
	}
}

// Specs expands a normalized request into its phase-diagram sweep spec,
// exactly as the `asgdbench sweep` subcommand does. The slice always
// holds exactly one spec: "both" puts the two runtimes on the spec's
// runtime axis (machine cells first), so cell indices are document
// indices for every request.
func (q SweepRequest) Specs() ([]sweep.Spec, error) {
	q, err := q.Normalized()
	if err != nil {
		return nil, err
	}
	spec, err := experiments.PhaseDiagramSpec(experiments.PhaseOpts{
		Runtimes:   q.runtimes(),
		Taus:       q.Taus,
		Workers:    q.Workers,
		Keeps:      q.Sparsity,
		Dim:        q.Dim,
		Replicates: q.Replicates,
		Iters:      q.Iters,
		Seed:       *q.Seed,
		Adversary:  *q.Adversary,
		Pin:        q.Pin,
		Faults:     q.Faults,
		Byzantine:  q.Byzantine,
		Defenses:   q.Defenses,
	})
	if err != nil {
		return nil, err
	}
	return []sweep.Spec{spec}, nil
}

// Cacheable reports whether the request's results are deterministic and
// may therefore be served from the result cache: machine-only sweeps are
// (the simulator is bit-reproducible regardless of pool interleaving);
// hogwild cells race real goroutines, so their results must be
// recomputed per job.
func (q SweepRequest) Cacheable() bool { return q.Runtime == "machine" }

// expand normalizes the request and expands its grid once, returning
// the normalized form, the cache key and the total cell count together
// — the submit path needs all three, and building the specs (which
// probes one oracle instance per sparsity value to derive the step
// size) is the expensive part, so it happens a single time.
func (q SweepRequest) expand() (norm SweepRequest, key string, cells int, err error) {
	norm, err = q.Normalized()
	if err != nil {
		return norm, "", 0, err
	}
	specs, err := norm.Specs()
	if err != nil {
		return norm, "", 0, err
	}
	expanded, err := specs[0].Cells()
	if err != nil {
		return norm, "", 0, err
	}
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	word(uint64(norm.Iters))
	word(uint64(*norm.Adversary))
	_, _ = h.Write([]byte(specs[0].Name))
	word(uint64(len(expanded)))
	for _, c := range expanded {
		word(c.Seed)
	}
	return norm, fmt.Sprintf("%016x", h.Sum64()), len(expanded), nil
}

// Key is the request's deterministic cache key: an FNV-1a fold of the
// expanded grid's seed-split cell coordinates (each cell's split seed
// already encodes the spec seed and every axis value) together with the
// execution parameters the cells do not carry — per-cell iteration
// budget and the machine adversary budget. Two requests that normalize
// to the same grid — say, an empty request and one spelling out every
// default — share a key by construction.
func (q SweepRequest) Key() (string, error) {
	_, key, _, err := q.expand()
	return key, err
}

// CellCount returns the number of grid cells the request expands to,
// without running anything.
func (q SweepRequest) CellCount() (int, error) {
	_, _, cells, err := q.expand()
	return cells, err
}
