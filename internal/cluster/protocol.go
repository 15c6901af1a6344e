// Package cluster splits asgdserve's sweep execution across machines: a
// coordinator owns the job queue, grid expansion and result cache (all
// of which stay in internal/serve — the coordinator plugs into the
// server as its Dispatcher and Journal), and N worker nodes register
// over HTTP, lease cell batches with a deadline, execute them through
// the same internal/sweep pipeline as the CLI, and stream CellResults
// back as NDJSON.
//
// The protocol leans entirely on the sweep engine's seed-split cell
// coordinates: a cell's deterministic fields are a pure function of
// (spec, seed), and its seed is derived from the cell's own grid
// coordinates — never from execution order, grid partitioning, or which
// process runs it. Re-executing a cell after a lost lease is therefore
// safe and byte-stable, which is what makes the failure handling simple:
// a lease that misses its deadline (worker crash, network partition, or
// just slowness) is revoked and its incomplete cells requeue; duplicate
// results from a zombie worker are deduplicated by document cell index; and the reassembled document is byte-identical to a
// single-process run modulo the two documented timing fields.
//
// Endpoints (mounted by Coordinator.Mount around the serve API):
//
//	POST /cluster/v1/register    {name} → {worker_id, lease_ttl_ms, poll_ms}
//	POST /cluster/v1/lease       {worker_id} → 200 lease | 204 no work
//	POST /cluster/v1/report/{lease}  NDJSON CellResult stream → {accepted, duplicates}
//	POST /cluster/v1/heartbeat   {worker_id, lease_id} → 204
//	GET  /cluster/v1/status      workers, leases, active jobs
//
// A revoked or unknown lease/worker answers 410 Gone: the worker drops
// its batch (the coordinator has already requeued it) and, for an
// unknown worker id, re-registers under a fresh identity — crash/rejoin
// is just deregistration plus a new name.
package cluster

import "asyncsgd/internal/serve"

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a human-readable worker label (hostname, pod name); the
	// coordinator's worker id, not the name, is the identity.
	Name string `json:"name"`
}

// RegisterResponse assigns the worker its identity and the protocol
// timing parameters.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is the lease deadline in milliseconds: a lease not
	// completed or heartbeat-extended within it is revoked and its
	// incomplete cells requeue.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// PollMS is the suggested idle poll interval for Lease calls.
	PollMS int64 `json:"poll_ms"`
}

// LeaseRequest asks for a cell batch.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseResponse grants a batch of cells from one job's grid. The worker
// expands the normalized request with SweepRequest.Specs() into its one
// spec and runs exactly Cells through sweep.RunSubset — the same
// expansion every other worker and the CLI perform, so the grid is never
// shipped cell-by-cell, only named. Coordinator and workers must
// therefore come from one build: a worker that expands the request
// differently would run the wrong cells.
type LeaseResponse struct {
	LeaseID string `json:"lease_id"`
	JobID   string `json:"job_id"`
	// Request is the job's normalized sweep request.
	Request serve.SweepRequest `json:"request"`
	// Cells are the document cell indices to execute (sweep.RunSubset
	// input); results come back carrying the same indices.
	Cells []int `json:"cells"`
	// DeadlineMS is the lease TTL in milliseconds from grant time.
	DeadlineMS int64 `json:"deadline_ms"`
}

// HeartbeatRequest extends a lease's deadline while a long batch runs.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
}

// ReportAck summarizes an NDJSON report stream: how many results were
// applied and how many were duplicates of cells another lease already
// completed (requeue overlap — harmless by byte-stability, counted for
// observability).
type ReportAck struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// StatusWorker is one registered worker in the GET /cluster/v1/status
// document.
type StatusWorker struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	LastSeen string `json:"last_seen"`
}

// StatusLease is one live lease in the status document.
type StatusLease struct {
	ID       string `json:"id"`
	Worker   string `json:"worker"`
	Job      string `json:"job"`
	Cells    []int  `json:"cells"`
	Deadline string `json:"deadline"`
}

// Status is the GET /cluster/v1/status document.
type Status struct {
	Workers []StatusWorker `json:"workers"`
	Leases  []StatusLease  `json:"leases"`
	// Jobs maps each active (dispatching) job id to its remaining
	// unleased cell count.
	Jobs map[string]int `json:"jobs"`
}
