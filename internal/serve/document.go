package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"asyncsgd/internal/sweep"
)

// The asgdbench/v2 JSON document, shared by `asgdbench sweep -json`,
// `asgdbench -json` and the serve result endpoint. cmd/asgdbench aliases
// these types, so the two front ends cannot drift apart: a sweep
// submitted over HTTP yields the same bytes as the CLI run of the same
// request, modulo the timing fields (seconds, updates_per_sec).

// ExperimentRecord is one experiment's machine-readable record (the v1
// part of the schema; produced by `asgdbench -json`, never by serve).
type ExperimentRecord struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	Output  string  `json:"output"`
}

// SweepRecord is the sweep record v2 adds over v1: the spec identity,
// the aggregated table text, and one record per cell in deterministic
// cell-index order.
type SweepRecord struct {
	Name    string             `json:"name"`
	Seed    uint64             `json:"seed"`
	Cells   int                `json:"cells"`
	Seconds float64            `json:"seconds"`
	Table   string             `json:"table"`
	Results []sweep.CellResult `json:"results"`
}

// Report is the top-level asgdbench/v2 document.
type Report struct {
	Schema  string             `json:"schema"`
	Scale   string             `json:"scale,omitempty"`
	Results []ExperimentRecord `json:"results,omitempty"`
	Sweep   *SweepRecord       `json:"sweep,omitempty"`
}

// Encode writes the document in the canonical on-the-wire form: two-space
// indent, trailing newline — the exact bytes `asgdbench -json` prints and
// the serve result endpoint returns.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FailedCells counts sweep cells that recorded an error.
func (r *Report) FailedCells() int {
	if r.Sweep == nil {
		return 0
	}
	n := 0
	for i := range r.Sweep.Results {
		if r.Sweep.Results[i].Err != "" {
			n++
		}
	}
	return n
}

// RunRequest executes a sweep request end to end: normalize, expand into
// its one spec, run the cells on the weighted pool, and fold everything
// into the asgdbench/v2 document. Per-cell results stream through
// onResult (when non-nil) as cells complete, carrying their document
// indices. Canceling ctx stops the sweep between cells (see
// sweep.RunContext) and returns ctx.Err(); no document is produced.
//
// Failed cells do not fail the run — they are recorded in their
// CellResult.Err exactly as the engine left them (callers gate on
// Report.FailedCells).
func RunRequest(ctx context.Context, req SweepRequest, onResult func(sweep.CellResult)) (*Report, error) {
	return RunRequestStream(ctx, req, onResult, nil)
}

// RunRequestStream is RunRequest with a live telemetry tap: when
// onTelemetry is non-nil and the request opted in (TelemetryMS > 0),
// every running hogwild cell is sampled at the requested period and the
// snapshots are delivered — serialized with onResult, carrying the same
// document cell indices — as they are taken. Telemetry never changes the
// returned document; it is a presentation-layer side channel.
func RunRequestStream(ctx context.Context, req SweepRequest, onResult func(sweep.CellResult), onTelemetry func(sweep.TelemetrySample)) (*Report, error) {
	req, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	specs, err := req.Specs()
	if err != nil {
		return nil, err
	}
	spec := specs[0]
	spec.OnResult = onResult
	if onTelemetry != nil && req.TelemetryMS > 0 {
		spec.TelemetryEvery = time.Duration(req.TelemetryMS) * time.Millisecond
		spec.OnTelemetry = onTelemetry
	}
	//asgdvet:allow nondet(feeds only the seconds fields, documented as nondeterministic; the table is timing-free)
	start := time.Now()
	results, err := sweep.RunContext(ctx, spec)
	if err != nil {
		return nil, err
	}
	//asgdvet:allow nondet(feeds only the seconds fields, documented as nondeterministic; the table is timing-free)
	elapsed := time.Since(start)
	return AssembleReport(req, []string{spec.Name}, results, elapsed), nil
}

// AssembleReport folds a complete, cell-index-ordered result slice into
// the asgdbench/v2 document. It is the single assembly point shared by
// the in-process executor (RunRequestStream above) and the cluster
// coordinator's reassembly of worker-reported cells — the same function
// produces the document either way, so the distributed and local paths
// cannot drift: for a deterministic grid the bytes differ only in the
// documented timing fields (seconds, updates_per_sec). The request must
// be normalized, names are joined with "+" into the document name (the
// executors pass their one spec's name, which already joins the runtimes
// under "both"), and results must carry their document indices in
// ascending order.
func AssembleReport(req SweepRequest, names []string, results []sweep.CellResult, elapsed time.Duration) *Report {
	// The note stays timing-free so the document's table field is
	// byte-identical across reruns; wall-clock lives in the seconds
	// fields.
	tbl := sweep.Table("staleness phase diagram (sweep engine)", sweep.Aggregate(results))
	tbl.Note = fmt.Sprintf("%d cells; τ=%v × workers=%v × keep=%v × %d replicates",
		len(results), req.Taus, req.Workers, req.Sparsity, req.Replicates)
	return &Report{
		Schema: sweep.SchemaV2,
		Sweep: &SweepRecord{
			Name:    strings.Join(names, "+"),
			Seed:    *req.Seed,
			Cells:   len(results),
			Seconds: elapsed.Seconds(),
			Table:   tbl.String(),
			Results: results,
		},
	}
}
